//! The complete paper flow with **every leg over real loopback TCP** and
//! no in-process handle sharing between the actors:
//!
//! * token issuance: subscriber → `IssuerService` behind a direct socket,
//! * conditions query + oblivious registration (the §V-B OCBE round-trip):
//!   subscriber → `PublisherService` behind a direct socket — the
//!   subscriber rebuilds its own `OcbeSystem` from the `Conditions`
//!   response, sharing nothing with the publisher,
//! * broadcast + decryption: publisher → untrusted broker → subscribers,
//! * revocation taking effect on the next broadcast.
//!
//! Plus the protocol-level security assertions: the publisher-side state
//! is identical for qualified and non-qualified registrants (obliviousness
//! observed over the wire), and the registration endpoint is total —
//! garbage bytes get a typed error response and the service keeps serving.

use pbcd::core::proto::{self, Request, Response};
use pbcd::core::{
    IdentityManager, IdentityProvider, IssuerService, NetPublisher, NetSubscriber, PbcdError,
    Publisher, PublisherService, Subscriber,
};
use pbcd::group::P256Group;
use pbcd::net::{Broker, BrokerClient, PeerRole, RegistrationClient, RegistrationServer};
use pbcd::policy::{
    AccessControlPolicy, AttributeCondition, AttributeSet, ComparisonOp, PolicySet,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::SocketAddr;

const DIAGNOSIS: &str = "metastatic carcinoma, stage IV, immediate treatment";
const BILLING: &str = "invoice total 12408 USD, insurer Aetna-X";

fn policies() -> PolicySet {
    let mut set = PolicySet::new();
    set.add(AccessControlPolicy::new(
        vec![AttributeCondition::eq_str("role", "doctor")],
        &["Diagnosis"],
        "ward.xml",
    ));
    set.add(AccessControlPolicy::new(
        vec![AttributeCondition::new("clearance", ComparisonOp::Ge, 5)],
        &["Billing"],
        "ward.xml",
    ));
    set
}

fn ward_report() -> pbcd::docs::Element {
    use pbcd::docs::Element;
    Element::new("WardReport")
        .child(Element::new("Diagnosis").text(DIAGNOSIS))
        .child(Element::new("Billing").text(BILLING))
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

/// The container bytes the broker retains for `document`, as a fresh
/// subscriber's replay delivers them: everything a compromise of the
/// broker would leak for it. Frame decoding is strict and the encoding
/// canonical, so these are the bytes that crossed the wire.
fn delivered_to_auditor(broker: SocketAddr, document: &str) -> Vec<u8> {
    let mut auditor = BrokerClient::connect(broker, PeerRole::Subscriber).expect("auditor");
    auditor.subscribe(&[document]).expect("auditor subscribes");
    let container = auditor
        .next_delivery()
        .expect("replay of the retained container");
    auditor.bye().expect("auditor leaves");
    container.encode().expect("container encodes")
}

/// One subscriber whose entire onboarding crosses sockets: issuance over
/// the issuer endpoint, registration over the publisher endpoint.
fn onboard_over_tcp(
    attrs: AttributeSet,
    subject: &str,
    issuer_addr: std::net::SocketAddr,
    reg_addr: std::net::SocketAddr,
    seed: u64,
) -> (Subscriber<P256Group>, usize) {
    let group = P256Group::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sub = Subscriber::new(attrs);
    let installed = pbcd::core::session::fetch_tokens_via(&mut sub, &group, issuer_addr, subject)
        .expect("issuance over TCP");
    assert!(installed > 0, "tokens installed for {subject}");
    let extracted = pbcd::core::session::register_all_via(&mut sub, &group, reg_addr, &mut rng)
        .expect("registration over TCP");
    (sub, extracted)
}

#[test]
fn full_paper_flow_every_leg_over_loopback_tcp() {
    let group = P256Group::new();
    let mut rng = StdRng::seed_from_u64(0x50C7);

    // Issuer (IdP + IdMgr) behind its own direct socket.
    let idp = IdentityProvider::new(group.clone(), "hospital-hr", &mut rng);
    let mut idmgr = IdentityManager::new(group.clone(), &mut rng);
    // Pre-allocate nyms so we can name them in assertions below.
    let doctor_nym = idmgr.nym_for("dora");
    let clerk_nym = idmgr.nym_for("carl");
    let idmgr_key = idmgr.verifying_key();
    let issuer = IssuerService::new(idp, idmgr, 0x15);
    let issuer_server =
        RegistrationServer::bind("127.0.0.1:0", move |req: &[u8]| issuer.handle(req))
            .expect("bind issuer endpoint");
    let issuer_addr = issuer_server.addr();

    // Publisher: broadcasts ride the untrusted broker; registration gets
    // its own direct endpoint the broker never sees.
    let broker = Broker::bind("127.0.0.1:0").expect("bind broker");
    let publisher = Publisher::new(group.clone(), idmgr_key, policies());
    let mut net_pub =
        NetPublisher::connect_service(PublisherService::new(publisher, 0), broker.addr())
            .expect("publisher connects to broker");
    let reg_addr = net_pub
        .serve_registration("127.0.0.1:0", 0x9E6)
        .expect("bind registration endpoint");

    // Subscribers onboard entirely over sockets. The qualified doctor
    // extracts both CSSs; the clerk (wrong role, low clearance) extracts
    // none — but registers for everything, and the publisher cannot tell.
    let (doctor, doctor_css) = onboard_over_tcp(
        AttributeSet::new()
            .with_str("role", "doctor")
            .with("clearance", 7),
        "dora",
        issuer_addr,
        reg_addr,
        1,
    );
    let (clerk, clerk_css) = onboard_over_tcp(
        AttributeSet::new()
            .with_str("role", "clerk")
            .with("clearance", 1),
        "carl",
        issuer_addr,
        reg_addr,
        2,
    );
    assert_eq!(doctor_css, 2, "doctor opens both envelopes");
    assert_eq!(clerk_css, 0, "clerk opens none — and only the clerk knows");

    // Obliviousness observed at the publisher: its state treats the
    // qualified and the non-qualified registrant identically — one CSS
    // record per registered condition for each, no errors, no distinction.
    net_pub.with_publisher(|p| {
        let table = p.shared_css_table();
        let conds = p.policies().distinct_conditions();
        assert_eq!(table.record_count(), 4, "2 conditions × 2 registrants");
        for cond in &conds {
            for nym in [&doctor_nym, &clerk_nym] {
                assert!(
                    table.get(&pbcd::gkm::Nym::new(nym), cond).is_some(),
                    "record for ({nym}, {cond}) regardless of qualification"
                );
            }
        }
    });
    let stats = net_pub.service_stats();
    assert_eq!(stats.registrations, 4, "all four registrations served");
    assert_eq!(stats.errors, 0, "no registration was distinguishable-bad");

    // Dissemination over the broker.
    let policies = net_pub.policies();
    let mut net_doctor =
        NetSubscriber::connect(doctor, broker.addr(), &["ward.xml"]).expect("doctor connects");
    let mut net_clerk =
        NetSubscriber::connect(clerk, broker.addr(), &["ward.xml"]).expect("clerk connects");
    let receipt = net_pub
        .broadcast(&ward_report(), "ward.xml", &mut rng)
        .expect("broadcast");
    assert_eq!(receipt.fanout, 2);

    let (c1, doctor_view) = net_doctor.recv_document(&policies).expect("doctor recv");
    assert_eq!(
        doctor_view.find("Diagnosis").map(|e| e.direct_text()),
        Some(DIAGNOSIS.to_string())
    );
    assert_eq!(
        doctor_view.find("Billing").map(|e| e.direct_text()),
        Some(BILLING.to_string())
    );
    let (_, clerk_view) = net_clerk.recv_document(&policies).expect("clerk recv");
    assert!(clerk_view.find("Diagnosis").is_none());
    assert!(clerk_view.find("Billing").is_none());

    // The broker retains ciphertext only — and never saw registration at
    // all (its transport carries no such frames; different socket).
    let retained = delivered_to_auditor(broker.addr(), "ward.xml");
    for fragment in [DIAGNOSIS, BILLING, "carcinoma", "12408"] {
        assert!(
            !contains(&retained, fragment.as_bytes()),
            "plaintext fragment {fragment:?} leaked to the broker"
        );
    }
    assert_eq!(c1.epoch, 1);

    // Revocation: publisher-local row deletion; the next broadcast rekeys
    // and the doctor fails closed — no message to anyone, observed over
    // the same sockets.
    assert!(net_pub.revoke_subscriber(&doctor_nym));
    net_pub
        .broadcast(&ward_report(), "ward.xml", &mut rng)
        .expect("post-revocation broadcast");
    let (c2, view2) = net_doctor.recv_document(&policies).expect("recv 2");
    assert_eq!(c2.epoch, 2);
    assert!(
        view2.find("Diagnosis").is_none() && view2.find("Billing").is_none(),
        "revoked subscriber fails closed on the post-revocation epoch"
    );

    let publisher = net_pub.disconnect().expect("publisher disconnects");
    assert_eq!(publisher.epoch(), 2);
    issuer_server.shutdown();
    broker.shutdown();
}

/// Wire-level obliviousness: for the *same* condition, the registration
/// responses to a qualified and a non-qualified subscriber are
/// structurally identical (same kind, same length), and the publisher's
/// table grows identically — nothing observable distinguishes them.
#[test]
fn registration_responses_indistinguishable_over_the_wire() {
    let group = P256Group::new();
    let mut rng = StdRng::seed_from_u64(0x0B11);

    let idp = IdentityProvider::new(group.clone(), "hr", &mut rng);
    let idmgr = IdentityManager::new(group.clone(), &mut rng);
    let idmgr_key = idmgr.verifying_key();
    let issuer = IssuerService::new(idp, idmgr, 7);
    let issuer_server =
        RegistrationServer::bind("127.0.0.1:0", move |req: &[u8]| issuer.handle(req))
            .expect("bind issuer");

    let publisher = Publisher::new(group.clone(), idmgr_key, policies());
    let service = PublisherService::new(publisher, 0xAB);
    let reg_server = RegistrationServer::bind("127.0.0.1:0", move |req: &[u8]| service.handle(req))
        .expect("bind registration");

    let cond = AttributeCondition::new("clearance", ComparisonOp::Ge, 5);
    let mut lengths = Vec::new();
    for (subject, clearance, seed) in [("alice", 9u64, 11u64), ("mallory", 2, 12)] {
        let mut sub: Subscriber<P256Group> =
            Subscriber::new(AttributeSet::new().with("clearance", clearance));
        pbcd::core::session::fetch_tokens_via(&mut sub, &group, issuer_server.addr(), subject)
            .expect("issuance");
        let mut client = RegistrationClient::connect(reg_server.addr()).expect("connect");
        let info = pbcd::core::session::fetch_conditions(&group, &mut client).expect("conditions");
        let mut sub_rng = StdRng::seed_from_u64(seed);
        let session = pbcd::core::RegistrationSession::new(&mut sub, group.clone(), info.ell);
        let (request, pending) = session.start(&cond, &mut sub_rng).expect("start");
        let response = client.call(&request).expect("call");
        assert!(
            !proto::is_error_response(&response),
            "{subject}: registration must be served, qualified or not"
        );
        lengths.push(response.len());
        let opened = pending.complete(&response).expect("complete");
        assert_eq!(opened, clearance >= 5, "only the subscriber learns this");
        client.close().expect("close");
    }
    assert_eq!(
        lengths[0], lengths[1],
        "qualified and non-qualified responses are byte-length identical"
    );
    reg_server.shutdown();
    issuer_server.shutdown();
}

/// The registration endpoint is total: hostile bytes on the socket get a
/// typed error response, and the very same connection keeps being served.
#[test]
fn garbage_on_the_registration_socket_yields_typed_errors_and_service_survives() {
    let group = P256Group::new();
    let mut rng = StdRng::seed_from_u64(0xBAD);

    let idp = IdentityProvider::new(group.clone(), "hr", &mut rng);
    let idmgr = IdentityManager::new(group.clone(), &mut rng);
    let idmgr_key = idmgr.verifying_key();
    let issuer = IssuerService::new(idp, idmgr, 3);
    let issuer_server =
        RegistrationServer::bind("127.0.0.1:0", move |req: &[u8]| issuer.handle(req))
            .expect("bind issuer");

    let publisher = Publisher::new(group.clone(), idmgr_key, policies());
    let service = PublisherService::new(publisher, 5);
    let reg_server = RegistrationServer::bind("127.0.0.1:0", move |req: &[u8]| service.handle(req))
        .expect("bind registration");

    let mut client = RegistrationClient::connect(reg_server.addr()).expect("connect");

    // Garbage of every flavour: wrong magic, truncated header, random
    // noise — and kind 6, the byte of a batch kind that no longer exists.
    for garbage in [
        b"XXXXXXXX".to_vec(),
        vec![0x50, 0x50, 1, 99], // right magic, unknown kind
        b"PP\x01\x06\0\x01\0\0\0\x01a\0\0\0\x01b\0\0\0\0\0\0\0\x07".to_vec(),
        vec![0xFF; 64],
        b"PP\x02\x01\0\0\0\0".to_vec(), // wrong version
    ] {
        let response = client.call(&garbage).expect("served, not dropped");
        assert!(
            proto::is_error_response(&response),
            "garbage {garbage:?} → typed error response"
        );
        match Response::<P256Group>::decode(&group, &response).expect("error decodes") {
            Response::Error(e) => assert_eq!(e.code, proto::ErrorCode::Malformed),
            other => panic!("expected error response, got {other:?}"),
        }
    }

    // A replayed registration request is served both times (fresh CSS
    // overrides — the paper's credential-update semantics) and the table
    // does not grow.
    let mut sub: Subscriber<P256Group> = Subscriber::new(AttributeSet::new().with("clearance", 8));
    pbcd::core::session::fetch_tokens_via(&mut sub, &group, issuer_server.addr(), "rita")
        .expect("issuance");
    let cond = AttributeCondition::new("clearance", ComparisonOp::Ge, 5);
    let session = pbcd::core::RegistrationSession::new(&mut sub, group.clone(), 48);
    let (request, pending) = session.start(&cond, &mut rng).expect("start");
    let first = client.call(&request).expect("first");
    let replay = client.call(&request).expect("replay");
    assert!(!proto::is_error_response(&first));
    assert!(!proto::is_error_response(&replay));
    // Completing against the *replay* response works: the envelope holds
    // the (re-issued) CSS and the proof secrets still match the proof.
    assert!(pending.complete(&replay).expect("complete"));

    // And the normal flow still works on the same connection afterwards.
    let info = pbcd::core::session::fetch_conditions(&group, &mut client).expect("conditions");
    assert_eq!(info.conditions.len(), 2);
    client.close().expect("close");
    reg_server.shutdown();
    issuer_server.shutdown();
}

/// The batch registration endpoint over real TCP: `register_all_via`
/// sends one `RegisterBatch` frame per ≤ 64 conditions (one round-trip,
/// one batched token-signature check server-side) and no single
/// `Register`, extraction matches what one round-trip per condition
/// yields, and a bad item inside a batch fails alone — its cohort still
/// gets envelopes.
#[test]
fn batch_registration_over_tcp_matches_sequential_and_isolates_bad_items() {
    let group = P256Group::new();
    let mut rng = StdRng::seed_from_u64(0xBA7C);

    let idp = IdentityProvider::new(group.clone(), "hr", &mut rng);
    let idmgr = IdentityManager::new(group.clone(), &mut rng);
    let idmgr_key = idmgr.verifying_key();
    let issuer = IssuerService::new(idp, idmgr, 21);
    let issuer_server =
        RegistrationServer::bind("127.0.0.1:0", move |req: &[u8]| issuer.handle(req))
            .expect("bind issuer");

    // Shared with the handler, so the test can read the service's stats.
    let publisher = Publisher::new(group.clone(), idmgr_key, policies());
    let shared = std::sync::Arc::new(PublisherService::new(publisher, 0xCC));
    let handler = std::sync::Arc::clone(&shared);
    let reg_server = RegistrationServer::bind("127.0.0.1:0", move |req: &[u8]| handler.handle(req))
        .expect("bind registration");

    // Whole onboarding through one batch frame: both conditions extract,
    // exactly as one `Register` round-trip per condition would.
    let mut sub: Subscriber<P256Group> = Subscriber::new(
        AttributeSet::new()
            .with_str("role", "doctor")
            .with("clearance", 7),
    );
    pbcd::core::session::fetch_tokens_via(&mut sub, &group, issuer_server.addr(), "dora")
        .expect("issuance");
    let extracted =
        pbcd::core::session::register_all_via(&mut sub, &group, reg_server.addr(), &mut rng)
            .expect("cohort registration over TCP");
    assert_eq!(extracted, 2, "the cohort extracts both CSSs");
    let stats = shared.stats();
    assert_eq!((stats.registrations, stats.errors), (2, 0));
    let handled = |kind: &str| {
        let name = format!("service_handle_ns{{kind=\"{kind}\"}}");
        shared.metrics().histogram(&name).expect("registered").count
    };
    assert_eq!(handled("register_batch"), 1, "one frame for the cohort");
    assert_eq!(handled("register"), 0, "no per-condition round-trips");

    // A bad item inside a batch (condition outside the policy set) gets a
    // typed per-item error; the good item in the same frame still lands.
    let mut client = RegistrationClient::connect(reg_server.addr()).expect("connect");
    let info = pbcd::core::session::fetch_conditions(&group, &mut client).expect("conditions");
    let good = AttributeCondition::new("clearance", ComparisonOp::Ge, 5);
    let rogue = AttributeCondition::new("clearance", ComparisonOp::Ge, 99);
    let session = pbcd::core::BatchRegistrationSession::new(&mut sub, group.clone(), info.ell);
    let (request, pending) = session
        .start(&[good, rogue], &mut rng)
        .expect("start mixed batch");
    let response = client.call(&request).expect("call");
    let results = pending.complete(&response).expect("batch response decodes");
    assert_eq!(results.len(), 2);
    assert_eq!(
        results[0].as_ref().expect("good item re-registers"),
        &true,
        "qualified item in a mixed batch still opens"
    );
    match &results[1] {
        Err(PbcdError::ErrorResponse { code, .. }) => {
            assert_eq!(*code, proto::ErrorCode::UnknownCondition)
        }
        other => panic!("rogue item must fail alone, got {other:?}"),
    }
    let stats = shared.stats();
    assert_eq!(
        (stats.registrations, stats.errors),
        (3, 1),
        "the mixed frame books one more registration and one rejected item"
    );
    client.close().expect("close");
    reg_server.shutdown();
    issuer_server.shutdown();
}

/// The session types reject protocol misuse at runtime too: an error
/// response surfaces as a typed `PbcdError`, and a response of the wrong
/// kind is `UnexpectedResponse`.
#[test]
fn session_surfaces_typed_peer_errors() {
    let group = P256Group::new();
    let mut rng = StdRng::seed_from_u64(0x5E55);

    let idp = IdentityProvider::new(group.clone(), "hr", &mut rng);
    let mut idmgr = IdentityManager::new(group.clone(), &mut rng);
    let idmgr_key = idmgr.verifying_key();

    let mut sub: Subscriber<P256Group> = Subscriber::new(AttributeSet::new().with("clearance", 8));
    let assertion = idp.assert_attribute("rita", "clearance", 8, &mut rng);
    let (token, opening) = idmgr
        .issue_token(&assertion, &idp.verifying_key(), &mut rng)
        .expect("honest assertion");
    sub.install_token(token, opening).expect("first token");

    let publisher = Publisher::new(group.clone(), idmgr_key, policies());
    let service = PublisherService::new(publisher, 1);

    // A condition outside the policy set → typed UnknownCondition error.
    let rogue = AttributeCondition::new("clearance", ComparisonOp::Ge, 99);
    let session = pbcd::core::RegistrationSession::new(&mut sub, group.clone(), 48);
    let (request, pending) = session.start(&rogue, &mut rng).expect("start");
    let response = service.handle(&request);
    match pending.complete(&response) {
        Err(PbcdError::ErrorResponse { code, .. }) => {
            assert_eq!(code, proto::ErrorCode::UnknownCondition)
        }
        other => panic!("expected typed error, got {other:?}"),
    }

    // A well-formed response of the wrong kind → UnexpectedResponse.
    let cond = AttributeCondition::new("clearance", ComparisonOp::Ge, 5);
    let session = pbcd::core::RegistrationSession::new(&mut sub, group.clone(), 48);
    let (_, pending) = session.start(&cond, &mut rng).expect("start");
    let conditions_reply = service.handle(
        &Request::<P256Group>::ConditionsQuery { attribute: None }
            .encode(&group)
            .expect("encodes"),
    );
    assert!(matches!(
        pending.complete(&conditions_reply),
        Err(PbcdError::UnexpectedResponse)
    ));
}
