//! Adversarial tests for the bytes-in/bytes-out services: every hostile
//! input gets a typed error response, nothing panics, and the service
//! keeps serving afterwards.

use pbcd_core::proto::{self, ErrorCode, Request, Response};
use pbcd_core::{IssuerService, PublisherService, RegistrationSession, Subscriber, SystemHarness};
use pbcd_group::P256Group;
use pbcd_net::{RegistrationClient, RegistrationServer};
use pbcd_ocbe::ProofMessage;
use pbcd_policy::{AccessControlPolicy, AttributeCondition, AttributeSet, ComparisonOp, PolicySet};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn policies() -> PolicySet {
    let mut set = PolicySet::new();
    set.add(AccessControlPolicy::new(
        vec![AttributeCondition::new("age", ComparisonOp::Ge, 18)],
        &["Content"],
        "d.xml",
    ));
    set
}

/// A harness-backed service plus one onboarded (but unregistered)
/// subscriber with a valid token.
fn setup() -> (
    P256Group,
    PublisherService<P256Group>,
    Subscriber<P256Group>,
    StdRng,
) {
    let mut sys = SystemHarness::new_p256(policies(), 0xAD7E);
    let sub = sys.onboard("alice", AttributeSet::new().with("age", 30));
    let SystemHarness { publisher, .. } = sys;
    (
        P256Group::new(),
        PublisherService::new(publisher, 0x5EED),
        sub,
        StdRng::seed_from_u64(9),
    )
}

fn expect_error(group: &P256Group, response: &[u8], code: ErrorCode) {
    assert!(proto::is_error_response(response));
    match Response::<P256Group>::decode(group, response).expect("error decodes") {
        Response::Error(e) => assert_eq!(e.code, code, "{}", e.message),
        other => panic!("expected error, got {other:?}"),
    }
}

/// After any rejected request, a well-formed registration must still
/// succeed — "the service keeps serving".
fn assert_still_serving(
    group: &P256Group,
    service: &PublisherService<P256Group>,
    sub: &mut Subscriber<P256Group>,
    rng: &mut StdRng,
) {
    let cond = AttributeCondition::new("age", ComparisonOp::Ge, 18);
    let session = RegistrationSession::new(sub, group.clone(), 48);
    let (request, pending) = session.start(&cond, rng).expect("start");
    let response = service.handle(&request);
    assert!(pending.complete(&response).expect("complete"), "CSS opens");
}

#[test]
fn garbage_bytes_get_typed_error_and_service_survives() {
    let (group, service, mut sub, mut rng) = setup();
    // A well-formed Register request cut off mid-payload: the header
    // still classifies it as a registration, so it takes the registrar
    // path — the one a socket serves — and must fail as typed there too.
    let truncated = {
        let cond = AttributeCondition::new("age", ComparisonOp::Ge, 18);
        let session = RegistrationSession::new(&mut sub, group.clone(), 48);
        let (mut request, _pending) = session.start(&cond, &mut rng).expect("start");
        request.truncate(request.len() / 2);
        assert!(proto::is_register_request(&request));
        request
    };
    for garbage in [
        Vec::new(),
        vec![0u8; 3],
        b"not a protocol message at all".to_vec(),
        vec![0x50, 0x50, 9, 1, 0], // wrong version
        vec![0x50, 0x50, 1, 77],   // unknown kind
        truncated,
    ] {
        let response = service.handle(&garbage);
        expect_error(&group, &response, ErrorCode::Malformed);
    }
    assert_still_serving(&group, &service, &mut sub, &mut rng);
    let stats = service.stats();
    assert_eq!(stats.errors, 6);
    assert_eq!(stats.registrations, 1);
    assert_eq!(stats.requests, 7);
}

#[test]
fn unknown_condition_rejected_with_typed_error() {
    let (group, service, mut sub, mut rng) = setup();
    let rogue = AttributeCondition::new("age", ComparisonOp::Ge, 99);
    let session = RegistrationSession::new(&mut sub, group.clone(), 48);
    let (request, _pending) = session.start(&rogue, &mut rng).expect("start");
    let response = service.handle(&request);
    expect_error(&group, &response, ErrorCode::UnknownCondition);
    assert_still_serving(&group, &service, &mut sub, &mut rng);
}

#[test]
fn wrong_tag_token_rejected_with_typed_error() {
    let (group, service, mut sub, mut rng) = setup();
    // Hand-build a request whose token (for "age") claims a condition on
    // a different attribute.
    let token = sub.token_for("age").expect("token").clone();
    let request = Request::Register(pbcd_core::proto::RegisterRequest {
        token,
        cond: AttributeCondition::new("level", ComparisonOp::Eq, 1),
        proof: ProofMessage::Empty,
    })
    .encode(&group)
    .expect("encodes");
    let response = service.handle(&request);
    expect_error(&group, &response, ErrorCode::TagMismatch);
    assert_still_serving(&group, &service, &mut sub, &mut rng);
}

#[test]
fn forged_token_rejected_with_typed_error() {
    let (group, service, mut sub, mut rng) = setup();
    let mut token = sub.token_for("age").expect("token").clone();
    token.nym = "pn-spoofed".into(); // breaks the signature binding
    let cond = AttributeCondition::new("age", ComparisonOp::Ge, 18);
    let (proof, _) = sub
        .prepare_registration(
            &pbcd_ocbe::OcbeSystem::new(group.clone(), 48),
            &cond,
            &mut rng,
        )
        .expect("prepare");
    let request = Request::Register(pbcd_core::proto::RegisterRequest { token, cond, proof })
        .encode(&group)
        .expect("encodes");
    let response = service.handle(&request);
    expect_error(&group, &response, ErrorCode::BadToken);
    assert_still_serving(&group, &service, &mut sub, &mut rng);
}

#[test]
fn wrong_proof_shape_rejected_with_typed_error() {
    let (group, service, mut sub, mut rng) = setup();
    let token = sub.token_for("age").expect("token").clone();
    // GE condition with an EQ-shaped (empty) proof.
    let request = Request::Register(pbcd_core::proto::RegisterRequest {
        token,
        cond: AttributeCondition::new("age", ComparisonOp::Ge, 18),
        proof: ProofMessage::Empty,
    })
    .encode(&group)
    .expect("encodes");
    let response = service.handle(&request);
    expect_error(&group, &response, ErrorCode::BadProof);
    assert_still_serving(&group, &service, &mut sub, &mut rng);
}

#[test]
fn replayed_register_request_reissues_without_growing_the_table() {
    let (group, service, mut sub, mut rng) = setup();
    let cond = AttributeCondition::new("age", ComparisonOp::Ge, 18);
    let session = RegistrationSession::new(&mut sub, group.clone(), 48);
    let (request, pending) = session.start(&cond, &mut rng).expect("start");
    let first = service.handle(&request);
    let replay = service.handle(&request);
    assert!(!proto::is_error_response(&first));
    assert!(!proto::is_error_response(&replay));
    assert_eq!(
        service.with_publisher(|p| p.shared_css_table().record_count()),
        1,
        "replay overrides (credential-update semantics), it does not append"
    );
    // The replay's envelope carries the *current* CSS; the session opens it.
    assert!(pending.complete(&replay).expect("complete"));
    assert_eq!(service.stats().registrations, 2);
}

#[test]
fn publisher_refuses_issuance_requests() {
    let (group, service, _sub, _rng) = setup();
    let request = Request::<P256Group>::Issue(pbcd_core::proto::IssueRequest {
        subject: "mallory".into(),
        attribute: "age".into(),
        value: 21,
    })
    .encode(&group)
    .expect("encodes");
    let response = service.handle(&request);
    expect_error(&group, &response, ErrorCode::Unsupported);
}

#[test]
fn conditions_query_filters_by_attribute() {
    let (group, service, _sub, _rng) = setup();
    for (attr, expected) in [(Some("age"), 1usize), (Some("level"), 0), (None, 1)] {
        let request = Request::<P256Group>::ConditionsQuery {
            attribute: attr.map(String::from),
        }
        .encode(&group)
        .expect("encodes");
        let response = service.handle(&request);
        match Response::<P256Group>::decode(&group, &response).expect("decodes") {
            Response::Conditions(info) => {
                assert_eq!(info.conditions.len(), expected, "attr={attr:?}");
                assert_eq!(info.ell, 48);
                assert_eq!(info.kappa_bits, 128);
            }
            other => panic!("expected conditions, got {other:?}"),
        }
    }
}

#[test]
fn issuer_verifier_blocks_unvouched_claims() {
    let group = P256Group::new();
    let mut rng = StdRng::seed_from_u64(0x7E11);
    let idp = pbcd_core::IdentityProvider::new(group.clone(), "hr", &mut rng);
    let idmgr = pbcd_core::IdentityManager::new(group.clone(), &mut rng);
    // The deployment's ground truth: only alice, and only clearance 3.
    let issuer = IssuerService::with_verifier(idp, idmgr, 0x2F, |req| {
        req.subject == "alice" && req.attribute == "clearance" && req.value == 3
    });
    let issue = |subject: &str, value: u64| {
        Request::<P256Group>::Issue(pbcd_core::proto::IssueRequest {
            subject: subject.into(),
            attribute: "clearance".into(),
            value,
        })
        .encode(&P256Group::new())
        .expect("encodes")
    };
    // Mallory inflating her clearance — or claiming alice's identity with
    // an inflated value — is refused with a typed error.
    for (subject, value) in [("mallory", 9), ("alice", 9)] {
        let response = issuer.handle(&issue(subject, value));
        expect_error(&group, &response, ErrorCode::BadToken);
    }
    // The vouched-for claim still issues.
    let response = issuer.handle(&issue("alice", 3));
    assert!(matches!(
        Response::<P256Group>::decode(&group, &response).expect("decodes"),
        Response::Issue(_)
    ));
}

/// Panic isolation lives with the lock: the issuer guards its own state,
/// so a verifier that panics on one subject costs that connection its
/// reply and nothing else — the poisoned lock is recovered, and a fresh
/// connection is issued a token.
#[test]
fn panicking_issue_verifier_costs_one_connection_only() {
    let group = P256Group::new();
    let mut rng = StdRng::seed_from_u64(0xB00);
    let idp = pbcd_core::IdentityProvider::new(group.clone(), "hr", &mut rng);
    let idmgr = pbcd_core::IdentityManager::new(group.clone(), &mut rng);
    let issuer = IssuerService::with_verifier(idp, idmgr, 0x30, |req| {
        assert!(
            req.subject != "boom",
            "hostile subject tripped a verifier bug"
        );
        true
    });
    let server = RegistrationServer::bind("127.0.0.1:0", move |req: &[u8]| issuer.handle(req))
        .expect("bind issuer");
    let issue = |subject: &str| {
        Request::<P256Group>::Issue(pbcd_core::proto::IssueRequest {
            subject: subject.into(),
            attribute: "age".into(),
            value: 30,
        })
        .encode(&group)
        .expect("encodes")
    };
    let mut victim = RegistrationClient::connect(server.addr()).expect("connect");
    assert!(
        victim.call(&issue("boom")).is_err(),
        "no reply after the panic"
    );
    let mut fresh = RegistrationClient::connect(server.addr()).expect("connect");
    let response = fresh.call(&issue("alice")).expect("served after the panic");
    assert!(matches!(
        Response::<P256Group>::decode(&group, &response).expect("decodes"),
        Response::Issue(_)
    ));
    server.shutdown();
}

#[test]
fn issuer_service_is_total_and_scoped() {
    let group = P256Group::new();
    let mut rng = StdRng::seed_from_u64(0x1D);
    let idp = pbcd_core::IdentityProvider::new(group.clone(), "hr", &mut rng);
    let idmgr = pbcd_core::IdentityManager::new(group.clone(), &mut rng);
    let idmgr_key = idmgr.verifying_key();
    let issuer = IssuerService::new(idp, idmgr, 0x2E);
    let pedersen = pbcd_commit::Pedersen::new(group.clone());

    // Garbage → Malformed.
    let response = issuer.handle(b"\xff\xff\xff\xff");
    expect_error(&group, &response, ErrorCode::Malformed);

    // Registration at the issuer → Unsupported.
    let response = issuer.handle(
        &Request::<P256Group>::ConditionsQuery { attribute: None }
            .encode(&group)
            .expect("encodes"),
    );
    expect_error(&group, &response, ErrorCode::Unsupported);

    // A well-formed issuance yields a verifiable token whose opening
    // matches its commitment.
    let response = issuer.handle(
        &Request::<P256Group>::Issue(pbcd_core::proto::IssueRequest {
            subject: "alice".into(),
            attribute: "age".into(),
            value: 28,
        })
        .encode(&group)
        .expect("encodes"),
    );
    match Response::<P256Group>::decode(&group, &response).expect("decodes") {
        Response::Issue(r) => {
            r.token
                .verify(&pedersen, &idmgr_key)
                .expect("token verifies");
            assert!(pedersen.verify_open(&r.token.commitment, &r.opening));
            assert_eq!(r.token.id_tag, "age");
        }
        other => panic!("expected issue response, got {other:?}"),
    }
}
