//! The complete paper flow with every leg on real loopback TCP sockets:
//! token issuance, the oblivious registration round-trip, broadcast
//! dissemination through the untrusted broker (**signed** — the broker is
//! keyed and refuses unauthenticated publishers), and revocation taking
//! effect — with **no in-process handle sharing** between the actors.
//!
//! Wire map:
//!
//! ```text
//! Subscriber ──(IssueRequest)────────▶ IssuerService     (direct socket A)
//! Subscriber ──(ConditionsQuery, RegisterRequest)─▶ PublisherService (direct socket B)
//! Publisher  ──(signed container)────▶ Broker ──▶ Subscribers (broker socket C)
//! ```
//!
//! The broker only ever sees socket C — registration and issuance bytes
//! structurally cannot reach it; socket B's handlers run **concurrently**
//! (sharded CSS table, lock-free conditions snapshot).
//!
//! ```sh
//! cargo run --release --example sockets_end_to_end
//! ```

use pbcd::core::{
    session, IdentityManager, IdentityProvider, IssuerService, NetPublisher, NetSubscriber,
    Publisher, PublisherService, Subscriber,
};
use pbcd::docs::Element;
use pbcd::group::{P256Group, SigningKey};
use pbcd::net::{Broker, BrokerConfig, PublisherDirectory, RegistrationServer};
use pbcd::policy::{
    AccessControlPolicy, AttributeCondition, AttributeSet, ComparisonOp, PolicySet,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() {
    let group = P256Group::new();
    let mut rng = StdRng::seed_from_u64(2026);

    // Policies: doctors read the diagnosis, clearance ≥ 5 reads billing.
    let mut policies = PolicySet::new();
    policies.add(AccessControlPolicy::new(
        vec![AttributeCondition::eq_str("role", "doctor")],
        &["Diagnosis"],
        "ward.xml",
    ));
    policies.add(AccessControlPolicy::new(
        vec![AttributeCondition::new("clearance", ComparisonOp::Ge, 5)],
        &["Billing"],
        "ward.xml",
    ));

    // The issuer (IdP + IdMgr) behind direct socket A.
    let idp = IdentityProvider::new(group.clone(), "hospital-hr", &mut rng);
    let mut idmgr = IdentityManager::new(group.clone(), &mut rng);
    let doctor_nym = idmgr.nym_for("dora");
    let idmgr_key = idmgr.verifying_key();
    let issuer = IssuerService::new(idp, idmgr, 11);
    let issuer_server =
        RegistrationServer::bind("127.0.0.1:0", move |req: &[u8]| issuer.handle(req))
            .expect("bind issuer endpoint");
    println!("issuer endpoint on       {}", issuer_server.addr());

    // The untrusted broker on socket C — keyed with the publisher's
    // verification key, so only signed publishes mutate retained state —
    // and the publisher: signed broadcasts to the broker, registration
    // served concurrently on direct socket B.
    let publish_key = SigningKey::generate(&group, &mut rng);
    let directory =
        PublisherDirectory::new(group.clone()).with_key("ward-pub", publish_key.verifying_key());
    let broker = Broker::bind_with(
        "127.0.0.1:0",
        BrokerConfig {
            publisher_auth: Some(Arc::new(directory)),
            ..BrokerConfig::default()
        },
    )
    .expect("bind broker");
    println!(
        "broker on                {} (publisher auth ON)",
        broker.addr()
    );
    let publisher = Publisher::new(group.clone(), idmgr_key, policies);
    let mut net_pub =
        NetPublisher::connect_service(PublisherService::new(publisher, 0), broker.addr())
            .expect("publisher connects")
            .with_signing_key("ward-pub", publish_key);
    let reg_addr = net_pub
        .serve_registration("127.0.0.1:0", 42)
        .expect("bind registration endpoint");
    println!("registration endpoint on {reg_addr}");

    // Subscribers onboard entirely over the sockets: issuance on A,
    // conditions + oblivious registration on B.
    let mut people = Vec::new();
    for (subject, attrs) in [
        (
            "dora",
            AttributeSet::new()
                .with_str("role", "doctor")
                .with("clearance", 7),
        ),
        (
            "nancy",
            AttributeSet::new()
                .with_str("role", "nurse")
                .with("clearance", 6),
        ),
        (
            "carl",
            AttributeSet::new()
                .with_str("role", "clerk")
                .with("clearance", 1),
        ),
    ] {
        let mut sub: Subscriber<P256Group> = Subscriber::new(attrs);
        let tokens = session::fetch_tokens_via(&mut sub, &group, issuer_server.addr(), subject)
            .expect("issuance over TCP");
        let extracted =
            session::register_all_via(&mut sub, &group, reg_addr, &mut rng).expect("registration");
        println!(
            "{subject:>6}: {tokens} tokens issued over TCP, {extracted} CSS(s) extracted — \
             the publisher cannot know that count"
        );
        people.push((subject, sub));
    }
    let stats = net_pub.service_stats();
    println!(
        "publisher service: {} requests, {} registrations served, {} errors — \
         qualified and non-qualified look identical",
        stats.requests, stats.registrations, stats.errors
    );

    // Dissemination through the broker.
    let policies = net_pub.policies();
    let mut subscribers: Vec<(&str, NetSubscriber<P256Group>)> = people
        .into_iter()
        .map(|(name, sub)| {
            (
                name,
                NetSubscriber::connect(sub, broker.addr(), &["ward.xml"]).expect("connect"),
            )
        })
        .collect();
    let report = Element::new("WardReport")
        .child(Element::new("Diagnosis").text("acute appendicitis, operate today"))
        .child(Element::new("Billing").text("invoice total 4815 USD"));
    let receipt = net_pub
        .broadcast(&report, "ward.xml", &mut rng)
        .expect("signed broadcast");
    println!(
        "signed broadcast epoch {} fanned out to {} subscribers via the broker",
        receipt.epoch, receipt.fanout
    );
    for (name, sub) in &mut subscribers {
        let (_, view) = sub.recv_document(&policies).expect("delivery");
        println!(
            "{name:>6}: Diagnosis {}, Billing {}",
            if view.find("Diagnosis").is_some() {
                "readable"
            } else {
                "redacted"
            },
            if view.find("Billing").is_some() {
                "readable"
            } else {
                "redacted"
            },
        );
    }

    // Revocation: delete the doctor's row, rebroadcast — transparent
    // rekey, no message to anyone, the doctor just stops deriving keys.
    assert!(net_pub.revoke_subscriber(&doctor_nym));
    net_pub
        .broadcast(&report, "ward.xml", &mut rng)
        .expect("post-revocation broadcast");
    let (_, view) = subscribers[0].1.recv_document(&policies).expect("recv");
    println!(
        "after revoking {doctor_nym}: doctor sees Diagnosis {}, Billing {}",
        if view.find("Diagnosis").is_some() {
            "readable"
        } else {
            "redacted"
        },
        if view.find("Billing").is_some() {
            "readable"
        } else {
            "redacted"
        },
    );

    net_pub.disconnect().expect("publisher disconnect");
    issuer_server.shutdown();
    broker.shutdown();
    println!("all endpoints shut down cleanly");
}
