//! Concurrent stateful registration through `pbcd_net::direct`: N
//! subscriber threads drive the full oblivious OCBE registration against
//! one publisher endpoint **simultaneously**, and the resulting CSS-table
//! state is identical to a sequential run — and no registration waits on
//! the publisher lock.
//!
//! Also covers the typed publish-rejection surface of `NetPublisher`
//! against a keyed broker (satellite: `PbcdError::PublishRejected`, not a
//! generic `Net` error).

use pbcd::core::{
    IdentityManager, IdentityProvider, IssuerService, NetPublisher, PbcdError, Publisher,
    PublisherService, Subscriber,
};
use pbcd::docs::Element;
use pbcd::group::P256Group;
use pbcd::net::{Broker, BrokerConfig, PublisherDirectory, RegistrationServer, RejectReason};
use pbcd::policy::{
    AccessControlPolicy, AttributeCondition, AttributeSet, ComparisonOp, PolicySet,
};
use pbcd_group::SigningKey;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::sync::Arc;

const SUBSCRIBERS: usize = 8;

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

/// Issues tokens for `SUBSCRIBERS` subjects (alternating qualified and
/// not) over a real issuer socket and returns the ready-to-register
/// subscribers plus the IdMgr key the publisher must trust.
fn onboard_all(
    group: &P256Group,
    seed: u64,
) -> (
    Vec<Subscriber<P256Group>>,
    pbcd::group::VerifyingKey<P256Group>,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let idp = IdentityProvider::new(group.clone(), "hr", &mut rng);
    let idmgr = IdentityManager::new(group.clone(), &mut rng);
    let idmgr_key = idmgr.verifying_key();
    let issuer = IssuerService::new(idp, idmgr, seed ^ 0x15);
    let issuer_server =
        RegistrationServer::bind("127.0.0.1:0", move |req: &[u8]| issuer.handle(req))
            .expect("bind issuer");
    let mut subs = Vec::new();
    for i in 0..SUBSCRIBERS {
        let qualified = i % 2 == 0;
        let attrs = AttributeSet::new()
            .with_str("role", if qualified { "doctor" } else { "clerk" })
            .with("clearance", if qualified { 7 } else { 1 });
        let mut sub: Subscriber<P256Group> = Subscriber::new(attrs);
        pbcd::core::session::fetch_tokens_via(
            &mut sub,
            group,
            issuer_server.addr(),
            &format!("s{i}"),
        )
        .expect("issuance");
        subs.push(sub);
    }
    issuer_server.shutdown();
    (subs, idmgr_key)
}

/// The publisher's observable registration state: the set of
/// `(nym, condition)` records (CSS values are random, but *which* records
/// exist must not depend on scheduling).
fn record_set(publisher: &Publisher<P256Group>) -> BTreeSet<(String, String)> {
    let table = publisher.css_table();
    let conds = publisher.policies().distinct_conditions();
    let mut set = BTreeSet::new();
    for nym in table.nyms() {
        for cond in &conds {
            if table.get(nym, cond).is_some() {
                set.insert((nym.as_str().to_string(), cond.to_string()));
            }
        }
    }
    set
}

#[test]
fn concurrent_registrations_match_sequential_state() {
    let group = P256Group::new();

    // Run A: all subscribers register concurrently from 8 threads.
    let (subs_a, idmgr_key_a) = onboard_all(&group, 0xC0);
    let broker_a = Broker::bind("127.0.0.1:0").expect("broker");
    let publisher_a = Publisher::new(group.clone(), idmgr_key_a, policies());
    let mut net_pub_a =
        NetPublisher::connect_service(PublisherService::new(publisher_a, 0), broker_a.addr())
            .expect("connect");
    let reg_addr = net_pub_a
        .serve_registration("127.0.0.1:0", 0x9E6)
        .expect("serve");

    let extracted_a: Vec<usize> = std::thread::scope(|scope| {
        let handles: Vec<_> = subs_a
            .into_iter()
            .enumerate()
            .map(|(i, mut sub)| {
                let group = group.clone();
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(1000 + i as u64);
                    pbcd::core::session::register_all_via(&mut sub, &group, reg_addr, &mut rng)
                        .expect("concurrent registration")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Qualified subscribers (even indices) open both envelopes; the rest
    // open none — but everyone registered for both conditions.
    for (i, extracted) in extracted_a.iter().enumerate() {
        assert_eq!(*extracted, if i % 2 == 0 { 2 } else { 0 }, "subscriber {i}");
    }
    let stats = net_pub_a.service_stats();
    assert_eq!(
        stats.registrations,
        (SUBSCRIBERS * 2) as u64,
        "every (subscriber, condition) registration served"
    );
    assert_eq!(stats.errors, 0);
    assert!(
        stats.conditions_cache_hits >= SUBSCRIBERS as u64 - 1,
        "conditions queries ride the snapshot ({} hits)",
        stats.conditions_cache_hits
    );
    let state_a = net_pub_a.with_publisher(record_set);

    // Run B: identical system, sequential registration.
    let (subs_b, idmgr_key_b) = onboard_all(&group, 0xC0);
    let broker_b = Broker::bind("127.0.0.1:0").expect("broker");
    let publisher_b = Publisher::new(group.clone(), idmgr_key_b, policies());
    let mut net_pub_b =
        NetPublisher::connect_service(PublisherService::new(publisher_b, 0), broker_b.addr())
            .expect("connect");
    let reg_addr_b = net_pub_b
        .serve_registration("127.0.0.1:0", 0x9E6)
        .expect("serve");
    for (i, mut sub) in subs_b.into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(1000 + i as u64);
        pbcd::core::session::register_all_via(&mut sub, &group, reg_addr_b, &mut rng)
            .expect("sequential registration");
    }
    let state_b = net_pub_b.with_publisher(record_set);

    assert_eq!(
        state_a, state_b,
        "concurrent and sequential registration leave identical table state"
    );
    assert_eq!(state_a.len(), SUBSCRIBERS * 2);

    // The concurrently-built table drives a real broadcast: qualified
    // subscribers registered under concurrency can decrypt.
    let mut rng = StdRng::seed_from_u64(7);
    let report = Element::new("WardReport")
        .child(Element::new("Diagnosis").text("acute appendicitis"))
        .child(Element::new("Billing").text("4815 USD"));
    let receipt = net_pub_a
        .broadcast(&report, "ward.xml", &mut rng)
        .expect("broadcast over concurrently-registered table");
    assert_eq!(receipt.epoch, 1);

    net_pub_a.disconnect().expect("disconnect");
    net_pub_b.disconnect().expect("disconnect");
    broker_a.shutdown();
    broker_b.shutdown();
}

/// Publisher mutations invalidate the concurrent path's snapshots: a
/// condition revoked mid-stream is refused by later registrations, even
/// though earlier ones were served from the pre-mutation registrar.
#[test]
fn mutation_invalidates_concurrent_registration_material() {
    let group = P256Group::new();
    let (mut subs, idmgr_key) = onboard_all(&group, 0xC1);
    let broker = Broker::bind("127.0.0.1:0").expect("broker");
    let publisher = Publisher::new(group.clone(), idmgr_key, policies());
    let mut net_pub =
        NetPublisher::connect_service(PublisherService::new(publisher, 0), broker.addr())
            .expect("connect");
    let reg_addr = net_pub.serve_registration("127.0.0.1:0", 3).expect("serve");

    // First subscriber registers normally.
    let mut rng = StdRng::seed_from_u64(11);
    let mut first = subs.remove(0);
    pbcd::core::session::register_all_via(&mut first, &group, reg_addr, &mut rng)
        .expect("pre-mutation registration");

    // Drop every policy (publisher mutation through the gateway).
    net_pub.with_publisher_mut(|p| {
        let empty = PolicySet::new();
        *p.policies_mut() = empty;
    });

    // A later registration sees the post-mutation condition set: the old
    // conditions are now unknown.
    let mut second = subs.remove(0);
    let cond = AttributeCondition::eq_str("role", "doctor");
    let session = pbcd::core::RegistrationSession::new(&mut second, group.clone(), 48);
    let (request, pending) = session.start(&cond, &mut rng).expect("start");
    let mut client = pbcd::net::RegistrationClient::connect(reg_addr).expect("connect");
    let response = client.call(&request).expect("call");
    match pending.complete(&response) {
        Err(PbcdError::ErrorResponse { code, .. }) => {
            assert_eq!(code, pbcd::core::proto::ErrorCode::UnknownCondition)
        }
        other => panic!("stale registrar served a revoked condition: {other:?}"),
    }
    client.close().expect("close");
    net_pub.disconnect().expect("disconnect");
    broker.shutdown();
}

/// Registrations never wait on a broadcast or an audit: with the registrar
/// warm, a Register request handled on a second thread completes while
/// this thread sits inside `with_publisher`, holding the publisher lock.
#[test]
fn registration_completes_while_the_publisher_lock_is_held() {
    let group = P256Group::new();
    let (mut subs, idmgr_key) = onboard_all(&group, 0xC3);
    let publisher = Publisher::new(group.clone(), idmgr_key, policies());
    let service = Arc::new(PublisherService::new(publisher, 0));
    service.reseed(5); // builds the registrar

    let mut sub = subs.remove(0); // s0: a doctor
    let mut rng = StdRng::seed_from_u64(13);
    let cond = AttributeCondition::eq_str("role", "doctor");
    let session = pbcd::core::RegistrationSession::new(&mut sub, group.clone(), 48);
    let (request, pending) = session.start(&cond, &mut rng).expect("start");

    let response = service.with_publisher(|_locked| {
        let (tx, rx) = std::sync::mpsc::channel();
        let handler = Arc::clone(&service);
        let worker = std::thread::spawn(move || {
            let _ = tx.send(handler.handle(&request));
        });
        let response = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("a registration waited on the publisher lock");
        worker.join().expect("handler thread");
        response
    });
    assert!(pending.complete(&response).expect("complete"), "CSS opens");
    assert_eq!(service.with_publisher(record_set).len(), 1);
}

/// Satellite: a broker refusal of a signed publish surfaces from
/// `NetPublisher::broadcast` as the typed `PbcdError::PublishRejected`,
/// not a generic `Net` error — and with the right key it just works.
#[test]
fn net_publisher_surfaces_typed_publish_rejections() {
    let group = P256Group::new();
    let mut rng = StdRng::seed_from_u64(0xC2);
    let key = SigningKey::generate(&group, &mut rng);
    let wrong_key = SigningKey::generate(&group, &mut rng);
    let directory =
        PublisherDirectory::new(group.clone()).with_key("ward-pub", key.verifying_key());
    let broker = Broker::bind_with(
        "127.0.0.1:0",
        BrokerConfig {
            publisher_auth: Some(Arc::new(directory)),
            ..BrokerConfig::default()
        },
    )
    .expect("broker");

    let (_, idmgr_key) = onboard_all(&group, 0xC2);
    let publisher = Publisher::new(group.clone(), idmgr_key, policies());
    let mut net_pub = NetPublisher::connect(publisher, broker.addr())
        .expect("connect")
        .with_signing_key("ward-pub", wrong_key);

    let report = Element::new("WardReport").child(Element::new("Diagnosis").text("x"));
    match net_pub.broadcast(&report, "ward.xml", &mut rng) {
        Err(PbcdError::PublishRejected { reason, .. }) => {
            assert_eq!(reason, RejectReason::BadSignature)
        }
        other => panic!("expected typed PublishRejected, got {other:?}"),
    }

    // Same adapter, right key: the broker connection survived the typed
    // rejection and the next broadcast lands.
    let publisher = net_pub.disconnect().expect("disconnect");
    let mut net_pub = NetPublisher::connect(publisher, broker.addr())
        .expect("reconnect")
        .with_signing_key("ward-pub", key);
    let receipt = net_pub
        .broadcast(&report, "ward.xml", &mut rng)
        .expect("signed broadcast");
    assert!(receipt.epoch >= 1);
    broker.shutdown();
}
