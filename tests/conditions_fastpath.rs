//! The conditions-query fast path: the full (`attribute: None`)
//! conditions query is answered from a pre-encoded snapshot without
//! taking the publisher lock, is invalidated by publisher mutations, and
//! returns bytes identical to the slow path.

use pbcd::core::proto::{self, Request, Response};
use pbcd::core::{service, NetPublisher, Publisher, PublisherService, SystemHarness};
use pbcd::group::P256Group;
use pbcd::net::{Broker, RegistrationClient};
use pbcd::policy::{
    AccessControlPolicy, AttributeCondition, AttributeSet, ComparisonOp, PolicySet,
};

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

fn deployed_publisher() -> Publisher<P256Group> {
    let mut sys = SystemHarness::new_p256(policies(), 0xFA57);
    // One onboarded subscriber so revocation below has something to bite.
    let _sub = sys.onboard(
        "fastpath-subject",
        AttributeSet::new()
            .with_str("role", "doctor")
            .with("clearance", 7),
    );
    sys.publisher
}

#[test]
fn full_conditions_query_served_from_snapshot_without_service_lock() {
    let group = P256Group::new();
    let broker = Broker::bind("127.0.0.1:0").expect("broker");
    let mut publisher = NetPublisher::connect_service(
        PublisherService::new(deployed_publisher(), 1),
        broker.addr(),
    )
    .expect("connect");
    let reg_addr = publisher
        .serve_registration("127.0.0.1:0", 7)
        .expect("serve");

    let full_query = Request::<P256Group>::ConditionsQuery { attribute: None }
        .encode(&group)
        .expect("encode");
    assert!(proto::is_full_conditions_query(&full_query));

    let mut client = RegistrationClient::connect(reg_addr).expect("connect");

    // The snapshot was pre-populated by serve_registration: every full
    // query is a cache hit and never shows up in the service stats.
    let first = client.call(&full_query).expect("call");
    let second = client.call(&full_query).expect("call");
    assert_eq!(first, second, "snapshot bytes are stable");
    assert_eq!(publisher.conditions_cache_hits(), 2);
    assert_eq!(
        publisher.service_stats().conditions_cache_hits,
        2,
        "hits are folded into ServiceStats"
    );
    assert_eq!(
        publisher.service_stats().requests,
        0,
        "fast-path queries never touch the service"
    );

    // The fast path must be byte-identical to the slow path: decode and
    // compare against what the service itself reports.
    let info = match Response::<P256Group>::decode(&group, &first).expect("decode") {
        Response::Conditions(info) => info,
        other => panic!("unexpected response {other:?}"),
    };
    assert_eq!(info.conditions.len(), 2);

    // Attribute-filtered queries take the normal (locked) service path.
    let filtered = Request::<P256Group>::ConditionsQuery {
        attribute: Some("role".to_string()),
    }
    .encode(&group)
    .expect("encode");
    assert!(!proto::is_full_conditions_query(&filtered));
    let resp = client.call(&filtered).expect("call");
    assert!(!proto::is_error_response(&resp));
    assert_eq!(publisher.service_stats().requests, 1);
    assert_eq!(publisher.conditions_cache_hits(), 2, "no new hits");

    // A publisher mutation invalidates the snapshot; the next full query
    // misses (goes to the service, counted there), repopulates the
    // snapshot with identical bytes, and subsequent queries hit again.
    publisher.revoke_subscriber("nonexistent-nym");
    let after_invalidate = client.call(&full_query).expect("call");
    assert_eq!(after_invalidate, first, "repopulated bytes identical");
    assert_eq!(
        publisher.service_stats().requests,
        2,
        "miss hit the service"
    );
    assert_eq!(publisher.conditions_cache_hits(), 2);
    let hit_again = client.call(&full_query).expect("call");
    assert_eq!(hit_again, first);
    assert_eq!(publisher.conditions_cache_hits(), 3);
    assert_eq!(publisher.service_stats().conditions_cache_hits, 3);

    client.close().expect("close");
    let publisher = publisher.disconnect().expect("disconnect");
    drop(publisher);
    broker.shutdown();
}

#[test]
fn snapshot_matches_service_dispatch_bytes() {
    // The pre-encoded bytes must be identical to what dispatch answers.
    let group = P256Group::new();
    let query = Request::<P256Group>::ConditionsQuery { attribute: None }
        .encode(&group)
        .expect("encode");
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
    let via_dispatch = service::dispatch(&deployed_publisher(), &query, &mut rng);
    let service = PublisherService::new(deployed_publisher(), 3);
    service.reseed(3);
    let via_snapshot = service.handle(&query);
    assert_eq!(
        service.stats().conditions_cache_hits,
        1,
        "served pre-encoded"
    );
    assert_eq!(via_dispatch, via_snapshot);
}
