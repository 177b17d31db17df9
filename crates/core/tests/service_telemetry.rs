//! The service plane's registry-backed telemetry: a `Stats` proto request
//! is answered with the text exposition, `ServiceStats` is a consistent
//! view over the same registry, per-kind handler latencies and OCBE
//! envelope flavours are booked, and the direct transport times requests.

use pbcd_core::proto::{self, Request, Response};
use pbcd_core::{
    BatchRegistrationSession, PublisherService, RegistrationSession, Subscriber, SystemHarness,
};
use pbcd_group::P256Group;
use pbcd_net::{RegistrationClient, RegistrationServer};
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
    set.add(AccessControlPolicy::new(
        vec![AttributeCondition::new("age", ComparisonOp::Eq, 30)],
        &["Footer"],
        "d.xml",
    ));
    set
}

fn setup() -> (
    P256Group,
    PublisherService<P256Group>,
    Subscriber<P256Group>,
    StdRng,
) {
    let mut sys = SystemHarness::new_p256(policies(), 0x7E1E);
    let sub = sys.onboard("alice", AttributeSet::new().with("age", 30));
    let SystemHarness { publisher, .. } = sys;
    (
        P256Group::new(),
        PublisherService::new(publisher, 0x5EED),
        sub,
        StdRng::seed_from_u64(9),
    )
}

fn register_once(
    group: &P256Group,
    sub: &mut Subscriber<P256Group>,
    rng: &mut StdRng,
    mut handle: impl FnMut(&[u8]) -> Vec<u8>,
) {
    let cond = AttributeCondition::new("age", ComparisonOp::Ge, 18);
    let session = RegistrationSession::new(sub, group.clone(), 48);
    let (request, pending) = session.start(&cond, rng).expect("start");
    let response = handle(&request);
    assert!(pending.complete(&response).expect("complete"), "CSS opens");
}

/// A `Stats` request is answered from the service's own registry: request
/// counters, per-kind handler latency and the OCBE envelope flavour of the
/// registration that just ran, with no plaintext attribute values leaked.
/// The registrar path (registration) and the publisher-lock path (garbage)
/// book into that one registry.
#[test]
fn stats_query_returns_registry_exposition() {
    let (group, service, mut sub, mut rng) = setup();
    let exp_before = pbcd_group::ops::exp_total();
    register_once(&group, &mut sub, &mut rng, |req| service.handle(req));
    let garbage = service.handle(b"not a protocol message");
    assert!(proto::is_error_response(&garbage));

    let query = Request::<P256Group>::Stats.encode(&group).expect("encode");
    assert!(proto::is_stats_query(&query));
    let response = service.handle(&query);
    let text = match Response::<P256Group>::decode(&group, &response).expect("decode") {
        Response::Stats { text } => text,
        other => panic!("expected Stats, got {other:?}"),
    };

    // One registration, one rejected request, then the stats query
    // itself (counted as served).
    assert!(text.contains("service_requests_total 3"), "{text}");
    assert!(text.contains("service_registrations_total 1"), "{text}");
    assert!(text.contains("service_errors_total 1"), "{text}");
    assert!(
        text.contains("service_handle_ns_count{kind=\"malformed\"} 1"),
        "{text}"
    );
    // GE condition → one GE envelope.
    assert!(
        text.contains("ocbe_envelopes_total{kind=\"ge\"} 1"),
        "{text}"
    );
    assert!(
        text.contains("ocbe_envelopes_total{kind=\"eq\"} 0"),
        "{text}"
    );
    // Per-kind latency histograms carry the traffic.
    assert!(
        text.contains("service_handle_ns_count{kind=\"register\"} 1"),
        "{text}"
    );
    assert!(
        text.contains("service_handle_ns{kind=\"register\",quantile=\"0.5\"}"),
        "{text}"
    );
    // Group exponentiations ran during envelope composition; the mirrored
    // gauge must have advanced past the pre-test tally (the tally is
    // process-wide, so only deltas are meaningful under `cargo test`).
    let exp_line = text
        .lines()
        .find(|l| l.starts_with("group_exp_total "))
        .expect("group_exp_total exposed");
    let exp_now: u64 = exp_line.split_whitespace().nth(1).unwrap().parse().unwrap();
    assert!(exp_now > exp_before, "{exp_line} vs before {exp_before}");
    // Threat model: aggregates only — no attribute names or values.
    assert!(!text.contains("age"), "{text}");
    assert!(!text.contains("alice"), "{text}");

    // The fixed-shape view reads the same registry.
    let stats = service.stats();
    assert_eq!(stats.requests, 3);
    assert_eq!(stats.registrations, 1);
    assert_eq!(stats.errors, 1);
    let metrics = service.metrics();
    assert_eq!(metrics.counter("service_requests_total"), Some(3));
    assert_eq!(metrics.counter("service_registrations_total"), Some(1));
}

/// Cohorts are counted per item: one `RegisterBatch` frame carrying an EQ
/// and a GE registration is one request, two registrations and one
/// envelope of each flavour.
#[test]
fn cohort_registrations_are_counted_per_item() {
    let (group, service, mut sub, mut rng) = setup();
    let conds = [
        AttributeCondition::new("age", ComparisonOp::Eq, 30),
        AttributeCondition::new("age", ComparisonOp::Ge, 18),
    ];
    let session = BatchRegistrationSession::new(&mut sub, group.clone(), 48);
    let (request, pending) = session.start(&conds, &mut rng).expect("start");
    assert_eq!(proto::request_kind_label(&request), "register_batch");
    let response = service.handle(&request);
    let opened = pending.complete(&response).expect("complete");
    assert!(opened.iter().all(|r| matches!(r, Ok(true))), "{opened:?}");

    let metrics = service.metrics();
    assert_eq!(metrics.counter("service_requests_total"), Some(1));
    assert_eq!(metrics.counter("service_registrations_total"), Some(2));
    assert_eq!(metrics.counter("service_errors_total"), Some(0));
    for (flavour, count) in [("eq", 1), ("ge", 1), ("le", 0), ("dual", 0)] {
        assert_eq!(
            metrics.counter(&format!("ocbe_envelopes_total{{kind=\"{flavour}\"}}")),
            Some(count),
            "{flavour}"
        );
    }
    let latency = metrics
        .histogram("service_handle_ns{kind=\"register_batch\"}")
        .expect("registered");
    assert_eq!(latency.count, 1);
}

/// The byte classifiers the telemetry layer keys on.
#[test]
fn request_kind_labels_classify_wire_bytes() {
    let (group, _, mut sub, mut rng) = setup();
    let stats = Request::<P256Group>::Stats.encode(&group).unwrap();
    assert_eq!(proto::request_kind_label(&stats), "stats");
    assert_eq!(proto::request_kind_label(b"junk"), "malformed");
    let cond = AttributeCondition::new("age", ComparisonOp::Ge, 18);
    let session = RegistrationSession::new(&mut sub, group.clone(), 48);
    let (register, _) = session.start(&cond, &mut rng).expect("start");
    assert_eq!(proto::request_kind_label(&register), "register");
}

/// End to end over the direct transport: a remote peer sends the stats
/// query through a `RegistrationServer`, and the transport's own registry
/// times the request.
#[test]
fn stats_query_over_direct_transport() {
    let (group, service, mut sub, mut rng) = setup();
    let server = RegistrationServer::bind("127.0.0.1:0", move |req: &[u8]| service.handle(req))
        .expect("bind");
    let mut client = RegistrationClient::connect(server.addr()).expect("connect");

    register_once(&group, &mut sub, &mut rng, |req| {
        client.call(req).expect("call")
    });
    let query = Request::<P256Group>::Stats.encode(&group).unwrap();
    let response = client.call(&query).expect("stats call");
    let text = match Response::<P256Group>::decode(&group, &response).expect("decode") {
        Response::Stats { text } => text,
        other => panic!("expected Stats, got {other:?}"),
    };
    assert!(text.contains("service_registrations_total 1"), "{text}");

    // The transport's registry saw both calls, with latency recorded.
    assert_eq!(server.requests_served(), 2);
    let snap = server.metrics();
    assert_eq!(snap.counter("direct_requests_total"), Some(2));
    let lat = snap.histogram("direct_request_ns").expect("registered");
    assert_eq!(lat.count, 2);
    assert!(lat.max > 0);
    assert!(server.metrics_text().contains("direct_requests_total 2"));
    server.shutdown();
}
