//! End-to-end dissemination through the untrusted TCP broker: one
//! publisher, several subscribers (one non-qualified) on real loopback
//! sockets. Registration stays out-of-band (in-process, as in the paper);
//! only broadcast/derive flows over the wire. The broker is audited at the
//! end: its retained bytes must contain zero plaintext segment content.

use pbcd::core::{NetPublisher, NetSubscriber, SystemHarness};
use pbcd::docs::{BroadcastContainer, Element};
use pbcd::group::P256Group;
use pbcd::net::{Broker, BrokerClient, PeerRole};
use pbcd::policy::{
    AccessControlPolicy, AttributeCondition, AttributeSet, ComparisonOp, PolicySet,
};
use std::net::SocketAddr;

const DIAGNOSIS: &str = "metastatic carcinoma, stage IV, immediate treatment";
const BILLING: &str = "invoice total 12408 USD, insurer Aetna-X";

fn policies() -> PolicySet {
    let mut set = PolicySet::new();
    // Doctors read the diagnosis.
    set.add(AccessControlPolicy::new(
        vec![AttributeCondition::eq_str("role", "doctor")],
        &["Diagnosis"],
        "ward.xml",
    ));
    // Clearance ≥ 5 reads billing.
    set.add(AccessControlPolicy::new(
        vec![AttributeCondition::new("clearance", ComparisonOp::Ge, 5)],
        &["Billing"],
        "ward.xml",
    ));
    set
}

fn ward_report() -> Element {
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

/// The acceptance-criteria scenario: 1 publisher, 3 subscribers over TCP,
/// one of them non-qualified; plus a privacy audit of the broker state.
#[test]
fn loopback_dissemination_with_privacy_audit() {
    let mut sys = SystemHarness::new_p256(policies(), 0xB40C);
    let doctor = sys.subscribe(
        "dora",
        AttributeSet::new()
            .with_str("role", "doctor")
            .with("clearance", 7),
    );
    let nurse = sys.subscribe(
        "nancy",
        AttributeSet::new()
            .with_str("role", "nurse")
            .with("clearance", 6),
    );
    // Non-qualified: wrong role, clearance below threshold.
    let clerk = sys.subscribe(
        "carl",
        AttributeSet::new()
            .with_str("role", "clerk")
            .with("clearance", 1),
    );

    let broker = Broker::bind("127.0.0.1:0").expect("bind loopback");
    let addr = broker.addr();

    // Registration already happened out-of-band above; from here on, only
    // containers cross the network.
    let mut net_doctor =
        NetSubscriber::connect(doctor, addr, &["ward.xml"]).expect("doctor connects");
    let mut net_nurse = NetSubscriber::connect(nurse, addr, &["ward.xml"]).expect("nurse connects");
    let mut net_clerk = NetSubscriber::connect(clerk, addr, &["ward.xml"]).expect("clerk connects");

    let SystemHarness {
        publisher, mut rng, ..
    } = sys;
    let mut net_pub = NetPublisher::connect(publisher, addr).expect("publisher connects");
    let receipt = net_pub
        .broadcast(&ward_report(), "ward.xml", &mut rng)
        .expect("broadcast over the broker");
    assert_eq!(receipt.epoch, 1);
    assert_eq!(receipt.fanout, 3, "all three subscribers are connected");

    let policies = net_pub.policies();

    // Qualified subscribers re-derive keys from the public info in the
    // delivered container and reassemble their entitled views.
    let (c1, doctor_view) = net_doctor.recv_document(&policies).expect("doctor recv");
    assert_eq!(c1.epoch, 1);
    assert_eq!(
        doctor_view.find("Diagnosis").map(|e| e.direct_text()),
        Some(DIAGNOSIS.to_string())
    );
    assert_eq!(
        doctor_view.find("Billing").map(|e| e.direct_text()),
        Some(BILLING.to_string())
    );

    let (_, nurse_view) = net_nurse.recv_document(&policies).expect("nurse recv");
    assert!(
        nurse_view.find("Diagnosis").is_none(),
        "nurses see no diagnosis"
    );
    assert_eq!(
        nurse_view.find("Billing").map(|e| e.direct_text()),
        Some(BILLING.to_string())
    );

    // The non-qualified subscriber fails closed: it receives the container
    // but derives nothing — a fully redacted skeleton, not an error.
    let (c3, clerk_view) = net_clerk.recv_document(&policies).expect("clerk recv");
    assert!(clerk_view.find("Diagnosis").is_none());
    assert!(clerk_view.find("Billing").is_none());
    assert!(
        net_clerk
            .subscriber()
            .accessible_tags(&c3, &policies)
            .is_empty(),
        "clerk can decrypt no segment at all"
    );

    // Privacy audit: everything the broker retains for this document is
    // ciphertext + public metadata. No plaintext segment content anywhere.
    let retained = delivered_to_auditor(addr, "ward.xml");
    assert!(
        !contains(&retained, DIAGNOSIS.as_bytes()),
        "diagnosis plaintext must not reach the broker"
    );
    assert!(
        !contains(&retained, BILLING.as_bytes()),
        "billing plaintext must not reach the broker"
    );
    // Not even fragments of the sensitive text appear.
    for fragment in ["carcinoma", "12408", "Aetna"] {
        assert!(
            !contains(&retained, fragment.as_bytes()),
            "fragment {fragment:?} leaked to the broker"
        );
    }
    // What *is* public stays public: structure and tag names.
    assert!(contains(&retained, b"Diagnosis"));
    assert!(contains(&retained, b"WardReport"));
    // And the retained bytes are exactly the published container.
    assert_eq!(BroadcastContainer::decode(&retained).expect("valid"), c1);

    // Late joiner: the nurse reconnects after the publish and gets the
    // retained container replayed.
    let nurse_back = net_nurse.disconnect().expect("clean bye");
    let mut net_late = NetSubscriber::connect(nurse_back, addr, &["ward.xml"]).expect("reconnect");
    let (replayed, late_view) = net_late.recv_document(&policies).expect("replay recv");
    assert_eq!(replayed.epoch, 1, "replay carries the retained epoch");
    assert_eq!(
        late_view.find("Billing").map(|e| e.direct_text()),
        Some(BILLING.to_string())
    );

    // Stats counters update just after the corresponding socket write, so
    // poll briefly instead of assuming instantaneous visibility.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while broker.stats().deliveries < 4 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let stats = broker.stats();
    assert_eq!(stats.publishes, 1);
    assert!(stats.deliveries >= 4, "3 fan-outs + 1 replay");
    broker.shutdown();
}

/// Revocation round-trip over the wire: the paper's transparent rekey
/// means the revoked subscriber simply stops being able to derive keys on
/// the next broadcast — no message to anyone, no broker involvement.
#[test]
fn revocation_takes_effect_on_next_networked_broadcast() {
    let mut sys = SystemHarness::new_p256(policies(), 0xB41);
    let doctor = sys.subscribe(
        "dora",
        AttributeSet::new()
            .with_str("role", "doctor")
            .with("clearance", 9),
    );
    let doctor_nym = doctor.nym().expect("registered").to_string();

    let broker = Broker::bind("127.0.0.1:0").expect("bind");
    let mut net_doctor =
        NetSubscriber::connect(doctor, broker.addr(), &["ward.xml"]).expect("connect");
    let SystemHarness {
        publisher, mut rng, ..
    } = sys;
    let mut net_pub = NetPublisher::connect(publisher, broker.addr()).expect("connect");
    let policies = net_pub.policies();

    net_pub
        .broadcast(&ward_report(), "ward.xml", &mut rng)
        .expect("first broadcast");
    let (_, view1) = net_doctor.recv_document(&policies).expect("recv 1");
    assert!(view1.find("Diagnosis").is_some());

    // Out-of-band revocation on the wrapped publisher, then rebroadcast.
    assert!(net_pub.revoke_subscriber(&doctor_nym));
    net_pub
        .broadcast(&ward_report(), "ward.xml", &mut rng)
        .expect("second broadcast");
    let (c2, view2) = net_doctor.recv_document(&policies).expect("recv 2");
    assert_eq!(c2.epoch, 2);
    assert!(
        view2.find("Diagnosis").is_none() && view2.find("Billing").is_none(),
        "revoked subscriber fails closed on the post-revocation epoch"
    );
    broker.shutdown();
}

/// The `BroadcastGkm` seam and the broker compose: swap ACV-BGKM for the
/// marker baseline and the whole networked flow still works, because the
/// broker treats key info as opaque bytes.
#[test]
fn alternate_gkm_scheme_over_the_broker() {
    use pbcd::core::PublisherConfig;
    use pbcd::gkm::MarkerGkm;

    let mut sys = SystemHarness::new_with_gkm(
        P256Group::new(),
        policies(),
        PublisherConfig::default(),
        MarkerGkm::new(),
        0xB42,
    );
    let doctor = sys.subscribe(
        "dora",
        AttributeSet::new()
            .with_str("role", "doctor")
            .with("clearance", 8),
    );
    let outsider = sys.subscribe(
        "oscar",
        AttributeSet::new()
            .with_str("role", "visitor")
            .with("clearance", 0),
    );

    let broker = Broker::bind("127.0.0.1:0").expect("bind");
    let mut net_doctor = NetSubscriber::connect(doctor, broker.addr(), &[]).expect("connect");
    let mut net_outsider = NetSubscriber::connect(outsider, broker.addr(), &[]).expect("connect");
    let SystemHarness {
        publisher, mut rng, ..
    } = sys;
    let mut net_pub = NetPublisher::connect(publisher, broker.addr()).expect("connect");
    let policies = net_pub.policies();

    let receipt = net_pub
        .broadcast(&ward_report(), "ward.xml", &mut rng)
        .expect("marker broadcast");
    assert_eq!(receipt.fanout, 2);

    let (_, doctor_view) = net_doctor.recv_document(&policies).expect("doctor recv");
    assert!(doctor_view.find("Diagnosis").is_some());
    let (_, outsider_view) = net_outsider
        .recv_document(&policies)
        .expect("outsider recv");
    assert!(outsider_view.find("Diagnosis").is_none());
    assert!(outsider_view.find("Billing").is_none());
    broker.shutdown();
}
