//! The publisher has one broadcast path. Its rekeys and encryptions are
//! independent tasks (paper §VII: "computations related to different
//! subdocuments are independent … and thus can be performed in parallel"),
//! fed by randomness drawn up front in a documented order. Access semantics
//! must be exactly the policies', and one seed must give one container.

use pbcd::core::SystemHarness;
use pbcd::docs::ehr_document;
use pbcd::policy::{
    AccessControlPolicy, AttributeCondition, AttributeSet, ComparisonOp, PolicySet,
};

fn policies() -> PolicySet {
    let mut set = PolicySet::new();
    let doc = "EHR.xml";
    set.add(AccessControlPolicy::new(
        vec![AttributeCondition::eq_str("role", "rec")],
        &["ContactInfo"],
        doc,
    ));
    set.add(AccessControlPolicy::new(
        vec![AttributeCondition::eq_str("role", "cas")],
        &["BillingInfo"],
        doc,
    ));
    set.add(AccessControlPolicy::new(
        vec![
            AttributeCondition::eq_str("role", "nur"),
            AttributeCondition::new("level", ComparisonOp::Ge, 59),
        ],
        &[
            "ContactInfo",
            "Medication",
            "PhysicalExams",
            "LabRecords",
            "Plan",
        ],
        doc,
    ));
    set
}

#[test]
fn parallel_broadcast_matches_serial_semantics() {
    let mut sys = SystemHarness::new_p256(policies(), 77);
    let rec = sys.subscribe("rita", AttributeSet::new().with_str("role", "rec"));
    let nurse = sys.subscribe(
        "nancy",
        AttributeSet::new()
            .with_str("role", "nur")
            .with("level", 60),
    );
    let outsider = sys.subscribe("oto", AttributeSet::new().with_str("role", "visitor"));

    let ehr = ehr_document("Jane Doe");
    let bc = sys.publisher.broadcast(&ehr, "EHR.xml", &mut sys.rng);
    let pol = sys.publisher.policies();

    // One group per policy configuration, every policy object segmented.
    let tags: Vec<&str> = bc
        .groups
        .iter()
        .flat_map(|g| g.segments.iter().map(|s| s.tag.as_str()))
        .collect();
    assert!(tags.contains(&"ContactInfo"));
    assert!(tags.contains(&"BillingInfo"));
    assert!(tags.contains(&"Medication"));

    // Each reader sees exactly what its policies grant.
    let v = rec.decrypt_broadcast(&bc, pol).unwrap();
    assert!(v.find("ContactInfo").is_some());
    assert!(v.find("Medication").is_none());
    let v = nurse.decrypt_broadcast(&bc, pol).unwrap();
    assert!(v.find("ContactInfo").is_some());
    assert!(v.find("Medication").is_some());
    assert!(v.find("BillingInfo").is_none());
    let v = outsider.decrypt_broadcast(&bc, pol).unwrap();
    assert!(v.find("ContactInfo").is_none());
    assert!(v.find("Medication").is_none());
}

#[test]
fn parallel_and_serial_broadcasts_decrypt_identically() {
    // Same-seed determinism, not serial against parallel (there is one
    // path): two publishers built from one seed give byte-identical
    // containers, and the nurse reads her subdocuments in one.
    let run = || {
        let mut sys = SystemHarness::new_p256(policies(), 5);
        let nurse = sys.subscribe(
            "nancy",
            AttributeSet::new()
                .with_str("role", "nur")
                .with("level", 60),
        );
        let ehr = ehr_document("Jane Doe");
        let bc = sys.publisher.broadcast(&ehr, "EHR.xml", &mut sys.rng);
        let view = nurse
            .decrypt_broadcast(&bc, sys.publisher.policies())
            .unwrap();
        (bc.encode().unwrap(), view)
    };
    let (bytes, view) = run();
    assert_eq!(bytes, run().0, "one seed, one container");
    // The nurse's view contains her five subdocuments.
    for tag in [
        "ContactInfo",
        "Medication",
        "PhysicalExams",
        "LabRecords",
        "Plan",
    ] {
        assert!(view.find(tag).is_some(), "tag={tag}");
    }
    assert!(view.find("BillingInfo").is_none());
}
