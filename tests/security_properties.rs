//! Integration tests for the security requirements of paper §I/§VI:
//! forward secrecy, backward secrecy, collusion resistance, revocation
//! (credential and subscription), credential update, user privacy, and
//! policies that grant access within their own document only.

use pbcd::core::SystemHarness;
use pbcd::docs::Element;
use pbcd::policy::{
    AccessControlPolicy, AttributeCondition, AttributeSet, ComparisonOp, PolicySet,
};

fn policies() -> PolicySet {
    let mut set = PolicySet::new();
    set.add(AccessControlPolicy::new(
        vec![AttributeCondition::eq_str("role", "doctor")],
        &["Secret"],
        "doc.xml",
    ));
    set.add(AccessControlPolicy::new(
        vec![
            AttributeCondition::eq_str("role", "nurse"),
            AttributeCondition::new("level", ComparisonOp::Ge, 59),
        ],
        &["Secret"],
        "doc.xml",
    ));
    set
}

fn doc() -> Element {
    Element::new("root").child(Element::new("Secret").text("classified content"))
}

fn can_read(
    sub: &pbcd::core::Subscriber<pbcd::group::P256Group>,
    bc: &pbcd::docs::BroadcastContainer,
    pol: &PolicySet,
) -> bool {
    sub.decrypt_broadcast(bc, pol)
        .map(|d| d.find("Secret").is_some())
        .unwrap_or(false)
}

#[test]
fn forward_secrecy_subscription_revocation() {
    let mut sys = SystemHarness::new_p256(policies(), 1);
    let doctor = sys.subscribe("dora", AttributeSet::new().with_str("role", "doctor"));
    let nym = doctor.nym().unwrap().to_string();

    let b1 = sys.publisher.broadcast(&doc(), "doc.xml", &mut sys.rng);
    assert!(can_read(&doctor, &b1, sys.publisher.policies()));

    // Revoke the subscription; the next broadcast rekeys.
    assert!(sys.publisher.revoke_subscriber(&nym));
    let b2 = sys.publisher.broadcast(&doc(), "doc.xml", &mut sys.rng);
    assert!(
        !can_read(&doctor, &b2, sys.publisher.policies()),
        "revoked subscriber must not read post-revocation broadcasts"
    );
    // The old broadcast is still decryptable (keys are per-broadcast;
    // forward secrecy concerns *future* content).
    assert!(can_read(&doctor, &b1, sys.publisher.policies()));
}

#[test]
fn forward_secrecy_credential_revocation_is_fine_grained() {
    let mut sys = SystemHarness::new_p256(policies(), 2);
    // Nurse qualifies via role=nurse ∧ level ≥ 59.
    let nurse = sys.subscribe(
        "nancy",
        AttributeSet::new()
            .with_str("role", "nurse")
            .with("level", 60),
    );
    let nym = nurse.nym().unwrap().to_string();
    let b1 = sys.publisher.broadcast(&doc(), "doc.xml", &mut sys.rng);
    assert!(can_read(&nurse, &b1, sys.publisher.policies()));

    // Revoke only the level credential: the conjunction collapses.
    let level_cond = AttributeCondition::new("level", ComparisonOp::Ge, 59);
    assert!(sys.publisher.revoke_credential(&nym, &level_cond));
    let b2 = sys.publisher.broadcast(&doc(), "doc.xml", &mut sys.rng);
    assert!(!can_read(&nurse, &b2, sys.publisher.policies()));
}

#[test]
fn backward_secrecy_new_subscriber_cannot_read_old_broadcasts() {
    let mut sys = SystemHarness::new_p256(policies(), 3);
    let _existing = sys.subscribe("dora", AttributeSet::new().with_str("role", "doctor"));
    let b_old = sys.publisher.broadcast(&doc(), "doc.xml", &mut sys.rng);

    // A new doctor joins later.
    let newcomer = sys.subscribe("dan", AttributeSet::new().with_str("role", "doctor"));
    assert!(
        !can_read(&newcomer, &b_old, sys.publisher.policies()),
        "new subscriber must not decrypt pre-join broadcasts"
    );
    let b_new = sys.publisher.broadcast(&doc(), "doc.xml", &mut sys.rng);
    assert!(can_read(&newcomer, &b_new, sys.publisher.policies()));
}

#[test]
fn collusion_resistance_split_conjunction() {
    // Neither colluder satisfies the nurse policy alone: one has the role,
    // the other the level. Pooling CSSs must not unlock the content,
    // because the BGKM row hashes one subscriber's CSSs end-to-end.
    let mut sys = SystemHarness::new_p256(policies(), 4);
    let role_only = sys.subscribe(
        "rosa",
        AttributeSet::new()
            .with_str("role", "nurse")
            .with("level", 10),
    );
    let level_only = sys.subscribe(
        "lena",
        AttributeSet::new()
            .with_str("role", "cleaner")
            .with("level", 99),
    );
    let bc = sys.publisher.broadcast(&doc(), "doc.xml", &mut sys.rng);
    assert!(!can_read(&role_only, &bc, sys.publisher.policies()));
    assert!(!can_read(&level_only, &bc, sys.publisher.policies()));

    // Collusion: a synthetic subscriber holding rosa's role-CSS and lena's
    // level-CSS.
    let mut colluder = sys.subscribe("mallory", AttributeSet::new().with_str("role", "intruder"));
    let pol = sys.publisher.policies();
    let role_cond = AttributeCondition::eq_str("role", "nurse");
    let level_cond = AttributeCondition::new("level", ComparisonOp::Ge, 59);
    // Extract the CSSs the two holders actually obtained.
    // rosa holds the role CSS; lena holds the level CSS.
    assert!(role_only.has_css(&role_cond));
    assert!(level_only.has_css(&level_cond));
    // Wire them into the colluder via the test hook.
    colluder.inject_css(&role_cond, extract_css(&role_only, &role_cond));
    colluder.inject_css(&level_cond, extract_css(&level_only, &level_cond));
    assert!(
        !can_read(&colluder, &bc, pol),
        "pooled CSSs from different subscribers must not derive the key"
    );
}

/// Pulls a CSS out of a subscriber through the public API surface used by
/// tests (re-derives access by decrypting a single-condition broadcast is
/// overkill; the test hook keeps the scenario honest).
fn extract_css(
    sub: &pbcd::core::Subscriber<pbcd::group::P256Group>,
    cond: &AttributeCondition,
) -> Vec<u8> {
    sub.css_snapshot(cond).expect("css present")
}

#[test]
fn unqualified_registration_yields_no_css_but_publisher_cannot_tell() {
    let mut sys = SystemHarness::new_p256(policies(), 5);
    // A cleaner registers for every role/level condition (privacy-preserving
    // blanket registration) but can open none of the envelopes except…
    // none: no condition matches role=cleaner / level=3.
    let cleaner = sys.subscribe(
        "carl",
        AttributeSet::new()
            .with_str("role", "cleaner")
            .with("level", 3),
    );
    assert_eq!(cleaner.css_count(), 0, "no envelope opened");

    // The publisher's table still records deliveries for every condition it
    // composed envelopes for — it cannot distinguish carl from a doctor by
    // registration shape.
    let nym = cleaner.nym().unwrap();
    let table = sys.publisher.css_table();
    let conds = sys.publisher.policies().distinct_conditions();
    let covered = conds
        .iter()
        .filter(|c| table.get(&pbcd::gkm::Nym::new(nym), c).is_some())
        .count();
    // carl holds tokens for `role` and `level`, so he registered for all
    // three conditions (role=doctor, role=nurse, level≥59).
    assert_eq!(covered, 3, "publisher recorded all deliveries");
}

#[test]
fn publisher_state_contains_no_attribute_values() {
    // Structural privacy check: the publisher's view of a subscriber is
    // its nym, its commitments (hiding) and CSS table rows. Attribute
    // values never cross the boundary; here we check the CSS table rows
    // for both a qualified and an unqualified subscriber are shape-identical.
    let mut sys = SystemHarness::new_p256(policies(), 6);
    let doctor = sys.subscribe("dora", AttributeSet::new().with_str("role", "doctor"));
    let cleaner = sys.subscribe("carl", AttributeSet::new().with_str("role", "cleaner"));
    let table = sys.publisher.css_table();
    let role_conds: Vec<_> = sys.publisher.policies().conditions_on_attribute("role");
    for cond in &role_conds {
        let d = table.get(&pbcd::gkm::Nym::new(doctor.nym().unwrap()), cond);
        let c = table.get(&pbcd::gkm::Nym::new(cleaner.nym().unwrap()), cond);
        assert!(d.is_some() && c.is_some(), "both registered for {cond}");
        assert_eq!(d.unwrap().len(), c.unwrap().len(), "same CSS shape");
    }
}

#[test]
fn credential_update_changes_access() {
    // A nurse is promoted from level 58 to 60: re-registration with the
    // new token flips access on the next broadcast.
    let mut sys = SystemHarness::new_p256(policies(), 7);
    let mut nurse = sys.subscribe(
        "nancy",
        AttributeSet::new()
            .with_str("role", "nurse")
            .with("level", 58),
    );
    let b1 = sys.publisher.broadcast(&doc(), "doc.xml", &mut sys.rng);
    assert!(!can_read(&nurse, &b1, sys.publisher.policies()));

    // Promotion: new assertion, new token, fresh registration (the
    // publisher overrides the old CSS rows).
    nurse.update_attribute("level", 60);
    let mut promoted = sys.onboard("nancy", nurse.attributes().clone());
    sys.register_all(&mut promoted);
    let b2 = sys.publisher.broadcast(&doc(), "doc.xml", &mut sys.rng);
    assert!(can_read(&promoted, &b2, sys.publisher.policies()));
}

#[test]
fn decoy_tokens_hide_attribute_possession_without_granting_access() {
    // Paper §VI-A extension: a receptionist with no `level` or `role=doctor`
    // proof obtains decoy tokens and registers for those conditions too.
    // The publisher's table is indistinguishable from a fully-credentialed
    // subscriber's; the decoys never open an envelope — not even for
    // "level ≥ 59", which the out-of-range decoy value numerically exceeds.
    let mut sys = SystemHarness::new_p256(policies(), 9);
    let cleaner = sys.subscribe_with_decoys(
        "carl",
        AttributeSet::new().with_str("job", "cleaner"), // no policy attribute at all
        &["role", "level"],
    );
    // Registered for all three conditions via decoys…
    let table = sys.publisher.css_table();
    let nym = pbcd::gkm::Nym::new(cleaner.nym().unwrap());
    let covered = sys
        .publisher
        .policies()
        .distinct_conditions()
        .iter()
        .filter(|c| table.get(&nym, c).is_some())
        .count();
    assert_eq!(covered, 3, "decoys registered everywhere");
    // …but extracted nothing.
    assert_eq!(cleaner.css_count(), 0);
    // And reads nothing.
    let bc = sys.publisher.broadcast(&doc(), "doc.xml", &mut sys.rng);
    assert!(!can_read(&cleaner, &bc, sys.publisher.policies()));

    // Shape-comparison: a real doctor's table row covers the same three
    // conditions — the publisher cannot distinguish them structurally.
    let doctor = sys.subscribe_with_decoys(
        "dora",
        AttributeSet::new().with_str("role", "doctor"),
        &["level"],
    );
    let d_nym = pbcd::gkm::Nym::new(doctor.nym().unwrap());
    // One table snapshot, probed in the loop (css_table() copies).
    let d_table = sys.publisher.css_table();
    let d_covered = sys
        .publisher
        .policies()
        .distinct_conditions()
        .iter()
        .filter(|c| d_table.get(&d_nym, c).is_some())
        .count();
    assert_eq!(d_covered, 3, "same registration shape as the cleaner");
    let bc2 = sys.publisher.broadcast(&doc(), "doc.xml", &mut sys.rng);
    assert!(can_read(&doctor, &bc2, sys.publisher.policies()));
}

#[test]
fn container_tampering_is_detected() {
    let mut sys = SystemHarness::new_p256(policies(), 8);
    let doctor = sys.subscribe("dora", AttributeSet::new().with_str("role", "doctor"));
    let bc = sys.publisher.broadcast(&doc(), "doc.xml", &mut sys.rng);
    let pol = sys.publisher.policies();
    assert!(can_read(&doctor, &bc, pol));

    // Flip a ciphertext byte: decryption must fail closed (redacted), not
    // produce garbage plaintext.
    let mut tampered = bc.clone();
    for g in &mut tampered.groups {
        for s in &mut g.segments {
            if let Some(b) = s.ciphertext.last_mut() {
                *b ^= 1;
            }
        }
    }
    assert!(!can_read(&doctor, &tampered, pol));
}

#[test]
fn a_policy_on_one_document_grants_nothing_in_another() {
    // One object name, two documents, a different audience for each: the
    // intern's policy on b.xml must not open a.xml's Note, and the
    // doctor's policy on a.xml must not open b.xml's.
    let mut set = PolicySet::new();
    for (role, document) in [("doctor", "a.xml"), ("intern", "b.xml")] {
        let subject = vec![AttributeCondition::eq_str("role", role)];
        set.add(AccessControlPolicy::new(subject, &["Note"], document));
    }
    let mut sys = SystemHarness::new_p256(set, 10);
    let doctor = sys.subscribe("dora", AttributeSet::new().with_str("role", "doctor"));
    let intern = sys.subscribe("ivan", AttributeSet::new().with_str("role", "intern"));
    let memo = Element::new("Memo").child(Element::new("Note").text("doctors only"));
    let a = sys.publisher.broadcast(&memo, "a.xml", &mut sys.rng);
    let b = sys.publisher.broadcast(&memo, "b.xml", &mut sys.rng);
    let pol = sys.publisher.policies();
    let reads = |sub: &pbcd::core::Subscriber<pbcd::group::P256Group>, bc| {
        let view = sub.decrypt_broadcast(bc, pol).expect("decrypts");
        view.find("Note").is_some()
    };
    assert!(reads(&doctor, &a), "the doctor reads a.xml's Note");
    assert!(
        !reads(&intern, &a),
        "b.xml's policy must not open a.xml's Note"
    );
    assert!(reads(&intern, &b), "the intern reads b.xml's Note");
    assert!(
        !reads(&doctor, &b),
        "a.xml's policy must not open b.xml's Note"
    );
}
