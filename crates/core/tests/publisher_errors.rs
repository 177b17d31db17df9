//! Publisher-side validation: registrations must be rejected for forged
//! tokens, mismatched tags and conditions outside the policy set.

use pbcd_core::proto::RegisterRequest;
use pbcd_core::{IdentityToken, PbcdError, Publisher, PublisherConfig, SystemHarness};
use pbcd_group::{P256Group, SigningKey};
use pbcd_ocbe::ProofMessage;
use pbcd_policy::{AccessControlPolicy, AttributeCondition, AttributeSet, ComparisonOp, PolicySet};
use rand::SeedableRng;
use std::slice;

fn policies() -> PolicySet {
    let mut set = PolicySet::new();
    set.add(AccessControlPolicy::new(
        vec![AttributeCondition::new("age", ComparisonOp::Ge, 18)],
        &["Content"],
        "d.xml",
    ));
    set
}

fn harness() -> SystemHarness<P256Group> {
    SystemHarness::new_p256(policies(), 0xE221)
}

/// One registration through the publisher's registrar.
fn register(
    sys: &mut SystemHarness<P256Group>,
    token: IdentityToken<P256Group>,
    cond: AttributeCondition,
    proof: ProofMessage<P256Group>,
) -> Result<(), PbcdError> {
    let request = RegisterRequest { token, cond, proof };
    let registrar = sys.publisher.registrar();
    registrar
        .register_batch(slice::from_ref(&request), &mut sys.rng)
        .remove(0)?;
    Ok(())
}

#[test]
fn forged_token_rejected() {
    let mut sys = harness();
    let sub = sys.onboard("alice", AttributeSet::new().with("age", 30));
    let mut token = sub.token_for("age").unwrap().clone();
    // Re-sign with a rogue key: the publisher must reject it.
    let group = P256Group::new();
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let rogue = SigningKey::generate(&group, &mut rng);
    let payload = b"wrong payload entirely";
    token.signature = rogue.sign(&group, &mut rng, payload);
    let cond = AttributeCondition::new("age", ComparisonOp::Ge, 18);
    let err = register(&mut sys, token, cond, ProofMessage::Empty).unwrap_err();
    assert_eq!(err, PbcdError::BadTokenSignature);
}

#[test]
fn tag_mismatch_rejected() {
    let mut sys = harness();
    let sub = sys.onboard("alice", AttributeSet::new().with("age", 30));
    let token = sub.token_for("age").unwrap().clone();
    // Use the age token against a condition on a different attribute that
    // exists in no policy either — tag check fires first.
    let cond = AttributeCondition::new("level", ComparisonOp::Ge, 1);
    let err = register(&mut sys, token, cond, ProofMessage::Empty).unwrap_err();
    assert!(matches!(err, PbcdError::TagMismatch { .. }));
}

#[test]
fn unknown_condition_rejected() {
    let mut sys = harness();
    let sub = sys.onboard("alice", AttributeSet::new().with("age", 30));
    let token = sub.token_for("age").unwrap().clone();
    // Right attribute, but a threshold no policy mentions.
    let cond = AttributeCondition::new("age", ComparisonOp::Ge, 99);
    let (proof, _secrets) = sub
        .prepare_registration(sys.publisher.ocbe(), &cond, &mut sys.rng)
        .unwrap();
    let err = register(&mut sys, token, cond, proof).unwrap_err();
    assert_eq!(err, PbcdError::UnknownCondition);
}

#[test]
fn wrong_proof_shape_rejected() {
    let mut sys = harness();
    let sub = sys.onboard("alice", AttributeSet::new().with("age", 30));
    let token = sub.token_for("age").unwrap().clone();
    // A GE condition needs digit commitments, not the empty EQ proof.
    let cond = AttributeCondition::new("age", ComparisonOp::Ge, 18);
    let err = register(&mut sys, token, cond, ProofMessage::Empty).unwrap_err();
    assert_eq!(
        err,
        PbcdError::Ocbe(pbcd_ocbe::OcbeError::ProofShapeMismatch)
    );
}

#[test]
fn revocation_of_unknown_subscriber_is_a_noop() {
    let mut sys = harness();
    assert!(!sys.publisher.revoke_subscriber("pn-9999"));
    let cond = AttributeCondition::new("age", ComparisonOp::Ge, 18);
    assert!(!sys.publisher.revoke_credential("pn-9999", &cond));
}

#[test]
fn conditions_for_attribute_filters_by_name() {
    let sys = harness();
    assert_eq!(sys.publisher.conditions_for_attribute("age").len(), 1);
    assert!(sys.publisher.conditions_for_attribute("role").is_empty());
}

#[test]
fn subscriber_without_token_cannot_prepare() {
    let mut sys = harness();
    let sub = sys.onboard("alice", AttributeSet::new().with("age", 30));
    let cond = AttributeCondition::new("level", ComparisonOp::Ge, 1);
    let err = sub
        .prepare_registration(sys.publisher.ocbe(), &cond, &mut sys.rng)
        .unwrap_err();
    assert_eq!(err, PbcdError::MissingToken("level".into()));
}

#[test]
fn registration_is_idempotent_with_fresh_css() {
    // Re-registering the same (nym, cond) overrides the old CSS (paper:
    // credential update) — and only the latest CSS derives future keys.
    let mut sys = harness();
    let mut sub = sys.onboard("alice", AttributeSet::new().with("age", 30));
    let extracted_first = sys.register_all(&mut sub);
    assert_eq!(extracted_first, 1);
    let table_size = sys.publisher.shared_css_table().record_count();
    let extracted_again = sys.register_all(&mut sub);
    assert_eq!(extracted_again, 1);
    assert_eq!(
        sys.publisher.shared_css_table().record_count(),
        table_size,
        "override, not append"
    );
}

#[test]
fn custom_config_is_respected() {
    let config = PublisherConfig {
        ell: 16,
        kappa_bits: 64,
    };
    let group = P256Group::new();
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let idmgr_key = SigningKey::generate(&group, &mut rng).verifying_key();
    let publisher = Publisher::with_config(group, idmgr_key, policies(), config);
    assert_eq!(publisher.ocbe().ell(), 16);
    assert_eq!(publisher.shared_css_table().kappa_bits(), 64);
}
