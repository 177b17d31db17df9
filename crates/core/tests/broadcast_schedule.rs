//! `Publisher::broadcast` follows the randomness schedule its rustdoc
//! documents: a serial reference loop written from that text, with public
//! pieces only, reproduces the container byte for byte and leaves the
//! caller's generator in the same state.

use pbcd_core::SystemHarness;
use pbcd_crypto::AuthKey;
use pbcd_docs::{segment, BroadcastContainer, Element, EncryptedGroup, EncryptedSegment, Segment};
use pbcd_gkm::{AccessRow, BroadcastGkm};
use pbcd_policy::{AccessControlPolicy, AttributeCondition, AttributeSet, PolicySet};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::BTreeMap;

#[test]
fn broadcast_matches_the_documented_schedule() {
    let mut policies = PolicySet::new();
    for (role, objects) in [
        ("doctor", ["Chart", "Scan"]),
        ("nurse", ["Chart", "Vitals"]),
    ] {
        let subject = vec![AttributeCondition::eq_str("role", role)];
        policies.add(AccessControlPolicy::new(subject, &objects, "ward.xml"));
    }
    let mut sys = SystemHarness::new_p256(policies, 28);
    for role in ["doctor", "nurse"] {
        sys.subscribe(role, AttributeSet::new().with_str("role", role));
    }
    let mut doc = Element::new("Ward");
    for (i, tag) in ["Scan", "Chart", "Scan", "Vitals", "Scan", "Vitals", "Scan"]
        .into_iter()
        .enumerate()
    {
        doc = doc.child(Element::new(tag).text(&format!("{tag} {i}")));
    }
    let mut rng = sys.rng.clone();
    let container = sys.publisher.broadcast(&doc, "ward.xml", &mut sys.rng);

    // The reference: configurations in `BTreeMap` order, segments in
    // container order; one 32-byte seed per configuration, then one
    // 12-byte nonce per segment, all drawn up front by `fill_bytes`.
    let publisher = &sys.publisher;
    let (pol, table, gkm) = (
        publisher.policies(),
        publisher.shared_css_table(),
        publisher.gkm(),
    );
    let segmented = segment(&doc, "ward.xml", &["Chart", "Scan", "Vitals"]);
    let mut by_config: BTreeMap<_, Vec<&Segment>> = BTreeMap::new();
    for seg in &segmented.segments {
        let pc = pol.configuration_in("ward.xml", &seg.tag);
        by_config.entry(pc).or_default().push(seg);
    }
    let mut seeds = vec![[0u8; 32]; by_config.len()];
    let mut nonces = vec![[0u8; 12]; segmented.segments.len()];
    seeds.iter_mut().for_each(|seed| rng.fill_bytes(seed));
    nonces.iter_mut().for_each(|nonce| rng.fill_bytes(nonce));
    let mut nonces = nonces.iter();
    let mut groups = Vec::new();
    for (i, ((pc, segs), seed)) in by_config.iter().zip(seeds).enumerate() {
        // One row per (member policy, subscriber holding all its CSSs).
        let mut rows = Vec::new();
        for acp in pc.acp_ids().map(|id| pol.get(id).expect("member policy")) {
            for nym in table.nyms_with_all(&acp.conditions) {
                let css_concat = table.css_concat(&nym, &acp.conditions).expect("row");
                let nym = nym.as_str().to_string();
                rows.push(AccessRow { nym, css_concat });
            }
        }
        let (key, info) = gkm.rekey(&rows, &mut StdRng::from_seed(seed));
        let key = AuthKey::from_master(&key);
        let segments = segs
            .iter()
            .zip(&mut nonces)
            .map(|(seg, nonce)| EncryptedSegment {
                segment_id: seg.id,
                tag: seg.tag.clone(),
                ciphertext: key.encrypt_with_nonce(nonce, seg.content.to_xml().as_bytes()),
            });
        groups.push(EncryptedGroup {
            config_id: i as u32,
            key_info: gkm.encode_info(&info),
            segments: segments.collect(),
        });
    }
    let sizes: Vec<usize> = groups.iter().map(|g| g.segments.len()).collect();
    assert_eq!(sizes, [4, 1, 2], "three configurations of uneven size");
    let reference = BroadcastContainer {
        epoch: 1,
        document_name: "ward.xml".into(),
        skeleton_xml: segmented.skeleton.to_xml(),
        groups,
    };
    assert_eq!(container.encode(), reference.encode());
    assert_eq!(
        rng.next_u64(),
        sys.rng.next_u64(),
        "same draws from the caller"
    );
}
