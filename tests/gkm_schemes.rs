//! Cross-scheme GKM comparison: every scheme must give members the key and
//! deny outsiders; the schemes differ in rekey mechanics and costs (the
//! ablation benches measure those).

use pbcd::gkm::{
    AccessRow, AcvBgkm, LkhPublisher, MarkerGkm, SecureLockGkm, ShardedAcvBgkm, SimplisticGkm,
};
use rand::{Rng, RngCore, SeedableRng};

fn rng() -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(0x6B3)
}

fn rows<R: Rng>(r: &mut R, n: usize) -> Vec<AccessRow> {
    (0..n)
        .map(|i| {
            let mut css = vec![0u8; 16];
            r.fill_bytes(&mut css);
            AccessRow {
                nym: format!("pn-{i:04}"),
                css_concat: css,
            }
        })
        .collect()
}

#[test]
fn all_broadcast_schemes_agree_on_membership_semantics() {
    let mut r = rng();
    let members = rows(&mut r, 10);
    let outsider = {
        let mut css = vec![0u8; 16];
        r.fill_bytes(&mut css);
        css
    };

    // ACV-BGKM.
    let acv = AcvBgkm::default();
    let (k, info) = acv.rekey(&members, &mut r);
    for m in &members {
        assert_eq!(acv.derive_key(&info, &m.css_concat), k);
    }
    assert_ne!(acv.derive_key(&info, &outsider), k);

    // Sharded ACV.
    let sharded = ShardedAcvBgkm::new(AcvBgkm::default(), 4);
    let (k, info) = sharded.rekey(&members, &mut r);
    for m in &members {
        assert_eq!(
            sharded.derive_key(&info, &m.nym, &m.css_concat),
            Some(k.clone())
        );
    }

    // Marker scheme.
    let marker = MarkerGkm::new();
    let (k, info) = marker.rekey(&members, &mut r);
    for m in &members {
        assert_eq!(marker.derive_key(&info, &m.css_concat), Some(k.clone()));
    }
    assert_eq!(marker.derive_key(&info, &outsider), None);

    // CRT secure lock.
    let lock = SecureLockGkm::new();
    let (k, info) = lock.rekey(&members, &mut r);
    for m in &members {
        assert_eq!(lock.derive_key(&info, &m.css_concat), k);
    }
    assert_ne!(lock.derive_key(&info, &outsider), k);

    // Simplistic direct delivery.
    let simple = SimplisticGkm::new();
    let (k, info) = simple.rekey(&members, &mut r);
    for m in &members {
        assert_eq!(
            simple.derive_key(&info, &m.nym, &m.css_concat),
            Some(k.clone())
        );
    }
    assert_eq!(simple.derive_key(&info, "pn-0000", &outsider), None);
}

#[test]
fn acv_is_stateless_for_subscribers_lkh_is_not() {
    // The paper's transparency claim: ACV subscribers hold only their CSSs
    // across arbitrarily many rekeys; LKH members must apply every rekey
    // batch or lose the group key.
    let mut r = rng();
    let members = rows(&mut r, 6);
    let acv = AcvBgkm::default();
    // 5 successive rekeys; the same CSS derives each new key with no
    // subscriber-side state change.
    for _ in 0..5 {
        let (k, info) = acv.rekey(&members, &mut r);
        assert_eq!(acv.derive_key(&info, &members[0].css_concat), k);
    }

    // LKH: a member that misses a rekey batch diverges.
    let mut pubr = LkhPublisher::new(8);
    let (mut alice, _) = pubr.join("alice", b"a", &mut r).unwrap();
    let (mut bob, m2) = pubr.join("bob", b"b", &mut r).unwrap();
    alice.apply_replacing(&m2);
    let (_carol, m3) = pubr.join("carol", b"c", &mut r).unwrap();
    // Bob applies, Alice misses the batch.
    bob.apply_replacing(&m3);
    assert_eq!(bob.group_key(), pubr.group_key());
    assert_ne!(alice.group_key(), pubr.group_key());
}

#[test]
fn rekey_traffic_profiles_differ_as_the_paper_claims() {
    let mut r = rng();
    let members = rows(&mut r, 50);

    // ACV: one broadcast, ~(N+1)·10 + N·τ bytes.
    let acv = AcvBgkm::default();
    let (_, acv_info) = acv.rekey(&members, &mut r);
    let acv_size = acv_info.size_bytes_compressed(80);

    // Marker: 16 + 32·N bytes.
    let marker = MarkerGkm::new();
    let (_, m_info) = marker.rekey(&members, &mut r);
    let marker_size = marker.public_size(&m_info);

    // Simplistic: ≈ N × (nym + AEAD-wrapped key) bytes of *addressed*
    // traffic.
    let simple = SimplisticGkm::new();
    let (_, s_info) = simple.rekey(&members, &mut r);
    let simple_size = simple.public_size(&s_info);

    // All linear in N, with ACV the most compact per row among the
    // broadcast schemes at these parameters.
    assert!(acv_size < marker_size, "{acv_size} vs {marker_size}");
    assert!(marker_size < simple_size, "{marker_size} vs {simple_size}");
}

#[test]
fn sharded_acv_scales_matrix_size_not_semantics() {
    let mut r = rng();
    let members = rows(&mut r, 64);
    let flat = AcvBgkm::default();
    let sharded = ShardedAcvBgkm::new(AcvBgkm::default(), 16);
    let (_, flat_info) = flat.rekey(&members, &mut r);
    let (k, shard_info) = sharded.rekey(&members, &mut r);
    assert_eq!(flat_info.zs.len(), 64);
    assert_eq!(shard_info.num_shards, 4);
    // Hash bucketing is approximately balanced: all members are covered
    // and every shard is strictly smaller than the flat matrix.
    let total: usize = shard_info.shards.iter().map(|s| s.zs.len()).sum();
    assert_eq!(total, 64);
    for s in &shard_info.shards {
        assert!(s.zs.len() < 40, "shard of {} rows", s.zs.len());
    }
    for m in &members {
        assert_eq!(
            sharded.derive_key(&shard_info, &m.nym, &m.css_concat),
            Some(k.clone())
        );
    }
}
