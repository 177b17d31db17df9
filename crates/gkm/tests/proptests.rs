//! Property-based tests for the GKM schemes: soundness and exclusion hold
//! for arbitrary membership shapes, CSS lengths and scheme parameters.

use pbcd_crypto::sha256;
use pbcd_gkm::{
    AccessRow, AcvBgkm, AcvPublicInfo, BroadcastGkm, MarkerGkm, SecureLockGkm, ShardedAcvBgkm,
    SimplisticGkm,
};
use pbcd_math::{FpCtx, U128};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

const CSS_LENS: [usize; 13] = [0, 1, 16, 32, 48, 53, 54, 55, 56, 63, 64, 65, 130];

fn rows_from_seed(seed: u64, count: usize, css_len: usize) -> Vec<AccessRow> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            let mut css = vec![0u8; css_len];
            rng.fill_bytes(&mut css);
            AccessRow {
                nym: format!("pn-{i:04}"),
                css_concat: css,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn acv_soundness_and_exclusion(
        seed in any::<u64>(),
        count in 1usize..24,
        css_len in 1usize..64,
        extra in 0usize..8,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xACE);
        let rows = rows_from_seed(seed, count, css_len);
        let scheme = AcvBgkm::new(FpCtx::new(pbcd_math::gkm_q80()), 2, extra);
        let (key, info) = scheme.rekey(&rows, &mut rng);
        prop_assert_eq!(info.zs.len(), (count + extra).max(1));
        for row in &rows {
            prop_assert_eq!(scheme.derive_key(&info, &row.css_concat), key.clone());
        }
        // An outsider CSS (fresh random bytes) never derives the key.
        let mut outsider = vec![0u8; css_len];
        rng.fill_bytes(&mut outsider);
        if !rows.iter().any(|r| r.css_concat == outsider) {
            prop_assert_ne!(scheme.derive_key(&info, &outsider), key);
        }
    }

    #[test]
    fn acv_rekey_invalidates_prior_keys(seed in any::<u64>(), count in 1usize..16) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xBEEF);
        let rows = rows_from_seed(seed, count, 16);
        let scheme = AcvBgkm::default();
        let (k1, i1) = scheme.rekey(&rows, &mut rng);
        let (k2, i2) = scheme.rekey(&rows, &mut rng);
        prop_assert_ne!(&k1, &k2);
        // Keys derived from the *old* info still equal the old key, not the new.
        prop_assert_eq!(scheme.derive_key(&i1, &rows[0].css_concat), k1);
        prop_assert_eq!(scheme.derive_key(&i2, &rows[0].css_concat), k2);
    }

    #[test]
    fn acv_public_info_roundtrip(seed in any::<u64>(), count in 0usize..16) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xC0DE);
        let rows = rows_from_seed(seed, count, 16);
        let scheme = AcvBgkm::default();
        let (_, info) = scheme.rekey(&rows, &mut rng);
        let enc = info.encode();
        prop_assert_eq!(AcvPublicInfo::decode(&enc), Some(info));
        // Any truncation fails to decode.
        for cut in [0, 1, enc.len() / 2, enc.len().saturating_sub(1)] {
            if cut < enc.len() {
                prop_assert_eq!(AcvPublicInfo::decode(&enc[..cut]), None);
            }
        }
    }

    #[test]
    fn sharded_agrees_with_flat_on_membership(
        seed in any::<u64>(),
        count in 1usize..32,
        cap in 1usize..16,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x54A2);
        let rows = rows_from_seed(seed, count, 16);
        let sharded = ShardedAcvBgkm::new(AcvBgkm::default(), cap);
        let (key, info) = sharded.rekey(&rows, &mut rng);
        prop_assert_eq!(info.num_shards as usize, count.div_ceil(cap).max(1));
        for row in &rows {
            prop_assert_eq!(sharded.derive_key(&info, &row.nym, &row.css_concat), key.clone());
        }
    }

    #[test]
    fn marker_scheme_membership(seed in any::<u64>(), count in 0usize..24) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x3A3);
        let rows = rows_from_seed(seed, count, 16);
        let scheme = MarkerGkm::new();
        let (key, info) = scheme.rekey(&rows, &mut rng);
        for row in &rows {
            prop_assert_eq!(scheme.derive_key(&info, &row.css_concat), Some(key.clone()));
        }
        let mut outsider = vec![0u8; 16];
        rng.fill_bytes(&mut outsider);
        if !rows.iter().any(|r| r.css_concat == outsider) {
            prop_assert_eq!(scheme.derive_key(&info, &outsider), None);
        }
    }

    #[test]
    fn secure_lock_membership(seed in any::<u64>(), count in 0usize..10) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x10C4);
        let rows = rows_from_seed(seed, count, 16);
        let scheme = SecureLockGkm::new();
        let (key, info) = scheme.rekey(&rows, &mut rng);
        for row in &rows {
            prop_assert_eq!(scheme.derive_key(&info, &row.css_concat), key.clone());
        }
    }
}

/// Round-trip, every strict prefix rejected, and no panic on flipped or
/// random bytes — for whichever scheme's public info.
fn codec_is_total<S: BroadcastGkm>(scheme: &S, seed: u64, count: usize) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x707A1);
    let rows = rows_from_seed(seed, count, 16);
    let (_, info) = scheme.rekey(&rows, &mut rng);
    let enc = scheme.encode_info(&info);
    assert_eq!(scheme.decode_info(&enc), Some(info));
    for cut in 0..enc.len() {
        assert_eq!(scheme.decode_info(&enc[..cut]), None, "prefix {cut}");
    }
    for _ in 0..64 {
        let mut flipped = enc.clone();
        let bit = rng.next_u64() as usize % (8 * enc.len());
        flipped[bit / 8] ^= 1 << (bit % 8);
        let _ = scheme.decode_info(&flipped);
        let mut junk = vec![0u8; rng.next_u64() as usize % (enc.len() + 16)];
        rng.fill_bytes(&mut junk);
        let _ = scheme.decode_info(&junk);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn public_info_codecs_are_total(seed in any::<u64>(), count in 0usize..12, cap in 1usize..6) {
        codec_is_total(&AcvBgkm::default(), seed, count);
        codec_is_total(&ShardedAcvBgkm::new(AcvBgkm::default(), cap), seed, count);
        codec_is_total(&MarkerGkm::new(), seed, count);
        codec_is_total(&SecureLockGkm::new(), seed, count);
        codec_is_total(&SimplisticGkm::new(), seed, count);
    }
}

/// A hand-built public info over `n` nonces of `tau` bytes from `seed`.
fn info_from_seed(seed: u64, n: usize, tau: usize) -> AcvPublicInfo {
    let mut rng = StdRng::seed_from_u64(seed);
    let zs = (0..n)
        .map(|_| {
            let mut z = vec![0u8; tau];
            rng.fill_bytes(&mut z);
            z
        })
        .collect();
    let x = (0..=n).map(|_| U128::random_bits(&mut rng, 64)).collect();
    AcvPublicInfo { x, zs }
}

// The row function is keyed by the CSS and the whole nonce set, and indexes
// columns by position. A key of the CSS alone (nonce in the counter) would
// repeat rows across rekeys; an entry of `(css, zⱼ)` alone would make equal
// nonces equal columns. Each property below fails under one of those.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn equal_nonces_give_distinct_entries(
        seed in any::<u64>(),
        n in 2usize..40,
        j in 0usize..40,
        k in 0usize..40,
        css_idx in 0usize..CSS_LENS.len(),
    ) {
        let (j, k) = (j % n, k % n);
        prop_assume!(j != k);
        let mut info = info_from_seed(seed, n, 2);
        info.zs[k] = info.zs[j].clone();
        let css = vec![0x5Au8; CSS_LENS[css_idx]];
        let nu = AcvBgkm::default().extraction_vector(&info, &css);
        prop_assert_ne!(&nu[1 + j], &nu[1 + k]);
    }

    #[test]
    fn one_nonce_changes_every_entry_of_the_row(
        seed in any::<u64>(),
        n in 1usize..40,
        k in 0usize..40,
        bit in 0usize..16,
    ) {
        let k = k % n;
        let info = info_from_seed(seed, n, 2);
        let mut moved = info.clone();
        moved.zs[k][bit / 8] ^= 1 << (bit % 8);
        let css = rows_from_seed(seed, 1, 16).remove(0).css_concat;
        let scheme = AcvBgkm::default();
        let before = scheme.extraction_vector(&info, &css);
        let after = scheme.extraction_vector(&moved, &css);
        for j in 1..=n {
            prop_assert_ne!(&before[j], &after[j], "entry {} of {}", j, n);
        }
    }

    #[test]
    fn one_css_gets_unrelated_rows_across_rekeys(seed in any::<u64>(), count in 1usize..24) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x2E4);
        let rows = rows_from_seed(seed, count, 16);
        let scheme = AcvBgkm::default();
        let (_, first) = scheme.rekey(&rows, &mut rng);
        let (_, second) = scheme.rekey(&rows, &mut rng);
        let css = &rows[0].css_concat;
        let before = scheme.extraction_vector(&first, css);
        let after = scheme.extraction_vector(&second, css);
        // No entry of the first row appears anywhere in the second.
        for a in &before[1..] {
            prop_assert!(after[1..].iter().all(|b| b != a));
        }
    }
}

/// SHA-256 of seeded public infos: whatever else changes, these bytes may
/// not. Captured at the commit before `hash_row` and the echelon solve, and
/// moved once since, when the row function became one ChaCha20 keystream
/// per row in place of one SHA-256 per entry.
#[test]
fn seeded_public_info_matches_the_pinned_bytes() {
    for (count, pin) in [
        (
            96,
            "52c98cb4f85ca5aa18446a38ed04dd82628dab0533178b3a10f85aa373eecbd2",
        ),
        (
            48,
            "f9d7f7e789df8d201a8794b547bcb099860638d3d4bdb26de6d68026ec5b0566",
        ),
    ] {
        let mut rng = StdRng::seed_from_u64(0x60_1D + count as u64);
        let rows = rows_from_seed(count as u64, count, 16);
        let (key, info) = AcvBgkm::default().rekey(&rows, &mut rng);
        let mut bytes = key;
        bytes.extend_from_slice(&info.encode());
        assert_eq!(hex(&sha256(&bytes)), pin, "{count} rows");
    }
}
