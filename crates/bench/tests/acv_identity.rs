//! `AcvBgkm` must reproduce to the byte, and leave the rng in the same
//! state as, `pbcd_bench::NaiveAcv`: the same procedure built from public
//! primitives, which bench-json times as its `acv_*_naive` twin.

use pbcd_bench::NaiveAcv;
use pbcd_gkm::{AccessRow, AcvPublicInfo, ShardedAcvBgkm};
use pbcd_math::U128;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

const CSS_LENS: [usize; 13] = [0, 1, 16, 32, 48, 53, 54, 55, 56, 63, 64, 65, 130];
const TAUS: [usize; 4] = [1, 2, 21, 64];

fn rows_from_seed(seed: u64, count: usize, css_len: usize) -> Vec<AccessRow> {
    let mut rng = StdRng::seed_from_u64(seed);
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

/// Rows from `seed`; every third row from the fourth on repeats an earlier
/// `css_concat` when `duplicates` is set, making the matrix rank-deficient.
fn rows_with_duplicates(
    seed: u64,
    count: usize,
    css_len: usize,
    duplicates: bool,
) -> Vec<AccessRow> {
    let mut rows = rows_from_seed(seed, count, css_len);
    if duplicates {
        for i in (3..count).step_by(3) {
            rows[i].css_concat = rows[i / 2].css_concat.clone();
        }
    }
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn acv_rekey_is_the_reference_rekey(
        seed in any::<u64>(),
        count in 0usize..40,
        duplicates in any::<bool>(),
        css_idx in 0usize..CSS_LENS.len(),
        tau_idx in 0usize..TAUS.len(),
        extra in 0usize..6,
    ) {
        let rows = rows_with_duplicates(seed, count, CSS_LENS[css_idx], duplicates);
        let reference = NaiveAcv::new(TAUS[tau_idx], extra);
        let scheme = reference.scheme();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1DE);
        let mut ref_rng = rng.clone();
        let (key, info) = scheme.rekey(&rows, &mut rng);
        let expect = reference.rekey_batch(&rows, 1, &mut ref_rng).remove(0);
        prop_assert_eq!(info.encode(), expect.1.encode());
        prop_assert_eq!(&key, &expect.0);
        prop_assert_eq!(rng.next_u64(), ref_rng.next_u64());
        // Subscriber side, members and an outsider alike.
        for css in rows.iter().map(|r| r.css_concat.as_slice()).chain([&b"outsider"[..]]) {
            prop_assert_eq!(scheme.derive_key(&info, css), reference.derive_key(&info, css));
        }
    }

    #[test]
    fn every_acv_entry_point_is_its_reference(
        seed in any::<u64>(),
        count in 0usize..24,
        duplicates in any::<bool>(),
        extra in 0usize..3,
        cap in 1usize..12,
    ) {
        let rows = rows_with_duplicates(seed, count, 16, duplicates);
        let reference = NaiveAcv::new(2, extra);
        let scheme = reference.scheme();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xE27);
        let mut ref_rng = rng.clone();

        prop_assert_eq!(
            scheme.rekey_batch(&rows, 3, &mut rng),
            reference.rekey_batch(&rows, 3, &mut ref_rng)
        );

        let key = reference.field.random_nonzero(&mut rng);
        ref_rng = rng.clone();
        prop_assert_eq!(
            scheme.rekey_with_key(&rows, &key, &mut rng),
            reference.rekey_with_key(&rows, &key, &mut ref_rng)
        );

        // Dominance-shaped configurations: shared rows, an empty one.
        let configs = vec![
            rows[..count / 3].to_vec(),
            rows.clone(),
            Vec::new(),
            rows[count / 2..].to_vec(),
        ];
        prop_assert_eq!(
            scheme.rekey_configs(&configs, &mut rng),
            reference.rekey_configs(&configs, &mut ref_rng)
        );

        // Sharded: one key drawn first, then one keyed rekey per bucket.
        let sharded = ShardedAcvBgkm::new(scheme, cap);
        let (shard_key, shard_info) = sharded.rekey(&rows, &mut rng);
        let num_shards = count.div_ceil(cap).max(1) as u32;
        let key = reference.field.random_nonzero(&mut ref_rng);
        let expect: Vec<AcvPublicInfo> = (0..num_shards)
            .map(|shard| {
                let bucket: Vec<AccessRow> = rows
                    .iter()
                    .filter(|r| ShardedAcvBgkm::shard_of(&r.nym, num_shards) == shard)
                    .cloned()
                    .collect();
                reference.rekey_with_key(&bucket, &key, &mut ref_rng)
            })
            .collect();
        prop_assert_eq!(shard_key, reference.key_bytes(&key));
        prop_assert_eq!(shard_info.shards, expect);
        prop_assert_eq!(rng.next_u64(), ref_rng.next_u64());
    }
}

/// A hostile broker can send 255-byte nonces and coordinates at or above
/// `q`; `decode` accepts both, and `derive_key` must answer as the
/// reference does, not panic.
#[test]
fn derive_key_takes_the_widest_public_info_decode_accepts() {
    let reference = NaiveAcv::new(2, 0);
    let mut rng = StdRng::seed_from_u64(255);
    let zs: Vec<Vec<u8>> = (0..7)
        .map(|_| {
            let mut z = vec![0u8; 255];
            rng.fill_bytes(&mut z);
            z
        })
        .collect();
    let mut x: Vec<U128> = (0..8).map(|_| U128::random_bits(&mut rng, 128)).collect();
    x[0] = U128::MAX;
    x[3] = *reference.field.modulus();
    let info = AcvPublicInfo { x, zs };
    let decoded = AcvPublicInfo::decode(&info.encode()).expect("decode accepts τ = 255");
    assert_eq!(decoded, info);
    for css_len in CSS_LENS {
        let css = vec![0xC5u8; css_len];
        assert_eq!(
            reference.scheme().derive_key(&decoded, &css),
            reference.derive_key(&decoded, &css),
            "css_len={css_len}"
        );
    }
}
