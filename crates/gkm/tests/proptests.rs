//! Property-based tests for the GKM schemes: soundness and exclusion hold
//! for arbitrary membership shapes, CSS lengths and scheme parameters.

use pbcd_crypto::{chacha20_block, sha256, NONCE_LEN};
use pbcd_gkm::{
    AccessRow, AcvBgkm, AcvPublicInfo, BroadcastGkm, MarkerGkm, SecureLockGkm, ShardedAcvBgkm,
    SimplisticGkm,
};
use pbcd_math::{Fp, FpCtx, Matrix, U128, U256};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::sync::Arc;

/// ACV-BGKM rebuilt from public primitives only — one allocated
/// concatenation and one `sha256` per row for the row key, one
/// `chacha20_block` and one wide-integer `rem` per entry, Gauss–Jordan
/// `null_space_basis` combined with coefficients drawn from the caller's
/// rng. It is the row function and solve `AcvBgkm` documents, without its
/// in-place expansion or its echelon-form stop, so for one rng stream the
/// two must agree to the byte and leave the rng in the same state.
struct Reference {
    field: Arc<FpCtx<2>>,
    tau_bytes: usize,
    extra_slots: usize,
}

impl Reference {
    fn new(tau_bytes: usize, extra_slots: usize) -> Self {
        Self {
            field: FpCtx::new(pbcd_math::gkm_q80()),
            tau_bytes,
            extra_slots,
        }
    }

    /// The scheme under test with the same parameters.
    fn scheme(&self) -> AcvBgkm {
        AcvBgkm::new(self.field.clone(), self.tau_bytes, self.extra_slots)
    }

    /// `N` pairwise distinct nonces, τ raised until `τ·N > 160` bits and
    /// until `N` values fill at most half the nonce space.
    fn nonces(&self, rows: usize, rng: &mut StdRng) -> Vec<Vec<u8>> {
        let n = (rows + self.extra_slots).max(1);
        let mut tau = self.tau_bytes.max(161usize.div_ceil(8 * n));
        while 8 * tau < usize::BITS as usize && n > 1 << (8 * tau - 1) {
            tau += 1;
        }
        let mut zs: Vec<Vec<u8>> = Vec::new();
        while zs.len() < n {
            let mut z = vec![0u8; tau];
            rng.fill_bytes(&mut z);
            if !zs.contains(&z) {
                zs.push(z);
            }
        }
        zs
    }

    /// `a₁…a_N`: `k = sha256(label ‖ u64 len(css) ‖ css ‖ u64 N ‖ z₁ ‖ … ‖
    /// z_N)`, then `aⱼ` = half `(j−1) mod 2` of ChaCha20 block `⌊(j−1)/2⌋`
    /// under `k` with the zero nonce, read big-endian, `mod q`.
    fn row(&self, css: &[u8], zs: &[Vec<u8>]) -> Vec<Fp<2>> {
        let mut input = b"pbcd-acv-row-chacha20".to_vec();
        input.extend((css.len() as u64).to_be_bytes());
        input.extend(css);
        input.extend((zs.len() as u64).to_be_bytes());
        input.extend(zs.concat());
        let key = sha256(&input);
        (0..zs.len())
            .map(|j| {
                let block = chacha20_block(&key, (j / 2) as u32, &[0; NONCE_LEN]);
                let half = U256::from_be_bytes(&block[32 * (j % 2)..][..32]).expect("32 bytes");
                let reduced = half.rem(&self.field.modulus().widen::<4>());
                self.field
                    .from_uint(&reduced.narrow::<2>().expect("below q"))
            })
            .collect()
    }

    fn matrix(&self, rows: &[AccessRow], zs: &[Vec<u8>]) -> Matrix<2> {
        let tails: Vec<_> = rows.iter().map(|r| self.row(&r.css_concat, zs)).collect();
        Matrix::from_fn(&self.field, rows.len(), zs.len() + 1, |i, j| match j {
            0 => self.field.one(),
            _ => tails[i][j - 1].clone(),
        })
    }

    /// Footnote 11: resample while the tail of `X` is all zero.
    fn acv(&self, a: &Matrix<2>, key: &Fp<2>, zs: &[Vec<u8>], rng: &mut StdRng) -> AcvPublicInfo {
        loop {
            let mut x = basis_combination(a, rng);
            x[0] = &x[0] + key;
            if a.rows() == 0 || x[1..].iter().any(|e| !e.is_zero()) {
                return AcvPublicInfo {
                    x: x.iter().map(Fp::to_uint).collect(),
                    zs: zs.to_vec(),
                };
            }
        }
    }

    fn key_bytes(&self, key: &Fp<2>) -> Vec<u8> {
        key.to_be_bytes()[16 - self.scheme().key_len()..].to_vec()
    }

    fn rekey_batch(
        &self,
        rows: &[AccessRow],
        count: usize,
        rng: &mut StdRng,
    ) -> Vec<(Vec<u8>, AcvPublicInfo)> {
        let zs = self.nonces(rows.len(), rng);
        let a = self.matrix(rows, &zs);
        (0..count)
            .map(|_| {
                let key = self.field.random_nonzero(rng);
                (self.key_bytes(&key), self.acv(&a, &key, &zs, rng))
            })
            .collect()
    }

    fn rekey_with_key(&self, rows: &[AccessRow], key: &Fp<2>, rng: &mut StdRng) -> AcvPublicInfo {
        let zs = self.nonces(rows.len(), rng);
        self.acv(&self.matrix(rows, &zs), key, &zs, rng)
    }

    fn rekey_configs(
        &self,
        configs: &[Vec<AccessRow>],
        rng: &mut StdRng,
    ) -> Vec<(Vec<u8>, AcvPublicInfo)> {
        let widest = configs.iter().map(Vec::len).max().unwrap_or(0);
        let zs = self.nonces(widest, rng);
        configs
            .iter()
            .map(|rows| {
                let a = self.matrix(rows, &zs);
                let key = self.field.random_nonzero(rng);
                (self.key_bytes(&key), self.acv(&a, &key, &zs, rng))
            })
            .collect()
    }

    /// `K = ν·X` with every term reduced before it is used.
    fn derive_key(&self, info: &AcvPublicInfo, css: &[u8]) -> Vec<u8> {
        let mut k = self.field.from_uint(&info.x[0]);
        for (a, xj) in self.row(css, &info.zs).iter().zip(&info.x[1..]) {
            k = &k + &(a * &self.field.from_uint(xj));
        }
        self.key_bytes(&k)
    }
}

/// `Σ cₖ·basisₖ` with `cₖ` drawn in basis order, redrawn while the sum is
/// zero; the zero vector, with no draw, when the null space is trivial.
fn basis_combination(a: &Matrix<2>, rng: &mut StdRng) -> Vec<Fp<2>> {
    let ctx = a.ctx();
    let basis = a.null_space_basis();
    let mut out = vec![ctx.zero(); a.cols()];
    while !basis.is_empty() && out.iter().all(Fp::is_zero) {
        for b in &basis {
            let c = ctx.random(rng);
            for (o, e) in out.iter_mut().zip(b) {
                *o = &*o + &(&c * e);
            }
        }
    }
    out
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

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

const CSS_LENS: [usize; 13] = [0, 1, 16, 32, 48, 53, 54, 55, 56, 63, 64, 65, 130];
const TAUS: [usize; 4] = [1, 2, 21, 64];

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
    fn acv_rekey_is_the_reference_rekey(
        seed in any::<u64>(),
        count in 0usize..40,
        duplicates in any::<bool>(),
        css_idx in 0usize..CSS_LENS.len(),
        tau_idx in 0usize..TAUS.len(),
        extra in 0usize..6,
    ) {
        let rows = rows_with_duplicates(seed, count, CSS_LENS[css_idx], duplicates);
        let reference = Reference::new(TAUS[tau_idx], extra);
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
        let reference = Reference::new(2, extra);
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

/// A hostile broker can send 255-byte nonces and coordinates at or above
/// `q`; `decode` accepts both, and `derive_key` must answer as the
/// reference does, not panic.
#[test]
fn derive_key_takes_the_widest_public_info_decode_accepts() {
    let reference = Reference::new(2, 0);
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
