//! Equivalence suite for the fast exponentiation paths: every optimized
//! route (sliding-window/wNAF `exp`, fixed-base `exp_g`/`exp_h`,
//! `pedersen_gh`, `prod_pow2`, and the list primitives
//! `exp_shared_scalar_shifted`, `exp_shared_base`, `pedersen_gh_many`)
//! must agree **bit-identically** with
//! the naive double-and-add reference ladder, on both backends, for
//! random scalars and the edge exponents `0, 1, 2, q−1`, and the prepared
//! verification check must accept exactly the naive `g^x · b^y`. Also pins
//! down table-rebuild behaviour across clones/fresh instances,
//! cross-instance serialization stability, and Schnorr verification
//! under prepared keys, singly and in batches.

use pbcd_group::{CyclicGroup, ModpGroup, P256Group, Scalar};
use pbcd_math::U256;
use proptest::prelude::*;
use rand::SeedableRng;

/// The naive reference ladder, dispatched per backend.
trait NaiveExp: CyclicGroup {
    fn reference_exp(&self, base: &Self::Elem, k: &U256) -> Self::Elem;
}

impl NaiveExp for P256Group {
    fn reference_exp(&self, base: &Self::Elem, k: &U256) -> Self::Elem {
        self.exp_naive(base, k)
    }
}

impl NaiveExp for ModpGroup {
    fn reference_exp(&self, base: &Self::Elem, k: &U256) -> Self::Elem {
        self.exp_naive(base, k)
    }
}

/// Random scalars plus the protocol-relevant edges.
fn scalar_cases<G: CyclicGroup>(group: &G, seed: u64, random: usize) -> Vec<Scalar> {
    let sc = group.scalar_ctx().clone();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut out = vec![
        sc.zero(),
        sc.one(),
        sc.from_u64(2),
        sc.from_uint(&group.order().wrapping_sub(&U256::one())), // q − 1
    ];
    out.extend((0..random).map(|_| group.random_scalar(&mut rng)));
    out
}

fn check_all_paths<G: NaiveExp>(group: &G, seed: u64, random: usize) {
    let g = group.generator();
    let h = group.pedersen_h();
    let cases = scalar_cases(group, seed, random);
    for x in &cases {
        let xu = x.to_uint();
        // Fixed-base paths against the naive ladder.
        assert_eq!(group.exp_g(x), group.reference_exp(&g, &xu), "exp_g");
        assert_eq!(group.exp_h(x), group.reference_exp(&h, &xu), "exp_h");
        // Variable-base wNAF/sliding-window against the naive ladder,
        // including a non-generator base.
        let base = group.reference_exp(&h, &U256::from_u64(3));
        assert_eq!(group.exp(&base, x), group.reference_exp(&base, &xu), "exp");
        assert_eq!(
            group.exp_uint(&base, &xu),
            group.reference_exp(&base, &xu),
            "exp_uint"
        );
    }
    // Two-scalar paths over the case cross-product (bounded).
    for (i, x) in cases.iter().enumerate() {
        let y = &cases[(i + 3) % cases.len()];
        let naive_gh = group.op(
            &group.reference_exp(&g, &x.to_uint()),
            &group.reference_exp(&h, &y.to_uint()),
        );
        assert_eq!(group.pedersen_gh(x, y), naive_gh, "pedersen_gh");
    }
}

#[test]
fn p256_all_paths_match_reference() {
    check_all_paths(&P256Group::new(), 0xA11CE, 12);
}

#[test]
fn modp_all_paths_match_reference() {
    check_all_paths(&ModpGroup::new(), 0xB0B, 6);
}

/// The prepared check `g^x · b^y == expected` against the naive
/// composition over the full case cross-product (so `x` or `y` of 0, 1
/// and `q−1`): it accepts the naive result and refuses it shifted by one
/// `g` or inverted (on P-256 the same `x` with the other `y`). Through a base of known logarithm, `b = g^7` and `y = −x/7`, it
/// also accepts an `expected` that is the identity, and refuses it when
/// `y` is off by one.
fn check_prepared<G: NaiveExp>(group: &G, seed: u64, random: usize) {
    let sc = group.scalar_ctx().clone();
    let g = group.generator();
    let b = group.reference_exp(&group.pedersen_h(), &U256::from_u64(7));
    let prepared = group.prepare(&b);
    let cases = scalar_cases(group, seed, random);
    let gx: Vec<_> = cases
        .iter()
        .map(|x| group.reference_exp(&g, &x.to_uint()))
        .collect();
    let by: Vec<_> = cases
        .iter()
        .map(|y| group.reference_exp(&b, &y.to_uint()))
        .collect();
    for (x, gx) in cases.iter().zip(&gx) {
        for (y, by) in cases.iter().zip(&by) {
            let naive = group.op(gx, by);
            assert!(group.check(x, &prepared, y, &naive), "accepts g^x·b^y");
            let shifted = group.op(&naive, &g);
            assert!(!group.check(x, &prepared, y, &shifted), "refuses ·g");
            let inverse = group.inv(&naive);
            let refused = !group.check(x, &prepared, y, &inverse);
            assert!(refused || group.is_identity(&naive), "refuses the inverse");
        }
    }
    let g7 = group.prepare(&group.reference_exp(&g, &U256::from_u64(7)));
    let inv7 = sc.from_u64(7).inv().expect("7 < q");
    for x in &cases {
        let y = -&(x * &inv7);
        assert!(group.check(x, &g7, &y, &group.identity()), "identity");
        let off = &y + &sc.one();
        assert!(!group.check(x, &g7, &off, &group.identity()), "off by one");
    }
}

#[test]
fn p256_prepared_check_matches_naive_composition() {
    check_prepared(&P256Group::new(), 0xC4EC, 12);
}

#[test]
fn modp_prepared_check_matches_naive_composition() {
    check_prepared(&ModpGroup::new(), 0xC4ED, 6);
}

/// Scalars on the edges of a signed base-`2^w` recoding, for every digit
/// width `w` from 4 to 8 (so whatever widths a backend's combs use): 0,
/// 1 and `q − 1`; every window holding `2^(w−1)` (the largest positive
/// digit), `2^(w−1) + 1` (the first window that borrows, digit
/// `−(2^(w−1) − 1)`), `2^(w−1) − 1` and `2^w − 1` (a borrow from every
/// window). `2^255 − 1` carries from bit 0 up through every window into
/// the top one, and `q − 1` (on P-256 its top 32 bits are set) carries
/// out of the last full window. Patterns at or above `q` are reduced.
fn recoding_edge_scalars<G: CyclicGroup>(group: &G) -> Vec<Scalar> {
    let sc = group.scalar_ctx().clone();
    let q = group.order();
    let mut out = vec![
        sc.zero(),
        sc.one(),
        sc.from_uint(&q.wrapping_sub(&U256::one())),
    ];
    let mut pattern = |bits: &dyn Fn(u32) -> bool| {
        let mut k = U256::ZERO;
        for i in 0..255 {
            k.set_bit(i, bits(i));
        }
        out.push(sc.from_uint(&k.rem(q)));
    };
    for w in 4..=8u32 {
        let half = 1u32 << (w - 1);
        for window in [half, half + 1, half - 1, (1 << w) - 1] {
            pattern(&|i| window >> (i % w) & 1 == 1);
        }
    }
    pattern(&|_| true);
    out
}

/// The fixed-base combs (`exp_g`, `exp_h`, `pedersen_gh`), a one-off
/// comb (`exp_shared_base` over the whole list, past the table
/// threshold) and the prepared-key `check` against the naive ladder at
/// the recoding edges; `check` over their full cross-product, refusing
/// each result shifted by `g`.
fn check_recoding_edges<G: NaiveExp>(group: &G) {
    let g = group.generator();
    let h = group.pedersen_h();
    let b = group.reference_exp(&h, &U256::from_u64(7));
    let prepared = group.prepare(&b);
    let cases = recoding_edge_scalars(group);
    let gx: Vec<_> = cases
        .iter()
        .map(|x| group.reference_exp(&g, &x.to_uint()))
        .collect();
    let bx: Vec<_> = cases
        .iter()
        .map(|x| group.reference_exp(&b, &x.to_uint()))
        .collect();
    for (i, x) in cases.iter().enumerate() {
        assert_eq!(group.exp_g(x), gx[i], "exp_g case {i}");
        let hx = group.reference_exp(&h, &x.to_uint());
        assert_eq!(group.exp_h(x), hx, "exp_h case {i}");
        assert_eq!(group.pedersen_gh(x, x), group.op(&gx[i], &hx), "gh {i}");
    }
    assert_eq!(group.exp_shared_base(&b, &cases), bx, "exp_shared_base");
    for (x, gx) in cases.iter().zip(&gx) {
        for (y, by) in cases.iter().zip(&bx) {
            let naive = group.op(gx, by);
            assert!(group.check(x, &prepared, y, &naive), "accepts g^x·b^y");
            let shifted = group.op(&naive, &g);
            assert!(!group.check(x, &prepared, y, &shifted), "refuses ·g");
        }
    }
}

#[test]
fn p256_signed_combs_match_naive_at_recoding_edges() {
    check_recoding_edges(&P256Group::new());
}

#[test]
fn modp_signed_combs_match_naive_at_recoding_edges() {
    check_recoding_edges(&ModpGroup::new());
}

fn check_prod_pow2<G: NaiveExp>(group: &G, seed: u64) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    for len in [0usize, 1, 2, 7, 48] {
        let elems: Vec<G::Elem> = (0..len)
            .map(|i| {
                if i == 2 {
                    group.identity() // exercise identity operands mid-chain
                } else {
                    group.exp_g(&group.random_scalar(&mut rng))
                }
            })
            .collect();
        // Naive Horner fold with plain ops.
        let mut expect = group.identity();
        for e in elems.iter().rev() {
            expect = group.op(&group.op(&expect, &expect), e);
        }
        assert_eq!(group.prod_pow2(&elems), expect, "len={len}");
    }
}

#[test]
fn p256_prod_pow2_matches_naive_fold() {
    check_prod_pow2(&P256Group::new(), 0x9A9A);
}

#[test]
fn modp_prod_pow2_matches_naive_fold() {
    check_prod_pow2(&ModpGroup::new(), 0x9B9B);
}

/// Pippenger `msm` against per-term naive exponentiation: the width edges
/// (0, 1, 2, ℓ=48 and a 256-wide batch crossing the window-choice
/// boundary), zero scalars sprinkled mid-batch, and the q−1 edge.
fn check_msm<G: NaiveExp>(group: &G, seed: u64) {
    let sc = group.scalar_ctx().clone();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    for len in [0usize, 1, 2, 48, 256] {
        let terms: Vec<(G::Elem, Scalar)> = (0..len)
            .map(|i| {
                let base = group.exp_g(&group.random_scalar(&mut rng));
                let k = match i % 5 {
                    0 => sc.zero(),
                    1 => sc.from_uint(&group.order().wrapping_sub(&U256::one())), // q − 1
                    _ => group.random_scalar(&mut rng),
                };
                (base, k)
            })
            .collect();
        let mut expect = group.identity();
        for (base, k) in &terms {
            expect = group.op(&expect, &group.reference_exp(base, &k.to_uint()));
        }
        assert_eq!(group.msm(&terms), expect, "msm len={len}");
    }
}

#[test]
fn p256_msm_matches_naive_composition() {
    check_msm(&P256Group::new(), 0x3531);
}

#[test]
fn modp_msm_matches_naive_composition() {
    check_msm(&ModpGroup::new(), 0x3532);
}

/// The shared-scalar, shared-base and batched-commitment primitives
/// against per-element `exp`/`op`: scalars `0, 1, 2, q−1` and random, an
/// identity base mid-list, `shift` ∈ {identity, `g`}, a base whose shifted
/// power is the identity, and list lengths on both sides of the backends'
/// table fall-back threshold.
fn check_shared_paths<G: NaiveExp>(group: &G, seed: u64) {
    let sc = group.scalar_ctx().clone();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let g = group.generator();
    let cases = scalar_cases(group, seed, 2);
    for len in [0usize, 1, 7, 8, 48] {
        let bases: Vec<G::Elem> = (0..len)
            .map(|i| match i {
                2 => group.identity(),
                _ => group.exp_g(&group.random_scalar(&mut rng)),
            })
            .collect();
        for k in &cases {
            for shift in [group.identity(), g.clone()] {
                let mut bases = bases.clone();
                if len > 3 && !k.is_zero() {
                    // b₃^k = shift⁻¹, so the shifted half is the identity.
                    let k_inv = k.inv().expect("nonzero scalar");
                    bases[3] = group.exp(&group.inv(&shift), &k_inv);
                }
                let expect: Vec<_> = bases
                    .iter()
                    .map(|b| {
                        let p = group.reference_exp(b, &k.to_uint());
                        let shifted = group.op(&p, &shift);
                        (p, shifted)
                    })
                    .collect();
                if len > 3 && !k.is_zero() {
                    assert_eq!(expect[3].1, group.identity());
                }
                let got = group.exp_shared_scalar_shifted(&bases, k, &shift);
                assert_eq!(got, expect, "exp_shared_scalar_shifted len={len}");
            }
        }
        // `len` scalars drawn from the edge cases and fresh random ones.
        let ks: Vec<Scalar> = (0..len)
            .map(|i| match cases.get(i) {
                Some(k) => k.clone(),
                None => group.random_scalar(&mut rng),
            })
            .collect();
        let h3 = group.reference_exp(&group.pedersen_h(), &U256::from_u64(3));
        for base in [group.identity(), g.clone(), h3] {
            let expect: Vec<_> = ks
                .iter()
                .map(|k| group.reference_exp(&base, &k.to_uint()))
                .collect();
            assert_eq!(
                group.exp_shared_base(&base, &ks),
                expect,
                "exp_shared_base len={len}"
            );
        }
        // The all-zero pair commits to the identity.
        let pairs: Vec<(Scalar, Scalar)> = ks
            .iter()
            .enumerate()
            .map(|(i, k)| (k.clone(), ks[(i + 1) % len].clone()))
            .chain([(sc.zero(), sc.zero())])
            .collect();
        let expect: Vec<_> = pairs.iter().map(|(m, r)| group.pedersen_gh(m, r)).collect();
        assert_eq!(group.pedersen_gh_many(&pairs), expect, "len={len}");
    }
}

#[test]
fn p256_shared_paths_match_per_element() {
    check_shared_paths(&P256Group::new(), 0x5A4E);
}

#[test]
fn modp_shared_paths_match_per_element() {
    check_shared_paths(&ModpGroup::new(), 0x5A4F);
}

/// Batch Schnorr verification: all-valid accepts, one forged member
/// rejects the whole batch, the empty batch is vacuously true — on both
/// backends, against signatures produced by the ordinary signing path.
fn check_verify_batch<G: CyclicGroup>(group: &G, seed: u64) {
    use pbcd_group::{verify_batch, SigningKey};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let keys: Vec<SigningKey<G>> = (0..5)
        .map(|_| SigningKey::generate(group, &mut rng))
        .collect();
    let msgs: Vec<Vec<u8>> = (0..5)
        .map(|i| format!("batch item {i}").into_bytes())
        .collect();
    let sigs: Vec<_> = keys
        .iter()
        .zip(&msgs)
        .map(|(k, m)| k.sign(group, &mut rng, m))
        .collect();
    let vks: Vec<_> = keys.iter().map(|k| k.verifying_key()).collect();
    let batch: Vec<(
        &pbcd_group::VerifyingKey<G>,
        &[u8],
        &pbcd_group::Signature<G>,
    )> = vks
        .iter()
        .zip(&msgs)
        .zip(&sigs)
        .map(|((vk, m), s)| (vk, m.as_slice(), s))
        .collect();
    assert!(verify_batch(group, &batch), "all-valid batch accepts");
    assert!(
        verify_batch::<G>(group, &[]),
        "empty batch is vacuously true"
    );
    assert!(verify_batch(group, &batch[..1]), "singleton accepts");
    // Forge member 2: a signature from the wrong key over the same message.
    let forged = keys[0].sign(group, &mut rng, &msgs[2]);
    let mut bad = batch.clone();
    bad[2] = (bad[2].0, bad[2].1, &forged);
    assert!(
        !verify_batch(group, &bad),
        "one forged member rejects the batch"
    );
    // Tampered message under a genuine signature also rejects.
    let mut tampered = batch.clone();
    tampered[4] = (tampered[4].0, b"not what was signed", tampered[4].2);
    assert!(!verify_batch(group, &tampered), "tampered message rejects");
}

#[test]
fn p256_verify_batch_soundness() {
    check_verify_batch(&P256Group::new(), 0x5161);
}

#[test]
fn modp_verify_batch_soundness() {
    check_verify_batch(&ModpGroup::new(), 0x5162);
}

/// Signatures under prepared keys: an `R` that is the identity
/// (`s = e·sk`) verifies, a deserialized key verifies exactly what the
/// generated one does, the identity is refused as a key, and the
/// `(R = g^s, s)` forgery it would admit fails under every key that can
/// still be built.
fn check_prepared_keys<G: CyclicGroup>(group: &G, seed: u64) {
    use pbcd_group::{challenge, Signature, SigningKey, VerifyingKey};
    let sc = group.scalar_ctx().clone();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let msg: &[u8] = b"identity token";
    let other: &[u8] = b"another token";

    let sk = group.random_nonzero_scalar(&mut rng);
    let known = VerifyingKey::from_element(group, group.exp_g(&sk)).expect("non-identity");
    let e = challenge(group, &group.identity(), msg);
    let r_identity = Signature::<G> {
        big_r: group.identity(),
        s: &e * &sk,
    };
    assert!(
        known.verify(group, msg, &r_identity),
        "R = identity verifies"
    );
    assert!(!known.verify(group, other, &r_identity));

    let key = SigningKey::generate(group, &mut rng);
    let generated = key.verifying_key();
    let loaded = VerifyingKey::deserialize(group, &generated.serialize(group)).expect("valid");
    assert_eq!(loaded, generated);
    let good = key.sign(group, &mut rng, msg);
    let tampered = Signature::<G> {
        big_r: good.big_r.clone(),
        s: &good.s + &sc.one(),
    };
    let other_sig = key.sign(group, &mut rng, other);
    for sig in [&good, &tampered, &r_identity, &other_sig] {
        for m in [msg, other] {
            assert_eq!(
                loaded.verify(group, m, sig),
                generated.verify(group, m, sig)
            );
        }
    }
    assert!(loaded.verify(group, msg, &good) && loaded.verify(group, other, &other_sig));

    let identity = group.identity();
    assert!(VerifyingKey::<G>::from_element(group, identity.clone()).is_none());
    assert!(VerifyingKey::<G>::deserialize(group, &group.serialize(&identity)).is_none());
    let s = group.random_scalar(&mut rng);
    let forged = Signature::<G> {
        big_r: group.exp_g(&s),
        s,
    };
    let h_bytes = group.serialize(&group.pedersen_h());
    let keys = [
        generated,
        loaded,
        known,
        VerifyingKey::from_element(group, group.generator()).expect("g"),
        VerifyingKey::deserialize(group, &h_bytes).expect("h"),
    ];
    for vk in &keys {
        assert!(!vk.verify(group, msg, &forged), "forgery refused");
    }
}

#[test]
fn p256_prepared_keys_verify_like_generated_and_refuse_identity() {
    check_prepared_keys(&P256Group::new(), 0x1D1);
}

#[test]
fn modp_prepared_keys_verify_like_generated_and_refuse_identity() {
    check_prepared_keys(&ModpGroup::new(), 0x1D2);
}

/// The merged-coefficient batch under two interleaved keys: all valid
/// accepts, one forged member rejects.
fn check_batch_two_keys<G: CyclicGroup>(group: &G, seed: u64) {
    use pbcd_group::{verify_batch, Signature, SigningKey, VerifyingKey};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let keys = [
        SigningKey::generate(group, &mut rng),
        SigningKey::generate(group, &mut rng),
    ];
    let vks = [keys[0].verifying_key(), keys[1].verifying_key()];
    let msgs: Vec<Vec<u8>> = (0..6).map(|i| format!("token {i}").into_bytes()).collect();
    let mut sigs: Vec<Signature<G>> = msgs
        .iter()
        .enumerate()
        .map(|(i, m)| keys[i % 2].sign(group, &mut rng, m))
        .collect();
    let batch = |sigs: &[Signature<G>]| -> bool {
        let items: Vec<(&VerifyingKey<G>, &[u8], &Signature<G>)> = msgs
            .iter()
            .zip(sigs)
            .enumerate()
            .map(|(i, (m, s))| (&vks[i % 2], m.as_slice(), s))
            .collect();
        verify_batch(group, &items)
    };
    assert!(batch(&sigs), "all valid under two keys");
    sigs[3] = keys[0].sign(group, &mut rng, &msgs[3]);
    assert!(!batch(&sigs), "member 3 signed by the other key");
}

#[test]
fn p256_verify_batch_two_interleaved_keys() {
    check_batch_two_keys(&P256Group::new(), 0x2B1);
}

#[test]
fn modp_verify_batch_two_interleaved_keys() {
    check_batch_two_keys(&ModpGroup::new(), 0x2B2);
}

/// Known-answer pins for the dedicated P-256 field kernel: the Montgomery
/// representation must round-trip the curve constants, and the kernel's
/// mul/sqr/inv agree with an independent [`pbcd_math::MontCtx`] over the
/// same prime.
#[test]
fn p256_field_kernel_pins() {
    use pbcd_group::p256_field as fk;
    use pbcd_math::U256;
    // p = 2^256 − 2^224 + 2^192 + 2^96 − 1 (NIST P-256 field prime).
    let p = U256::from_hex("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff")
        .expect("p parses");
    assert_eq!(U256::from_limbs(fk::P), p, "kernel P constant");
    // R = 2^256 mod p; the kernel's ONE is R (Montgomery form of 1).
    // 0 − p wraps to 2^256 − p, and p > 2^255 makes that already reduced.
    let r_mod_p = U256::from_u64(0).wrapping_sub(&p);
    assert_eq!(U256::from_limbs(fk::ONE), r_mod_p, "kernel ONE is R mod p");
    assert_eq!(fk::one(), U256::from_limbs(fk::ONE));
}

/// Clones share the lazily built tables through the same `Arc`; fresh
/// instances rebuild them from scratch. Either way the results — and the
/// canonical encodings — must be identical.
#[test]
fn tables_survive_clone_and_rebuild_identically() {
    fn check<G: NaiveExp>(mk: impl Fn() -> G) {
        let original = mk();
        let sc = original.scalar_ctx().clone();
        let k = sc.from_u64(0xDECA_FBAD);
        // Populate the tables on the original, then exp through a clone.
        let via_original = original.exp_g(&k);
        let clone = original.clone();
        assert_eq!(clone.exp_g(&k), via_original);
        assert_eq!(clone.exp_h(&k), original.exp_h(&k));
        // A fresh instance rebuilds its own tables; same results, and the
        // serialized forms agree byte-for-byte across instances.
        let fresh = mk();
        let via_fresh = fresh.exp_g(&k);
        assert_eq!(via_fresh, via_original);
        assert_eq!(
            fresh.serialize(&via_fresh),
            original.serialize(&via_original)
        );
        assert_eq!(
            original.deserialize(&fresh.serialize(&via_fresh)),
            Some(via_original)
        );
    }
    check(P256Group::new);
    check(ModpGroup::new);
}

/// The encodings of fixed small multiples of `g` must never drift across
/// backends or optimizations — registration tokens, proofs and envelopes
/// are all serialized group elements.
#[test]
fn serialization_stability_pins() {
    let p256 = P256Group::new();
    let sc = p256.scalar_ctx().clone();
    // 2·G on P-256 (SEC1 uncompressed) — an independently known constant.
    let two_g = p256.serialize(&p256.exp_g(&sc.from_u64(2)));
    assert_eq!(two_g.len(), 65);
    assert_eq!(
        two_g[..5],
        [0x04, 0x7c, 0xf2, 0x7b, 0x18],
        "2G x-coordinate prefix"
    );
    let modp = ModpGroup::new();
    let msc = modp.scalar_ctx().clone();
    let enc = modp.serialize(&modp.exp_g(&msc.from_u64(2)));
    assert_eq!(enc.len(), 128);
    // g² must equal g·g through the completely separate op path.
    let g = modp.generator();
    assert_eq!(enc, modp.serialize(&modp.op(&g, &g)));
}

proptest! {
    // EC scalar multiplications are ~100 µs each; keep case counts small.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn p256_random_scalar_equivalence(seed in any::<u64>()) {
        let g = P256Group::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x = g.random_scalar(&mut rng);
        let y = g.random_scalar(&mut rng);
        let gen = g.generator();
        prop_assert_eq!(g.exp_g(&x), g.exp_naive(&gen, &x.to_uint()));
        let base = g.exp_g(&y);
        prop_assert_eq!(g.exp(&base, &x), g.exp_naive(&base, &x.to_uint()));
        let naive2 = g.op(
            &g.exp_naive(&gen, &x.to_uint()),
            &g.exp_naive(&base, &y.to_uint()),
        );
        prop_assert!(g.check(&x, &g.prepare(&base), &y, &naive2));
    }

    /// The dedicated field kernel's lazy Montgomery reduction must agree
    /// limb-for-limb with the generic [`pbcd_math::MontCtx`] over the same
    /// prime, on every exported operation, for random residues.
    #[test]
    fn p256_field_kernel_matches_montctx(seed in any::<u64>()) {
        use pbcd_group::p256_field as fk;
        use pbcd_math::MontCtx;
        use rand::RngCore;
        let p = U256::from_limbs(fk::P);
        let ctx = MontCtx::new(p);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut rand_elem = || {
            let mut limbs = [0u64; 4];
            for l in &mut limbs {
                *l = rng.next_u64();
            }
            U256::from_limbs(limbs).div_rem(&p).1
        };
        let a = rand_elem();
        let b = rand_elem();
        prop_assert_eq!(fk::mul(&a, &b), ctx.mont_mul(&a, &b));
        prop_assert_eq!(fk::sqr(&a), ctx.mont_sqr(&a));
        prop_assert_eq!(fk::add(&a, &b), ctx.add(&a, &b));
        prop_assert_eq!(fk::sub(&a, &b), ctx.sub(&a, &b));
        prop_assert_eq!(fk::neg(&a), ctx.neg(&a));
        prop_assert_eq!(fk::dbl(&a), ctx.double(&a));
        if a != U256::from_u64(0) {
            prop_assert_eq!(fk::inv(&a), ctx.inv(&a));
            prop_assert_eq!(fk::inv_fermat(&a), ctx.inv(&a));
        }
        // Interpreting inputs as Montgomery forms: stripping the R factor
        // from the kernel product recovers the plain modular product.
        prop_assert_eq!(
            ctx.from_mont(&fk::mul(&ctx.to_mont(&a), &ctx.to_mont(&b))),
            a.mul_mod(&b, &p)
        );
    }

    #[test]
    fn modp_random_scalar_equivalence(seed in any::<u64>()) {
        let g = ModpGroup::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x = g.random_scalar(&mut rng);
        let y = g.random_scalar(&mut rng);
        let gen = g.generator();
        prop_assert_eq!(g.exp_g(&x), g.exp_naive(&gen, &x.to_uint()));
        let base = g.exp_h(&y);
        prop_assert_eq!(g.exp(&base, &x), g.exp_naive(&base, &x.to_uint()));
        prop_assert_eq!(
            g.pedersen_gh(&x, &y),
            g.op(&g.exp_naive(&gen, &x.to_uint()), &g.exp_naive(&g.pedersen_h(), &y.to_uint()))
        );
    }
}
