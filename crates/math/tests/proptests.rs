//! Property-based tests for the math substrate.

use pbcd_math::{Fp, FpCtx, Matrix, MontCtx, Uint, U1024, U128, U256};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::sync::Arc;

fn arb_u256() -> impl Strategy<Value = U256> {
    prop::array::uniform4(any::<u64>()).prop_map(U256::from_limbs)
}

fn arb_u128() -> impl Strategy<Value = U128> {
    prop::array::uniform2(any::<u64>()).prop_map(U128::from_limbs)
}

fn q80() -> U128 {
    pbcd_math::gkm_q80()
}

/// What `random_null_vector` returned while it ran Gauss–Jordan: `Σ cₖ·basisₖ`
/// over `null_space_basis`, `cₖ` drawn in basis order and redrawn while the
/// sum is zero; the zero vector, with no draw, for a trivial null space.
fn basis_combination(m: &Matrix<2>, rng: &mut StdRng) -> Vec<Fp<2>> {
    let basis = m.null_space_basis();
    let mut out = vec![m.ctx().zero(); m.cols()];
    while !basis.is_empty() && out.iter().all(Fp::is_zero) {
        for b in &basis {
            let c = m.ctx().random(rng);
            for (o, e) in out.iter_mut().zip(b) {
                *o = &*o + &(&c * e);
            }
        }
    }
    out
}

/// A `rows × cols` matrix of rank at most `rank_cap`: every row past
/// `rank_cap` is a random combination of the rows before it (`0` ⇒ the
/// zero matrix), and column `zero_col` (if there is one) is zero, so a
/// pivot skips it.
fn rank_capped_matrix(
    ctx: &Arc<FpCtx<2>>,
    rng: &mut StdRng,
    rows: usize,
    cols: usize,
    rank_cap: usize,
    zero_col: usize,
) -> Matrix<2> {
    let mut m = Matrix::zero(ctx, rows, cols);
    for i in 0..rows {
        let coeffs: Vec<_> = (0..rank_cap.min(i)).map(|_| ctx.random(rng)).collect();
        for j in 0..cols {
            let v = if j == zero_col || rank_cap == 0 {
                ctx.zero()
            } else if i < rank_cap {
                ctx.random(rng)
            } else {
                coeffs
                    .iter()
                    .enumerate()
                    .fold(ctx.zero(), |acc, (k, c)| &acc + &(c * &m.get(k, j)))
            };
            m.set(i, j, &v);
        }
    }
    m
}

/// `random_null_vector` against [`basis_combination`] on the same rng:
/// the vector, the rng state after, and that it is a null vector.
fn check_basis_combination(m: &Matrix<2>, mut rng: StdRng) -> TestCaseResult {
    let mut ref_rng = rng.clone();
    let got = m.random_null_vector(&mut rng);
    prop_assert_eq!(&got, &basis_combination(m, &mut ref_rng));
    prop_assert_eq!(rng.next_u64(), ref_rng.next_u64());
    prop_assert_eq!(got.iter().all(Fp::is_zero), m.rank() == m.cols());
    if m.rows() > 0 {
        prop_assert!(m.mul_vec(&got).iter().all(Fp::is_zero));
    }
    Ok(())
}

/// Fields whose delayed-reduction budget is smaller than the matrices
/// below: `2^127 − 1` (budget 1, the trailing block is reduced after
/// every pivot) and a seeded 125-bit prime (budget 4).
fn small_budget_fields() -> [Arc<FpCtx<2>>; 2] {
    let m127 = U128::from_u128((1u128 << 127) - 1);
    let p125 = pbcd_math::gen_prime::<2, _>(125, &mut StdRng::seed_from_u64(125));
    [FpCtx::new(m127), FpCtx::new(p125)]
}

/// The NIST P-256 field prime `p` (L = 4, top bit set).
fn p256_p() -> U256 {
    U256::from_hex("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff").expect("hex")
}

/// The P-256 group order `n` (L = 4, just below `R`).
fn p256_n() -> U256 {
    U256::from_hex("ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551").expect("hex")
}

/// The RFC 5114 §2.1 1024-bit modp prime `p` (L = 16, top bit set).
fn modp_p() -> U1024 {
    U1024::from_hex(concat!(
        "B10B8F96A080E01DDE92DE5EAE5D54EC52C99FBCFB06A3C69A6A9DCA52D23B61",
        "6073E28675A23D189838EF1E2EE652C013ECB4AEA906112324975C3CD49B83BF",
        "ACCBDD7D90C4BD7098488E9C219A73724EFFD6FAE5644738FAA31A4FF55BCCC0",
        "A151AF5F0DC8B4BD45BF37DF365C1A65E68CFDA76D4DA708DF1FB2BC2E4A4371"
    ))
    .expect("hex")
}

/// `a·b·R⁻¹ mod m` for `R = 2^(64·L)`, from schoolbook `mul_mod` and
/// `inv_mod` only; `a` and `b` may be any width-`L` values.
fn mont_product<const L: usize>(a: &Uint<L>, b: &Uint<L>, m: &Uint<L>) -> Uint<L> {
    let r = Uint::<L>::MAX.rem(m).wrapping_add(&Uint::one()).rem(m);
    let r_inv = r.inv_mod(m).expect("odd modulus");
    a.mul_mod(b, m).mul_mod(&r_inv, m)
}

/// The branching `add_mod` the masked one replaced.
fn add_mod_branchy<const L: usize>(a: &Uint<L>, b: &Uint<L>, m: &Uint<L>) -> Uint<L> {
    let (sum, carry) = a.overflowing_add(b);
    if carry || sum >= *m {
        sum.wrapping_sub(m)
    } else {
        sum
    }
}

/// The branching `sub_mod` the masked one replaced.
fn sub_mod_branchy<const L: usize>(a: &Uint<L>, b: &Uint<L>, m: &Uint<L>) -> Uint<L> {
    let (diff, borrow) = a.overflowing_sub(b);
    if borrow {
        diff.wrapping_add(m)
    } else {
        diff
    }
}

/// The branching `MontCtx::neg` the masked one replaced.
fn neg_branchy<const L: usize>(a: &Uint<L>, m: &Uint<L>) -> Uint<L> {
    if a.is_zero() {
        *a
    } else {
        m.wrapping_sub(a)
    }
}

/// `mont_mul` at one width against [`mont_product`]: two residues, then
/// one operand anywhere up to `Uint::MAX` on either side (the contract
/// `AcvBgkm::extract` relies on for hostile `xⱼ ≥ q`).
fn check_mont_mul<const L: usize>(m: Uint<L>, rng: &mut StdRng) -> TestCaseResult {
    let ctx = MontCtx::new(m);
    let a = Uint::random_below(rng, &m);
    let top = m.wrapping_sub(&Uint::one());
    for b in [Uint::random_below(rng, &m), top] {
        prop_assert_eq!(ctx.mont_mul(&a, &b), mont_product(&a, &b, &m));
        for wide in [Uint::random_bits(rng, Uint::<L>::BITS), Uint::MAX] {
            let expect = mont_product(&wide, &b, &m);
            prop_assert_eq!(ctx.mont_mul(&wide, &b), expect);
            prop_assert_eq!(ctx.mont_mul(&b, &wide), expect);
        }
    }
    Ok(())
}

/// `add` / `sub` / `neg` at one width against the branching formulas, on a
/// random pair and at the boundaries: a sum of exactly `m`, `a == b`,
/// `0 − (m−1)`, and `(m−1) + (m−1)`, which carries out of the width when
/// the modulus has its top bit set.
fn check_add_sub_neg<const L: usize>(m: Uint<L>, rng: &mut StdRng) -> TestCaseResult {
    let ctx = MontCtx::new(m);
    let one = Uint::one();
    let top = m.wrapping_sub(&one);
    let a = Uint::random_below(rng, &top).wrapping_add(&one);
    let b = Uint::random_below(rng, &m);
    let pairs = [
        (a, b),
        (a, m.wrapping_sub(&a)),
        (top, one),
        (a, a),
        (Uint::ZERO, top),
        (Uint::ZERO, Uint::ZERO),
        (top, top),
    ];
    prop_assert_eq!(top.overflowing_add(&top).1, m.bit(Uint::<L>::BITS - 1));
    for (x, y) in pairs {
        prop_assert_eq!(ctx.add(&x, &y), add_mod_branchy(&x, &y, &m));
        prop_assert_eq!(ctx.sub(&x, &y), sub_mod_branchy(&x, &y, &m));
        prop_assert_eq!(ctx.neg(&y), neg_branchy(&y, &m));
    }
    Ok(())
}

/// `int(bytes) mod p` on a 832-bit integer — wide enough for 100 bytes.
fn reduce_wide<const L: usize>(ctx: &Arc<FpCtx<L>>, bytes: &[u8]) -> Fp<L> {
    let wide = Uint::<13>::from_be_bytes(bytes).expect("at most 104 bytes");
    let reduced = wide.rem(&ctx.modulus().widen::<13>());
    ctx.from_uint(&reduced.narrow::<L>().expect("below p"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn add_commutes(a in arb_u256(), b in arb_u256()) {
        prop_assert_eq!(a.wrapping_add(&b), b.wrapping_add(&a));
    }

    #[test]
    fn add_then_sub_roundtrips(a in arb_u256(), b in arb_u256()) {
        prop_assert_eq!(a.wrapping_add(&b).wrapping_sub(&b), a);
    }

    #[test]
    fn mul_wide_commutes(a in arb_u256(), b in arb_u256()) {
        prop_assert_eq!(a.mul_wide(&b), b.mul_wide(&a));
    }

    #[test]
    fn division_invariant(a in arb_u256(), b in arb_u256()) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b);
        let (lo, hi) = q.mul_wide(&b);
        prop_assert!(hi.is_zero());
        let (sum, carry) = lo.overflowing_add(&r);
        prop_assert!(!carry);
        prop_assert_eq!(sum, a);
    }

    #[test]
    fn shift_roundtrip(a in arb_u256(), n in 0u32..255) {
        // Right-then-left shift clears low bits only.
        let masked = a.shr(n).shl(n);
        prop_assert_eq!(masked.shr(n), a.shr(n));
    }

    #[test]
    fn hex_roundtrip(a in arb_u256()) {
        prop_assert_eq!(U256::from_hex(&a.to_hex()), Some(a));
    }

    #[test]
    fn bytes_roundtrip(a in arb_u256()) {
        prop_assert_eq!(U256::from_be_bytes(&a.to_be_bytes()), Some(a));
    }

    #[test]
    fn mont_mul_matches_schoolbook(a in arb_u128(), b in arb_u128()) {
        let q = q80();
        let a = a.rem(&q);
        let b = b.rem(&q);
        let ctx = MontCtx::new(q);
        let got = ctx.from_mont(&ctx.mont_mul(&ctx.to_mont(&a), &ctx.to_mont(&b)));
        prop_assert_eq!(got, a.mul_mod(&b, &q));
    }

    #[test]
    fn mont_mul_matches_mul_mod_at_every_width(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        check_mont_mul(q80(), &mut rng)?;
        check_mont_mul(p256_p(), &mut rng)?;
        check_mont_mul(p256_n(), &mut rng)?;
        check_mont_mul(modp_p(), &mut rng)?;
    }

    #[test]
    fn add_sub_neg_match_the_branchy_formulas_at_every_width(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        check_add_sub_neg(q80(), &mut rng)?;
        check_add_sub_neg(p256_p(), &mut rng)?;
        check_add_sub_neg(p256_n(), &mut rng)?;
        check_add_sub_neg(modp_p(), &mut rng)?;
    }

    #[test]
    fn field_inverse_cancels(a in arb_u128()) {
        let ctx = FpCtx::new(q80());
        let a = ctx.from_uint(&a);
        prop_assume!(!a.is_zero());
        let inv = a.inv().unwrap();
        prop_assert_eq!(&a * &inv, ctx.one());
    }

    #[test]
    fn field_distributes(a in arb_u128(), b in arb_u128(), c in arb_u128()) {
        let ctx = FpCtx::new(q80());
        let (a, b, c) = (ctx.from_uint(&a), ctx.from_uint(&b), ctx.from_uint(&c));
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn inv_mod_matches_fermat(a in arb_u128()) {
        let q = q80();
        let a = a.rem(&q);
        prop_assume!(!a.is_zero());
        let pm2 = q.wrapping_sub(&U128::from_u64(2));
        prop_assert_eq!(a.inv_mod(&q), Some(a.pow_mod(&pm2, &q)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sliding_window_pow_matches_schoolbook(a in arb_u128(), e in arb_u128()) {
        let q = q80();
        let a = a.rem(&q);
        let ctx = MontCtx::new(q);
        let got = ctx.from_mont(&ctx.pow(&ctx.to_mont(&a), &e));
        prop_assert_eq!(got, a.pow_mod(&e, &q));
    }

    #[test]
    fn fixed_base_table_matches_pow(a in arb_u128(), e in arb_u128(), w in 2u32..6) {
        let q = q80();
        let a = a.rem(&q);
        let e = e.rem(&q); // table covers order-sized exponents
        let ctx = MontCtx::new(q);
        let base = ctx.to_mont(&a);
        let table = pbcd_math::FixedBaseTable::new(&ctx, &base, 80, w);
        prop_assert_eq!(table.pow(&ctx, &e), ctx.pow(&base, &e));
    }

    #[test]
    fn pow2_matches_two_pows(a in arb_u128(), b in arb_u128(), x in arb_u128(), y in arb_u128()) {
        let q = q80();
        let ctx = MontCtx::new(q);
        let a = ctx.to_mont(&a.rem(&q));
        let b = ctx.to_mont(&b.rem(&q));
        let expect = ctx.mont_mul(&ctx.pow(&a, &x), &ctx.pow(&b, &y));
        prop_assert_eq!(ctx.pow2(&a, &x, &b, &y), expect);
    }

    #[test]
    fn batch_inv_matches_fermat(seed in any::<u64>(), n in 1usize..20) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let q = q80();
        let ctx = MontCtx::new(q);
        let vals: Vec<U128> = (0..n)
            .map(|_| loop {
                let v = U128::random_below(&mut rng, &q);
                if !v.is_zero() {
                    break ctx.to_mont(&v);
                }
            })
            .collect();
        let invs = ctx.batch_inv(&vals).expect("nonzero inputs");
        for (v, i) in vals.iter().zip(&invs) {
            prop_assert_eq!(Some(*i), ctx.inv(v));
        }
    }

    #[test]
    fn null_vectors_annihilate(
        seed in any::<u64>(),
        rows in 1usize..8,
        extra_cols in 1usize..4,
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let ctx = FpCtx::new(q80());
        let cols = rows + extra_cols;
        let m = Matrix::from_fn(&ctx, rows, cols, |_, _| ctx.random(&mut rng));
        let v = m.random_null_vector(&mut rng);
        prop_assert!(v.iter().any(|x| !x.is_zero()));
        prop_assert!(m.mul_vec(&v).iter().all(|x| x.is_zero()));
        for b in m.null_space_basis() {
            prop_assert!(m.mul_vec(&b).iter().all(|x| x.is_zero()));
        }
    }

    #[test]
    fn random_null_vector_is_the_basis_combination(
        seed in any::<u64>(),
        rows in 0usize..10,
        cols in 0usize..10,
        rank_cap in 0usize..10,
        zero_cols in any::<u16>(),
    ) {
        // Wide, square and tall shapes; rank capped by making every row
        // past `rank_cap` a combination of the rows before it (0 ⇒ the zero
        // matrix); some columns zeroed so pivots skip columns.
        let mut rng = StdRng::seed_from_u64(seed);
        let ctx = FpCtx::new(q80());
        let mut m = Matrix::zero(&ctx, rows, cols);
        for i in 0..rows {
            let coeffs: Vec<_> = (0..rank_cap.min(i)).map(|_| ctx.random(&mut rng)).collect();
            for j in 0..cols {
                let v = if zero_cols >> j & 1 == 1 || rank_cap == 0 {
                    ctx.zero()
                } else if i < rank_cap {
                    ctx.random(&mut rng)
                } else {
                    coeffs.iter().enumerate().fold(ctx.zero(), |acc, (k, c)| &acc + &(c * &m.get(k, j)))
                };
                m.set(i, j, &v);
            }
        }
        let mut ref_rng = rng.clone();
        let got = m.random_null_vector(&mut rng);
        prop_assert_eq!(&got, &basis_combination(&m, &mut ref_rng));
        prop_assert_eq!(rng.next_u64(), ref_rng.next_u64());
        prop_assert_eq!(got.iter().all(Fp::is_zero), m.rank() == cols);
        if rows > 0 {
            prop_assert!(m.mul_vec(&got).iter().all(Fp::is_zero));
        }
    }

    #[test]
    fn random_null_vector_is_the_basis_combination_where_the_budget_binds(
        seed in any::<u64>(),
        rows in 0usize..24,
        cols in 0usize..24,
        rank_cap in 0usize..24,
        zero_col in 0usize..32,
    ) {
        // Wide, square, tall and rank-deficient shapes, at most one zero
        // column, over fields where the trailing block is settled every
        // pivot or every four pivots. At 2^127 − 1 a sum past the budget
        // is past `m·R` after ~8 random products, so a missed settle or an
        // unchunked back-substitution row shows here.
        for ctx in small_budget_fields() {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = rank_capped_matrix(&ctx, &mut rng, rows, cols, rank_cap, zero_col);
            check_basis_combination(&m, rng)?;
        }
    }

    #[test]
    fn from_be_bytes_reduced_is_the_integer_mod_p(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let f80 = FpCtx::new(q80());
        let p256_order = FpCtx::new(
            U256::from_hex("ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551")
                .expect("hex"),
        );
        for len in 0..=100 {
            let mut bytes = vec![0u8; len];
            rng.fill_bytes(&mut bytes);
            if seed % 4 == 0 {
                bytes.fill(0xff);
            }
            prop_assert_eq!(f80.from_be_bytes_reduced(&bytes), reduce_wide(&f80, &bytes));
            prop_assert_eq!(
                p256_order.from_be_bytes_reduced(&bytes),
                reduce_wide(&p256_order, &bytes)
            );
        }
    }

    #[test]
    fn rank_nullity(seed in any::<u64>(), rows in 1usize..7, cols in 1usize..7) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let ctx = FpCtx::new(q80());
        let m = Matrix::from_fn(&ctx, rows, cols, |_, _| ctx.random(&mut rng));
        prop_assert_eq!(m.rank() + m.null_space_basis().len(), cols);
    }
}

#[test]
fn random_null_vector_is_the_basis_combination_at_the_benchmark_shape_with_repeated_rows() {
    // 96 × 97 over q80, laid out like an ACV matrix (a leading 1, then
    // one hash per nonce), with every eighth row a copy of an earlier one:
    // subscribers whose CSSs coincide. Rank 84, so 13 free columns.
    let ctx = FpCtx::new(q80());
    let mut rng = StdRng::seed_from_u64(96);
    let mut m = Matrix::zero(&ctx, 96, 97);
    for i in 0..96 {
        let copy_of = (i % 8 == 7).then(|| rng.next_u64() as usize % i);
        for j in 0..97 {
            let v = match (copy_of, j) {
                (Some(k), _) => m.get(k, j),
                (None, 0) => ctx.one(),
                (None, _) => ctx.random(&mut rng),
            };
            m.set(i, j, &v);
        }
    }
    assert_eq!(m.rank(), 84);
    check_basis_combination(&m, rng).expect("echelon solve = basis combination");
}
