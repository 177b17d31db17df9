//! Dedicated P-256 field kernel: lazy-reduction Montgomery arithmetic on
//! fixed 4×64 limbs.
//!
//! The generic [`pbcd_math::MontCtx`] reduces with a general quotient digit
//! `u = t₀·(−m⁻¹) mod 2^64` and a full multiply-add row by the modulus on
//! every step. The doubling chain of a scalar multiplication is nothing but
//! field multiplications, so this module hard-codes the NIST P-256 prime
//!
//! ```text
//! p = 2^256 − 2^224 + 2^192 + 2^96 − 1
//! ```
//!
//! and exploits its key structural property `−p⁻¹ ≡ 1 (mod 2^64)`: the
//! Montgomery reduction quotient digit is the accumulator limb itself, so
//! the whole reduction is four shifted multiply-adds by the sparse constant
//! limbs of `p` with no inverse multiplication at all.
//!
//! Values are **the same Montgomery residues** `a·2^256 mod p` that
//! `MontCtx::<4>` produces, always kept canonical (`< p`), so the kernel and
//! the generic context interoperate freely on the same `U256` words and
//! every result is bit-identical to the generic path (pinned by the
//! equivalence suite and in-module proptests). `add`, `sub` and the final
//! reduction select their correction by mask; `neg`, the inversions and
//! everything built on them are variable-time, like the rest of the group
//! layer (see `docs/ARCHITECTURE.md`).

use pbcd_math::U256;

/// The field prime `p`, little-endian limbs.
pub const P: [u64; 4] = [
    0xffff_ffff_ffff_ffff,
    0x0000_0000_ffff_ffff,
    0x0000_0000_0000_0000,
    0xffff_ffff_0000_0001,
];

/// `R mod p = 2^256 mod p` — the Montgomery representation of 1.
/// Since `2^255 < p < 2^256`, this is exactly `2^256 − p`.
pub const ONE: [u64; 4] = [
    0x0000_0000_0000_0001,
    0xffff_ffff_0000_0000,
    0xffff_ffff_ffff_ffff,
    0x0000_0000_ffff_fffe,
];

#[inline(always)]
fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = a as u128 + b as u128 + carry as u128;
    (t as u64, (t >> 64) as u64)
}

#[inline(always)]
fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
    let t = (a as u128).wrapping_sub(b as u128 + borrow as u128);
    (t as u64, (t >> 127) as u64)
}

/// `z + a·b + carry` as a (low, high) pair — never overflows 128 bits.
#[inline(always)]
fn mac(z: u64, a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = z as u128 + (a as u128) * (b as u128) + carry as u128;
    (t as u64, (t >> 64) as u64)
}

/// `l − p`, returning the wrapped difference and the borrow.
#[inline(always)]
fn sub_p(l: &[u64; 4]) -> ([u64; 4], u64) {
    let (d0, b) = sbb(l[0], P[0], 0);
    let (d1, b) = sbb(l[1], P[1], b);
    let (d2, b) = sbb(l[2], P[2], b);
    let (d3, b) = sbb(l[3], P[3], b);
    ([d0, d1, d2, d3], b)
}

/// Canonicalizes a value `< 2p` given as `carry·2^256 + l`: keeps `l`
/// only when `l − p` borrows with no carry, selected by mask.
#[inline(always)]
fn reduce_once(l: [u64; 4], carry: u64) -> U256 {
    let (mut d, borrow) = sub_p(&l);
    let keep = (borrow & !carry).wrapping_neg();
    for (d, l) in d.iter_mut().zip(l) {
        *d ^= (*d ^ l) & keep;
    }
    U256::from_limbs(d)
}

/// The Montgomery representation of 1.
#[inline]
pub fn one() -> U256 {
    U256::from_limbs(ONE)
}

/// `a + b mod p` (both canonical).
#[inline]
pub fn add(a: &U256, b: &U256) -> U256 {
    let a = a.limbs();
    let b = b.limbs();
    let (s0, c) = adc(a[0], b[0], 0);
    let (s1, c) = adc(a[1], b[1], c);
    let (s2, c) = adc(a[2], b[2], c);
    let (s3, c) = adc(a[3], b[3], c);
    reduce_once([s0, s1, s2, s3], c)
}

/// `2a mod p`.
#[inline]
pub fn dbl(a: &U256) -> U256 {
    add(a, a)
}

/// `a − b mod p`; `p` is added back under the borrow mask.
#[inline]
pub fn sub(a: &U256, b: &U256) -> U256 {
    let a = a.limbs();
    let b = b.limbs();
    let (d0, bo) = sbb(a[0], b[0], 0);
    let (d1, bo) = sbb(a[1], b[1], bo);
    let (d2, bo) = sbb(a[2], b[2], bo);
    let (d3, bo) = sbb(a[3], b[3], bo);
    let mask = bo.wrapping_neg();
    let (r0, c) = adc(d0, P[0] & mask, 0);
    let (r1, c) = adc(d1, P[1] & mask, c);
    let (r2, c) = adc(d2, P[2] & mask, c);
    let (r3, _) = adc(d3, P[3] & mask, c);
    U256::from_limbs([r0, r1, r2, r3])
}

/// `−a mod p`.
#[inline]
pub fn neg(a: &U256) -> U256 {
    if a.is_zero() {
        return U256::ZERO;
    }
    let (d, _) = {
        let l = a.limbs();
        let (d0, b) = sbb(P[0], l[0], 0);
        let (d1, b) = sbb(P[1], l[1], b);
        let (d2, b) = sbb(P[2], l[2], b);
        let (d3, b) = sbb(P[3], l[3], b);
        ([d0, d1, d2, d3], b)
    };
    U256::from_limbs(d)
}

/// Montgomery reduction of an 8-limb product, fully unrolled for the
/// P-256 limbs. With `−p⁻¹ ≡ 1 (mod 2^64)` the quotient digit of each
/// step is the accumulator's low limb `m` itself, and the sparse prime
/// collapses the multiply-add row: `r + m·P[0] = m·2^64` (a free shift),
/// `P[2] = 0` turns one mac into a carry add.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn mont_reduce(r0: u64, r1: u64, r2: u64, r3: u64, r4: u64, r5: u64, r6: u64, r7: u64) -> U256 {
    let m = r0;
    let carry = m; // r0 + m·P[0] = m·2^64: low limb 0, carry m
    let (r1, carry) = mac(r1, m, P[1], carry);
    let (r2, carry) = adc(r2, 0, carry);
    let (r3, carry) = mac(r3, m, P[3], carry);
    let (r4, carry2) = adc(r4, carry, 0);

    let m = r1;
    let carry = m;
    let (r2, carry) = mac(r2, m, P[1], carry);
    let (r3, carry) = adc(r3, 0, carry);
    let (r4, carry) = mac(r4, m, P[3], carry);
    let (r5, carry2) = adc(r5, carry, carry2);

    let m = r2;
    let carry = m;
    let (r3, carry) = mac(r3, m, P[1], carry);
    let (r4, carry) = adc(r4, 0, carry);
    let (r5, carry) = mac(r5, m, P[3], carry);
    let (r6, carry2) = adc(r6, carry, carry2);

    let m = r3;
    let carry = m;
    let (r4, carry) = mac(r4, m, P[1], carry);
    let (r5, carry) = adc(r5, 0, carry);
    let (r6, carry) = mac(r6, m, P[3], carry);
    let (r7, carry2) = adc(r7, carry, carry2);

    reduce_once([r4, r5, r6, r7], carry2)
}

/// Montgomery product `a·b·2^−256 mod p` (both canonical Montgomery
/// residues; the result is too). Fully unrolled 4×4 schoolbook product
/// followed by the specialized reduction.
#[inline]
pub fn mul(a: &U256, b: &U256) -> U256 {
    let [a0, a1, a2, a3] = *a.limbs();
    let [b0, b1, b2, b3] = *b.limbs();

    let (r0, carry) = mac(0, a0, b0, 0);
    let (r1, carry) = mac(0, a0, b1, carry);
    let (r2, carry) = mac(0, a0, b2, carry);
    let (r3, r4) = mac(0, a0, b3, carry);

    let (r1, carry) = mac(r1, a1, b0, 0);
    let (r2, carry) = mac(r2, a1, b1, carry);
    let (r3, carry) = mac(r3, a1, b2, carry);
    let (r4, r5) = mac(r4, a1, b3, carry);

    let (r2, carry) = mac(r2, a2, b0, 0);
    let (r3, carry) = mac(r3, a2, b1, carry);
    let (r4, carry) = mac(r4, a2, b2, carry);
    let (r5, r6) = mac(r5, a2, b3, carry);

    let (r3, carry) = mac(r3, a3, b0, 0);
    let (r4, carry) = mac(r4, a3, b1, carry);
    let (r5, carry) = mac(r5, a3, b2, carry);
    let (r6, r7) = mac(r6, a3, b3, carry);

    mont_reduce(r0, r1, r2, r3, r4, r5, r6, r7)
}

/// Montgomery square `a²·2^−256 mod p`: cross products computed once and
/// doubled by shifting, then the diagonal terms — ~40% fewer limb
/// multiplications than `mul(a, a)`.
#[inline]
pub fn sqr(a: &U256) -> U256 {
    let [a0, a1, a2, a3] = *a.limbs();

    let (r1, carry) = mac(0, a0, a1, 0);
    let (r2, carry) = mac(0, a0, a2, carry);
    let (r3, r4) = mac(0, a0, a3, carry);
    let (r3, carry) = mac(r3, a1, a2, 0);
    let (r4, r5) = mac(r4, a1, a3, carry);
    let (r5, r6) = mac(r5, a2, a3, 0);

    let r7 = r6 >> 63;
    let r6 = (r6 << 1) | (r5 >> 63);
    let r5 = (r5 << 1) | (r4 >> 63);
    let r4 = (r4 << 1) | (r3 >> 63);
    let r3 = (r3 << 1) | (r2 >> 63);
    let r2 = (r2 << 1) | (r1 >> 63);
    let r1 = r1 << 1;

    let (r0, carry) = mac(0, a0, a0, 0);
    let (r1, carry) = adc(r1, 0, carry);
    let (r2, carry) = mac(r2, a1, a1, carry);
    let (r3, carry) = adc(r3, 0, carry);
    let (r4, carry) = mac(r4, a2, a2, carry);
    let (r5, carry) = adc(r5, 0, carry);
    let (r6, carry) = mac(r6, a3, a3, carry);
    let (r7, _) = adc(r7, 0, carry);

    mont_reduce(r0, r1, r2, r3, r4, r5, r6, r7)
}

/// `a^(2^n)` by repeated kernel squaring.
fn sqr_n(a: &U256, n: u32) -> U256 {
    let mut acc = *a;
    for _ in 0..n {
        acc = sqr(&acc);
    }
    acc
}

/// `R³ mod p` — domain-fixup constant for [`inv_vartime`]. The binary xgcd
/// inverts the raw words: given the Montgomery residue `a·R` it returns
/// `a⁻¹·R⁻¹ mod p`, and one Montgomery multiplication by `R³` restores the
/// Montgomery domain: `(a⁻¹·R⁻¹)·R³·R⁻¹ = a⁻¹·R`.
const R3: [u64; 4] = [
    0xffff_fffd_0000_000a,
    0xffff_ffed_ffff_fff7,
    0x0000_0005_ffff_fffc,
    0x0000_0018_0000_0001,
];

/// Multiplicative inverse of a Montgomery residue via variable-time binary
/// extended GCD; `None` for 0. Roughly 3–4× faster than the Fermat chain
/// [`inv`] on hosts where the carry-serialized multiplier is slow, because
/// it replaces ~300 field multiplications with word shifts and
/// subtractions. Variable-time, like every other path in this module.
pub fn inv_vartime(a: &U256) -> Option<U256> {
    if a.is_zero() {
        return None;
    }
    let p = U256::from_limbs(P);
    let mut u = *a;
    let mut v = p;
    let mut x1 = U256::one();
    let mut x2 = U256::ZERO;
    // Invariant: x1·a ≡ u and x2·a ≡ v (mod p); halving an odd x adds p
    // first, propagating the dropped carry into bit 255 (p < 2^256 keeps
    // the true sum below 2^257, so one bit suffices).
    let one = U256::one();
    let halve = |x: U256| {
        if x.is_even() {
            x.shr(1)
        } else {
            let (s, c) = x.overflowing_add(&p);
            let mut h = s.shr(1);
            if c {
                h.set_bit(255, true);
            }
            h
        }
    };
    while u != one && v != one {
        while u.is_even() {
            u = u.shr(1);
            x1 = halve(x1);
        }
        while v.is_even() {
            v = v.shr(1);
            x2 = halve(x2);
        }
        if u >= v {
            u = u.wrapping_sub(&v);
            x1 = if x1 >= x2 {
                x1.wrapping_sub(&x2)
            } else {
                x1.wrapping_add(&p).wrapping_sub(&x2)
            };
        } else {
            v = v.wrapping_sub(&u);
            x2 = if x2 >= x1 {
                x2.wrapping_sub(&x1)
            } else {
                x2.wrapping_add(&p).wrapping_sub(&x1)
            };
        }
    }
    let raw = if u == one { x1 } else { x2 };
    Some(mul(&raw, &U256::from_limbs(R3)))
}

/// Multiplicative inverse via Fermat (`a^(p−2)`) on a fixed addition
/// chain for the P-256 prime; `None` for 0. Exploits the run structure of
/// `p − 2 = 2^256 − 2^224 + 2^192 + 2^96 − 3`: build `a^(2^k − 1)` blocks
/// by ladder doubling, then stitch the exponent's bit runs together.
pub fn inv(a: &U256) -> Option<U256> {
    if a.is_zero() {
        return None;
    }
    // x_k = a^(2^k − 1).
    let x1 = *a;
    let x2 = mul(&sqr(&x1), &x1);
    let x3 = mul(&sqr(&x2), &x1);
    let x6 = mul(&sqr_n(&x3, 3), &x3);
    let x12 = mul(&sqr_n(&x6, 6), &x6);
    let x15 = mul(&sqr_n(&x12, 3), &x3);
    let x30 = mul(&sqr_n(&x15, 15), &x15);
    let x32 = mul(&sqr_n(&x30, 2), &x2);
    // The 94-one run, assembled as 64 + 30.
    let x64 = mul(&sqr_n(&x32, 32), &x32);
    let x94 = mul(&sqr_n(&x64, 30), &x30);
    // p − 2 = (2^32 − 1)·2^224 + 2^192 + (2^94 − 1)·2^2 + 1, consumed
    // MSB-first: 32 ones, 31 zeros, 1, 96 zeros, 94 ones, 0, 1.
    let mut acc = sqr_n(&x32, 32);
    acc = mul(&acc, a); // bit 192
    acc = sqr_n(&acc, 96); // bits 191..96 are zero
    acc = sqr_n(&acc, 94);
    acc = mul(&acc, &x94); // bits 95..2
    acc = sqr_n(&acc, 2);
    acc = mul(&acc, a); // bit 0
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbcd_math::MontCtx;
    use proptest::prelude::*;

    fn ctx() -> MontCtx<4> {
        MontCtx::new(U256::from_limbs(P))
    }

    fn arb_residue() -> impl Strategy<Value = U256> {
        proptest::array::uniform4(any::<u64>()).prop_map(|limbs| {
            let p = U256::from_limbs(P);
            U256::from_limbs(limbs).rem(&p)
        })
    }

    #[test]
    fn constants_match_generic_context() {
        let f = ctx();
        assert_eq!(f.modulus(), &U256::from_limbs(P));
        assert_eq!(f.one(), one());
    }

    proptest! {
        #[test]
        fn mul_matches_mont_ctx(a in arb_residue(), b in arb_residue()) {
            let f = ctx();
            prop_assert_eq!(mul(&a, &b), f.mont_mul(&a, &b));
        }

        #[test]
        fn sqr_matches_mont_ctx(a in arb_residue()) {
            let f = ctx();
            prop_assert_eq!(sqr(&a), f.mont_sqr(&a));
            prop_assert_eq!(sqr(&a), mul(&a, &a));
        }

        #[test]
        fn add_sub_neg_match_mont_ctx(a in arb_residue(), b in arb_residue()) {
            let f = ctx();
            prop_assert_eq!(add(&a, &b), f.add(&a, &b));
            prop_assert_eq!(sub(&a, &b), f.sub(&a, &b));
            prop_assert_eq!(dbl(&a), f.double(&a));
            prop_assert_eq!(neg(&a), f.neg(&a));
        }

        #[test]
        fn inv_matches_mont_ctx(a in arb_residue()) {
            let f = ctx();
            prop_assert_eq!(inv(&a), f.inv(&a));
            if !a.is_zero() {
                let i = inv(&a).unwrap();
                prop_assert_eq!(mul(&a, &i), one());
            }
        }

        #[test]
        fn inv_vartime_matches_fermat(a in arb_residue()) {
            prop_assert_eq!(inv_vartime(&a), inv(&a));
        }
    }

    #[test]
    fn edge_values() {
        let f = ctx();
        let p_minus_1 = U256::from_limbs(P).wrapping_sub(&U256::one());
        for v in [U256::ZERO, U256::one(), p_minus_1] {
            let m = f.to_mont(&v);
            assert_eq!(mul(&m, &m), f.mont_mul(&m, &m));
            assert_eq!(sqr(&m), f.mont_sqr(&m));
            assert_eq!(add(&m, &m), f.add(&m, &m));
            assert_eq!(neg(&m), f.neg(&m));
        }
        assert_eq!(inv(&U256::ZERO), None);
        assert_eq!(inv_vartime(&U256::ZERO), None);
        let m = f.to_mont(&p_minus_1);
        assert_eq!(inv_vartime(&m), inv(&m));
        assert_eq!(inv_vartime(&one()), Some(one()));
    }
}
