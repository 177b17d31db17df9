//! Montgomery-form modular arithmetic over odd moduli.
//!
//! A [`MontCtx`] precomputes the constants needed for CIOS Montgomery
//! multiplication. Hot-path modular arithmetic in the workspace (GKM matrix
//! elimination and hashing into `F_q`, the P-256 scalar field, the modp
//! groups) goes through this context; elliptic-curve coordinates use the
//! dedicated `pbcd_group::p256_field` kernel, and schoolbook `mul_mod` is
//! reserved for one-off setup.
//!
//! Multiplication, addition, subtraction and negation choose their final
//! correction by a carry/borrow mask rather than a branch, and all of them
//! inline into the caller's loop. Exponentiation stays variable-time.
//!
//! Values handled by the context are *residues in Montgomery form*:
//! `mont(x) = x·R mod m` with `R = 2^(64·L)`. Conversion happens at the
//! boundary via [`MontCtx::to_mont`] / [`MontCtx::from_mont`].
//!
//! Sums of products can also be reduced once instead of once per term.
//! The crate-private `Wide` accumulator adds full `2L`-limb products
//! with a carry chain whose length depends on `L` alone, and
//! `redc_wide` reduces the total with one `L`-round Montgomery
//! reduction and the same masked correction as `mont_mul`. The total
//! must stay below `m·R`: `lazy_budget` is how many products of
//! residues that allows, `2^(64·L − bits(m) − 1)` and at least one
//! (2^47 at the 80-bit GKM prime, 1 for the P-256 moduli). The
//! linear-algebra solve accumulates its elimination updates this way.

use crate::uint::Uint;

/// An unreduced sum `hi·R + lo` of products of residues, `R = 2^(64·L)`.
///
/// Two `L`-limb halves, because stable Rust cannot name `[u64; 2 * L]`.
#[derive(Clone, Copy)]
pub(crate) struct Wide<const L: usize> {
    lo: [u64; L],
    hi: [u64; L],
}

impl<const L: usize> Wide<L> {
    /// The empty sum.
    pub(crate) const ZERO: Self = Self {
        lo: [0; L],
        hi: [0; L],
    };

    /// Adds the full `2L`-limb product `a·b`. Each partial-product row
    /// carries through to the top limb, so the work depends on `L` only;
    /// the caller keeps the total below `R²` (in practice below `m·R`).
    #[inline]
    pub(crate) fn mul_acc(&mut self, a: &Uint<L>, b: &Uint<L>) {
        let (al, bl) = (a.limbs(), b.limbs());
        for i in 0..L {
            let mut carry = 0u128;
            for j in 0..L {
                let k = i + j;
                let limb = if k < L {
                    &mut self.lo[k]
                } else {
                    &mut self.hi[k - L]
                };
                let v = *limb as u128 + al[i] as u128 * bl[j] as u128 + carry;
                *limb = v as u64;
                carry = v >> 64;
            }
            for limb in &mut self.hi[i..] {
                let v = *limb as u128 + carry;
                *limb = v as u64;
                carry = v >> 64;
            }
        }
    }
}

/// Precomputed Montgomery context for an odd modulus.
#[derive(Clone, PartialEq, Eq)]
pub struct MontCtx<const L: usize> {
    modulus: Uint<L>,
    /// `-modulus^{-1} mod 2^64`
    n0: u64,
    /// `R mod modulus` (Montgomery form of 1)
    r1: Uint<L>,
    /// `R² mod modulus` (to_mont multiplier)
    r2: Uint<L>,
    bits: u32,
}

impl<const L: usize> MontCtx<L> {
    /// Creates a context. Panics if the modulus is even or < 3.
    pub fn new(modulus: Uint<L>) -> Self {
        assert!(modulus.is_odd(), "Montgomery modulus must be odd");
        assert!(modulus > Uint::one(), "modulus must be > 1");
        // Newton iteration for modulus^{-1} mod 2^64; five steps double
        // precision from the 1-bit seed each time (odd m ⇒ m ≡ m^{-1} mod 2).
        let m0 = modulus.limbs()[0];
        let mut inv = m0;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(inv)));
        }
        debug_assert_eq!(m0.wrapping_mul(inv), 1);
        let n0 = inv.wrapping_neg();
        // R mod m = (MAX mod m) + 1 (mod m), since MAX = R - 1.
        let r1 = Uint::<L>::MAX.rem(&modulus).add_mod(&Uint::one(), &modulus);
        let r2 = r1.mul_mod(&r1, &modulus);
        let bits = modulus.bits();
        Self {
            modulus,
            n0,
            r1,
            r2,
            bits,
        }
    }

    /// The modulus.
    pub fn modulus(&self) -> &Uint<L> {
        &self.modulus
    }

    /// Bit length of the modulus.
    pub fn modulus_bits(&self) -> u32 {
        self.bits
    }

    /// Montgomery form of 1.
    pub fn one(&self) -> Uint<L> {
        self.r1
    }

    /// Converts a canonical residue (`< modulus`) to Montgomery form.
    pub fn to_mont(&self, x: &Uint<L>) -> Uint<L> {
        debug_assert!(x < &self.modulus);
        self.mont_mul(x, &self.r2)
    }

    /// Converts Montgomery form back to a canonical residue.
    pub fn from_mont(&self, x: &Uint<L>) -> Uint<L> {
        self.mont_mul(x, &Uint::one())
    }

    /// CIOS Montgomery multiplication: returns `a·b·R^{-1} mod m`.
    ///
    /// Only one operand has to be a residue: with the other anywhere below
    /// `R` the running sum stays under `2m`, so the final conditional
    /// subtraction still lands in `[0, m)`. That subtraction is selected
    /// by its borrow, not branched on.
    #[inline]
    pub fn mont_mul(&self, a: &Uint<L>, b: &Uint<L>) -> Uint<L> {
        let m = self.modulus.limbs();
        let bl = b.limbs();
        // The running sum is `hi·R + t`, below `2R` between rounds.
        let mut t = [0u64; L];
        let mut hi = 0u64;
        for &ai in a.limbs() {
            // t += a[i] * b
            let mut carry = 0u128;
            for (tj, &bj) in t.iter_mut().zip(bl) {
                let v = *tj as u128 + ai as u128 * bj as u128 + carry;
                *tj = v as u64;
                carry = v >> 64;
            }
            let top = hi as u128 + carry;
            // Reduce one limb: add u*m so the low limb cancels, shift right.
            let u = t[0].wrapping_mul(self.n0) as u128;
            let mut carry = (t[0] as u128 + u * m[0] as u128) >> 64;
            for j in 1..L {
                let v = t[j] as u128 + u * m[j] as u128 + carry;
                t[j - 1] = v as u64;
                carry = v >> 64;
            }
            let v = top as u64 as u128 + carry;
            t[L - 1] = v as u64;
            hi = ((top >> 64) + (v >> 64)) as u64;
        }
        let t = Uint::from_limbs(t);
        let (d, borrow) = t.overflowing_sub(&self.modulus);
        // `hi` is 0 or 1: keep `t` only when it is already below `m`.
        Uint::select((borrow as u64 & !hi).wrapping_neg(), &t, &d)
    }

    /// Montgomery reduction of a [`Wide`] sum: `w·R⁻¹ mod m`, fully
    /// reduced, for any `w < m·R`.
    ///
    /// Round `i` adds the multiple of `m` that clears the low limb and
    /// shifts one limb right, pulling in `w.hi[i]`. After `L` rounds the
    /// value is below `(m·R + m·R)/R = 2m`, so one subtraction of `m`,
    /// selected by its borrow as in [`Self::mont_mul`], finishes it.
    #[inline]
    pub(crate) fn redc_wide(&self, w: &Wide<L>) -> Uint<L> {
        let m = self.modulus.limbs();
        let mut t = w.lo;
        // The bit carried out of `t`, at the weight of `w.hi[i]` in round `i`.
        let mut top = 0u64;
        for i in 0..L {
            let u = t[0].wrapping_mul(self.n0) as u128;
            let mut carry = (t[0] as u128 + u * m[0] as u128) >> 64;
            for j in 1..L {
                let v = t[j] as u128 + u * m[j] as u128 + carry;
                t[j - 1] = v as u64;
                carry = v >> 64;
            }
            let v = w.hi[i] as u128 + top as u128 + carry;
            t[L - 1] = v as u64;
            top = (v >> 64) as u64;
        }
        let t = Uint::from_limbs(t);
        let (d, borrow) = t.overflowing_sub(&self.modulus);
        // `top` is 0 or 1: keep `t` only when it is already below `m`.
        Uint::select((borrow as u64 & !top).wrapping_neg(), &t, &d)
    }

    /// How many products of two residues one [`Wide`] sum can take and
    /// stay below `m·R`, the bound [`Self::redc_wide`] needs:
    /// `2^(64·L − bits(m) − 1)`, at least 1.
    ///
    /// With `k` that power of two, `k·(m−1)² < k·m·2^bits(m) ≤ m·R/2`.
    /// Capped at `2^(usize::BITS − 2)`, which no matrix reaches.
    pub(crate) fn lazy_budget(&self) -> usize {
        let spare = (64 * L as u32).saturating_sub(self.bits + 1);
        1 << spare.min(usize::BITS - 2)
    }

    /// Montgomery squaring (delegates to `mont_mul`).
    pub fn mont_sqr(&self, a: &Uint<L>) -> Uint<L> {
        self.mont_mul(a, a)
    }

    /// Modular addition of residues (either form, as long as both match).
    #[inline]
    pub fn add(&self, a: &Uint<L>, b: &Uint<L>) -> Uint<L> {
        a.add_mod(b, &self.modulus)
    }

    /// Modular subtraction of residues.
    #[inline]
    pub fn sub(&self, a: &Uint<L>, b: &Uint<L>) -> Uint<L> {
        a.sub_mod(b, &self.modulus)
    }

    /// Modular negation of a residue: `0 − a`, so zero stays zero.
    #[inline]
    pub fn neg(&self, a: &Uint<L>) -> Uint<L> {
        self.sub(&Uint::ZERO, a)
    }

    /// Modular doubling.
    #[inline]
    pub fn double(&self, a: &Uint<L>) -> Uint<L> {
        self.add(a, a)
    }

    /// Exponentiation of a Montgomery-form base by a (canonical) exponent of
    /// any width.
    ///
    /// Uses an MSB-first *sliding window* over the exponent with a
    /// precomputed odd-powers table (`base, base³, …, base^(2^w − 1)`),
    /// cutting the multiplication count from `bits/2` to roughly
    /// `bits/(w+1) + 2^(w−1)`. Falls back to the plain ladder for very
    /// short exponents where the table would not amortize. Variable-time
    /// in the exponent, like everything in this workspace.
    pub fn pow<const E: usize>(&self, base_mont: &Uint<L>, exp: &Uint<E>) -> Uint<L> {
        let nbits = exp.bits();
        if nbits == 0 {
            return self.r1; // mont(1)
        }
        let w = Self::pow_window(nbits);
        if w == 1 {
            let mut acc = self.r1;
            for i in (0..nbits).rev() {
                acc = self.mont_sqr(&acc);
                if exp.bit(i) {
                    acc = self.mont_mul(&acc, base_mont);
                }
            }
            return acc;
        }
        // Odd powers: tbl[i] = base^(2i+1).
        let mut tbl = Vec::with_capacity(1usize << (w - 1));
        tbl.push(*base_mont);
        let sq = self.mont_sqr(base_mont);
        for i in 1..(1usize << (w - 1)) {
            let next = self.mont_mul(&tbl[i - 1], &sq);
            tbl.push(next);
        }
        let mut acc = self.r1;
        let mut i = nbits as i64 - 1;
        while i >= 0 {
            if !exp.bit(i as u32) {
                acc = self.mont_sqr(&acc);
                i -= 1;
                continue;
            }
            // Widest window ending on a set bit: bits [j, i] with j chosen
            // so the window value is odd and at most w bits long.
            let mut j = (i - w as i64 + 1).max(0);
            while !exp.bit(j as u32) {
                j += 1;
            }
            let mut val = 0usize;
            for b in (j..=i).rev() {
                val = (val << 1) | exp.bit(b as u32) as usize;
            }
            for _ in 0..=(i - j) {
                acc = self.mont_sqr(&acc);
            }
            acc = self.mont_mul(&acc, &tbl[val >> 1]);
            i = j - 1;
        }
        acc
    }

    /// Window width for a sliding-window exponentiation over `bits`-bit
    /// exponents (table build cost vs. per-bit saving trade-off).
    fn pow_window(bits: u32) -> u32 {
        match bits {
            0..=24 => 1,
            25..=80 => 3,
            81..=240 => 4,
            241..=672 => 5,
            _ => 6,
        }
    }

    /// Simultaneous double exponentiation `a^x · b^y` (Straus/Shamir):
    /// one shared squaring chain over interleaved 2-bit windows of both
    /// exponents, with a 15-entry `aⁱ·bʲ` product table. Roughly 1.7–2×
    /// faster than two independent [`MontCtx::pow`] calls plus a multiply.
    pub fn pow2<const E: usize>(
        &self,
        a: &Uint<L>,
        x: &Uint<E>,
        b: &Uint<L>,
        y: &Uint<E>,
    ) -> Uint<L> {
        let nbits = x.bits().max(y.bits());
        if nbits == 0 {
            return self.r1;
        }
        // tbl[(i << 2) | j] = a^i · b^j for i, j ∈ 0..4 (index 0 unused).
        let mut tbl = [self.r1; 16];
        for i in 1..4usize {
            tbl[i << 2] = if i == 1 {
                *a
            } else {
                self.mont_mul(&tbl[(i - 1) << 2], a)
            };
        }
        for j in 1..4usize {
            tbl[j] = if j == 1 {
                *b
            } else {
                self.mont_mul(&tbl[j - 1], b)
            };
        }
        for i in 1..4usize {
            for j in 1..4usize {
                tbl[(i << 2) | j] = self.mont_mul(&tbl[i << 2], &tbl[j]);
            }
        }
        let mut acc = self.r1;
        // Round the bit count up to even and walk 2-bit columns MSB-first.
        let mut i = nbits.div_ceil(2) as i64 * 2 - 2;
        while i >= 0 {
            acc = self.mont_sqr(&acc);
            acc = self.mont_sqr(&acc);
            let hi = i as u32 + 1;
            let lo = i as u32;
            let di = ((x.bit(hi) as usize) << 1) | x.bit(lo) as usize;
            let dj = ((y.bit(hi) as usize) << 1) | y.bit(lo) as usize;
            let idx = (di << 2) | dj;
            if idx != 0 {
                acc = self.mont_mul(&acc, &tbl[idx]);
            }
            i -= 2;
        }
        acc
    }

    /// Montgomery's batched inversion: inverts every element of `vals`
    /// with **one** field inversion plus `3(n−1)` multiplications, instead
    /// of `n` Fermat inversions. Returns `None` if any input is zero
    /// (nothing is inverted in that case).
    ///
    /// Inputs and outputs are Montgomery-form residues. This is the
    /// primitive behind the group layer's point-table normalization and
    /// the linear-algebra kernel's deferred pivot handling.
    pub fn batch_inv(&self, vals: &[Uint<L>]) -> Option<Vec<Uint<L>>> {
        if vals.is_empty() {
            return Some(Vec::new());
        }
        // prefix[i] = v₀·…·vᵢ
        let mut prefix = Vec::with_capacity(vals.len());
        let mut acc = self.r1;
        for v in vals {
            if v.is_zero() {
                return None;
            }
            acc = self.mont_mul(&acc, v);
            prefix.push(acc);
        }
        let mut inv_acc = self.inv(&prefix[vals.len() - 1])?;
        let mut out = vec![Uint::ZERO; vals.len()];
        for i in (1..vals.len()).rev() {
            out[i] = self.mont_mul(&inv_acc, &prefix[i - 1]);
            inv_acc = self.mont_mul(&inv_acc, &vals[i]);
        }
        out[0] = inv_acc;
        Some(out)
    }

    /// Inverse of a Montgomery-form value via Fermat's little theorem
    /// (requires a *prime* modulus). Returns `None` for zero.
    pub fn inv(&self, a_mont: &Uint<L>) -> Option<Uint<L>> {
        if a_mont.is_zero() {
            return None;
        }
        let pm2 = self.modulus.wrapping_sub(&Uint::from_u64(2));
        Some(self.pow(a_mont, &pm2))
    }

    /// Square root of a Montgomery-form value for primes `p ≡ 3 (mod 4)`:
    /// `a^((p+1)/4)`. Returns `None` if `a` is a non-residue.
    pub fn sqrt_p3mod4(&self, a_mont: &Uint<L>) -> Option<Uint<L>> {
        assert_eq!(
            self.modulus.limbs()[0] & 3,
            3,
            "sqrt_p3mod4 requires p ≡ 3 (mod 4)"
        );
        // p ≡ 3 (mod 4) ⇒ (p+1)/4 = (p >> 2) + 1, avoiding overflow at p+1.
        let e = self.modulus.shr(2).wrapping_add(&Uint::one());
        let r = self.pow(a_mont, &e);
        if self.mont_sqr(&r) == *a_mont {
            Some(r)
        } else {
            None
        }
    }
}

impl<const L: usize> core::fmt::Debug for MontCtx<L> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "MontCtx(m=0x{})", self.modulus.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uint::{U1024, U128, U256};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn q80() -> U128 {
        // 2^80 - 65, prime.
        U128::from_u128((1u128 << 80) - 65)
    }

    /// A seeded 125-bit prime: a lazy budget of 4.
    fn p125() -> U128 {
        crate::prime::gen_prime(125, &mut StdRng::seed_from_u64(125))
    }

    /// The NIST P-256 field prime `p` (top bit set).
    fn p256_p() -> U256 {
        U256::from_hex("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff").unwrap()
    }

    /// The P-256 group order `n` (just below `R`).
    fn p256_n() -> U256 {
        U256::from_hex("ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551").unwrap()
    }

    /// The RFC 5114 §2.1 1024-bit modp prime `p` (top bit set).
    fn modp_p() -> U1024 {
        U1024::from_hex(concat!(
            "B10B8F96A080E01DDE92DE5EAE5D54EC52C99FBCFB06A3C69A6A9DCA52D23B61",
            "6073E28675A23D189838EF1E2EE652C013ECB4AEA906112324975C3CD49B83BF",
            "ACCBDD7D90C4BD7098488E9C219A73724EFFD6FAE5644738FAA31A4FF55BCCC0",
            "A151AF5F0DC8B4BD45BF37DF365C1A65E68CFDA76D4DA708DF1FB2BC2E4A4371"
        ))
        .unwrap()
    }

    /// `(m − 1)·budget`, one factor of the largest sum the budget allows:
    /// the budget is a power of two and leaves a spare bit, so it fits.
    fn scaled_top<const L: usize>(ctx: &MontCtx<L>) -> Uint<L> {
        let top = ctx.modulus().wrapping_sub(&Uint::one());
        let shift = ctx.lazy_budget().trailing_zeros();
        let scaled = top.shl(shift);
        assert_eq!(scaled.shr(shift), top, "(m − 1)·budget overflows");
        scaled
    }

    /// `redc_wide` of `k` accumulated products of residues is the
    /// `mont_mul` + `add` fold of the same products, for every `k` up to
    /// `min(budget, 64)`; a quarter of the operands are `m − 1`. Then the
    /// largest sum the budget allows, all-`(m − 1)` operands: summed
    /// literally when the budget is at most 64, otherwise as the one
    /// product `((m − 1)·budget)·(m − 1)`, which is the same integer.
    fn check_lazy_fold<const L: usize>(m: Uint<L>, rng: &mut StdRng) -> TestCaseResult {
        let ctx = MontCtx::new(m);
        let top = m.wrapping_sub(&Uint::one());
        let budget = ctx.lazy_budget();
        for k in 0..=budget.min(64) {
            let mut wide = Wide::ZERO;
            let mut fold = Uint::ZERO;
            for _ in 0..k {
                let mut draw = || match rng.next_u32() % 4 {
                    0 => top,
                    _ => Uint::random_below(rng, &m),
                };
                let (a, b) = (draw(), draw());
                wide.mul_acc(&a, &b);
                fold = ctx.add(&fold, &ctx.mont_mul(&a, &b));
            }
            prop_assert_eq!(ctx.redc_wide(&wide), fold, "k = {}", k);
        }
        let scaled = scaled_top(&ctx);
        let mut wide = Wide::ZERO;
        if budget <= 64 {
            for _ in 0..budget {
                wide.mul_acc(&top, &top);
            }
        } else {
            wide.mul_acc(&scaled, &top);
        }
        prop_assert_eq!(ctx.redc_wide(&wide), ctx.mont_mul(&scaled, &top));
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn redc_wide_of_accumulated_products_is_the_mont_mul_fold(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            check_lazy_fold(q80(), &mut rng)?;
            // Budget 4 with 125-bit residues: sums overflow the low half
            // of `hi`, so `mul_acc`'s carry has to reach the top limb.
            check_lazy_fold(p125(), &mut rng)?;
            check_lazy_fold(p256_p(), &mut rng)?;
            check_lazy_fold(p256_n(), &mut rng)?;
            check_lazy_fold(modp_p(), &mut rng)?;
        }
    }

    /// `budget·(m − 1)² < m·R`: the wide product of `(m − 1)·budget` and
    /// `m − 1` has its high half below `m`, and `m·R` is `(hi = m, lo = 0)`.
    fn assert_budget_bound<const L: usize>(m: Uint<L>, expect_budget: usize) {
        let ctx = MontCtx::new(m);
        assert_eq!(ctx.lazy_budget(), expect_budget);
        let top = m.wrapping_sub(&Uint::one());
        let (_, hi) = scaled_top(&ctx).mul_wide(&top);
        assert!(hi < m, "budget·(m − 1)² ≥ m·R for m = 0x{}", m.to_hex());
    }

    #[test]
    fn lazy_budget_keeps_every_sum_below_m_r() {
        assert_budget_bound(q80(), 1 << 47);
        assert_budget_bound(p125(), 4);
        assert_budget_bound(p256_p(), 1);
        assert_budget_bound(p256_n(), 1);
        assert_budget_bound(modp_p(), 1);
        assert_budget_bound(U128::from_u128((1u128 << 127) - 1), 1);
    }

    #[test]
    fn roundtrip_mont_form() {
        let ctx = MontCtx::new(q80());
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let x = U128::random_below(&mut rng, &q80());
            let m = ctx.to_mont(&x);
            assert_eq!(ctx.from_mont(&m), x);
        }
    }

    #[test]
    fn mont_mul_matches_schoolbook() {
        let ctx = MontCtx::new(q80());
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        for _ in 0..500 {
            let a = U128::random_below(&mut rng, &q80());
            let b = U128::random_below(&mut rng, &q80());
            let am = ctx.to_mont(&a);
            let bm = ctx.to_mont(&b);
            let got = ctx.from_mont(&ctx.mont_mul(&am, &bm));
            assert_eq!(got, a.mul_mod(&b, &q80()));
        }
    }

    #[test]
    fn mont_mul_takes_one_unreduced_operand() {
        let ctx = MontCtx::new(q80());
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for _ in 0..500 {
            let wide = U128::random_bits(&mut rng, 128);
            let b = ctx.to_mont(&U128::random_below(&mut rng, &q80()));
            let expect = ctx.mont_mul(&wide.rem(&q80()), &b);
            assert_eq!(ctx.mont_mul(&wide, &b), expect);
            assert_eq!(ctx.mont_mul(&b, &wide), expect);
        }
        let b = ctx.to_mont(&q80().wrapping_sub(&U128::one()));
        let expect = ctx.mont_mul(&U128::MAX.rem(&q80()), &b);
        assert_eq!(ctx.mont_mul(&U128::MAX, &b), expect);
        assert_eq!(ctx.mont_mul(&b, &U128::MAX), expect);
    }

    #[test]
    fn mont_mul_256bit_modulus_near_max() {
        // Stress the conditional-subtraction path with a modulus close to
        // the type width (like the P-256 base field prime).
        let p = p256_p();
        let ctx = MontCtx::new(p);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for _ in 0..300 {
            let a = U256::random_below(&mut rng, &p);
            let b = U256::random_below(&mut rng, &p);
            let got = ctx.from_mont(&ctx.mont_mul(&ctx.to_mont(&a), &ctx.to_mont(&b)));
            assert_eq!(got, a.mul_mod(&b, &p));
        }
    }

    #[test]
    fn pow_matches_pow_mod() {
        let ctx = MontCtx::new(q80());
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        for _ in 0..50 {
            let a = U128::random_below(&mut rng, &q80());
            let e = U128::random_bits(&mut rng, 80);
            let got = ctx.from_mont(&ctx.pow(&ctx.to_mont(&a), &e));
            assert_eq!(got, a.pow_mod(&e, &q80()));
        }
    }

    #[test]
    fn pow_long_exponents_hit_every_window_width() {
        // Exercise the sliding-window paths (w = 1, 3, 4, 5, 6) against the
        // schoolbook reference, including all-ones and sparse exponents.
        let ctx = MontCtx::new(q80());
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        for bits in [1u32, 8, 24, 25, 80, 81, 128] {
            for _ in 0..20 {
                let a = U128::random_below(&mut rng, &q80());
                let e = U128::random_bits(&mut rng, bits);
                let got = ctx.from_mont(&ctx.pow(&ctx.to_mont(&a), &e));
                assert_eq!(got, a.pow_mod(&e, &q80()), "bits={bits}");
            }
        }
        // Dense and sparse extremes.
        let a = U128::from_u64(3);
        for e in [
            U128::MAX,
            U128::from_u128(1u128 << 100),
            U128::from_u128((1u128 << 99) | 1),
            U128::ZERO,
            U128::one(),
        ] {
            let got = ctx.from_mont(&ctx.pow(&ctx.to_mont(&a), &e));
            assert_eq!(got, a.pow_mod(&e, &q80()));
        }
    }

    #[test]
    fn pow2_matches_separate_pows() {
        let ctx = MontCtx::new(q80());
        let mut rng = rand::rngs::StdRng::seed_from_u64(15);
        for _ in 0..50 {
            let a = ctx.to_mont(&U128::random_below(&mut rng, &q80()));
            let b = ctx.to_mont(&U128::random_below(&mut rng, &q80()));
            let x = U128::random_bits(&mut rng, 80);
            let y = U128::random_bits(&mut rng, 80);
            let expect = ctx.mont_mul(&ctx.pow(&a, &x), &ctx.pow(&b, &y));
            assert_eq!(ctx.pow2(&a, &x, &b, &y), expect);
        }
        // Edge exponents, including lopsided bit lengths.
        let a = ctx.to_mont(&U128::from_u64(7));
        let b = ctx.to_mont(&U128::from_u64(11));
        for (x, y) in [
            (U128::ZERO, U128::ZERO),
            (U128::ZERO, U128::from_u64(5)),
            (U128::from_u64(1), U128::ZERO),
            (U128::MAX, U128::one()),
        ] {
            let expect = ctx.mont_mul(&ctx.pow(&a, &x), &ctx.pow(&b, &y));
            assert_eq!(ctx.pow2(&a, &x, &b, &y), expect);
        }
    }

    #[test]
    fn batch_inv_matches_individual_inversions() {
        let ctx = MontCtx::new(q80());
        let mut rng = rand::rngs::StdRng::seed_from_u64(16);
        for n in [1usize, 2, 3, 17, 64] {
            let vals: Vec<U128> = (0..n)
                .map(|_| loop {
                    let v = U128::random_below(&mut rng, &q80());
                    if !v.is_zero() {
                        break ctx.to_mont(&v);
                    }
                })
                .collect();
            let invs = ctx.batch_inv(&vals).expect("all nonzero");
            for (v, i) in vals.iter().zip(&invs) {
                assert_eq!(ctx.mont_mul(v, i), ctx.one());
            }
        }
        assert_eq!(ctx.batch_inv(&[]), Some(Vec::new()));
        let with_zero = [ctx.to_mont(&U128::from_u64(4)), U128::ZERO];
        assert_eq!(ctx.batch_inv(&with_zero), None);
    }

    #[test]
    fn fermat_inverse() {
        let ctx = MontCtx::new(q80());
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..100 {
            let a = loop {
                let a = U128::random_below(&mut rng, &q80());
                if !a.is_zero() {
                    break a;
                }
            };
            let am = ctx.to_mont(&a);
            let inv = ctx.inv(&am).unwrap();
            assert_eq!(ctx.mont_mul(&am, &inv), ctx.one());
        }
        assert!(ctx.inv(&U128::ZERO).is_none());
    }

    #[test]
    fn add_sub_neg() {
        let ctx = MontCtx::new(q80());
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        for _ in 0..200 {
            let a = U128::random_below(&mut rng, &q80());
            let b = U128::random_below(&mut rng, &q80());
            let s = ctx.add(&a, &b);
            assert_eq!(ctx.sub(&s, &b), a);
            assert_eq!(ctx.add(&a, &ctx.neg(&a)), U128::ZERO);
        }
    }

    #[test]
    fn sqrt_on_3mod4_prime() {
        // q80 = 2^80 - 65 ≡ ? mod 4: 2^80 ≡ 0, -65 ≡ -1 ≡ 3 mod 4. Good.
        let ctx = MontCtx::new(q80());
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let mut residues = 0;
        for _ in 0..100 {
            let a = U128::random_below(&mut rng, &q80());
            let am = ctx.to_mont(&a);
            let sq = ctx.mont_sqr(&am);
            // sq is guaranteed a residue.
            let root = ctx.sqrt_p3mod4(&sq).expect("square must have a root");
            assert_eq!(ctx.mont_sqr(&root), sq);
            if ctx.sqrt_p3mod4(&am).is_some() {
                residues += 1;
            }
        }
        // Roughly half of random elements are quadratic residues.
        assert!(residues > 20 && residues < 80, "residues={residues}");
    }
}
