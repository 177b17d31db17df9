//! Fixed-width unsigned big integers built on 64-bit limbs.
//!
//! `Uint<L>` stores `L` little-endian limbs on the stack. Widths used across
//! the workspace: `U128` (GKM field elements), `U256` (elliptic-curve field
//! and scalar arithmetic), `U1088`/`U2176` (modp Schnorr groups). All
//! arithmetic is constant-width; operations that can exceed the width either
//! return a carry/borrow flag or a double-width result.

use core::cmp::Ordering;
use rand::RngCore;

/// A fixed-width little-endian unsigned integer with `L` 64-bit limbs.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Uint<const L: usize> {
    limbs: [u64; L],
}

/// 128-bit integer (two limbs) — holds the 80-bit GKM field modulus.
pub type U128 = Uint<2>;
/// 192-bit integer (three limbs).
pub type U192 = Uint<3>;
/// 256-bit integer (four limbs) — P-256 coordinates and scalars.
pub type U256 = Uint<4>;
/// 512-bit integer (eight limbs) — double-width products of `U256`.
pub type U512 = Uint<8>;
/// 1024-bit integer (16 limbs) — RFC 5114 1024-bit modp group elements.
pub type U1024 = Uint<16>;
/// 1088-bit integer (17 limbs) — headroom width for modp intermediates.
pub type U1088 = Uint<17>;

impl<const L: usize> Uint<L> {
    /// The number of limbs.
    pub const LIMBS: usize = L;
    /// The width in bits.
    pub const BITS: u32 = 64 * L as u32;
    /// The additive identity.
    pub const ZERO: Self = Self { limbs: [0; L] };
    /// The maximum representable value (all bits set).
    pub const MAX: Self = Self {
        limbs: [u64::MAX; L],
    };

    /// The multiplicative identity.
    pub const fn one() -> Self {
        let mut limbs = [0u64; L];
        limbs[0] = 1;
        Self { limbs }
    }

    /// Constructs from raw little-endian limbs.
    pub const fn from_limbs(limbs: [u64; L]) -> Self {
        Self { limbs }
    }

    /// Returns the raw little-endian limbs.
    pub const fn limbs(&self) -> &[u64; L] {
        &self.limbs
    }

    /// Constructs from a `u64`.
    pub const fn from_u64(v: u64) -> Self {
        let mut limbs = [0u64; L];
        limbs[0] = v;
        Self { limbs }
    }

    /// Constructs from a `u128`. Panics if `L < 2` and the value does not fit.
    pub fn from_u128(v: u128) -> Self {
        let mut limbs = [0u64; L];
        limbs[0] = v as u64;
        let hi = (v >> 64) as u64;
        if hi != 0 {
            assert!(L >= 2, "u128 value does not fit in Uint<{L}>");
            limbs[1] = hi;
        }
        Self { limbs }
    }

    /// Returns the low 128 bits as a `u128`.
    pub fn as_u128(&self) -> u128 {
        let lo = self.limbs[0] as u128;
        let hi = if L > 1 { self.limbs[1] as u128 } else { 0 };
        lo | (hi << 64)
    }

    /// Returns the low 64 bits.
    pub const fn as_u64(&self) -> u64 {
        self.limbs[0]
    }

    /// True iff the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.iter().all(|&l| l == 0)
    }

    /// True iff the value is even.
    pub const fn is_even(&self) -> bool {
        self.limbs[0] & 1 == 0
    }

    /// True iff the value is odd.
    pub const fn is_odd(&self) -> bool {
        self.limbs[0] & 1 == 1
    }

    /// Returns bit `i` (0 = least significant). Bits past the width read 0.
    pub fn bit(&self, i: u32) -> bool {
        if i >= Self::BITS {
            return false;
        }
        (self.limbs[(i / 64) as usize] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i` (0 = least significant). Panics if out of range.
    pub fn set_bit(&mut self, i: u32, value: bool) {
        assert!(i < Self::BITS, "bit index out of range");
        let limb = (i / 64) as usize;
        let mask = 1u64 << (i % 64);
        if value {
            self.limbs[limb] |= mask;
        } else {
            self.limbs[limb] &= !mask;
        }
    }

    /// Number of significant bits (0 for zero).
    pub fn bits(&self) -> u32 {
        for i in (0..L).rev() {
            if self.limbs[i] != 0 {
                return 64 * i as u32 + (64 - self.limbs[i].leading_zeros());
            }
        }
        0
    }

    /// Addition with carry-out.
    pub fn overflowing_add(&self, rhs: &Self) -> (Self, bool) {
        let mut out = [0u64; L];
        let mut carry = 0u64;
        for i in 0..L {
            let (s1, c1) = self.limbs[i].overflowing_add(rhs.limbs[i]);
            let (s2, c2) = s1.overflowing_add(carry);
            out[i] = s2;
            carry = (c1 | c2) as u64;
        }
        (Self { limbs: out }, carry != 0)
    }

    /// Wrapping addition (drops the carry).
    pub fn wrapping_add(&self, rhs: &Self) -> Self {
        self.overflowing_add(rhs).0
    }

    /// Checked addition; `None` on overflow.
    pub fn checked_add(&self, rhs: &Self) -> Option<Self> {
        match self.overflowing_add(rhs) {
            (v, false) => Some(v),
            _ => None,
        }
    }

    /// Subtraction with borrow-out.
    pub fn overflowing_sub(&self, rhs: &Self) -> (Self, bool) {
        let mut out = [0u64; L];
        let mut borrow = 0u64;
        for i in 0..L {
            let (d1, b1) = self.limbs[i].overflowing_sub(rhs.limbs[i]);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out[i] = d2;
            borrow = (b1 | b2) as u64;
        }
        (Self { limbs: out }, borrow != 0)
    }

    /// Wrapping subtraction (drops the borrow).
    pub fn wrapping_sub(&self, rhs: &Self) -> Self {
        self.overflowing_sub(rhs).0
    }

    /// Checked subtraction; `None` on underflow.
    pub fn checked_sub(&self, rhs: &Self) -> Option<Self> {
        match self.overflowing_sub(rhs) {
            (v, false) => Some(v),
            _ => None,
        }
    }

    /// Full (double-width) product: returns `(lo, hi)` with
    /// `self * rhs = hi * 2^(64 L) + lo`.
    pub fn mul_wide(&self, rhs: &Self) -> (Self, Self) {
        let mut w = [0u64; 64]; // scratch wide buffer; L <= 32 supported
        assert!(2 * L <= 64, "Uint width too large for mul_wide scratch");
        for i in 0..L {
            let mut carry = 0u128;
            let a = self.limbs[i] as u128;
            for j in 0..L {
                let t = a * rhs.limbs[j] as u128 + w[i + j] as u128 + carry;
                w[i + j] = t as u64;
                carry = t >> 64;
            }
            w[i + L] = carry as u64;
        }
        let mut lo = [0u64; L];
        let mut hi = [0u64; L];
        lo.copy_from_slice(&w[..L]);
        hi.copy_from_slice(&w[L..2 * L]);
        (Self { limbs: lo }, Self { limbs: hi })
    }

    /// Wrapping (low-width) product.
    pub fn wrapping_mul(&self, rhs: &Self) -> Self {
        self.mul_wide(rhs).0
    }

    /// Multiplies by a single limb, returning `(lo, carry_limb)`.
    pub fn mul_limb(&self, rhs: u64) -> (Self, u64) {
        let mut out = [0u64; L];
        let mut carry = 0u128;
        for i in 0..L {
            let t = self.limbs[i] as u128 * rhs as u128 + carry;
            out[i] = t as u64;
            carry = t >> 64;
        }
        (Self { limbs: out }, carry as u64)
    }

    /// Logical left shift; bits shifted past the width are lost.
    pub fn shl(&self, n: u32) -> Self {
        if n >= Self::BITS {
            return Self::ZERO;
        }
        let limb_shift = (n / 64) as usize;
        let bit_shift = n % 64;
        let mut out = [0u64; L];
        for i in (limb_shift..L).rev() {
            let src = i - limb_shift;
            let mut v = self.limbs[src] << bit_shift;
            if bit_shift > 0 && src > 0 {
                v |= self.limbs[src - 1] >> (64 - bit_shift);
            }
            out[i] = v;
        }
        Self { limbs: out }
    }

    /// Logical right shift.
    pub fn shr(&self, n: u32) -> Self {
        if n >= Self::BITS {
            return Self::ZERO;
        }
        let limb_shift = (n / 64) as usize;
        let bit_shift = n % 64;
        let mut out = [0u64; L];
        for i in 0..L - limb_shift {
            let src = i + limb_shift;
            let mut v = self.limbs[src] >> bit_shift;
            if bit_shift > 0 && src + 1 < L {
                v |= self.limbs[src + 1] << (64 - bit_shift);
            }
            out[i] = v;
        }
        Self { limbs: out }
    }

    /// Quotient and remainder. Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &Self) -> (Self, Self) {
        assert!(!divisor.is_zero(), "division by zero");
        let (q, r) = div_rem_limbs(&self.limbs, &divisor.limbs);
        (Self::from_slice(&q), Self::from_slice(&r))
    }

    /// Remainder only.
    pub fn rem(&self, modulus: &Self) -> Self {
        self.div_rem(modulus).1
    }

    /// Reduces a double-width value `(lo, hi)` modulo `modulus`.
    pub fn rem_wide(lo: &Self, hi: &Self, modulus: &Self) -> Self {
        assert!(!modulus.is_zero(), "division by zero");
        let mut wide = [0u64; 64];
        assert!(2 * L <= 64);
        wide[..L].copy_from_slice(&lo.limbs);
        wide[L..2 * L].copy_from_slice(&hi.limbs);
        let (_, r) = div_rem_limbs(&wide[..2 * L], &modulus.limbs);
        Self::from_slice(&r)
    }

    /// Modular multiplication via schoolbook product + wide reduction.
    /// Montgomery contexts are faster for repeated work; this is for setup.
    pub fn mul_mod(&self, rhs: &Self, modulus: &Self) -> Self {
        let (lo, hi) = self.mul_wide(rhs);
        Self::rem_wide(&lo, &hi, modulus)
    }

    /// Modular addition (operands must already be `< modulus`). The
    /// correction is selected by the carry and borrow, not branched on.
    #[inline]
    pub fn add_mod(&self, rhs: &Self, modulus: &Self) -> Self {
        let (sum, carry) = self.overflowing_add(rhs);
        let (diff, borrow) = sum.overflowing_sub(modulus);
        Self::select(((borrow & !carry) as u64).wrapping_neg(), &sum, &diff)
    }

    /// Modular subtraction (operands must already be `< modulus`). The
    /// modulus is added back under the borrow mask, not branched on.
    #[inline]
    pub fn sub_mod(&self, rhs: &Self, modulus: &Self) -> Self {
        let (diff, borrow) = self.overflowing_sub(rhs);
        let mask = (borrow as u64).wrapping_neg();
        diff.wrapping_add(&Self::select(mask, modulus, &Self::ZERO))
    }

    /// `a` where `mask` is all ones, `b` where it is zero, limb by limb.
    ///
    /// `black_box` hides that the mask came from a carry bit; without it
    /// the x86 backend turns the select back into a branch, which costs a
    /// misprediction whenever the carry is a coin flip.
    #[inline(always)]
    pub(crate) fn select(mask: u64, a: &Self, b: &Self) -> Self {
        let mask = core::hint::black_box(mask);
        let mut limbs = b.limbs;
        for (l, x) in limbs.iter_mut().zip(&a.limbs) {
            *l ^= (*l ^ x) & mask;
        }
        Self { limbs }
    }

    /// Modular exponentiation by square-and-multiply (non-Montgomery; for
    /// setup paths and tests).
    pub fn pow_mod(&self, exp: &Self, modulus: &Self) -> Self {
        let mut result = Self::one().rem(modulus);
        let base = self.rem(modulus);
        let nbits = exp.bits();
        for i in (0..nbits).rev() {
            result = result.mul_mod(&result, modulus);
            if exp.bit(i) {
                result = result.mul_mod(&base, modulus);
            }
        }
        result
    }

    /// Modular inverse via the extended Euclidean algorithm with Bezout
    /// coefficients tracked modulo `modulus`; `None` if not coprime.
    pub fn inv_mod(&self, modulus: &Self) -> Option<Self> {
        if self.is_zero() || modulus.is_zero() || *modulus == Self::one() {
            return None;
        }
        // Invariant: x_i * self ≡ r_i (mod modulus) along the remainder
        // sequence r_0 = modulus, r_1 = self. Coefficients live in
        // [0, modulus) the whole time, so no signed arithmetic is needed.
        let mut r_prev = *modulus;
        let mut r_cur = self.rem(modulus);
        let mut x_prev = Self::ZERO;
        let mut x_cur = Self::one();
        while !r_cur.is_zero() {
            let (q, r_next) = r_prev.div_rem(&r_cur);
            let qx = q.rem(modulus).mul_mod(&x_cur, modulus);
            let x_next = x_prev.sub_mod(&qx, modulus);
            r_prev = r_cur;
            r_cur = r_next;
            x_prev = x_cur;
            x_cur = x_next;
        }
        if r_prev == Self::one() {
            Some(x_prev)
        } else {
            None
        }
    }

    /// Uniformly random value in `[0, bound)` via rejection sampling.
    /// Panics if `bound` is zero.
    pub fn random_below<R: RngCore + ?Sized>(rng: &mut R, bound: &Self) -> Self {
        assert!(!bound.is_zero(), "bound must be positive");
        let bits = bound.bits();
        loop {
            let candidate = Self::random_bits(rng, bits);
            if candidate < *bound {
                return candidate;
            }
        }
    }

    /// Uniformly random value with at most `bits` bits.
    pub fn random_bits<R: RngCore + ?Sized>(rng: &mut R, bits: u32) -> Self {
        assert!(bits <= Self::BITS, "requested more bits than width");
        let mut limbs = [0u64; L];
        let full = (bits / 64) as usize;
        for limb in limbs.iter_mut().take(full) {
            *limb = rng.next_u64();
        }
        let rem = bits % 64;
        if rem > 0 && full < L {
            limbs[full] = rng.next_u64() >> (64 - rem);
        }
        Self { limbs }
    }

    /// Big-endian byte encoding, exactly `8 L` bytes.
    pub fn to_be_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 * L);
        for i in (0..L).rev() {
            out.extend_from_slice(&self.limbs[i].to_be_bytes());
        }
        out
    }

    /// Parses big-endian bytes. Accepts up to `8 L` bytes (shorter inputs are
    /// zero-extended on the left); returns `None` if too long and nonzero in
    /// the overflow.
    pub fn from_be_bytes(bytes: &[u8]) -> Option<Self> {
        let width = 8 * L;
        let bytes = if bytes.len() > width {
            let (extra, rest) = bytes.split_at(bytes.len() - width);
            if extra.iter().any(|&b| b != 0) {
                return None;
            }
            rest
        } else {
            bytes
        };
        let mut limbs = [0u64; L];
        for (i, &b) in bytes.iter().rev().enumerate() {
            limbs[i / 8] |= (b as u64) << (8 * (i % 8));
        }
        Some(Self { limbs })
    }

    /// Parses a hexadecimal string (no `0x` prefix, case-insensitive).
    pub fn from_hex(s: &str) -> Option<Self> {
        let s = s.trim();
        if s.is_empty() || !s.chars().all(|c| c.is_ascii_hexdigit()) {
            return None;
        }
        let mut bytes = Vec::with_capacity(s.len() / 2 + 1);
        let chars: Vec<u8> = s.bytes().collect();
        let mut idx = 0;
        if chars.len() % 2 == 1 {
            bytes.push(hex_val(chars[0])?);
            idx = 1;
        }
        while idx < chars.len() {
            bytes.push(hex_val(chars[idx])? << 4 | hex_val(chars[idx + 1])?);
            idx += 2;
        }
        Self::from_be_bytes(&bytes)
    }

    /// Lowercase hexadecimal encoding without leading zeros ("0" for zero).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".into();
        }
        let mut s = String::new();
        let mut started = false;
        for i in (0..L).rev() {
            if started {
                s.push_str(&format!("{:016x}", self.limbs[i]));
            } else if self.limbs[i] != 0 {
                s.push_str(&format!("{:x}", self.limbs[i]));
                started = true;
            }
        }
        s
    }

    /// Widens into a larger `Uint` type.
    pub fn widen<const M: usize>(&self) -> Uint<M> {
        assert!(M >= L, "cannot widen into a narrower type");
        let mut limbs = [0u64; M];
        limbs[..L].copy_from_slice(&self.limbs);
        Uint { limbs }
    }

    /// Narrows into a smaller `Uint` type; `None` if high limbs are nonzero.
    pub fn narrow<const M: usize>(&self) -> Option<Uint<M>> {
        if self.limbs[M.min(L)..].iter().any(|&l| l != 0) {
            return None;
        }
        let mut limbs = [0u64; M];
        let n = M.min(L);
        limbs[..n].copy_from_slice(&self.limbs[..n]);
        Some(Uint { limbs })
    }

    fn from_slice(s: &[u64]) -> Self {
        let mut limbs = [0u64; L];
        let n = s.len().min(L);
        limbs[..n].copy_from_slice(&s[..n]);
        debug_assert!(s[n..].iter().all(|&l| l == 0), "truncating div result");
        Self { limbs }
    }
}

fn hex_val(c: u8) -> Option<u8> {
    match c {
        b'0'..=b'9' => Some(c - b'0'),
        b'a'..=b'f' => Some(c - b'a' + 10),
        b'A'..=b'F' => Some(c - b'A' + 10),
        _ => None,
    }
}

/// Knuth Algorithm D long division on little-endian limb slices.
/// Returns (quotient, remainder) as minimal-length limb vectors.
pub(crate) fn div_rem_limbs(u: &[u64], v: &[u64]) -> (Vec<u64>, Vec<u64>) {
    let n = match v.iter().rposition(|&l| l != 0) {
        Some(i) => i + 1,
        None => panic!("division by zero"),
    };
    let m = match u.iter().rposition(|&l| l != 0) {
        Some(i) => i + 1,
        None => return (vec![0], vec![0]),
    };
    if m < n || (m == n && cmp_slices(&u[..m], &v[..n]) == Ordering::Less) {
        return (vec![0], u[..m].to_vec());
    }
    if n == 1 {
        // Single-limb divisor fast path.
        let d = v[0] as u128;
        let mut q = vec![0u64; m];
        let mut rem = 0u128;
        for i in (0..m).rev() {
            let cur = (rem << 64) | u[i] as u128;
            q[i] = (cur / d) as u64;
            rem = cur % d;
        }
        return (q, vec![rem as u64]);
    }

    // Normalize: shift so the top limb of v has its high bit set.
    let shift = v[n - 1].leading_zeros();
    let mut vn = vec![0u64; n];
    for i in (0..n).rev() {
        let mut x = v[i] << shift;
        if shift > 0 && i > 0 {
            x |= v[i - 1] >> (64 - shift);
        }
        vn[i] = x;
    }
    let mut un = vec![0u64; m + 1];
    un[m] = if shift > 0 {
        u[m - 1] >> (64 - shift)
    } else {
        0
    };
    for i in (0..m).rev() {
        let mut x = u[i] << shift;
        if shift > 0 && i > 0 {
            x |= u[i - 1] >> (64 - shift);
        }
        un[i] = x;
    }

    let mut q = vec![0u64; m - n + 1];
    for j in (0..=m - n).rev() {
        // Estimate q_hat = (un[j+n]*B + un[j+n-1]) / vn[n-1].
        let num = ((un[j + n] as u128) << 64) | un[j + n - 1] as u128;
        let mut q_hat = num / vn[n - 1] as u128;
        let mut r_hat = num % vn[n - 1] as u128;
        while q_hat >> 64 != 0
            || q_hat * vn[n - 2] as u128 > ((r_hat << 64) | un[j + n - 2] as u128)
        {
            q_hat -= 1;
            r_hat += vn[n - 1] as u128;
            if r_hat >> 64 != 0 {
                break;
            }
        }
        // Multiply-subtract: un[j..j+n+1] -= q_hat * vn.
        let mut borrow = 0i128;
        let mut carry = 0u128;
        for i in 0..n {
            let p = q_hat * vn[i] as u128 + carry;
            carry = p >> 64;
            let t = un[j + i] as i128 - (p as u64) as i128 + borrow;
            un[j + i] = t as u64;
            borrow = t >> 64; // arithmetic shift: 0 or -1
        }
        let t = un[j + n] as i128 - carry as i128 + borrow;
        un[j + n] = t as u64;
        if t < 0 {
            // q_hat was one too large: add back.
            q_hat -= 1;
            let mut carry = 0u128;
            for i in 0..n {
                let s = un[j + i] as u128 + vn[i] as u128 + carry;
                un[j + i] = s as u64;
                carry = s >> 64;
            }
            un[j + n] = un[j + n].wrapping_add(carry as u64);
        }
        q[j] = q_hat as u64;
    }

    // Denormalize remainder.
    let mut r = vec![0u64; n];
    for i in 0..n {
        let mut x = un[i] >> shift;
        if shift > 0 && i + 1 < n {
            x |= un[i + 1] << (64 - shift);
        }
        r[i] = x;
    }
    (q, r)
}

fn cmp_slices(a: &[u64], b: &[u64]) -> Ordering {
    let la = a.iter().rposition(|&l| l != 0).map_or(0, |i| i + 1);
    let lb = b.iter().rposition(|&l| l != 0).map_or(0, |i| i + 1);
    if la != lb {
        return la.cmp(&lb);
    }
    for i in (0..la).rev() {
        match a[i].cmp(&b[i]) {
            Ordering::Equal => continue,
            other => return other,
        }
    }
    Ordering::Equal
}

impl<const L: usize> Ord for Uint<L> {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..L).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl<const L: usize> PartialOrd for Uint<L> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<const L: usize> Default for Uint<L> {
    fn default() -> Self {
        Self::ZERO
    }
}

impl<const L: usize> core::fmt::Debug for Uint<L> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Uint<{}>(0x{})", L, self.to_hex())
    }
}

impl<const L: usize> core::fmt::Display for Uint<L> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Decimal via repeated division by 10^19.
        if self.is_zero() {
            return write!(f, "0");
        }
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        let mut n = *self;
        let mut parts: Vec<u64> = Vec::new();
        let chunk = Self::from_u64(CHUNK);
        while !n.is_zero() {
            let (q, r) = n.div_rem(&chunk);
            parts.push(r.as_u64());
            n = q;
        }
        write!(f, "{}", parts.pop().unwrap())?;
        for p in parts.iter().rev() {
            write!(f, "{p:019}")?;
        }
        Ok(())
    }
}

impl<const L: usize> From<u64> for Uint<L> {
    fn from(v: u64) -> Self {
        Self::from_u64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0x9e3779b97f4a7c15)
    }

    #[test]
    fn zero_one_identities() {
        let z = U256::ZERO;
        let one = U256::one();
        assert!(z.is_zero());
        assert!(!one.is_zero());
        assert_eq!(z.wrapping_add(&one), one);
        assert_eq!(one.wrapping_sub(&one), z);
        assert_eq!(one.bits(), 1);
        assert_eq!(z.bits(), 0);
    }

    #[test]
    fn add_sub_roundtrip_u128_model() {
        let mut r = rng();
        for _ in 0..500 {
            let a = r.gen::<u128>() >> 1;
            let b = r.gen::<u128>() >> 1;
            let ua = U256::from_u128(a);
            let ub = U256::from_u128(b);
            assert_eq!(ua.wrapping_add(&ub).as_u128(), a + b);
            let (diff, borrow) = ua.overflowing_sub(&ub);
            if a >= b {
                assert!(!borrow);
                assert_eq!(diff.as_u128(), a - b);
            } else {
                assert!(borrow);
            }
        }
    }

    #[test]
    fn mul_wide_matches_u128_model() {
        let mut r = rng();
        for _ in 0..500 {
            let a = r.gen::<u64>();
            let b = r.gen::<u64>();
            let (lo, hi) = U128::from_u64(a).mul_wide(&U128::from_u64(b));
            assert!(hi.is_zero());
            assert_eq!(lo.as_u128(), a as u128 * b as u128);
        }
    }

    #[test]
    fn mul_wide_cross_limb() {
        // 2^64 * 1 = 2^64 (stays in lo).
        let (lo, hi) = U128::from_limbs([0, 1]).mul_wide(&U128::from_limbs([1, 0]));
        assert_eq!(lo, U128::from_limbs([0, 1]));
        assert!(hi.is_zero());
        // 2^64 * 2^64 = 2^128: lo = 0, hi = 1.
        let (lo, hi) = U128::from_limbs([0, 1]).mul_wide(&U128::from_limbs([0, 1]));
        assert!(lo.is_zero());
        assert_eq!(hi, U128::from_limbs([1, 0]));
        // MAX * MAX = (MAX - 1, 1) in (hi, lo)... verify via identity
        // (2^128-1)^2 = 2^256 - 2^129 + 1 → lo = 1, hi = 2^128 - 2 = MAX - 1.
        let (lo, hi) = U128::MAX.mul_wide(&U128::MAX);
        assert_eq!(lo, U128::one());
        assert_eq!(hi, U128::MAX.wrapping_sub(&U128::one()));
    }

    #[test]
    fn division_against_u128_model() {
        let mut r = rng();
        for _ in 0..1000 {
            let a = r.gen::<u128>();
            let b = loop {
                let b = r.gen::<u128>() >> (r.gen::<u32>() % 96);
                if b != 0 {
                    break b;
                }
            };
            let (q, rem) = U128::from_u128(a).div_rem(&U128::from_u128(b));
            assert_eq!(q.as_u128(), a / b, "a={a} b={b}");
            assert_eq!(rem.as_u128(), a % b, "a={a} b={b}");
        }
    }

    #[test]
    fn division_invariant_wide() {
        let mut r = rng();
        for _ in 0..500 {
            let a = U256::random_bits(&mut r, 256);
            let b = loop {
                let bits = 1 + r.gen::<u32>() % 256;
                let b = U256::random_bits(&mut r, bits);
                if !b.is_zero() {
                    break b;
                }
            };
            let (q, rem) = a.div_rem(&b);
            assert!(rem < b);
            // q*b + rem == a
            let (lo, hi) = q.mul_wide(&b);
            assert!(hi.is_zero(), "quotient*divisor must fit");
            let (sum, carry) = lo.overflowing_add(&rem);
            assert!(!carry);
            assert_eq!(sum, a);
        }
    }

    #[test]
    fn rem_wide_reduces_products() {
        let mut r = rng();
        let m = U128::from_u128((1u128 << 80) - 65); // not nec. prime; fine for rem
        for _ in 0..500 {
            let a = U128::random_below(&mut r, &m);
            let b = U128::random_below(&mut r, &m);
            let got = a.mul_mod(&b, &m);
            // model with u128 via 4 32-bit chunks is overkill; verify got < m
            // and got ≡ a*b (mod m) by re-multiplying through div_rem.
            assert!(got < m);
            let (lo, hi) = a.mul_wide(&b);
            let direct = U128::rem_wide(&lo, &hi, &m);
            assert_eq!(got, direct);
        }
    }

    #[test]
    fn shifts() {
        let one = U256::one();
        assert_eq!(one.shl(255).bits(), 256);
        assert_eq!(one.shl(256), U256::ZERO);
        assert_eq!(one.shl(64), U256::from_limbs([0, 1, 0, 0]));
        assert_eq!(one.shl(65).shr(65), one);
        let x = U256::from_hex("deadbeefcafebabe0123456789abcdef").unwrap();
        assert_eq!(x.shl(3).shr(3), x);
        assert_eq!(x.shr(4).as_u128(), x.as_u128() >> 4);
    }

    #[test]
    fn pow_mod_small_cases() {
        let m = U128::from_u64(1_000_000_007);
        let base = U128::from_u64(2);
        // 2^10 = 1024
        assert_eq!(base.pow_mod(&U128::from_u64(10), &m).as_u64(), 1024);
        // Fermat: 2^(p-1) = 1 mod p
        assert_eq!(
            base.pow_mod(&U128::from_u64(1_000_000_006), &m),
            U128::one()
        );
    }

    #[test]
    fn inv_mod_agrees_with_fermat_on_prime() {
        let mut r = rng();
        let p = U128::from_u128(1208925819614629174706111); // 2^80 - 65, known prime
        let pm2 = p.wrapping_sub(&U128::from_u64(2));
        for _ in 0..100 {
            let a = loop {
                let a = U128::random_below(&mut r, &p);
                if !a.is_zero() {
                    break a;
                }
            };
            let inv1 = a.inv_mod(&p).expect("prime modulus");
            let inv2 = a.pow_mod(&pm2, &p);
            assert_eq!(inv1, inv2);
            assert_eq!(a.mul_mod(&inv1, &p), U128::one());
        }
    }

    #[test]
    fn inv_mod_non_coprime_is_none() {
        let m = U128::from_u64(100);
        assert!(U128::from_u64(10).inv_mod(&m).is_none());
        assert!(U128::from_u64(0).inv_mod(&m).is_none());
        assert_eq!(U128::from_u64(3).inv_mod(&m).map(|x| x.as_u64()), Some(67));
        // 3*67 = 201 = 2*100 + 1
    }

    #[test]
    fn byte_and_hex_roundtrips() {
        let mut r = rng();
        for _ in 0..200 {
            let x = U256::random_bits(&mut r, 256);
            assert_eq!(U256::from_be_bytes(&x.to_be_bytes()), Some(x));
            assert_eq!(U256::from_hex(&x.to_hex()), Some(x));
        }
        // Short input zero-extends.
        assert_eq!(U256::from_be_bytes(&[0xab]), Some(U256::from_u64(0xab)));
        // Long input with nonzero overflow rejected.
        let mut long = vec![1u8];
        long.extend_from_slice(&[0u8; 32]);
        assert_eq!(U256::from_be_bytes(&long), None);
    }

    #[test]
    fn display_decimal() {
        assert_eq!(U128::from_u64(0).to_string(), "0");
        assert_eq!(U128::from_u64(12345).to_string(), "12345");
        assert_eq!(
            U128::from_u128(1208925819614629174706111).to_string(),
            "1208925819614629174706111"
        );
        assert_eq!(
            U256::from_u128(u128::MAX).to_string(),
            "340282366920938463463374607431768211455"
        );
    }

    #[test]
    fn ordering() {
        let a = U256::from_u64(5);
        let b = U256::from_u64(7);
        assert!(a < b);
        assert!(b > a);
        assert!(a <= a);
        let big = U256::from_limbs([0, 0, 0, 1]);
        assert!(big > b);
    }

    #[test]
    fn widen_narrow() {
        let x = U128::from_u128(0xdead_beef_cafe_babe_0123_4567_89ab_cdef);
        let w: U256 = x.widen();
        assert_eq!(w.as_u128(), x.as_u128());
        let back: Option<U128> = w.narrow();
        assert_eq!(back, Some(x));
        let too_big = U256::from_limbs([0, 0, 1, 0]);
        assert_eq!(too_big.narrow::<2>(), None);
    }

    #[test]
    fn random_below_in_range() {
        let mut r = rng();
        let bound = U128::from_u128(1u128 << 80);
        for _ in 0..200 {
            assert!(U128::random_below(&mut r, &bound) < bound);
        }
    }

    #[test]
    fn set_and_get_bits() {
        let mut x = U256::ZERO;
        x.set_bit(200, true);
        assert!(x.bit(200));
        assert_eq!(x.bits(), 201);
        x.set_bit(200, false);
        assert!(x.is_zero());
    }
}
