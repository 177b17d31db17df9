//! Ergonomic prime-field elements with a shared, dynamically chosen modulus.
//!
//! [`FpCtx`] wraps a [`MontCtx`] in an `Arc`; [`Fp`] elements carry a handle
//! to their context so they compose with Rust operators. The raw
//! [`MontCtx`] API remains available for hot loops that want to avoid the
//! per-element `Arc` (the linear-algebra kernel and the elliptic curve use it
//! directly).

use crate::mont::MontCtx;
use crate::uint::Uint;
use rand::RngCore;
use std::sync::Arc;

/// Weights kept for [`FpCtx::mont_from_be_bytes_reduced`]: enough for a
/// 32-byte digest at `L = 2`; longer inputs extend the sequence as they go.
const RADIX_POWERS: usize = 2;

/// A prime-field context: modulus plus Montgomery constants.
#[derive(Debug, PartialEq, Eq)]
pub struct FpCtx<const L: usize> {
    mont: MontCtx<L>,
    /// `R², R³ mod p` for `R = 2^(64·L)`: entry `i` turns the `i`-th
    /// least significant `8·L`-byte chunk of a byte string into its
    /// Montgomery-form contribution with one `mont_mul`.
    radix_powers: [Uint<L>; RADIX_POWERS],
}

impl<const L: usize> FpCtx<L> {
    /// Creates a field context for an odd prime modulus.
    ///
    /// Primality is the caller's responsibility (checked in debug builds for
    /// small widths by the `prime` module's users); evenness is rejected.
    pub fn new(modulus: Uint<L>) -> Arc<Self> {
        let mont = MontCtx::new(modulus);
        let r2 = mont.to_mont(&mont.one());
        let mut radix_powers = [r2; RADIX_POWERS];
        for i in 1..RADIX_POWERS {
            radix_powers[i] = mont.mont_mul(&radix_powers[i - 1], &r2);
        }
        Arc::new(Self { mont, radix_powers })
    }

    /// The field modulus.
    pub fn modulus(&self) -> &Uint<L> {
        self.mont.modulus()
    }

    /// Bit length of the modulus.
    pub fn modulus_bits(&self) -> u32 {
        self.mont.modulus_bits()
    }

    /// Access to the underlying Montgomery context.
    pub fn mont(&self) -> &MontCtx<L> {
        &self.mont
    }

    /// Field element 0.
    pub fn zero(self: &Arc<Self>) -> Fp<L> {
        Fp {
            ctx: Arc::clone(self),
            mont: Uint::ZERO,
        }
    }

    /// Field element 1.
    pub fn one(self: &Arc<Self>) -> Fp<L> {
        Fp {
            ctx: Arc::clone(self),
            mont: self.mont.one(),
        }
    }

    /// Embeds a canonical integer, reducing modulo the modulus.
    pub fn from_uint(self: &Arc<Self>, x: &Uint<L>) -> Fp<L> {
        let reduced = if x < self.modulus() {
            *x
        } else {
            x.rem(self.modulus())
        };
        Fp {
            ctx: Arc::clone(self),
            mont: self.mont.to_mont(&reduced),
        }
    }

    /// Embeds a `u64`.
    pub fn from_u64(self: &Arc<Self>, x: u64) -> Fp<L> {
        self.from_uint(&Uint::from_u64(x))
    }

    /// Interprets big-endian bytes as an integer and reduces it into the
    /// field (used to map hash outputs to field elements).
    ///
    /// The result equals `int(bytes) mod p` for inputs of any length.
    pub fn from_be_bytes_reduced(self: &Arc<Self>, bytes: &[u8]) -> Fp<L> {
        self.from_mont_raw(self.mont_from_be_bytes_reduced(bytes))
    }

    /// [`Self::from_be_bytes_reduced`] as a raw Montgomery residue, for hot
    /// loops that fill a [`Matrix`](crate::Matrix) row.
    ///
    /// With `R = 2^(64·L)` and the input cut into `8·L`-byte chunks `cᵢ`
    /// from the least significant end, `int(bytes)·R = Σ cᵢ·Rⁱ⁺¹`, and
    /// `mont_mul(cᵢ, Rⁱ⁺²)` is exactly the `i`-th term — a chunk needs no
    /// reduction first, since `mont_mul` only wants one operand below `p`.
    pub fn mont_from_be_bytes_reduced(&self, bytes: &[u8]) -> Uint<L> {
        let mont = &self.mont;
        let mut acc = Uint::ZERO;
        let mut stored = self.radix_powers.iter();
        let mut weight = Uint::ZERO;
        for chunk in bytes.rchunks(8 * L) {
            weight = match stored.next() {
                Some(w) => *w,
                None => mont.mont_mul(&weight, &self.radix_powers[0]),
            };
            let mut limbs = [0u64; L];
            for (limb, word) in limbs.iter_mut().zip(chunk.rchunks(8)) {
                let mut be = [0u8; 8];
                be[8 - word.len()..].copy_from_slice(word);
                *limb = u64::from_be_bytes(be);
            }
            acc = mont.add(&acc, &mont.mont_mul(&Uint::from_limbs(limbs), &weight));
        }
        acc
    }

    /// Uniformly random field element.
    pub fn random<R: RngCore + ?Sized>(self: &Arc<Self>, rng: &mut R) -> Fp<L> {
        self.from_uint(&Uint::random_below(rng, self.modulus()))
    }

    /// Uniformly random nonzero field element.
    pub fn random_nonzero<R: RngCore + ?Sized>(self: &Arc<Self>, rng: &mut R) -> Fp<L> {
        loop {
            let x = self.random(rng);
            if !x.is_zero() {
                return x;
            }
        }
    }

    /// Wraps a raw Montgomery-form residue produced by direct `MontCtx` use.
    pub fn from_mont_raw(self: &Arc<Self>, mont: Uint<L>) -> Fp<L> {
        debug_assert!(&mont < self.modulus());
        Fp {
            ctx: Arc::clone(self),
            mont,
        }
    }
}

/// An element of a dynamically-chosen prime field, stored in Montgomery form.
#[derive(Clone)]
pub struct Fp<const L: usize> {
    ctx: Arc<FpCtx<L>>,
    mont: Uint<L>,
}

impl<const L: usize> Fp<L> {
    /// The element's field context.
    pub fn ctx(&self) -> &Arc<FpCtx<L>> {
        &self.ctx
    }

    /// Canonical integer representative in `[0, p)`.
    pub fn to_uint(&self) -> Uint<L> {
        self.ctx.mont.from_mont(&self.mont)
    }

    /// Raw Montgomery-form residue.
    pub fn mont_raw(&self) -> &Uint<L> {
        &self.mont
    }

    /// True iff the element is 0.
    pub fn is_zero(&self) -> bool {
        self.mont.is_zero()
    }

    /// Squares the element.
    pub fn square(&self) -> Self {
        self.with(self.ctx.mont.mont_sqr(&self.mont))
    }

    /// Doubles the element.
    pub fn double(&self) -> Self {
        self.with(self.ctx.mont.double(&self.mont))
    }

    /// Multiplicative inverse; `None` for 0.
    pub fn inv(&self) -> Option<Self> {
        self.ctx.mont.inv(&self.mont).map(|m| self.with(m))
    }

    /// Raises to a (canonical) exponent of any width.
    pub fn pow<const E: usize>(&self, exp: &Uint<E>) -> Self {
        self.with(self.ctx.mont.pow(&self.mont, exp))
    }

    /// Canonical big-endian encoding, exactly `8·L` bytes.
    pub fn to_be_bytes(&self) -> Vec<u8> {
        self.to_uint().to_be_bytes()
    }

    fn with(&self, mont: Uint<L>) -> Self {
        Self {
            ctx: Arc::clone(&self.ctx),
            mont,
        }
    }

    fn assert_same_field(&self, other: &Self) {
        debug_assert!(
            Arc::ptr_eq(&self.ctx, &other.ctx) || self.ctx.modulus() == other.ctx.modulus(),
            "mixed-field arithmetic"
        );
    }
}

impl<const L: usize> PartialEq for Fp<L> {
    fn eq(&self, other: &Self) -> bool {
        self.assert_same_field(other);
        self.mont == other.mont
    }
}

impl<const L: usize> Eq for Fp<L> {}

impl<const L: usize> core::fmt::Debug for Fp<L> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Fp(0x{})", self.to_uint().to_hex())
    }
}

macro_rules! impl_binop {
    ($trait:ident, $fn:ident, $inner:ident) => {
        impl<'a, const L: usize> core::ops::$trait<&'a Fp<L>> for &'a Fp<L> {
            type Output = Fp<L>;
            fn $fn(self, rhs: &'a Fp<L>) -> Fp<L> {
                self.assert_same_field(rhs);
                Fp {
                    ctx: Arc::clone(&self.ctx),
                    mont: self.ctx.mont.$inner(&self.mont, &rhs.mont),
                }
            }
        }
        impl<const L: usize> core::ops::$trait for Fp<L> {
            type Output = Fp<L>;
            fn $fn(self, rhs: Fp<L>) -> Fp<L> {
                (&self).$fn(&rhs)
            }
        }
    };
}

impl_binop!(Add, add, add);
impl_binop!(Sub, sub, sub);
impl_binop!(Mul, mul, mont_mul);

impl<const L: usize> core::ops::Neg for &Fp<L> {
    type Output = Fp<L>;
    fn neg(self) -> Fp<L> {
        Fp {
            ctx: Arc::clone(&self.ctx),
            mont: self.ctx.mont.neg(&self.mont),
        }
    }
}

impl<const L: usize> core::ops::Neg for Fp<L> {
    type Output = Fp<L>;
    fn neg(self) -> Fp<L> {
        -&self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uint::U128;
    use rand::SeedableRng;

    fn field() -> Arc<FpCtx<2>> {
        FpCtx::new(U128::from_u128((1u128 << 80) - 65))
    }

    #[test]
    fn ring_axioms_random() {
        let f = field();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let a = f.random(&mut rng);
            let b = f.random(&mut rng);
            let c = f.random(&mut rng);
            assert_eq!(&a + &b, &b + &a);
            assert_eq!(&a * &b, &b * &a);
            assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
            assert_eq!(&(&a * &b) * &c, &a * &(&b * &c));
            assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
            assert_eq!(&a + &f.zero(), a);
            assert_eq!(&a * &f.one(), a);
            assert_eq!(&a - &a, f.zero());
            assert_eq!(&a + &(-&a), f.zero());
        }
    }

    #[test]
    fn inverse_axioms() {
        let f = field();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        assert!(f.zero().inv().is_none());
        for _ in 0..100 {
            let a = f.random_nonzero(&mut rng);
            let inv = a.inv().unwrap();
            assert_eq!(&a * &inv, f.one());
        }
    }

    #[test]
    fn pow_small() {
        let f = field();
        let a = f.from_u64(3);
        assert_eq!(a.pow(&U128::from_u64(0)), f.one());
        assert_eq!(a.pow(&U128::from_u64(1)), a);
        assert_eq!(a.pow(&U128::from_u64(5)), f.from_u64(243));
    }

    #[test]
    fn from_be_bytes_reduced_is_consistent() {
        let f = field();
        // A value exactly the field width reduces like from_uint.
        let x = U128::from_u128((1u128 << 100) + 12345);
        let fx = f.from_uint(&x);
        assert_eq!(f.from_be_bytes_reduced(&x.to_be_bytes()), fx);
        // Longer inputs shift in radix chunks; different inputs map to
        // different elements with overwhelming probability.
        let a = f.from_be_bytes_reduced(b"some hash output AAAA BBBB CCCC DDDD");
        let b = f.from_be_bytes_reduced(b"some hash output AAAA BBBB CCCC DDDE");
        assert_ne!(a, b);
    }

    #[test]
    fn serialization_roundtrip() {
        let f = field();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let a = f.random(&mut rng);
            let bytes = a.to_be_bytes();
            assert_eq!(bytes.len(), 16);
            let back = f.from_uint(&U128::from_be_bytes(&bytes).unwrap());
            assert_eq!(a, back);
        }
    }

    #[test]
    fn square_and_double_agree_with_ops() {
        let f = field();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        for _ in 0..100 {
            let a = f.random(&mut rng);
            assert_eq!(a.square(), &a * &a);
            assert_eq!(a.double(), &a + &a);
        }
    }
}
