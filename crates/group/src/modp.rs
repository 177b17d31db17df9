//! RFC 5114 §2.1 modp Schnorr group: the order-`q` (160-bit) subgroup of
//! `Z_p^*` for a 1024-bit prime `p`.
//!
//! This backend mirrors the "classic DL group" setting and serves as the
//! ablation counterpart to [`crate::p256::P256Group`] — same abstract
//! interface, very different exponentiation cost profile (1024-bit modular
//! arithmetic vs 256-bit curve arithmetic).
//!
//! Exponentiation is **variable-time** (see `docs/ARCHITECTURE.md`,
//! "Group arithmetic"): variable bases use the sliding-window
//! [`MontCtx::pow`], the fixed bases `g` and `h` use lazily built
//! radix-16 [`FixedBaseTable`]s (40 windows × 15 residues ≈ 75 KiB per
//! base over the 1024-bit modulus), and the verification check
//! `g^x · b^y == expected` runs as one Straus/Shamir chain via
//! [`MontCtx::pow2`] (a prepared base is the element itself).

use crate::traits::{CyclicGroup, Scalar, ScalarCtx};
use pbcd_crypto::sha256_concat;
use pbcd_math::{FixedBaseTable, FpCtx, MontCtx, U1024, U256};
use std::sync::{Arc, OnceLock};

// RFC 5114 section 2.1 constants (1024-bit MODP group, 160-bit subgroup).
const P_HEX: &str = concat!(
    "B10B8F96A080E01DDE92DE5EAE5D54EC52C99FBCFB06A3C69A6A9DCA52D23B61",
    "6073E28675A23D189838EF1E2EE652C013ECB4AEA906112324975C3CD49B83BF",
    "ACCBDD7D90C4BD7098488E9C219A73724EFFD6FAE5644738FAA31A4FF55BCCC0",
    "A151AF5F0DC8B4BD45BF37DF365C1A65E68CFDA76D4DA708DF1FB2BC2E4A4371"
);
const G_HEX: &str = concat!(
    "A4D1CBD5C3FD34126765A442EFB99905F8104DD258AC507FD6406CFF14266D31",
    "266FEA1E5C41564B777E690F5504F213160217B4B01B886A5E91547F9E2749F4",
    "D7FBD7D3B9A92EE1909D0D2263F80A76A6A24C087A091F531DBF0A0169B6A28A",
    "D662A4D18E73AFA32D779D5918D08BC8858F4DCEF97C2A24855E6EEB22B3B2E5"
);
const Q_HEX: &str = "F518AA8781A8DF278ABA4E7D64B7CB9D49462353";

/// A subgroup element, stored in Montgomery form modulo `p`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ModpElem(U1024);

/// The RFC 5114 modp group backend.
#[derive(Clone)]
pub struct ModpGroup {
    inner: Arc<ModpInner>,
}

struct ModpInner {
    field: MontCtx<16>,
    scalar: ScalarCtx,
    order: U256,
    order_wide: U1024,
    /// (p − 1) / q — the cofactor exponent used by hash-to-group.
    cofactor: U1024,
    gen: ModpElem,
    h: ModpElem,
    /// Lazily built fixed-base tables, shared by every clone of the
    /// group handle.
    g_table: OnceLock<FixedBaseTable<16>>,
    h_table: OnceLock<FixedBaseTable<16>>,
}

impl Default for ModpGroup {
    fn default() -> Self {
        Self::new()
    }
}

impl ModpGroup {
    /// Constructs the RFC 5114 backend with a hashed-in Pedersen `h`.
    pub fn new() -> Self {
        let p = U1024::from_hex(P_HEX).expect("static constant");
        let g = U1024::from_hex(G_HEX).expect("static constant");
        let q = U256::from_hex(Q_HEX).expect("static constant");
        let field = MontCtx::new(p);
        let scalar = FpCtx::new(q);
        let order_wide: U1024 = q.widen();
        let pm1 = p.wrapping_sub(&U1024::one());
        let (cofactor, rem) = pm1.div_rem(&order_wide);
        assert!(rem.is_zero(), "q must divide p-1");
        let gen = ModpElem(field.to_mont(&g));
        let mut group = Self {
            inner: Arc::new(ModpInner {
                field,
                scalar,
                order: q,
                order_wide,
                cofactor,
                gen,
                h: ModpElem(U1024::ZERO), // patched below
                g_table: OnceLock::new(),
                h_table: OnceLock::new(),
            }),
        };
        let h = group.hash_to_group("pbcd-modp-pedersen-h", b"v1");
        Arc::get_mut(&mut group.inner)
            .expect("sole owner during construction")
            .h = h;
        group
    }

    fn f(&self) -> &MontCtx<16> {
        &self.inner.field
    }

    /// Subgroup membership: `x^q == 1` (and `x != 0`).
    fn in_subgroup(&self, x_mont: &U1024) -> bool {
        if x_mont.is_zero() {
            return false;
        }
        self.f().pow(x_mont, &self.inner.order_wide) == self.f().one()
    }

    /// Window width of the fixed-base tables for `g` and `h`.
    const FIXED_WINDOW: u32 = 4;

    fn g_table(&self) -> &FixedBaseTable<16> {
        self.inner.g_table.get_or_init(|| {
            FixedBaseTable::new(
                self.f(),
                &self.inner.gen.0,
                self.inner.order.bits(),
                Self::FIXED_WINDOW,
            )
        })
    }

    fn h_table(&self) -> &FixedBaseTable<16> {
        self.inner.h_table.get_or_init(|| {
            FixedBaseTable::new(
                self.f(),
                &self.inner.h.0,
                self.inner.order.bits(),
                Self::FIXED_WINDOW,
            )
        })
    }

    /// Naive square-and-multiply exponentiation — the pre-optimization
    /// reference ladder, exposed for the equivalence test-suite and the
    /// speedup-tracking benches. Semantically identical to
    /// [`CyclicGroup::exp_uint`], just slower.
    pub fn exp_naive(&self, base: &ModpElem, k: &U256) -> ModpElem {
        let k = if k < self.order() {
            *k
        } else {
            k.rem(self.order())
        };
        let f = self.f();
        let mut acc = f.one();
        for i in (0..k.bits()).rev() {
            acc = f.mont_sqr(&acc);
            if k.bit(i) {
                acc = f.mont_mul(&acc, &base.0);
            }
        }
        ModpElem(acc)
    }
}

impl CyclicGroup for ModpGroup {
    type Elem = ModpElem;
    type Prepared = ModpElem;

    fn name(&self) -> &'static str {
        "modp-rfc5114"
    }

    fn order(&self) -> &U256 {
        &self.inner.order
    }

    fn scalar_ctx(&self) -> &ScalarCtx {
        &self.inner.scalar
    }

    fn identity(&self) -> ModpElem {
        ModpElem(self.f().one())
    }

    fn generator(&self) -> ModpElem {
        self.inner.gen.clone()
    }

    fn pedersen_h(&self) -> ModpElem {
        self.inner.h.clone()
    }

    fn op(&self, a: &ModpElem, b: &ModpElem) -> ModpElem {
        ModpElem(self.f().mont_mul(&a.0, &b.0))
    }

    fn inv(&self, a: &ModpElem) -> ModpElem {
        ModpElem(self.f().inv(&a.0).expect("group elements are nonzero"))
    }

    fn exp_uint(&self, base: &ModpElem, k: &U256) -> ModpElem {
        crate::ops::count_exp(1);
        let k = if k < self.order() {
            *k
        } else {
            k.rem(self.order())
        };
        ModpElem(self.f().pow(&base.0, &k))
    }

    fn warm_up(&self) {
        self.g_table();
        self.h_table();
    }

    fn exp_g(&self, k: &Scalar) -> ModpElem {
        crate::ops::count_exp(1);
        ModpElem(self.g_table().pow(self.f(), &k.to_uint()))
    }

    fn exp_h(&self, k: &Scalar) -> ModpElem {
        crate::ops::count_exp(1);
        ModpElem(self.h_table().pow(self.f(), &k.to_uint()))
    }

    fn prepare(&self, base: &ModpElem) -> ModpElem {
        base.clone()
    }

    fn check(&self, x: &Scalar, base: &ModpElem, y: &Scalar, expected: &ModpElem) -> bool {
        crate::ops::count_exp2();
        let gen = &self.inner.gen.0;
        self.f().pow2(gen, &x.to_uint(), &base.0, &y.to_uint()) == expected.0
    }

    fn pedersen_gh(&self, m: &Scalar, r: &Scalar) -> ModpElem {
        crate::ops::count_exp(2);
        let gm = self.g_table().pow(self.f(), &m.to_uint());
        let hr = self.h_table().pow(self.f(), &r.to_uint());
        ModpElem(self.f().mont_mul(&gm, &hr))
    }

    fn serialize(&self, a: &ModpElem) -> Vec<u8> {
        self.f().from_mont(&a.0).to_be_bytes()
    }

    fn deserialize(&self, bytes: &[u8]) -> Option<ModpElem> {
        if bytes.len() != 128 {
            return None;
        }
        let x = U1024::from_be_bytes(bytes)?;
        if x.is_zero() || &x >= self.f().modulus() {
            return None;
        }
        let xm = self.f().to_mont(&x);
        if self.in_subgroup(&xm) {
            Some(ModpElem(xm))
        } else {
            None
        }
    }

    fn hash_to_group(&self, domain: &str, data: &[u8]) -> ModpElem {
        // Map a hash-derived residue u into the subgroup via u^((p-1)/q);
        // the result's discrete log relative to g is unknown.
        for counter in 0u32..=u32::MAX {
            let mut wide = Vec::with_capacity(160);
            // Stretch the digest to cover the 1024-bit field width.
            for block in 0u8..5 {
                wide.extend_from_slice(&sha256_concat(&[
                    b"pbcd-h2g-modp:",
                    domain.as_bytes(),
                    b":",
                    data,
                    &counter.to_be_bytes(),
                    &[block],
                ]));
            }
            let u = U1024::from_be_bytes(&wide[..128])
                .expect("128 bytes fits")
                .rem(self.f().modulus());
            if u.is_zero() {
                continue;
            }
            let um = self.f().to_mont(&u);
            let candidate = self.f().pow(&um, &self.inner.cofactor);
            if candidate != self.f().one() {
                return ModpElem(candidate);
            }
        }
        unreachable!("hash-to-group failed for 2^32 counters")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbcd_math::miller_rabin;
    use rand::SeedableRng;

    fn grp() -> ModpGroup {
        ModpGroup::new()
    }

    #[test]
    fn rfc5114_parameters_are_consistent() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let p = U1024::from_hex(P_HEX).unwrap();
        let q = U256::from_hex(Q_HEX).unwrap();
        assert_eq!(p.bits(), 1024);
        assert_eq!(q.bits(), 160);
        assert!(miller_rabin(&q, 20, &mut rng));
        // p primality is slower; a handful of rounds suffices for a fixed
        // published constant.
        assert!(miller_rabin(&p, 4, &mut rng));
    }

    #[test]
    fn generator_has_order_q() {
        let g = grp();
        let gen = g.generator();
        assert!(g.in_subgroup(&gen.0));
        assert_eq!(g.exp_uint(&gen, g.order()), g.identity());
        assert_ne!(gen, g.identity());
    }

    #[test]
    fn group_laws_and_homomorphism() {
        let g = grp();
        let mut rng = rand::rngs::StdRng::seed_from_u64(32);
        let sc = g.scalar_ctx().clone();
        for _ in 0..5 {
            let x = sc.random(&mut rng);
            let y = sc.random(&mut rng);
            let a = g.exp_g(&x);
            let b = g.exp_g(&y);
            assert_eq!(g.op(&a, &b), g.op(&b, &a));
            assert_eq!(g.op(&a, &g.inv(&a)), g.identity());
            assert_eq!(g.op(&a, &b), g.exp_g(&(&x + &y)));
            assert_eq!(g.exp(&a, &y), g.exp_g(&(&x * &y)));
        }
    }

    #[test]
    fn serialization_roundtrip_and_validation() {
        let g = grp();
        let mut rng = rand::rngs::StdRng::seed_from_u64(33);
        let p = g.exp_g(&g.random_scalar(&mut rng));
        let enc = g.serialize(&p);
        assert_eq!(enc.len(), 128);
        assert_eq!(g.deserialize(&enc), Some(p));
        // Random residues are almost surely outside the subgroup.
        let junk = vec![2u8; 128];
        assert_eq!(g.deserialize(&junk), None);
        assert_eq!(g.deserialize(&[]), None);
    }

    #[test]
    fn hash_to_group_lands_in_subgroup() {
        let g = grp();
        let e = g.hash_to_group("test", b"data");
        assert!(g.in_subgroup(&e.0));
        assert_eq!(g.exp_uint(&e, g.order()), g.identity());
        assert_ne!(g.pedersen_h(), g.generator());
    }
}
