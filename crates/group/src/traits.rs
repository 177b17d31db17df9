//! The prime-order cyclic group abstraction.
//!
//! Everything the paper's protocols need from "the group" is captured here:
//! a CDH-hard prime-order cyclic group with two generators whose relative
//! discrete logarithm is unknown (Pedersen's `g` and `h`), exponentiation,
//! and canonical serialization. The paper instantiated this with the
//! Jacobian of a genus-2 curve (G2HEC); this workspace substitutes NIST
//! P-256 ([`crate::p256::P256Group`], default) and an RFC 5114 modp Schnorr
//! group ([`crate::modp::ModpGroup`]). The protocols are generic over this
//! trait, so the substitution changes costs, not behaviour; both backends
//! are described in `docs/ARCHITECTURE.md`, "Group arithmetic".

use pbcd_math::{Fp, FpCtx, U256};
use rand::RngCore;
use std::fmt::Debug;
use std::sync::Arc;

/// Scalars for every group backend live in a 256-bit-capable prime field
/// whose modulus is the group order (P-256: 256 bits; RFC 5114: 160 bits).
pub type Scalar = Fp<4>;
/// Context for [`Scalar`] arithmetic.
pub type ScalarCtx = Arc<FpCtx<4>>;

/// A prime-order cyclic group suitable for Pedersen commitments and OCBE.
///
/// Implementations must guarantee:
/// * the group has prime order `q = self.order()`;
/// * `generator()` generates the whole group;
/// * `pedersen_h()` is a second generator whose discrete log with respect to
///   `generator()` is unknown to everyone (derived by hashing into the
///   group);
/// * `exp` is the group exponentiation `base^k` (written multiplicatively,
///   matching the paper).
pub trait CyclicGroup: Clone + Send + Sync + 'static {
    /// Group element representation.
    type Elem: Clone + PartialEq + Eq + Debug + Send + Sync;

    /// Precomputation for a long-lived public base `B`, built once by
    /// [`CyclicGroup::prepare`] and reused by every [`CyclicGroup::check`].
    type Prepared: Send + Sync;

    /// Human-readable backend name (used by benches and reports).
    fn name(&self) -> &'static str;

    /// The prime group order `q`.
    fn order(&self) -> &U256;

    /// Field context for scalar (exponent) arithmetic modulo the order.
    fn scalar_ctx(&self) -> &ScalarCtx;

    /// The identity element.
    fn identity(&self) -> Self::Elem;

    /// The fixed generator `g`.
    fn generator(&self) -> Self::Elem;

    /// A second generator `h` with unknown discrete log w.r.t. `g`
    /// (the Pedersen commitment base).
    fn pedersen_h(&self) -> Self::Elem;

    /// Group operation `a · b`.
    fn op(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem;

    /// Group inverse `a^{-1}`.
    fn inv(&self, a: &Self::Elem) -> Self::Elem;

    /// Exponentiation `base^k` for a canonical scalar `k < order`.
    fn exp_uint(&self, base: &Self::Elem, k: &U256) -> Self::Elem;

    /// Canonical byte encoding.
    fn serialize(&self, a: &Self::Elem) -> Vec<u8>;

    /// Parses and validates an encoded element (subgroup membership
    /// included). Returns `None` for anything malformed.
    fn deserialize(&self, bytes: &[u8]) -> Option<Self::Elem>;

    /// Deterministically hashes arbitrary bytes to a group element with
    /// unknown discrete log.
    fn hash_to_group(&self, domain: &str, data: &[u8]) -> Self::Elem;

    /// Exponentiation by a scalar field element.
    fn exp(&self, base: &Self::Elem, k: &Scalar) -> Self::Elem {
        self.exp_uint(base, &k.to_uint())
    }

    /// `g^k` for a canonical scalar.
    ///
    /// Backends override this with fixed-base precomputation (`g` is known
    /// forever); the default just delegates to [`CyclicGroup::exp`].
    fn exp_g(&self, k: &Scalar) -> Self::Elem {
        self.exp(&self.generator(), k)
    }

    /// `h^k` for a canonical scalar — the Pedersen blinding base.
    ///
    /// Like [`CyclicGroup::exp_g`], backends override this with a cached
    /// fixed-base table; the naive default keeps third-party backends
    /// compiling unchanged.
    fn exp_h(&self, k: &Scalar) -> Self::Elem {
        self.exp(&self.pedersen_h(), k)
    }

    /// Builds the [`CyclicGroup::Prepared`] form of a non-identity base.
    fn prepare(&self, base: &Self::Elem) -> Self::Prepared;

    /// Whether `g^x · B^y == expected` for a prepared base `B`: the
    /// verification equation (Schnorr's `g^s · pk^{−e} == R`). Counts as
    /// one double exponentiation in [`crate::ops`].
    fn check(&self, x: &Scalar, base: &Self::Prepared, y: &Scalar, expected: &Self::Elem) -> bool;

    /// The Pedersen commitment body `g^m · h^r`.
    ///
    /// Both bases are fixed, so backends serve this from two precomputed
    /// tables; the default composes [`CyclicGroup::exp_g`] and
    /// [`CyclicGroup::exp_h`].
    fn pedersen_gh(&self, m: &Scalar, r: &Scalar) -> Self::Elem {
        self.op(&self.exp_g(m), &self.exp_h(r))
    }

    /// [`CyclicGroup::pedersen_gh`] over a list of `(m, r)` pairs.
    ///
    /// The bitwise OCBE receiver commits to ℓ digits at once; projective
    /// backends override this to normalise the whole list with one shared
    /// inversion. Counts as two exponentiations per pair either way.
    fn pedersen_gh_many(&self, pairs: &[(Scalar, Scalar)]) -> Vec<Self::Elem> {
        pairs.iter().map(|(m, r)| self.pedersen_gh(m, r)).collect()
    }

    /// `(bᵢ^k, bᵢ^k · shift)` for every base `bᵢ` under one shared scalar.
    ///
    /// The bitwise OCBE sender masks two key shares per digit commitment
    /// with `cᵢ^y` and `(cᵢ·g⁻¹)^y = cᵢ^y · g^{−y}`: one exponentiation and
    /// one group operation per digit instead of two exponentiations.
    /// Backends override this to recode `k` once and normalise every
    /// result together; the default composes [`CyclicGroup::exp`] and
    /// [`CyclicGroup::op`].
    fn exp_shared_scalar_shifted(
        &self,
        bases: &[Self::Elem],
        k: &Scalar,
        shift: &Self::Elem,
    ) -> Vec<(Self::Elem, Self::Elem)> {
        bases
            .iter()
            .map(|b| {
                let p = self.exp(b, k);
                let shifted = self.op(&p, shift);
                (p, shifted)
            })
            .collect()
    }

    /// `base^{kᵢ}` for every scalar `kᵢ` under one shared base.
    ///
    /// The bitwise OCBE receiver raises the envelope's `η` to each digit's
    /// randomness. Backends override this to build one fixed-base table
    /// for `base` and serve every scalar from it; the default composes
    /// [`CyclicGroup::exp`].
    fn exp_shared_base(&self, base: &Self::Elem, ks: &[Scalar]) -> Vec<Self::Elem> {
        ks.iter().map(|k| self.exp(base, k)).collect()
    }

    /// Multi-scalar multiplication `Π basesᵢ^{kᵢ}` over (element, scalar)
    /// pairs.
    ///
    /// The workhorse of batched verification (one random-linear-combination
    /// Schnorr check over a whole cohort collapses to a single `msm` of
    /// width `n + k + 1` for `k` distinct keys). Backends override this
    /// with Pippenger's bucket method — asymptotically `O(n / log n)` group
    /// operations per term — while the default composes per-term
    /// exponentiations so third-party backends keep working unchanged.
    fn msm(&self, terms: &[(Self::Elem, Scalar)]) -> Self::Elem {
        let mut acc = self.identity();
        for (base, k) in terms {
            acc = self.op(&acc, &self.exp(base, k));
        }
        acc
    }

    /// Eagerly builds any lazily-initialized fixed-base acceleration
    /// material (the `g`/`h` comb tables) so the *first* real request
    /// served by a long-lived actor does not pay table-construction
    /// latency. Idempotent and cheap once warm; the default is a no-op
    /// for backends without precomputation.
    fn warm_up(&self) {}

    /// `Π elemsᵢ^(2^i)` — the power-of-two weighted product the bitwise
    /// OCBE sender uses to reassemble digit commitments, evaluated
    /// Horner-style (msb first).
    ///
    /// Backends with expensive per-`op` normalization (projective curves)
    /// override this to run the whole chain in projective coordinates
    /// with a single final normalization.
    fn prod_pow2(&self, elems: &[Self::Elem]) -> Self::Elem {
        let mut acc = self.identity();
        for e in elems.iter().rev() {
            acc = self.op(&self.op(&acc, &acc), e);
        }
        acc
    }

    /// A uniformly random scalar.
    fn random_scalar<R: RngCore + ?Sized>(&self, rng: &mut R) -> Scalar {
        self.scalar_ctx().random(rng)
    }

    /// A uniformly random *nonzero* scalar (exponents `y ∈ F_q^×` in OCBE).
    fn random_nonzero_scalar<R: RngCore + ?Sized>(&self, rng: &mut R) -> Scalar {
        self.scalar_ctx().random_nonzero(rng)
    }

    /// `a · b^{-1}`.
    fn div(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem {
        self.op(a, &self.inv(b))
    }

    /// True iff `a` is the identity.
    fn is_identity(&self, a: &Self::Elem) -> bool {
        *a == self.identity()
    }
}
