//! # pbcd-commit
//!
//! Pedersen commitments (paper §IV-B) over any [`CyclicGroup`] backend.
//!
//! A commitment to `x ∈ F_p` with randomness `r ∈ F_p` is `c = g^x · h^r`,
//! where `g, h` are group generators with unknown relative discrete
//! logarithm. The scheme is unconditionally hiding and computationally
//! binding under the DL assumption. OCBE relies on the homomorphic
//! operations exposed here (`c · g^{−x₀}`, products of bit commitments
//! weighted by powers of two).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pbcd_group::{CyclicGroup, Scalar};
use rand::RngCore;

/// A Pedersen commitment: a single group element.
pub struct Commitment<G: CyclicGroup> {
    elem: G::Elem,
}

// Manual impls: derives would wrongly require `G: PartialEq` etc. even
// though only `G::Elem` (always comparable per the trait bounds) is stored.
impl<G: CyclicGroup> Clone for Commitment<G> {
    fn clone(&self) -> Self {
        Self {
            elem: self.elem.clone(),
        }
    }
}

impl<G: CyclicGroup> PartialEq for Commitment<G> {
    fn eq(&self, other: &Self) -> bool {
        self.elem == other.elem
    }
}

impl<G: CyclicGroup> Eq for Commitment<G> {}

impl<G: CyclicGroup> core::fmt::Debug for Commitment<G> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Commitment({:?})", self.elem)
    }
}

/// The private opening `(x, r)` of a commitment.
#[derive(Clone, Debug)]
pub struct Opening {
    /// Committed value.
    pub value: Scalar,
    /// Blinding randomness.
    pub randomness: Scalar,
}

/// Pedersen commitment scheme bound to a group backend.
///
/// Uses the backend's fixed `g` (generator) and `h` (hashed-in second
/// generator) so that *nobody* — including the committer — knows
/// `log_g(h)`.
#[derive(Clone)]
pub struct Pedersen<G: CyclicGroup> {
    group: G,
}

impl<G: CyclicGroup> Pedersen<G> {
    /// Creates the scheme over `group`.
    pub fn new(group: G) -> Self {
        Self { group }
    }

    /// The underlying group.
    pub fn group(&self) -> &G {
        &self.group
    }

    /// Commits to `value` with fresh randomness.
    pub fn commit<R: RngCore + ?Sized>(
        &self,
        value: &Scalar,
        rng: &mut R,
    ) -> (Commitment<G>, Opening) {
        let randomness = self.group.random_scalar(rng);
        let c = self.commit_with(value, &randomness);
        (
            c,
            Opening {
                value: value.clone(),
                randomness,
            },
        )
    }

    /// Commits to a small integer value (identity attributes are encoded as
    /// integers below `2^ℓ` in the paper).
    pub fn commit_u64<R: RngCore + ?Sized>(
        &self,
        value: u64,
        rng: &mut R,
    ) -> (Commitment<G>, Opening) {
        let v = self.group.scalar_ctx().from_u64(value);
        self.commit(&v, rng)
    }

    /// Deterministic commitment with caller-chosen randomness.
    ///
    /// Runs on the backend's fixed-base tables for `g` and `h`
    /// ([`CyclicGroup::pedersen_gh`]) — this is the hot path of issuance,
    /// registration proofs and commitment verification alike.
    pub fn commit_with(&self, value: &Scalar, randomness: &Scalar) -> Commitment<G> {
        Commitment {
            elem: self.group.pedersen_gh(value, randomness),
        }
    }

    /// [`Pedersen::commit_with`] over a list of `(value, randomness)` pairs,
    /// normalised together by the backend
    /// ([`CyclicGroup::pedersen_gh_many`]).
    pub fn commit_many_with(&self, pairs: &[(Scalar, Scalar)]) -> Vec<Commitment<G>> {
        let elems = self.group.pedersen_gh_many(pairs);
        elems.into_iter().map(|elem| Commitment { elem }).collect()
    }

    /// Verifies an opening: `c == g^x · h^r`.
    pub fn verify_open(&self, c: &Commitment<G>, opening: &Opening) -> bool {
        self.commit_with(&opening.value, &opening.randomness) == *c
    }

    /// Homomorphic product: commits to `x₁ + x₂` under `r₁ + r₂`.
    pub fn mul(&self, a: &Commitment<G>, b: &Commitment<G>) -> Commitment<G> {
        Commitment {
            elem: self.group.op(&a.elem, &b.elem),
        }
    }

    /// Homomorphic quotient: commits to `x₁ − x₂` under `r₁ − r₂`.
    pub fn div(&self, a: &Commitment<G>, b: &Commitment<G>) -> Commitment<G> {
        Commitment {
            elem: self.group.div(&a.elem, &b.elem),
        }
    }

    /// `c · g^{−delta}`: shifts the committed value down by `delta`, leaving
    /// the randomness untouched (the EQ-/GE-OCBE "difference" commitment).
    pub fn shift_value(&self, c: &Commitment<G>, delta: &Scalar) -> Commitment<G> {
        let g_neg = self.group.exp_g(&-delta);
        Commitment {
            elem: self.group.op(&c.elem, &g_neg),
        }
    }

    /// `g^{delta} · c^{−1}`: commits to `delta − x` under `−r` (the LE-OCBE
    /// mirror of [`Pedersen::shift_value`]).
    pub fn shift_value_reversed(&self, c: &Commitment<G>, delta: &Scalar) -> Commitment<G> {
        let g_delta = self.group.exp_g(delta);
        Commitment {
            elem: self.group.div(&g_delta, &c.elem),
        }
    }

    /// `c^k`: commits to `k·x` under `k·r`.
    pub fn pow(&self, c: &Commitment<G>, k: &Scalar) -> Commitment<G> {
        Commitment {
            elem: self.group.exp(&c.elem, k),
        }
    }

    /// `Π cᵢ^{2^i}` — the weighted product the GE/LE-OCBE sender uses to
    /// check bit decompositions, evaluated Horner-style (msb first) by
    /// the backend ([`CyclicGroup::prod_pow2`] — projective backends run
    /// the whole chain with one final normalization).
    pub fn weighted_product(&self, commitments: &[Commitment<G>]) -> Commitment<G> {
        let elems: Vec<G::Elem> = commitments.iter().map(|c| c.elem.clone()).collect();
        Commitment {
            elem: self.group.prod_pow2(&elems),
        }
    }

    /// Canonical encoding of a commitment.
    pub fn serialize(&self, c: &Commitment<G>) -> Vec<u8> {
        self.group.serialize(&c.elem)
    }

    /// Parses and validates an encoded commitment.
    pub fn deserialize(&self, bytes: &[u8]) -> Option<Commitment<G>> {
        self.group
            .deserialize(bytes)
            .map(|elem| Commitment { elem })
    }
}

impl<G: CyclicGroup> Commitment<G> {
    /// The underlying group element.
    pub fn element(&self) -> &G::Elem {
        &self.elem
    }

    /// Wraps a raw group element as a commitment.
    pub fn from_element(elem: G::Elem) -> Self {
        Self { elem }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbcd_group::{ModpGroup, P256Group};
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(101)
    }

    fn exercise_backend<G: CyclicGroup>(group: G) {
        let ped = Pedersen::new(group.clone());
        let sc = group.scalar_ctx().clone();
        let mut r = rng();

        // Commit/open roundtrip.
        let v = sc.from_u64(28);
        let (c, o) = ped.commit(&v, &mut r);
        assert!(ped.verify_open(&c, &o));

        // Opening with the wrong value or randomness fails.
        let bad_v = Opening {
            value: sc.from_u64(29),
            randomness: o.randomness.clone(),
        };
        assert!(!ped.verify_open(&c, &bad_v));
        let bad_r = Opening {
            value: o.value.clone(),
            randomness: &o.randomness + &sc.one(),
        };
        assert!(!ped.verify_open(&c, &bad_r));

        // Hiding: same value, fresh randomness ⇒ different commitments.
        let (c2, _) = ped.commit(&v, &mut r);
        assert_ne!(c, c2);

        // Homomorphisms.
        let a = sc.from_u64(11);
        let b = sc.from_u64(31);
        let (ca, oa) = ped.commit(&a, &mut r);
        let (cb, ob) = ped.commit(&b, &mut r);
        let sum = ped.mul(&ca, &cb);
        assert!(ped.verify_open(
            &sum,
            &Opening {
                value: &a + &b,
                randomness: &oa.randomness + &ob.randomness,
            }
        ));
        let diff = ped.div(&ca, &cb);
        assert!(ped.verify_open(
            &diff,
            &Opening {
                value: &a - &b,
                randomness: &oa.randomness - &ob.randomness,
            }
        ));

        // shift_value: c · g^{−x0} commits to (x − x0, r).
        let x0 = sc.from_u64(5);
        let shifted = ped.shift_value(&ca, &x0);
        assert!(ped.verify_open(
            &shifted,
            &Opening {
                value: &a - &x0,
                randomness: oa.randomness.clone(),
            }
        ));

        // shift_value_reversed: g^{x0} · c^{−1} commits to (x0 − x, −r).
        let rev = ped.shift_value_reversed(&ca, &x0);
        assert!(ped.verify_open(
            &rev,
            &Opening {
                value: &x0 - &a,
                randomness: -&oa.randomness,
            }
        ));

        // pow: c^k commits to (k·x, k·r).
        let k = sc.from_u64(7);
        let powed = ped.pow(&ca, &k);
        assert!(ped.verify_open(
            &powed,
            &Opening {
                value: &k * &a,
                randomness: &k * &oa.randomness,
            }
        ));

        // Serialization.
        let enc = ped.serialize(&ca);
        assert_eq!(ped.deserialize(&enc), Some(ca));
    }

    #[test]
    fn p256_backend() {
        exercise_backend(P256Group::new());
    }

    #[test]
    fn modp_backend() {
        exercise_backend(ModpGroup::new());
    }

    #[test]
    fn weighted_product_matches_bit_decomposition() {
        // Commit bitwise to d = Σ 2^i d_i with r = Σ 2^i r_i and check
        // Π c_i^{2^i} = g^d h^r — the exact GE-OCBE sender check.
        let group = P256Group::new();
        let ped = Pedersen::new(group.clone());
        let sc = group.scalar_ctx().clone();
        let mut r = rng();
        let d: u64 = 0b1011_0110;
        let ell = 8u32;
        let mut commitments = Vec::new();
        let mut r_total = sc.zero();
        let mut weight = sc.one();
        let two = sc.from_u64(2);
        for i in 0..ell {
            let bit = (d >> i) & 1;
            let (c, o) = ped.commit_u64(bit, &mut r);
            r_total = &r_total + &(&weight * &o.randomness);
            weight = &weight * &two;
            commitments.push(c);
        }
        let prod = ped.weighted_product(&commitments);
        assert!(ped.verify_open(
            &prod,
            &Opening {
                value: sc.from_u64(d),
                randomness: r_total,
            }
        ));
    }

    #[test]
    fn paper_example_1_shape() {
        // Example 1: Bob commits to age 28 with randomness 9270.
        let group = P256Group::new();
        let ped = Pedersen::new(group.clone());
        let sc = group.scalar_ctx().clone();
        let c = ped.commit_with(&sc.from_u64(28), &sc.from_u64(9270));
        assert!(ped.verify_open(
            &c,
            &Opening {
                value: sc.from_u64(28),
                randomness: sc.from_u64(9270),
            }
        ));
        // Deterministic: the same inputs give the same commitment.
        assert_eq!(c, ped.commit_with(&sc.from_u64(28), &sc.from_u64(9270)));
    }
}
