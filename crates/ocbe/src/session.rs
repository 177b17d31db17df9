//! High-level OCBE sessions: one entry point for all six comparison
//! predicates, mapping `>`/`<`/`≠` onto the EQ/GE/LE primitives exactly as
//! the paper prescribes ("Other OCBE protocols … can be built on EQ-OCBE,
//! GE-OCBE and LE-OCBE").
//!
//! * `> x₀`  ⇒ GE with threshold `x₀ + 1`
//! * `< x₀`  ⇒ LE with threshold `x₀ − 1`
//! * `≠ x₀`  ⇒ dual envelope: GE(`x₀+1`) and LE(`x₀−1`) carrying the same
//!   payload; the receiver opens whichever side its value satisfies.

use crate::bitwise::{self, BitProof, BitSecrets, BitwiseEnvelope, Direction, SHARE_LEN};
use crate::eq::{self, EqEnvelope};
use crate::error::OcbeError;
use crate::predicate::{max_value, ComparisonOp, Predicate};
use pbcd_commit::{Commitment, Opening, Pedersen};
use pbcd_group::CyclicGroup;
use rand::RngCore;

/// An OCBE deployment: a Pedersen instance plus the system parameter ℓ
/// (attribute-value bit width, `2^ℓ < p/2`).
#[derive(Clone)]
pub struct OcbeSystem<G: CyclicGroup> {
    ped: Pedersen<G>,
    ell: u32,
}

/// Receiver → sender proof message (empty for EQ; digit commitments for
/// inequalities; two sets for ≠).
pub enum ProofMessage<G: CyclicGroup> {
    /// EQ needs no extra commitments.
    Empty,
    /// One bitwise decomposition (GE/GT/LE/LT).
    Bits(BitProof<G>),
    /// Two decompositions for ≠ (either side may be absent at the value
    /// range's edges).
    Dual {
        /// Proof for the `x ≥ x₀+1` side.
        ge: Option<BitProof<G>>,
        /// Proof for the `x ≤ x₀−1` side.
        le: Option<BitProof<G>>,
    },
}

/// Receiver-private opening material matching a [`ProofMessage`].
pub enum ProofSecrets {
    /// EQ: the commitment randomness suffices.
    Empty,
    /// One bitwise secret set.
    Bits(BitSecrets),
    /// Dual secret sets for ≠.
    Dual {
        /// Secrets for the GE side.
        ge: Option<BitSecrets>,
        /// Secrets for the LE side.
        le: Option<BitSecrets>,
    },
}

/// A composed envelope for any supported predicate.
pub enum Envelope<G: CyclicGroup> {
    /// EQ-OCBE envelope.
    Eq(EqEnvelope<G>),
    /// GE-OCBE envelope (also used for `>` after threshold shift).
    Ge(BitwiseEnvelope<G>),
    /// LE-OCBE envelope (also used for `<` after threshold shift).
    Le(BitwiseEnvelope<G>),
    /// Dual envelope for `≠`.
    Dual {
        /// GE side (threshold `x₀+1`), absent when `x₀` is the max value.
        ge: Option<BitwiseEnvelope<G>>,
        /// LE side (threshold `x₀−1`), absent when `x₀` is zero.
        le: Option<BitwiseEnvelope<G>>,
    },
}

impl<G: CyclicGroup> core::fmt::Debug for ProofMessage<G> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ProofMessage::Empty => write!(f, "ProofMessage::Empty"),
            ProofMessage::Bits(p) => {
                write!(f, "ProofMessage::Bits({} commitments)", p.commitments.len())
            }
            ProofMessage::Dual { ge, le } => write!(
                f,
                "ProofMessage::Dual(ge={}, le={})",
                ge.is_some(),
                le.is_some()
            ),
        }
    }
}

impl core::fmt::Debug for ProofSecrets {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ProofSecrets::Empty => write!(f, "ProofSecrets::Empty"),
            ProofSecrets::Bits(_) => write!(f, "ProofSecrets::Bits(..)"),
            ProofSecrets::Dual { ge, le } => write!(
                f,
                "ProofSecrets::Dual(ge={}, le={})",
                ge.is_some(),
                le.is_some()
            ),
        }
    }
}

impl<G: CyclicGroup> core::fmt::Debug for Envelope<G> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Envelope::Eq(e) => write!(f, "Envelope::Eq({e:?})"),
            Envelope::Ge(e) => write!(f, "Envelope::Ge({e:?})"),
            Envelope::Le(e) => write!(f, "Envelope::Le({e:?})"),
            Envelope::Dual { ge, le } => write!(
                f,
                "Envelope::Dual(ge={}, le={})",
                ge.is_some(),
                le.is_some()
            ),
        }
    }
}

impl<G: CyclicGroup> Envelope<G> {
    /// Approximate wire size in bytes (used by bandwidth experiments).
    pub fn size_bytes(&self, group: &G) -> usize {
        let elem = group.serialize(&group.generator()).len();
        match self {
            Envelope::Eq(e) => elem + e.ciphertext.len(),
            Envelope::Ge(e) | Envelope::Le(e) => {
                elem + e.shares.len() * SHARE_LEN + e.ciphertext.len()
            }
            Envelope::Dual { ge, le } => {
                ge.as_ref().map_or(0, |e| {
                    elem + e.shares.len() * SHARE_LEN + e.ciphertext.len()
                }) + le.as_ref().map_or(0, |e| {
                    elem + e.shares.len() * SHARE_LEN + e.ciphertext.len()
                })
            }
        }
    }
}

/// How a predicate maps onto the EQ/GE/LE primitives.
enum Route {
    /// EQ-OCBE on the threshold itself.
    Eq,
    /// One bitwise envelope.
    Bits(Direction, u64),
    /// `≠`: the GE and LE thresholds, each absent at its edge of the range.
    Dual { ge: Option<u64>, le: Option<u64> },
}

impl<G: CyclicGroup> OcbeSystem<G> {
    /// Creates a deployment with attribute width `ell` bits.
    pub fn new(group: G, ell: u32) -> Self {
        assert!((1..=63).contains(&ell), "ℓ must be in 1..=63");
        Self {
            ped: Pedersen::new(group),
            ell,
        }
    }

    /// The Pedersen instance.
    pub fn pedersen(&self) -> &Pedersen<G> {
        &self.ped
    }

    /// The group backend.
    pub fn group(&self) -> &G {
        self.ped.group()
    }

    /// The attribute bit-width ℓ.
    pub fn ell(&self) -> u32 {
        self.ell
    }

    /// The bitwise envelopes `predicate` runs on (module docs): each is a
    /// direction and a threshold, `>`/`<` moving the threshold by one and
    /// `≠` taking both strict sides. Only for satisfiable predicates.
    fn route(&self, predicate: &Predicate) -> Route {
        let t = predicate.threshold;
        match predicate.op {
            ComparisonOp::Eq => Route::Eq,
            ComparisonOp::Ge => Route::Bits(Direction::Ge, t),
            ComparisonOp::Gt => Route::Bits(Direction::Ge, t + 1),
            ComparisonOp::Le => Route::Bits(Direction::Le, t),
            ComparisonOp::Lt => Route::Bits(Direction::Le, t - 1),
            ComparisonOp::Neq => Route::Dual {
                ge: (t < max_value(self.ell)).then(|| t + 1),
                le: (t > 0).then(|| t - 1),
            },
        }
    }

    /// Receiver phase 1: builds the proof message for `predicate` given the
    /// receiver's attribute value `x` and its commitment opening.
    ///
    /// Always succeeds for any in-range `x`, satisfied or not — the output
    /// distribution hides satisfaction from the sender.
    pub fn receiver_prepare<R: RngCore + ?Sized>(
        &self,
        x: u64,
        opening: &Opening,
        predicate: &Predicate,
        rng: &mut R,
    ) -> Result<(ProofMessage<G>, ProofSecrets), OcbeError> {
        if !predicate.satisfiable(self.ell) {
            return Err(OcbeError::UnsatisfiablePredicate);
        }
        let mut prepare =
            |dir, x0| bitwise::prepare(&self.ped, x, opening, x0, self.ell, dir, &mut *rng);
        Ok(match self.route(predicate) {
            Route::Eq => (ProofMessage::Empty, ProofSecrets::Empty),
            Route::Bits(dir, x0) => {
                let (p, s) = prepare(dir, x0)?;
                (ProofMessage::Bits(p), ProofSecrets::Bits(s))
            }
            Route::Dual { ge, le } => {
                let ge = ge.map(|x0| prepare(Direction::Ge, x0)).transpose()?;
                let le = le.map(|x0| prepare(Direction::Le, x0)).transpose()?;
                let ((ge, ge_s), (le, le_s)) = (ge.unzip(), le.unzip());
                (
                    ProofMessage::Dual { ge, le },
                    ProofSecrets::Dual { ge: ge_s, le: le_s },
                )
            }
        })
    }

    /// Sender phase: validates the proof message against the receiver's
    /// attribute commitment and composes the envelope around `payload`.
    pub fn sender_compose<R: RngCore + ?Sized>(
        &self,
        c: &Commitment<G>,
        predicate: &Predicate,
        proof: &ProofMessage<G>,
        payload: &[u8],
        rng: &mut R,
    ) -> Result<Envelope<G>, OcbeError> {
        if !predicate.satisfiable(self.ell) {
            return Err(OcbeError::UnsatisfiablePredicate);
        }
        let mut compose = |dir, x0, p: &BitProof<G>| {
            bitwise::compose(&self.ped, c, x0, self.ell, dir, p, payload, &mut *rng)
        };
        match (self.route(predicate), proof) {
            (Route::Eq, ProofMessage::Empty) => {
                let x0 = self.group().scalar_ctx().from_u64(predicate.threshold);
                Ok(Envelope::Eq(eq::compose(&self.ped, c, &x0, payload, rng)))
            }
            (Route::Bits(dir, x0), ProofMessage::Bits(p)) => {
                let env = compose(dir, x0, p)?;
                Ok(match dir {
                    Direction::Ge => Envelope::Ge(env),
                    Direction::Le => Envelope::Le(env),
                })
            }
            (
                Route::Dual {
                    ge: ge_x0,
                    le: le_x0,
                },
                ProofMessage::Dual { ge, le },
            ) if ge_x0.is_some() == ge.is_some() && le_x0.is_some() == le.is_some() => {
                let ge = ge_x0.zip(ge.as_ref());
                let le = le_x0.zip(le.as_ref());
                Ok(Envelope::Dual {
                    ge: ge
                        .map(|(x0, p)| compose(Direction::Ge, x0, p))
                        .transpose()?,
                    le: le
                        .map(|(x0, p)| compose(Direction::Le, x0, p))
                        .transpose()?,
                })
            }
            _ => Err(OcbeError::ProofShapeMismatch),
        }
    }

    /// Receiver phase 2: opens the envelope. `None` when the receiver's
    /// committed value does not satisfy the predicate.
    pub fn receiver_open(
        &self,
        envelope: &Envelope<G>,
        opening: &Opening,
        secrets: &ProofSecrets,
    ) -> Option<Vec<u8>> {
        let group = self.group();
        match (envelope, secrets) {
            (Envelope::Eq(env), ProofSecrets::Empty) => eq::open(group, env, &opening.randomness),
            (Envelope::Ge(env), ProofSecrets::Bits(s))
            | (Envelope::Le(env), ProofSecrets::Bits(s)) => bitwise::open(group, env, s),
            (Envelope::Dual { ge, le }, ProofSecrets::Dual { ge: ge_s, le: le_s }) => {
                if let (Some(env), Some(s)) = (ge, ge_s) {
                    if let Some(m) = bitwise::open(group, env, s) {
                        return Some(m);
                    }
                }
                if let (Some(env), Some(s)) = (le, le_s) {
                    if let Some(m) = bitwise::open(group, env, s) {
                        return Some(m);
                    }
                }
                None
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbcd_group::P256Group;
    use rand::SeedableRng;

    fn system() -> OcbeSystem<P256Group> {
        OcbeSystem::new(P256Group::new(), 16)
    }

    /// Runs the full three-message flow and returns whether the payload was
    /// recovered.
    fn flow(sys: &OcbeSystem<P256Group>, x: u64, pred: Predicate) -> bool {
        let mut rng = rand::rngs::StdRng::seed_from_u64(x.wrapping_mul(31) ^ pred.threshold);
        let (c, opening) = sys.pedersen().commit_u64(x, &mut rng);
        let (proof, secrets) = sys.receiver_prepare(x, &opening, &pred, &mut rng).unwrap();
        let env = sys
            .sender_compose(&c, &pred, &proof, b"css-bytes", &mut rng)
            .unwrap();
        match sys.receiver_open(&env, &opening, &secrets) {
            Some(m) => {
                assert_eq!(m, b"css-bytes");
                true
            }
            None => false,
        }
    }

    #[test]
    fn all_ops_match_plain_evaluation() {
        let sys = system();
        let xs = [0u64, 1, 57, 58, 59, 100, 65535];
        let thresholds = [0u64, 1, 58, 65534, 65535];
        for &x in &xs {
            for &t in &thresholds {
                for op in [
                    ComparisonOp::Eq,
                    ComparisonOp::Neq,
                    ComparisonOp::Gt,
                    ComparisonOp::Ge,
                    ComparisonOp::Lt,
                    ComparisonOp::Le,
                ] {
                    let pred = Predicate::new(op, t);
                    if !pred.satisfiable(sys.ell()) {
                        continue;
                    }
                    assert_eq!(flow(&sys, x, pred), pred.eval(x), "x={x} pred={pred}");
                }
            }
        }
    }

    #[test]
    fn unsatisfiable_predicates_rejected() {
        let sys = system();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let (_, opening) = sys.pedersen().commit_u64(3, &mut rng);
        let lt0 = Predicate::new(ComparisonOp::Lt, 0);
        assert_eq!(
            sys.receiver_prepare(3, &opening, &lt0, &mut rng).err(),
            Some(OcbeError::UnsatisfiablePredicate)
        );
        let gt_max = Predicate::new(ComparisonOp::Gt, 65535);
        assert_eq!(
            sys.receiver_prepare(3, &opening, &gt_max, &mut rng).err(),
            Some(OcbeError::UnsatisfiablePredicate)
        );
    }

    #[test]
    fn neq_edge_thresholds() {
        let sys = system();
        // x₀ = 0: only the GE side exists.
        assert!(flow(&sys, 5, Predicate::new(ComparisonOp::Neq, 0)));
        assert!(!flow(&sys, 0, Predicate::new(ComparisonOp::Neq, 0)));
        // x₀ = max: only the LE side exists.
        assert!(flow(&sys, 5, Predicate::new(ComparisonOp::Neq, 65535)));
        assert!(!flow(&sys, 65535, Predicate::new(ComparisonOp::Neq, 65535)));
    }

    #[test]
    fn mismatched_proof_shape_rejected() {
        let sys = system();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let (c, opening) = sys.pedersen().commit_u64(3, &mut rng);
        let ge = Predicate::new(ComparisonOp::Ge, 2);
        let (_, _) = sys.receiver_prepare(3, &opening, &ge, &mut rng).unwrap();
        // Send an EQ-shaped (empty) proof for a GE predicate.
        assert_eq!(
            sys.sender_compose(&c, &ge, &ProofMessage::Empty, b"m", &mut rng)
                .err(),
            Some(OcbeError::ProofShapeMismatch)
        );
    }

    #[test]
    fn envelope_sizes_scale_with_ell() {
        let sys8 = OcbeSystem::new(P256Group::new(), 8);
        let sys32 = OcbeSystem::new(P256Group::new(), 32);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for (sys, _ell) in [(&sys8, 8u32), (&sys32, 32)] {
            let (c, opening) = sys.pedersen().commit_u64(5, &mut rng);
            let pred = Predicate::new(ComparisonOp::Ge, 1);
            let (proof, _) = sys.receiver_prepare(5, &opening, &pred, &mut rng).unwrap();
            let env = sys
                .sender_compose(&c, &pred, &proof, b"m", &mut rng)
                .unwrap();
            let _ = env.size_bytes(sys.group());
        }
        let mk = |sys: &OcbeSystem<P256Group>| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(4);
            let (c, opening) = sys.pedersen().commit_u64(5, &mut rng);
            let pred = Predicate::new(ComparisonOp::Ge, 1);
            let (proof, _) = sys.receiver_prepare(5, &opening, &pred, &mut rng).unwrap();
            sys.sender_compose(&c, &pred, &proof, b"m", &mut rng)
                .unwrap()
                .size_bytes(sys.group())
        };
        assert!(mk(&sys32) > mk(&sys8));
    }
}
