//! GE-/LE-OCBE (paper §IV-C): bitwise oblivious envelopes for inequality
//! predicates over ℓ-bit attribute values.
//!
//! The receiver decomposes the difference `d` into ℓ digit commitments
//! `cᵢ = g^{dᵢ} h^{rᵢ}`; the sender checks they reassemble to the
//! difference commitment, then publishes per-digit masked key shares
//! `Cᵢʲ = H((cᵢ·g^{−j})^y) ⊕ kᵢ` for `j ∈ {0,1}` plus `η = h^y` and the
//! payload encrypted under `k = H(k₀‖…‖k_{ℓ−1})`. A receiver whose digits
//! are all bits recovers every `kᵢ`; an unqualified receiver's digit `d₀`
//! is a non-bit field element and its share cannot be unmasked.
//!
//! Each stage is one list operation of the group backend: the receiver
//! commits to its ℓ digits together, the sender raises the ℓ commitments
//! to the one `y` and gets the `j = 1` twins from the one shift `g^{−y}`
//! (`(cᵢ·g⁻¹)^y = cᵢ^y · g^{−y}`), and the receiver raises the one `η` to
//! its ℓ digit randomnesses.

use crate::error::OcbeError;
use pbcd_commit::{Commitment, Opening, Pedersen};
use pbcd_crypto::{sha256, AuthKey};
use pbcd_group::{CyclicGroup, Scalar};
use rand::RngCore;

/// Direction of the inequality: which side of the threshold qualifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// `x ≥ x₀` (GE-OCBE): `d = x − x₀`, randomness `r`.
    Ge,
    /// `x ≤ x₀` (LE-OCBE): `d = x₀ − x`, randomness `−r`.
    Le,
}

impl Direction {
    /// Integer satisfaction test.
    pub fn eval(&self, x: u64, x0: u64) -> bool {
        match self {
            Self::Ge => x >= x0,
            Self::Le => x <= x0,
        }
    }
}

/// The receiver's public proof message: ℓ digit commitments.
pub struct BitProof<G: CyclicGroup> {
    /// Digit commitments `c₀, …, c_{ℓ−1}` (least-significant first).
    pub commitments: Vec<Commitment<G>>,
}

impl<G: CyclicGroup> Clone for BitProof<G> {
    fn clone(&self) -> Self {
        Self {
            commitments: self.commitments.clone(),
        }
    }
}

/// The receiver's private opening material for a [`BitProof`].
#[derive(Clone)]
pub struct BitSecrets {
    /// Digit value as a bit when it is one (all digits for qualified
    /// receivers; `None` marks the non-bit digit of unqualified receivers).
    digit_bits: Vec<Option<u8>>,
    /// Digit randomness `r₀, …, r_{ℓ−1}`.
    randomness: Vec<Scalar>,
}

/// A GE-/LE-OCBE envelope.
pub struct BitwiseEnvelope<G: CyclicGroup> {
    /// `η = h^y`.
    pub eta: G::Elem,
    /// Masked key shares `Cᵢʲ`, indexed `[digit][j]`.
    pub shares: Vec<[[u8; 32]; 2]>,
    /// Authenticated ciphertext of the payload under `k`.
    pub ciphertext: Vec<u8>,
}

impl<G: CyclicGroup> Clone for BitwiseEnvelope<G> {
    fn clone(&self) -> Self {
        Self {
            eta: self.eta.clone(),
            shares: self.shares.clone(),
            ciphertext: self.ciphertext.clone(),
        }
    }
}

impl<G: CyclicGroup> core::fmt::Debug for BitwiseEnvelope<G> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "BitwiseEnvelope(ℓ={}, |C|={})",
            self.shares.len(),
            self.ciphertext.len()
        )
    }
}

/// Receiver step "create extra commitments": decomposes the difference into
/// ℓ digit commitments. Works for both qualified and unqualified values —
/// the proof message is indistinguishable to the sender either way.
pub fn prepare<G: CyclicGroup, R: RngCore + ?Sized>(
    ped: &Pedersen<G>,
    x: u64,
    opening: &Opening,
    x0: u64,
    ell: u32,
    dir: Direction,
    rng: &mut R,
) -> Result<(BitProof<G>, BitSecrets), OcbeError> {
    if !(1..=63).contains(&ell) || x0 >= (1u64 << ell) {
        return Err(OcbeError::InvalidParameters);
    }
    let sc = ped.group().scalar_ctx().clone();
    let ell = ell as usize;
    // Out-of-range committed values (e.g. the §VI-A decoy tokens, which
    // commit far above 2^ℓ) can never satisfy an in-range inequality: the
    // difference has no ℓ-bit decomposition. Run the unsatisfied path.
    let satisfied = x < (1u64 << ell) && dir.eval(x, x0);
    // d as a field element (wraps for unqualified receivers) and the base
    // randomness matching the difference commitment the sender will form.
    let (d_scalar, base_r) = match dir {
        Direction::Ge => (
            &sc.from_u64(x) - &sc.from_u64(x0),
            opening.randomness.clone(),
        ),
        Direction::Le => (&sc.from_u64(x0) - &sc.from_u64(x), -&opening.randomness),
    };

    // Randomness split: r₀ = base_r − Σ_{i≥1} 2ⁱ rᵢ so Σ 2ⁱ rᵢ = base_r.
    let mut randomness = Vec::with_capacity(ell);
    randomness.push(sc.zero()); // placeholder for r₀
    let mut acc = sc.zero();
    let mut weight = &sc.one() + &sc.one(); // 2^1
    let two = weight.clone();
    for _ in 1..ell {
        let ri = sc.random(rng);
        acc = &acc + &(&weight * &ri);
        weight = &weight * &two;
        randomness.push(ri);
    }
    randomness[0] = &base_r - &acc;

    // Digit split: bits of |d| when satisfied; otherwise random high bits
    // with the non-bit remainder folded into digit 0.
    let mut digit_scalars = Vec::with_capacity(ell);
    let mut digit_bits = Vec::with_capacity(ell);
    if satisfied {
        let d_int = match dir {
            Direction::Ge => x - x0,
            Direction::Le => x0 - x,
        };
        debug_assert!(d_int < (1u64 << ell));
        for i in 0..ell {
            let bit = ((d_int >> i) & 1) as u8;
            digit_scalars.push(sc.from_u64(bit as u64));
            digit_bits.push(Some(bit));
        }
    } else {
        digit_scalars.push(sc.zero()); // placeholder for d₀
        digit_bits.push(None);
        let mut acc = sc.zero();
        let mut weight = two.clone();
        for _ in 1..ell {
            let bit = (rng.next_u32() & 1) as u8;
            acc = &acc + &(&weight * &sc.from_u64(bit as u64));
            weight = &weight * &two;
            digit_scalars.push(sc.from_u64(bit as u64));
            digit_bits.push(Some(bit));
        }
        digit_scalars[0] = &d_scalar - &acc;
        // d₀ lands in {0,1} only with negligible probability; treat that
        // as the non-bit it almost surely is.
    }

    let pairs: Vec<(Scalar, Scalar)> = digit_scalars
        .into_iter()
        .zip(randomness.iter().cloned())
        .collect();
    let commitments = ped.commit_many_with(&pairs);
    Ok((
        BitProof { commitments },
        BitSecrets {
            digit_bits,
            randomness,
        },
    ))
}

/// Sender step "compose envelope": validates the digit commitments against
/// the receiver's attribute commitment and produces the envelope.
#[allow(clippy::too_many_arguments)] // protocol message parameters
pub fn compose<G: CyclicGroup, R: RngCore + ?Sized>(
    ped: &Pedersen<G>,
    c: &Commitment<G>,
    x0: u64,
    ell: u32,
    dir: Direction,
    proof: &BitProof<G>,
    payload: &[u8],
    rng: &mut R,
) -> Result<BitwiseEnvelope<G>, OcbeError> {
    if !(1..=63).contains(&ell) || x0 >= (1u64 << ell) {
        return Err(OcbeError::InvalidParameters);
    }
    let ell = ell as usize;
    if proof.commitments.len() != ell {
        return Err(OcbeError::ProofShapeMismatch);
    }
    let group = ped.group();
    let sc = group.scalar_ctx().clone();
    // Consistency: Π cᵢ^{2^i} must equal the difference commitment.
    let target = match dir {
        Direction::Ge => ped.shift_value(c, &sc.from_u64(x0)),
        Direction::Le => ped.shift_value_reversed(c, &sc.from_u64(x0)),
    };
    if ped.weighted_product(&proof.commitments) != target {
        return Err(OcbeError::InconsistentCommitments);
    }

    // Per-digit random key shares and the combined payload key.
    let mut key_shares = Vec::with_capacity(ell);
    let mut concat = Vec::with_capacity(32 * ell);
    for _ in 0..ell {
        let mut k = [0u8; 32];
        rng.fill_bytes(&mut k);
        concat.extend_from_slice(&k);
        key_shares.push(k);
    }
    let master = sha256(&concat);

    let y = group.random_nonzero_scalar(rng);
    let eta = group.exp_h(&y);
    // (cᵢ·g⁻¹)^y = cᵢ^y · g^{−y}: one exponentiation per digit and one
    // fixed-base shift for the whole envelope.
    let g_neg_y = group.exp_g(&-&y);
    let digits: Vec<G::Elem> = proof
        .commitments
        .iter()
        .map(|c| c.element().clone())
        .collect();
    let shares = group
        .exp_shared_scalar_shifted(&digits, &y, &g_neg_y)
        .iter()
        .zip(&key_shares)
        .map(|((sigma0, sigma1), ki)| [mask(group, sigma0, ki), mask(group, sigma1, ki)])
        .collect();
    let ciphertext = AuthKey::from_master(&master).encrypt(rng, payload);
    Ok(BitwiseEnvelope {
        eta,
        shares,
        ciphertext,
    })
}

/// Receiver step "open envelope": recovers the per-digit key shares with
/// the stored digit bits and randomness, reassembles the payload key, and
/// decrypts. `None` when the receiver's value did not satisfy the predicate.
pub fn open<G: CyclicGroup>(
    group: &G,
    env: &BitwiseEnvelope<G>,
    secrets: &BitSecrets,
) -> Option<Vec<u8>> {
    if env.shares.len() != secrets.digit_bits.len() {
        return None;
    }
    // A digit that is not a bit has no share to unmask: an unqualified
    // receiver stops here, before any exponentiation.
    let bits: Vec<usize> = secrets
        .digit_bits
        .iter()
        .map(|bit| bit.map(usize::from))
        .collect::<Option<_>>()?;
    // σᵢ = η^{rᵢ}: ℓ scalars under the one base η.
    let sigmas = group.exp_shared_base(&env.eta, &secrets.randomness);
    let mut concat = Vec::with_capacity(32 * env.shares.len());
    for ((share, j), sigma) in env.shares.iter().zip(bits).zip(&sigmas) {
        concat.extend_from_slice(&mask(group, sigma, &share[j]));
    }
    let master = sha256(&concat);
    AuthKey::from_master(&master).decrypt(&env.ciphertext).ok()
}

/// `H(σ) ⊕ k`: masks a key share under `σ`, or unmasks it again.
fn mask<G: CyclicGroup>(group: &G, sigma: &G::Elem, k: &[u8; 32]) -> [u8; 32] {
    let mut out = sha256(&group.serialize(sigma));
    for (o, b) in out.iter_mut().zip(k) {
        *o ^= b;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbcd_group::P256Group;
    use rand::SeedableRng;

    fn setup() -> (Pedersen<P256Group>, rand::rngs::StdRng) {
        (
            Pedersen::new(P256Group::new()),
            rand::rngs::StdRng::seed_from_u64(300),
        )
    }

    fn run(x: u64, x0: u64, ell: u32, dir: Direction) -> Option<Vec<u8>> {
        let (ped, mut rng) = setup();
        let (c, opening) = ped.commit_u64(x, &mut rng);
        let (proof, secrets) = prepare(&ped, x, &opening, x0, ell, dir, &mut rng).unwrap();
        let env = compose(&ped, &c, x0, ell, dir, &proof, b"payload!", &mut rng).unwrap();
        open(ped.group(), &env, &secrets)
    }

    #[test]
    fn ge_qualified() {
        assert_eq!(run(59, 58, 8, Direction::Ge), Some(b"payload!".to_vec()));
        assert_eq!(run(58, 58, 8, Direction::Ge), Some(b"payload!".to_vec()));
        assert_eq!(run(255, 0, 8, Direction::Ge), Some(b"payload!".to_vec()));
    }

    #[test]
    fn ge_unqualified() {
        assert_eq!(run(57, 58, 8, Direction::Ge), None);
        assert_eq!(run(0, 1, 8, Direction::Ge), None);
        assert_eq!(run(0, 255, 8, Direction::Ge), None);
    }

    #[test]
    fn le_qualified() {
        assert_eq!(run(5, 10, 8, Direction::Le), Some(b"payload!".to_vec()));
        assert_eq!(run(10, 10, 8, Direction::Le), Some(b"payload!".to_vec()));
        assert_eq!(run(0, 0, 8, Direction::Le), Some(b"payload!".to_vec()));
    }

    #[test]
    fn le_unqualified() {
        assert_eq!(run(11, 10, 8, Direction::Le), None);
        assert_eq!(run(255, 254, 8, Direction::Le), None);
    }

    #[test]
    fn various_ell_widths() {
        for ell in [1u32, 2, 5, 16, 40] {
            let max = (1u64 << ell) - 1;
            assert!(run(max, 0, ell, Direction::Ge).is_some(), "ℓ={ell}");
            if max > 0 {
                assert!(run(0, 1.min(max), ell, Direction::Ge).is_none(), "ℓ={ell}");
            }
        }
    }

    #[test]
    fn tampered_proof_rejected_by_sender() {
        let (ped, mut rng) = setup();
        let (c, opening) = ped.commit_u64(20, &mut rng);
        let (mut proof, _) = prepare(&ped, 20, &opening, 10, 8, Direction::Ge, &mut rng).unwrap();
        // Swap two digit commitments: weighted product no longer matches.
        proof.commitments.swap(0, 1);
        assert_eq!(
            compose(&ped, &c, 10, 8, Direction::Ge, &proof, b"m", &mut rng).err(),
            Some(OcbeError::InconsistentCommitments)
        );
    }

    #[test]
    fn proof_for_wrong_commitment_rejected() {
        let (ped, mut rng) = setup();
        let (_, opening_a) = ped.commit_u64(20, &mut rng);
        let (cb, _) = ped.commit_u64(21, &mut rng);
        let (proof, _) = prepare(&ped, 20, &opening_a, 10, 8, Direction::Ge, &mut rng).unwrap();
        assert_eq!(
            compose(&ped, &cb, 10, 8, Direction::Ge, &proof, b"m", &mut rng).err(),
            Some(OcbeError::InconsistentCommitments)
        );
    }

    #[test]
    fn wrong_length_proof_rejected() {
        let (ped, mut rng) = setup();
        let (c, opening) = ped.commit_u64(20, &mut rng);
        let (mut proof, _) = prepare(&ped, 20, &opening, 10, 8, Direction::Ge, &mut rng).unwrap();
        proof.commitments.pop();
        assert_eq!(
            compose(&ped, &c, 10, 8, Direction::Ge, &proof, b"m", &mut rng).err(),
            Some(OcbeError::ProofShapeMismatch)
        );
    }

    #[test]
    fn parameter_validation() {
        let (ped, mut rng) = setup();
        let (_, opening) = ped.commit_u64(1, &mut rng);
        assert_eq!(
            prepare(&ped, 1, &opening, 0, 0, Direction::Ge, &mut rng).err(),
            Some(OcbeError::InvalidParameters)
        );
        assert_eq!(
            prepare(&ped, 1, &opening, 300, 8, Direction::Ge, &mut rng).err(),
            Some(OcbeError::InvalidParameters),
            "x0 out of ℓ-bit range"
        );
    }

    #[test]
    fn out_of_range_x_is_never_satisfied() {
        // Decoy tokens (§VI-A) commit above 2^ℓ; they must be acceptable to
        // prepare (hiding which attributes the receiver holds) but can
        // never open — even for inequalities the value would numerically
        // satisfy.
        let (ped, mut rng) = setup();
        let decoy = (1u64 << 63) - 1;
        let (c, opening) = ped.commit_u64(decoy, &mut rng);
        for dir in [Direction::Ge, Direction::Le] {
            let (proof, secrets) = prepare(&ped, decoy, &opening, 100, 8, dir, &mut rng).unwrap();
            let env = compose(&ped, &c, 100, 8, dir, &proof, b"secret", &mut rng).unwrap();
            assert_eq!(open(ped.group(), &env, &secrets), None, "{dir:?}");
        }
    }

    #[test]
    fn unqualified_sender_view_indistinguishable() {
        // The sender-side check passes for unqualified receivers too — it
        // must not learn satisfaction.
        let (ped, mut rng) = setup();
        let (c, opening) = ped.commit_u64(5, &mut rng);
        let (proof, secrets) = prepare(&ped, 5, &opening, 200, 8, Direction::Ge, &mut rng).unwrap();
        let env = compose(&ped, &c, 200, 8, Direction::Ge, &proof, b"m", &mut rng)
            .expect("sender cannot distinguish unqualified proofs");
        assert_eq!(open(ped.group(), &env, &secrets), None);
    }
}
