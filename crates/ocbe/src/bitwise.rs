//! GE-/LE-OCBE (paper §IV-C): oblivious envelopes for inequality
//! predicates over ℓ-bit attribute values, on radix-16 digits.
//!
//! The receiver decomposes the difference `d` into `D = ⌈ℓ/4⌉` digit
//! commitments `cᵢ = g^{dᵢ} h^{rᵢ}` with `dᵢ ∈ [0, 2^{wᵢ})`, where `wᵢ` is
//! [`DIGIT_BITS`] except for the top digit, which gets what remains of ℓ:
//! exactly the ℓ-bit differences decompose. The sender checks the digits
//! reassemble to the difference commitment (`Π cᵢ^{16ⁱ}`), then publishes
//! per-digit masked key shares `Cᵢʲ = H((cᵢ·g^{−j})^y)[..16] ⊕ kᵢ` for
//! every `j ∈ [0, 2^{wᵢ})`, with [`SHARE_LEN`]-byte keys `kᵢ`, plus
//! `η = h^y` and the payload encrypted under `k = H(k₀‖…‖k_{D−1})`. A
//! receiver whose digits are all in range recovers every `kᵢ`; an
//! unqualified receiver's digit `d₀` is an out-of-range field element and
//! has no share to unmask, so `k` keeps the 128 bits of `k₀` it cannot
//! learn. The paper's bitwise form is the width-1 case
//! (`docs/ARCHITECTURE.md`, "GE/LE-OCBE on radix-16 digits").
//!
//! Each stage is one list operation of the group backend: the receiver
//! commits to its D digits together, the sender raises the D commitments
//! to the one `y` and steps each through its `2^{wᵢ}` shares by the one
//! shift `g^{−y}` (`(cᵢ·g^{−j})^y = cᵢ^y · g^{−jy}`), and the receiver
//! raises the one `η` to its D digit randomnesses.

use crate::error::OcbeError;
pub use pbcd_commit::DIGIT_BITS;
use pbcd_commit::{Commitment, Opening, Pedersen};
use pbcd_crypto::{sha256, AuthKey};
use pbcd_group::{CyclicGroup, Scalar};
use rand::RngCore;

/// Bytes in a per-digit key `kᵢ` and in each masked share `Cᵢʲ`: 128-bit
/// keys, the security level of P-256 and of every other primitive here.
pub const SHARE_LEN: usize = 16;

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

/// The receiver's public proof message: D digit commitments.
pub struct BitProof<G: CyclicGroup> {
    /// Digit commitments `c₀, …, c_{D−1}` (least-significant first).
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
    /// ℓ, which fixes the digit widths and the envelope's share count.
    ell: u32,
    /// Digit values when in range (all digits for qualified receivers;
    /// `None` marks the out-of-range digit of unqualified receivers).
    digits: Vec<Option<u8>>,
    /// Digit randomness `r₀, …, r_{D−1}`.
    randomness: Vec<Scalar>,
}

/// A GE-/LE-OCBE envelope.
pub struct BitwiseEnvelope<G: CyclicGroup> {
    /// `η = h^y`.
    pub eta: G::Elem,
    /// Masked key shares `Cᵢʲ`, digit-major: digit `i`'s `2^{wᵢ}` shares in
    /// order of `j`, then digit `i + 1`'s.
    pub shares: Vec<[u8; SHARE_LEN]>,
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
            "BitwiseEnvelope(shares={}, |C|={})",
            self.shares.len(),
            self.ciphertext.len()
        )
    }
}

/// The digit widths `w₀, …, w_{D−1}` for ℓ, least-significant first:
/// [`DIGIT_BITS`] each, the top digit taking what remains of ℓ.
fn digit_widths(ell: u32) -> impl Iterator<Item = u32> {
    (0..ell.div_ceil(DIGIT_BITS)).map(move |i| DIGIT_BITS.min(ell - DIGIT_BITS * i))
}

/// Receiver step "create extra commitments": decomposes the difference into
/// D digit commitments. Works for both qualified and unqualified values —
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
    let widths: Vec<u32> = digit_widths(ell).collect();
    let radix = sc.from_u64(1 << DIGIT_BITS);
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

    // Σ_{i≥1} 16ⁱ vᵢ, Horner-style: what digit 0 has to make up for.
    let high = |v: &[Scalar]| {
        v[1..]
            .iter()
            .rev()
            .fold(sc.zero(), |acc, vi| &(&acc + vi) * &radix)
    };

    // Randomness split: r₀ = base_r − Σ_{i≥1} 16ⁱ rᵢ so Σ 16ⁱ rᵢ = base_r.
    let mut randomness: Vec<Scalar> = std::iter::once(sc.zero()) // placeholder for r₀
        .chain((1..widths.len()).map(|_| sc.random(rng)))
        .collect();
    randomness[0] = &base_r - &high(&randomness);

    // Digit split: the radix-16 digits of |d| when satisfied; otherwise
    // random in-range high digits with the out-of-range remainder folded
    // into digit 0.
    let digits: Vec<Option<u8>> = if satisfied {
        let d_int = match dir {
            Direction::Ge => x - x0,
            Direction::Le => x0 - x,
        };
        (0..)
            .zip(&widths)
            .map(|(i, w)| Some(((d_int >> (DIGIT_BITS * i)) & ((1 << w) - 1)) as u8))
            .collect()
    } else {
        // d₀ lands in range only with negligible probability; treat it as
        // the out-of-range digit it almost surely is.
        let upper = widths[1..]
            .iter()
            .map(|w| Some((rng.next_u32() & ((1 << w) - 1)) as u8));
        std::iter::once(None).chain(upper).collect()
    };
    let mut digit_scalars: Vec<Scalar> = digits
        .iter()
        .map(|d| sc.from_u64(d.unwrap_or(0).into()))
        .collect();
    if !satisfied {
        digit_scalars[0] = &d_scalar - &high(&digit_scalars);
    }

    let pairs: Vec<(Scalar, Scalar)> = digit_scalars
        .into_iter()
        .zip(randomness.iter().cloned())
        .collect();
    let commitments = ped.commit_many_with(&pairs);
    Ok((
        BitProof { commitments },
        BitSecrets {
            ell,
            digits,
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
    let widths: Vec<u32> = digit_widths(ell).collect();
    if proof.commitments.len() != widths.len() {
        return Err(OcbeError::ProofShapeMismatch);
    }
    let group = ped.group();
    let sc = group.scalar_ctx().clone();
    // Consistency: Π cᵢ^{16ⁱ} must equal the difference commitment.
    let target = match dir {
        Direction::Ge => ped.shift_value(c, &sc.from_u64(x0)),
        Direction::Le => ped.shift_value_reversed(c, &sc.from_u64(x0)),
    };
    if ped.weighted_product(&proof.commitments) != target {
        return Err(OcbeError::InconsistentCommitments);
    }

    // Per-digit random key shares and the combined payload key.
    let key_shares: Vec<[u8; SHARE_LEN]> = widths
        .iter()
        .map(|_| {
            let mut k = [0u8; SHARE_LEN];
            rng.fill_bytes(&mut k);
            k
        })
        .collect();
    let master = sha256(&key_shares.concat());

    let y = group.random_nonzero_scalar(rng);
    let eta = group.exp_h(&y);
    // (cᵢ·g^{−j})^y = cᵢ^y · g^{−jy}: one exponentiation per digit, one
    // fixed-base shift for the whole envelope, and one group operation
    // per further share. The lowest digit is the widest.
    let g_neg_y = group.exp_g(&-&y);
    let digits: Vec<G::Elem> = proof
        .commitments
        .iter()
        .map(|c| c.element().clone())
        .collect();
    let steps = (1 << widths[0]) - 1;
    let sigmas = group.exp_shared_scalar_stepped(&digits, &y, &g_neg_y, steps);
    let shares = sigmas
        .chunks_exact(steps + 1)
        .zip(&widths)
        .zip(&key_shares)
        .flat_map(|((row, w), ki)| row[..1 << w].iter().map(|sigma| mask(group, sigma, ki)))
        .collect();
    let ciphertext = AuthKey::from_master(&master).encrypt(rng, payload);
    Ok(BitwiseEnvelope {
        eta,
        shares,
        ciphertext,
    })
}

/// Receiver step "open envelope": recovers the per-digit key shares with
/// the stored digits and randomness, reassembles the payload key, and
/// decrypts. `None` when the receiver's value did not satisfy the
/// predicate, or when the envelope does not carry `Σ 2^{wᵢ}` shares.
pub fn open<G: CyclicGroup>(
    group: &G,
    env: &BitwiseEnvelope<G>,
    secrets: &BitSecrets,
) -> Option<Vec<u8>> {
    let widths: Vec<u32> = digit_widths(secrets.ell).collect();
    if env.shares.len() != widths.iter().map(|w| 1usize << w).sum::<usize>() {
        return None;
    }
    // An out-of-range digit has no share to unmask: an unqualified
    // receiver stops here, before any exponentiation.
    let digits: Vec<usize> = secrets
        .digits
        .iter()
        .map(|d| d.map(usize::from))
        .collect::<Option<_>>()?;
    // σᵢ = η^{rᵢ}: D scalars under the one base η.
    let sigmas = group.exp_shared_base(&env.eta, &secrets.randomness);
    let mut concat = Vec::with_capacity(SHARE_LEN * digits.len());
    let mut row = 0;
    for ((w, d), sigma) in widths.iter().zip(digits).zip(&sigmas) {
        concat.extend_from_slice(&mask(group, sigma, &env.shares[row + d]));
        row += 1 << w;
    }
    let master = sha256(&concat);
    AuthKey::from_master(&master).decrypt(&env.ciphertext).ok()
}

/// `H(σ)[..16] ⊕ k`: masks a key share under `σ`, or unmasks it again.
fn mask<G: CyclicGroup>(group: &G, sigma: &G::Elem, k: &[u8; SHARE_LEN]) -> [u8; SHARE_LEN] {
    let h = sha256(&group.serialize(sigma));
    std::array::from_fn(|i| h[i] ^ k[i])
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
