//! The bitwise OCBE sender and receiver against a per-digit reference.
//!
//! `bitwise::{compose, open}` run on the group's batched primitives (one
//! exponentiation and one `g^{−y}` shift per digit, one table for `η`).
//! The reference below is the textbook loop of paper §IV-C — two
//! exponentiations per digit to compose, one `η^{rᵢ}` per digit to open —
//! and must produce the same bytes from the same seed, on both backends,
//! including on proofs and envelopes a hostile peer would send. Two
//! SHA-256 pins, taken from the per-digit implementation before it was
//! replaced, keep the envelope format itself from drifting. They moved
//! once since, when the envelope's AEAD became ChaCha20-Poly1305 (its
//! 16-byte tag replaced HMAC-SHA-256's 32).

use pbcd_commit::{Commitment, Opening, Pedersen};
use pbcd_crypto::{sha256, AuthKey};
use pbcd_group::{CyclicGroup, ModpGroup, P256Group, Scalar};
use pbcd_ocbe::bitwise::{compose, open, prepare};
use pbcd_ocbe::{BitProof, BitwiseEnvelope, Direction, OcbeError};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

const PAYLOAD: &[u8] = b"conditional subscription secret";

fn xor32(a: &[u8; 32], b: &[u8; 32]) -> [u8; 32] {
    std::array::from_fn(|i| a[i] ^ b[i])
}

/// The per-digit sender: `Cᵢʲ = H((cᵢ·g^{−j})^y) ⊕ kᵢ` computed as written.
#[allow(clippy::too_many_arguments)] // mirrors `bitwise::compose`
fn reference_compose<G: CyclicGroup>(
    ped: &Pedersen<G>,
    c: &Commitment<G>,
    x0: u64,
    dir: Direction,
    proof: &BitProof<G>,
    payload: &[u8],
    rng: &mut StdRng,
) -> Result<BitwiseEnvelope<G>, OcbeError> {
    let group = ped.group();
    let x0 = group.scalar_ctx().from_u64(x0);
    let target = match dir {
        Direction::Ge => ped.shift_value(c, &x0),
        Direction::Le => ped.shift_value_reversed(c, &x0),
    };
    if ped.weighted_product(&proof.commitments) != target {
        return Err(OcbeError::InconsistentCommitments);
    }
    let key_shares: Vec<[u8; 32]> = proof
        .commitments
        .iter()
        .map(|_| {
            let mut k = [0u8; 32];
            rng.fill_bytes(&mut k);
            k
        })
        .collect();
    let master = sha256(&key_shares.concat());
    let y = group.random_nonzero_scalar(rng);
    let eta = group.exp_h(&y);
    let g_inv = group.inv(&group.generator());
    let shares = proof
        .commitments
        .iter()
        .zip(&key_shares)
        .map(|(ci, ki)| {
            let sigma0 = group.exp(ci.element(), &y);
            let sigma1 = group.exp(&group.op(ci.element(), &g_inv), &y);
            [
                xor32(&sha256(&group.serialize(&sigma0)), ki),
                xor32(&sha256(&group.serialize(&sigma1)), ki),
            ]
        })
        .collect();
    let ciphertext = AuthKey::from_master(&master).encrypt(rng, payload);
    Ok(BitwiseEnvelope {
        eta,
        shares,
        ciphertext,
    })
}

/// The per-digit receiver: `kᵢ = H(η^{rᵢ}) ⊕ Cᵢ^{dᵢ}`, one exponentiation
/// per digit.
fn reference_open<G: CyclicGroup>(
    group: &G,
    env: &BitwiseEnvelope<G>,
    bits: &[u8],
    randomness: &[Scalar],
) -> Option<Vec<u8>> {
    let mut concat = Vec::new();
    for ((share, bit), r) in env.shares.iter().zip(bits).zip(randomness) {
        let sigma = group.exp(&env.eta, r);
        concat.extend_from_slice(&xor32(
            &sha256(&group.serialize(&sigma)),
            &share[*bit as usize],
        ));
    }
    AuthKey::from_master(&sha256(&concat))
        .decrypt(&env.ciphertext)
        .ok()
}

/// A qualified receiver's digit bits and digit randomness, rebuilt outside
/// `prepare` from a copy of the RNG it is about to consume: `rᵢ` drawn in
/// order for `i ≥ 1`, and `r₀ = ±r − Σ 2ⁱ rᵢ`.
fn qualified_secrets<G: CyclicGroup>(
    group: &G,
    d: u64,
    ell: u32,
    dir: Direction,
    opening: &Opening,
    mut rng: StdRng,
) -> (Vec<u8>, Vec<Scalar>) {
    let sc = group.scalar_ctx();
    let two = sc.from_u64(2);
    let (mut acc, mut weight) = (sc.zero(), two.clone());
    let mut randomness = vec![sc.zero()];
    for _ in 1..ell {
        let r = sc.random(&mut rng);
        acc = &acc + &(&weight * &r);
        weight = &weight * &two;
        randomness.push(r);
    }
    let base = match dir {
        Direction::Ge => opening.randomness.clone(),
        Direction::Le => -&opening.randomness,
    };
    randomness[0] = &base - &acc;
    let bits = (0..ell).map(|i| ((d >> i) & 1) as u8).collect();
    (bits, randomness)
}

fn envelope_bytes<G: CyclicGroup>(group: &G, env: &BitwiseEnvelope<G>) -> Vec<u8> {
    let mut out = group.serialize(&env.eta);
    for share in &env.shares {
        out.extend_from_slice(&share[0]);
        out.extend_from_slice(&share[1]);
    }
    out.extend_from_slice(&env.ciphertext);
    out
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// One seeded qualified round through both implementations; returns the
/// SHA-256 of the envelope.
fn seeded_round<G: CyclicGroup>(
    group: G,
    seed: u64,
    x: u64,
    x0: u64,
    ell: u32,
    dir: Direction,
) -> String {
    let ped = Pedersen::new(group.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    let (c, opening) = ped.commit_u64(x, &mut rng);
    let d = match dir {
        Direction::Ge => x - x0,
        Direction::Le => x0 - x,
    };
    let (bits, randomness) = qualified_secrets(&group, d, ell, dir, &opening, rng.clone());
    let (proof, secrets) = prepare(&ped, x, &opening, x0, ell, dir, &mut rng).unwrap();

    let mut reference_rng = rng.clone();
    let env = compose(&ped, &c, x0, ell, dir, &proof, PAYLOAD, &mut rng).unwrap();
    let reference =
        reference_compose(&ped, &c, x0, dir, &proof, PAYLOAD, &mut reference_rng).unwrap();
    let bytes = envelope_bytes(&group, &env);
    assert_eq!(
        bytes,
        envelope_bytes(&group, &reference),
        "{}",
        group.name()
    );
    // Both consumed the same draws: key shares, y, AEAD nonce.
    assert_eq!(rng.next_u64(), reference_rng.next_u64());

    assert_eq!(open(&group, &env, &secrets).as_deref(), Some(PAYLOAD));
    assert_eq!(
        reference_open(&group, &env, &bits, &randomness).as_deref(),
        Some(PAYLOAD)
    );
    hex(&sha256(&bytes))
}

#[test]
fn seeded_envelopes_are_byte_identical_to_the_reference() {
    // Golden pins: the per-digit `compose` this file keeps as the reference
    // produced these envelopes before it was replaced.
    assert_eq!(
        seeded_round(P256Group::new(), 0x0CBE_0048, 9, 5, 48, Direction::Ge),
        "3d98bb5bdca69c6ee3652657022e4235f6c208a41526f4b8401d83e2b85c8670"
    );
    assert_eq!(
        seeded_round(ModpGroup::new(), 0x0CBE_0008, 77, 200, 8, Direction::Le),
        "10bd1384758a55783da3407d03263442ae9902a7b1fd732082be215761baeae0"
    );
    seeded_round(P256Group::new(), 0x0CBE_1008, 3, 3, 8, Direction::Le);
    seeded_round(
        ModpGroup::new(),
        0x0CBE_1048,
        (1 << 48) - 1,
        0,
        48,
        Direction::Ge,
    );
}

/// A proof that passes the sender's consistency check although digit 1 is
/// the identity and digit 2 is `g` (so `c₂·g⁻¹` is the identity): digit 0
/// is solved for from the others.
fn hostile_proof<G: CyclicGroup>(
    ped: &Pedersen<G>,
    c: &Commitment<G>,
    x0: u64,
    honest: &BitProof<G>,
) -> BitProof<G> {
    let group = ped.group();
    let mut elems: Vec<G::Elem> = honest
        .commitments
        .iter()
        .map(|c| c.element().clone())
        .collect();
    elems[0] = group.identity();
    elems[1] = group.identity();
    elems[2] = group.generator();
    let target = ped.shift_value(c, &group.scalar_ctx().from_u64(x0));
    elems[0] = group.div(target.element(), &group.prod_pow2(&elems));
    BitProof {
        commitments: elems.into_iter().map(Commitment::from_element).collect(),
    }
}

fn check_hostile_inputs<G: CyclicGroup>(group: G, seed: u64) {
    let (x, x0, ell, dir) = (200, 100, 8, Direction::Ge);
    let ped = Pedersen::new(group.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    let (c, opening) = ped.commit_u64(x, &mut rng);
    let (bits, randomness) = qualified_secrets(&group, x - x0, ell, dir, &opening, rng.clone());
    let (honest, secrets) = prepare(&ped, x, &opening, x0, ell, dir, &mut rng).unwrap();

    // Sender side: degenerate digit commitments.
    let proof = hostile_proof(&ped, &c, x0, &honest);
    let mut reference_rng = rng.clone();
    let env = compose(&ped, &c, x0, ell, dir, &proof, PAYLOAD, &mut rng).unwrap();
    let reference =
        reference_compose(&ped, &c, x0, dir, &proof, PAYLOAD, &mut reference_rng).unwrap();
    assert_eq!(
        envelope_bytes(&group, &env),
        envelope_bytes(&group, &reference),
        "{}",
        group.name()
    );

    // Receiver side: a degenerate η on an otherwise honest envelope.
    let honest_env = compose(&ped, &c, x0, ell, dir, &honest, PAYLOAD, &mut rng).unwrap();
    for eta in [group.identity(), group.generator()] {
        let env = BitwiseEnvelope {
            eta,
            ..honest_env.clone()
        };
        assert_eq!(open(&group, &env, &secrets), None);
        assert_eq!(reference_open(&group, &env, &bits, &randomness), None);
    }
}

#[test]
fn hostile_inputs_match_the_reference_without_panicking() {
    check_hostile_inputs(P256Group::new(), 0xBAD_5EED);
    check_hostile_inputs(ModpGroup::new(), 0xBAD_5EEE);
}
