//! The GE/LE-OCBE sender and receiver against a per-share reference.
//!
//! `bitwise::{compose, open}` run on the group's batched primitives (one
//! exponentiation per radix-16 digit, stepped through its shares by one
//! `g^{−y}` shift, and one table for `η`). The reference below is the
//! textbook loop of paper §IV-C over the same digits — one exponentiation
//! per share to compose, one `η^{rᵢ}` per digit to open — and must produce
//! the same bytes from the same seed, on both backends, including on
//! proofs and envelopes a hostile peer would send. Two SHA-256 pins keep
//! the envelope format itself from drifting. They were taken from the
//! per-digit implementation before it was replaced, and moved four times
//! since: when the envelope's AEAD became ChaCha20-Poly1305 (its 16-byte
//! tag replaced HMAC-SHA-256's 32), when the digits went from bits to
//! radix 8 (`⌈ℓ/3⌉` commitments of `2^{wᵢ}` shares each), when the seeded
//! `StdRng` became the ChaCha20 keystream, and when the digits went to
//! radix 16 with 16-byte keys and shares (`⌈ℓ/4⌉` commitments,
//! `Cᵢʲ = H(σ)[..16] ⊕ kᵢ`).

use pbcd_commit::{Commitment, Opening, Pedersen};
use pbcd_crypto::{sha256, AuthKey};
use pbcd_group::{CyclicGroup, ModpGroup, P256Group, Scalar};
use pbcd_ocbe::bitwise::{compose, open, prepare, DIGIT_BITS, SHARE_LEN};
use pbcd_ocbe::{BitProof, BitwiseEnvelope, Direction, OcbeError};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

const PAYLOAD: &[u8] = b"conditional subscription secret";

/// `H(σ)[..SHARE_LEN] ⊕ k`.
fn mask<G: CyclicGroup>(group: &G, sigma: &G::Elem, k: &[u8; SHARE_LEN]) -> [u8; SHARE_LEN] {
    let h = sha256(&group.serialize(sigma));
    std::array::from_fn(|i| h[i] ^ k[i])
}

/// The digit widths for ℓ, least-significant first: ℓ's bits cut into
/// runs of `DIGIT_BITS` from the bottom, the top run taking what is left.
fn widths(ell: u32) -> Vec<u32> {
    let mut out = Vec::new();
    let mut left = ell;
    while left > 0 {
        out.push(left.min(DIGIT_BITS));
        left -= left.min(DIGIT_BITS);
    }
    out
}

/// The per-share sender: `Cᵢʲ = H((cᵢ·g^{−j})^y)[..16] ⊕ kᵢ` computed as
/// written, for `j < 2^{wᵢ}`.
#[allow(clippy::too_many_arguments)] // mirrors `bitwise::compose`
fn reference_compose<G: CyclicGroup>(
    ped: &Pedersen<G>,
    c: &Commitment<G>,
    x0: u64,
    ell: u32,
    dir: Direction,
    proof: &BitProof<G>,
    payload: &[u8],
    rng: &mut StdRng,
) -> Result<BitwiseEnvelope<G>, OcbeError> {
    let group = ped.group();
    let sc = group.scalar_ctx();
    let target = match dir {
        Direction::Ge => ped.shift_value(c, &sc.from_u64(x0)),
        Direction::Le => ped.shift_value_reversed(c, &sc.from_u64(x0)),
    };
    if ped.weighted_product(&proof.commitments) != target {
        return Err(OcbeError::InconsistentCommitments);
    }
    let key_shares: Vec<[u8; SHARE_LEN]> = proof
        .commitments
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
    let mut shares = Vec::new();
    for ((ci, ki), w) in proof.commitments.iter().zip(&key_shares).zip(widths(ell)) {
        for j in 0..1u64 << w {
            let shifted = group.div(ci.element(), &group.exp_g(&sc.from_u64(j)));
            let sigma = group.exp(&shifted, &y);
            shares.push(mask(group, &sigma, ki));
        }
    }
    let ciphertext = AuthKey::from_master(&master).encrypt(rng, payload);
    Ok(BitwiseEnvelope {
        eta,
        shares,
        ciphertext,
    })
}

/// The per-digit receiver: `kᵢ = H(η^{rᵢ})[..16] ⊕ Cᵢ^{dᵢ}`, one exponentiation
/// per digit, reading digit `i`'s shares after the `2^{wₘ}` of every
/// lower digit `m`.
fn reference_open<G: CyclicGroup>(
    group: &G,
    env: &BitwiseEnvelope<G>,
    ell: u32,
    digits: &[u64],
    randomness: &[Scalar],
) -> Option<Vec<u8>> {
    let mut concat = Vec::new();
    let mut first = 0;
    for ((w, d), r) in widths(ell).into_iter().zip(digits).zip(randomness) {
        let sigma = group.exp(&env.eta, r);
        let share = env.shares.get(first + *d as usize)?;
        concat.extend_from_slice(&mask(group, &sigma, share));
        first += 1 << w;
    }
    AuthKey::from_master(&sha256(&concat))
        .decrypt(&env.ciphertext)
        .ok()
}

/// A qualified receiver's radix-16 digits and digit randomness, rebuilt
/// outside `prepare` from a copy of the RNG it is about to consume: `rᵢ`
/// drawn in order for `i ≥ 1`, and `r₀ = ±r − Σ 16ⁱ rᵢ`.
fn qualified_secrets<G: CyclicGroup>(
    group: &G,
    d: u64,
    ell: u32,
    dir: Direction,
    opening: &Opening,
    mut rng: StdRng,
) -> (Vec<u64>, Vec<Scalar>) {
    let sc = group.scalar_ctx();
    let radix = sc.from_u64(1 << DIGIT_BITS);
    let (mut acc, mut weight) = (sc.zero(), radix.clone());
    let mut randomness = vec![sc.zero()];
    for _ in 1..widths(ell).len() {
        let r = sc.random(&mut rng);
        acc = &acc + &(&weight * &r);
        weight = &weight * &radix;
        randomness.push(r);
    }
    let base = match dir {
        Direction::Ge => opening.randomness.clone(),
        Direction::Le => -&opening.randomness,
    };
    randomness[0] = &base - &acc;
    let digits = (0..widths(ell).len() as u32)
        .map(|i| (d >> (DIGIT_BITS * i)) & ((1 << DIGIT_BITS) - 1))
        .collect();
    (digits, randomness)
}

fn envelope_bytes<G: CyclicGroup>(group: &G, env: &BitwiseEnvelope<G>) -> Vec<u8> {
    let mut out = group.serialize(&env.eta);
    out.extend_from_slice(&env.shares.concat());
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
    let (digits, randomness) = qualified_secrets(&group, d, ell, dir, &opening, rng.clone());
    let (proof, secrets) = prepare(&ped, x, &opening, x0, ell, dir, &mut rng).unwrap();

    let mut reference_rng = rng.clone();
    let env = compose(&ped, &c, x0, ell, dir, &proof, PAYLOAD, &mut rng).unwrap();
    let reference =
        reference_compose(&ped, &c, x0, ell, dir, &proof, PAYLOAD, &mut reference_rng).unwrap();
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
        reference_open(&group, &env, ell, &digits, &randomness).as_deref(),
        Some(PAYLOAD)
    );
    hex(&sha256(&bytes))
}

#[test]
fn seeded_envelopes_are_byte_identical_to_the_reference() {
    // Golden pins: the per-digit `compose` this file keeps as the reference
    // produced these envelopes before it was replaced. Both moved twice
    // since: when the seeded `StdRng` became the ChaCha20 keystream in
    // place of xoshiro256** (new openings, key shares and nonces), and
    // when the digits went to radix 16 with 16-byte keys and shares.
    assert_eq!(
        seeded_round(P256Group::new(), 0x0CBE_0048, 9, 5, 48, Direction::Ge),
        "aa5317235e89f5fb4d57905b368a2d91db4022b6805717d61b3f7e02fb5737b0"
    );
    assert_eq!(
        seeded_round(ModpGroup::new(), 0x0CBE_0008, 77, 200, 8, Direction::Le),
        "b75bd8d13faf569fb2a0c203c61340bacc3981550b8983e4601bfefc8a02f10e"
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
    elems[0] = group.div(target.element(), &group.prod_horner(&elems, DIGIT_BITS));
    BitProof {
        commitments: elems.into_iter().map(Commitment::from_element).collect(),
    }
}

fn check_hostile_inputs<G: CyclicGroup>(group: G, seed: u64) {
    // Three digits, so the hostile proof has a digit 2 to set.
    let (x, x0, ell, dir) = (200, 100, 12, Direction::Ge);
    let ped = Pedersen::new(group.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    let (c, opening) = ped.commit_u64(x, &mut rng);
    let (digits, randomness) = qualified_secrets(&group, x - x0, ell, dir, &opening, rng.clone());
    let (honest, secrets) = prepare(&ped, x, &opening, x0, ell, dir, &mut rng).unwrap();

    // Sender side: degenerate digit commitments.
    let proof = hostile_proof(&ped, &c, x0, &honest);
    let mut reference_rng = rng.clone();
    let env = compose(&ped, &c, x0, ell, dir, &proof, PAYLOAD, &mut rng).unwrap();
    let reference =
        reference_compose(&ped, &c, x0, ell, dir, &proof, PAYLOAD, &mut reference_rng).unwrap();
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
        assert_eq!(
            reference_open(&group, &env, ell, &digits, &randomness),
            None
        );
    }
}

#[test]
fn hostile_inputs_match_the_reference_without_panicking() {
    check_hostile_inputs(P256Group::new(), 0xBAD_5EED);
    check_hostile_inputs(ModpGroup::new(), 0xBAD_5EEE);
}

/// A receiver at `x = 2^ℓ + 5`, above every ℓ-bit value, that writes its
/// top digit one past the top digit's width (`16^{D−1}·2^{w_{D−1}} = 2^ℓ`)
/// and 5 in digit 0. The sender's check only sees `Π cᵢ^{16ⁱ}`, so the
/// proof passes and `compose` matches the reference byte for byte; but the
/// top digit has no share at that index, and none of the shares it does
/// have opens the envelope.
fn check_wide_top_digit<G: CyclicGroup>(group: G, ell: u32, seed: u64) {
    let ped = Pedersen::new(group.clone());
    let sc = group.scalar_ctx();
    let mut rng = StdRng::seed_from_u64(seed);
    let (x, x0, dir) = ((1u64 << ell) + 5, 0, Direction::Ge);
    let (c, opening) = ped.commit_u64(x, &mut rng);
    let top = widths(ell).len() - 1;
    let mut digits = vec![0u64; top + 1];
    digits[0] = 5;
    digits[top] = 1 << widths(ell)[top];
    let (_, randomness) = qualified_secrets(&group, 0, ell, dir, &opening, rng.clone());
    let pairs: Vec<(Scalar, Scalar)> = digits
        .iter()
        .map(|d| sc.from_u64(*d))
        .zip(randomness.iter().cloned())
        .collect();
    let proof = BitProof {
        commitments: ped.commit_many_with(&pairs),
    };

    let mut reference_rng = rng.clone();
    let env = compose(&ped, &c, x0, ell, dir, &proof, PAYLOAD, &mut rng)
        .expect("the wide top digit passes the sender's check");
    let reference =
        reference_compose(&ped, &c, x0, ell, dir, &proof, PAYLOAD, &mut reference_rng).unwrap();
    assert_eq!(
        envelope_bytes(&group, &env),
        envelope_bytes(&group, &reference)
    );
    assert_eq!(
        reference_open(&group, &env, ell, &digits, &randomness),
        None
    );
    for j in 0..1 << widths(ell)[top] {
        digits[top] = j;
        assert_eq!(
            reference_open(&group, &env, ell, &digits, &randomness),
            None,
            "ℓ={ell} top share {j}"
        );
    }
}

#[test]
fn a_top_digit_wider_than_its_width_opens_nothing() {
    // ℓ = 5 is the narrowest two-digit width (a 1-bit top digit).
    check_wide_top_digit(P256Group::new(), 5, 0x71DE_0004);
    check_wide_top_digit(P256Group::new(), 62, 0x71DE_0062);
    check_wide_top_digit(ModpGroup::new(), 5, 0x71DE_1004);
}
