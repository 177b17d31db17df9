//! Schnorr signatures over any [`CyclicGroup`] backend.
//!
//! The Identity Manager signs identity tokens (`σ` in the paper's
//! `IT = (nym, id-tag, c, σ)`); the publisher verifies them during
//! registration. The scheme is the standard Fiat–Shamir Schnorr signature
//! in its **nonce-commitment form**: `R = g^k`, `e = H(R ‖ m)`,
//! `s = k + e·sk`, signature `(R, s)`.
//!
//! A [`VerifyingKey`] is prepared once when it is made
//! ([`CyclicGroup::prepare`]; on P-256 the key's own signed-digit comb), so
//! verifying `g^s · pk^{−e} = R` is one [`CyclicGroup::check`]: two table
//! walks and a projective compare.
//!
//! Transmitting `R` (rather than the challenge `e`) makes the verification
//! equation `g^s = R · pk^e` *linear* in the signature, which is what
//! enables [`verify_batch`]: a random linear combination of `n` such
//! equations under `k` distinct keys collapses to a single multi-scalar
//! multiplication of width `n + k + 1` ([`CyclicGroup::msm`]).

use crate::traits::{CyclicGroup, Scalar};
use pbcd_crypto::Sha256;
use rand::RngCore;
use std::sync::Arc;

/// A Schnorr signing/verification key pair.
#[derive(Clone)]
pub struct SigningKey<G: CyclicGroup> {
    sk: Scalar,
    vk: VerifyingKey<G>,
}

/// The public half of a [`SigningKey`], prepared for verification.
///
/// Build it once and keep it. Making a key prepares its table (on P-256
/// a signed-digit comb of 52 windows × 16 points ≈ 52 KiB, about 0.7 ms
/// to build on one CPU of a 2-core host), and clones share that table.
/// The identity is never a key.
pub struct VerifyingKey<G: CyclicGroup> {
    pk: G::Elem,
    prepared: Arc<G::Prepared>,
}

// Manual impls avoid requiring `G: PartialEq`/`Debug` — only the element
// (always comparable per the trait bounds) matters.
impl<G: CyclicGroup> Clone for VerifyingKey<G> {
    fn clone(&self) -> Self {
        Self {
            pk: self.pk.clone(),
            prepared: Arc::clone(&self.prepared),
        }
    }
}

impl<G: CyclicGroup> PartialEq for VerifyingKey<G> {
    fn eq(&self, other: &Self) -> bool {
        self.pk == other.pk
    }
}

impl<G: CyclicGroup> Eq for VerifyingKey<G> {}

impl<G: CyclicGroup> core::fmt::Debug for VerifyingKey<G> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "VerifyingKey({:?})", self.pk)
    }
}

/// A Schnorr signature `(R, s)`: the nonce commitment `R = g^k` and the
/// response scalar `s`.
pub struct Signature<G: CyclicGroup> {
    /// Nonce commitment `R = g^k`.
    pub big_r: G::Elem,
    /// Response scalar `s = k + e·sk`.
    pub s: Scalar,
}

impl<G: CyclicGroup> Clone for Signature<G> {
    fn clone(&self) -> Self {
        Self {
            big_r: self.big_r.clone(),
            s: self.s.clone(),
        }
    }
}

impl<G: CyclicGroup> PartialEq for Signature<G> {
    fn eq(&self, other: &Self) -> bool {
        self.big_r == other.big_r && self.s == other.s
    }
}

impl<G: CyclicGroup> Eq for Signature<G> {}

impl<G: CyclicGroup> core::fmt::Debug for Signature<G> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Signature(R={:?}, s={:?})", self.big_r, self.s)
    }
}

impl<G: CyclicGroup> SigningKey<G> {
    /// Generates a fresh key pair.
    pub fn generate<R: RngCore + ?Sized>(group: &G, rng: &mut R) -> Self {
        let sk = group.random_nonzero_scalar(rng);
        let vk = VerifyingKey::from_element(group, group.exp_g(&sk)).expect("sk is nonzero");
        Self { sk, vk }
    }

    /// The verification key; a clone sharing the prepared table.
    pub fn verifying_key(&self) -> VerifyingKey<G> {
        self.vk.clone()
    }

    /// Signs a message.
    pub fn sign<R: RngCore + ?Sized>(&self, group: &G, rng: &mut R, msg: &[u8]) -> Signature<G> {
        let k = group.random_nonzero_scalar(rng);
        let big_r = group.exp_g(&k);
        let e = challenge(group, &big_r, msg);
        let s = &k + &(&e * &self.sk);
        Signature { big_r, s }
    }
}

impl<G: CyclicGroup> VerifyingKey<G> {
    /// Prepares a raw public key element; `None` for the identity, under
    /// which any `(g^s, s)` would verify for every message.
    pub fn from_element(group: &G, pk: G::Elem) -> Option<Self> {
        if group.is_identity(&pk) {
            return None;
        }
        let prepared = Arc::new(group.prepare(&pk));
        Some(Self { pk, prepared })
    }

    /// The raw public key element.
    pub fn element(&self) -> &G::Elem {
        &self.pk
    }

    /// Canonical encoding of the public key.
    pub fn serialize(&self, group: &G) -> Vec<u8> {
        group.serialize(&self.pk)
    }

    /// Parses, validates and prepares an encoded public key; `None` for
    /// malformed bytes and for the identity.
    pub fn deserialize(group: &G, bytes: &[u8]) -> Option<Self> {
        Self::from_element(group, group.deserialize(bytes)?)
    }

    /// Verifies a signature: recompute the challenge from the transmitted
    /// nonce commitment and check `g^s · pk^{−e} = R` against the prepared
    /// key ([`CyclicGroup::check`]).
    pub fn verify(&self, group: &G, msg: &[u8], sig: &Signature<G>) -> bool {
        let e = challenge(group, &sig.big_r, msg);
        group.check(&sig.s, &self.prepared, &-&e, &sig.big_r)
    }
}

/// The Fiat–Shamir challenge `e = H(tag ‖ backend ‖ R ‖ m)`, reduced into
/// the scalar field. Public so that batch callers and tests can recompute
/// the per-item challenges a verifier would derive.
pub fn challenge<G: CyclicGroup>(group: &G, big_r: &G::Elem, msg: &[u8]) -> Scalar {
    let mut h = Sha256::new();
    h.update(b"pbcd-schnorr-v1:");
    h.update(group.name().as_bytes());
    h.update(&group.serialize(big_r));
    h.update(msg);
    group.scalar_ctx().from_be_bytes_reduced(&h.finalize())
}

/// Batch verification of `(pk, msg, sig)` triples with one
/// random-linear-combination check.
///
/// Every valid signature satisfies `g^{sᵢ} · Rᵢ^{−1} · pkᵢ^{−eᵢ} = 1`.
/// Call the left-hand side `δᵢ`; the batch check verifies
/// `Π δᵢ^{zᵢ} = 1` for coefficients `zᵢ` derived by hashing the *entire
/// batch transcript* (every key, message and signature) — so an adversary
/// must commit to all signatures before learning any coefficient, and
/// slipping in a forged signature (`δⱼ ≠ 1`) passes only if `zⱼ` happens
/// to hit the discrete log of `Π_{i≠j} δᵢ^{−zᵢ}` base `δⱼ` — probability
/// `1/q` over the coefficient space, i.e. negligible. Rearranged, with the
/// key coefficients summed per distinct key, the whole check is a single
/// multi-scalar multiplication of width `n + k + 1` for `k` keys (`n + 2`
/// for a registration cohort under the one IdMgr key):
///
/// ```text
/// Π Rᵢ^{zᵢ} · Π_pk pk^{Σ_{pkᵢ = pk} zᵢ·eᵢ} · g^{−Σ zᵢ·sᵢ} == identity
/// ```
///
/// An empty batch is vacuously valid. A `false` result only says *some*
/// signature in the batch is invalid; callers that need to attribute the
/// failure re-verify items individually ([`VerifyingKey::verify`]).
pub fn verify_batch<G: CyclicGroup>(
    group: &G,
    items: &[(&VerifyingKey<G>, &[u8], &Signature<G>)],
) -> bool {
    if items.is_empty() {
        return true;
    }
    // One item: the RLC degenerates to scaling a single verification
    // equation, so check it directly.
    if let [(vk, msg, sig)] = items {
        return vk.verify(group, msg, sig);
    }
    let sc = group.scalar_ctx();
    // Bind the coefficients to the full transcript.
    let mut t = Sha256::new();
    t.update(b"pbcd-schnorr-batch-v1:");
    t.update(group.name().as_bytes());
    for (vk, msg, sig) in items {
        t.update(&group.serialize(&vk.pk));
        t.update(&(msg.len() as u64).to_be_bytes());
        t.update(msg);
        t.update(&group.serialize(&sig.big_r));
        t.update(&sig.s.to_be_bytes());
    }
    let transcript = t.finalize();

    let mut terms = Vec::with_capacity(items.len() + 2);
    let mut keys: Vec<(&G::Elem, Scalar)> = Vec::new();
    let mut s_acc = sc.zero();
    for (i, (vk, msg, sig)) in items.iter().enumerate() {
        let mut h = Sha256::new();
        h.update(b"pbcd-schnorr-batch-coef:");
        h.update(&transcript);
        h.update(&(i as u64).to_be_bytes());
        let z = sc.from_be_bytes_reduced(&h.finalize());
        if z.is_zero() {
            // Probability 1/q; a zero coefficient would let item i skate.
            return items
                .iter()
                .all(|(vk, msg, sig)| vk.verify(group, msg, sig));
        }
        let e = challenge(group, &sig.big_r, msg);
        s_acc = &s_acc + &(&z * &sig.s);
        let ze = &z * &e;
        terms.push((sig.big_r.clone(), z));
        match keys.iter_mut().find(|(pk, _)| **pk == vk.pk) {
            Some((_, c)) => *c = &*c + &ze,
            None => keys.push((&vk.pk, ze)),
        }
    }
    terms.extend(keys.into_iter().map(|(pk, c)| (pk.clone(), c)));
    terms.push((group.generator(), -&s_acc));
    group.is_identity(&group.msm(&terms))
}

impl<G: CyclicGroup> Signature<G> {
    /// The length of [`Self::to_bytes`] for every signature
    /// [`SigningKey::sign`] makes: `R = g^k` for a nonzero `k` is never
    /// the identity, and both backends encode every other element at one
    /// length.
    pub fn encoded_len(group: &G) -> usize {
        group.serialize(&group.generator()).len() + 32
    }

    /// Canonical encoding: the group encoding of `R` followed by the
    /// 32-byte big-endian `s` (97 bytes total on P-256).
    pub fn to_bytes(&self, group: &G) -> Vec<u8> {
        let mut out = group.serialize(&self.big_r);
        out.extend_from_slice(&self.s.to_be_bytes());
        out
    }

    /// Parses the layout produced by [`Signature::to_bytes`], validating
    /// that `R` is a group element and `s` a canonical scalar.
    pub fn from_bytes(group: &G, bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 33 {
            return None;
        }
        let (r_bytes, s_bytes) = bytes.split_at(bytes.len() - 32);
        let big_r = group.deserialize(r_bytes)?;
        let ctx = group.scalar_ctx();
        let s = pbcd_math::U256::from_be_bytes(s_bytes)?;
        if &s >= ctx.modulus() {
            return None;
        }
        Some(Self {
            big_r,
            s: ctx.from_uint(&s),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modp::ModpGroup;
    use crate::p256::P256Group;
    use rand::SeedableRng;

    fn check_backend<G: CyclicGroup>(group: G) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(55);
        let key = SigningKey::generate(&group, &mut rng);
        let vk = key.verifying_key();
        let msg = b"identity token: nym=pn-1492 tag=age c=...";
        let sig = key.sign(&group, &mut rng, msg);
        assert!(vk.verify(&group, msg, &sig));
        // Wrong message.
        assert!(!vk.verify(&group, b"different message", &sig));
        // Wrong key.
        let other = SigningKey::generate(&group, &mut rng).verifying_key();
        assert!(!other.verify(&group, msg, &sig));
        // Tampered signature.
        let bad = Signature {
            big_r: sig.big_r.clone(),
            s: &sig.s + &group.scalar_ctx().one(),
        };
        assert!(!vk.verify(&group, msg, &bad));
        // Serialization roundtrip.
        let enc = sig.to_bytes(&group);
        assert_eq!(enc.len(), Signature::encoded_len(&group));
        let dec = Signature::from_bytes(&group, &enc).unwrap();
        assert!(vk.verify(&group, msg, &dec));
        assert_eq!(Signature::from_bytes(&group, &enc[..enc.len() - 1]), None);
        // Public key roundtrip.
        let vk2 = VerifyingKey::<G>::deserialize(&group, &vk.serialize(&group)).unwrap();
        assert!(vk2.verify(&group, msg, &sig));
    }

    fn check_batch_backend<G: CyclicGroup>(group: G) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(57);
        let keys: Vec<_> = (0..5)
            .map(|_| SigningKey::generate(&group, &mut rng))
            .collect();
        let msgs: Vec<Vec<u8>> = (0..5).map(|i| format!("msg-{i}").into_bytes()).collect();
        let sigs: Vec<_> = keys
            .iter()
            .zip(&msgs)
            .map(|(k, m)| k.sign(&group, &mut rng, m))
            .collect();
        let vks: Vec<_> = keys.iter().map(SigningKey::verifying_key).collect();
        let items: Vec<(&VerifyingKey<G>, &[u8], &Signature<G>)> = vks
            .iter()
            .zip(&msgs)
            .zip(&sigs)
            .map(|((vk, m), s)| (vk, m.as_slice(), s))
            .collect();
        assert!(verify_batch(&group, &items));
        assert!(verify_batch::<G>(&group, &[]), "empty batch is valid");
        assert!(verify_batch(&group, &items[..1]), "singleton batch");

        // One forged signature poisons the whole batch.
        let mut forged = sigs.clone();
        forged[3].s = &forged[3].s + &group.scalar_ctx().one();
        let bad_items: Vec<(&VerifyingKey<G>, &[u8], &Signature<G>)> = vks
            .iter()
            .zip(&msgs)
            .zip(&forged)
            .map(|((vk, m), s)| (vk, m.as_slice(), s))
            .collect();
        assert!(!verify_batch(&group, &bad_items));

        // A signature transplanted onto the wrong message also fails.
        let mut swapped_msgs = msgs.clone();
        swapped_msgs.swap(0, 1);
        let swapped: Vec<(&VerifyingKey<G>, &[u8], &Signature<G>)> = vks
            .iter()
            .zip(&swapped_msgs)
            .zip(&sigs)
            .map(|((vk, m), s)| (vk, m.as_slice(), s))
            .collect();
        assert!(!verify_batch(&group, &swapped));
    }

    #[test]
    fn p256_signatures() {
        check_backend(P256Group::new());
    }

    #[test]
    fn modp_signatures() {
        check_backend(ModpGroup::new());
    }

    #[test]
    fn p256_batch_verification() {
        check_batch_backend(P256Group::new());
    }

    #[test]
    fn modp_batch_verification() {
        check_batch_backend(ModpGroup::new());
    }

    #[test]
    fn signatures_are_randomized_but_stable() {
        let group = P256Group::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(56);
        let key = SigningKey::generate(&group, &mut rng);
        let s1 = key.sign(&group, &mut rng, b"m");
        let s2 = key.sign(&group, &mut rng, b"m");
        assert_ne!(s1, s2, "fresh nonce each signature");
        assert!(key.verifying_key().verify(&group, b"m", &s1));
        assert!(key.verifying_key().verify(&group, b"m", &s2));
    }
}
