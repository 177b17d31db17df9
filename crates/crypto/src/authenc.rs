//! Authenticated encryption: AES-256-CTR with HMAC-SHA-256, encrypt-then-MAC.
//!
//! Used wherever the paper calls for the semantically secure cipher `E`:
//! OCBE envelope payloads and encrypted subdocuments. The wire layout is
//! `nonce (12) ‖ ciphertext ‖ tag (32)`.

use crate::aes::Aes;
use crate::ct::ct_eq;
use crate::ctr::{ctr_xor, NONCE_LEN};
use crate::hmac::Hmac;
use crate::kdf::derive_key;
use rand::RngCore;

/// Tag length in bytes (full HMAC-SHA-256 output).
pub const TAG_LEN: usize = 32;

/// Decryption failure: the ciphertext was truncated or the tag did not match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuthDecryptError;

impl core::fmt::Display for AuthDecryptError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "authenticated decryption failed")
    }
}

impl std::error::Error for AuthDecryptError {}

/// A symmetric authenticated-encryption key.
///
/// The supplied master key material is stretched into independent
/// encryption and MAC keys via HKDF, so any byte string (e.g. a GKM group
/// key, or an OCBE session secret) can serve directly as key material.
#[derive(Clone)]
pub struct AuthKey {
    enc: Vec<u8>,
    mac: Vec<u8>,
}

impl AuthKey {
    /// Derives an authenticated-encryption key from arbitrary key material.
    pub fn from_master(master: &[u8]) -> Self {
        Self {
            enc: derive_key(master, "pbcd-authenc-enc", 32),
            mac: derive_key(master, "pbcd-authenc-mac", 32),
        }
    }

    /// Encrypts `plaintext` with a fresh random nonce.
    pub fn encrypt<R: RngCore + ?Sized>(&self, rng: &mut R, plaintext: &[u8]) -> Vec<u8> {
        let mut nonce = [0u8; NONCE_LEN];
        rng.fill_bytes(&mut nonce);
        self.encrypt_with_nonce(&nonce, plaintext)
    }

    /// Encrypts with an explicit nonce: the output is a pure function of
    /// key, nonce and plaintext. `pbcd_core`'s `Publisher::broadcast` calls
    /// this for every segment, with 96-bit nonces it draws fresh from the
    /// caller's RNG before any encryption, so its bytes do not depend on
    /// how the work is scheduled.
    ///
    /// **Never reuse a nonce under one key**: two messages under the same
    /// key and nonce share a keystream, which leaks the XOR of their
    /// plaintexts. Without a counter to guarantee uniqueness, draw each
    /// nonce at random as [`AuthKey::encrypt`] does.
    pub fn encrypt_with_nonce(&self, nonce: &[u8; NONCE_LEN], plaintext: &[u8]) -> Vec<u8> {
        let aes = Aes::new(&self.enc);
        let mut out = Vec::with_capacity(NONCE_LEN + plaintext.len() + TAG_LEN);
        out.extend_from_slice(nonce);
        let body_start = out.len();
        out.extend_from_slice(plaintext);
        ctr_xor(&aes, nonce, &mut out[body_start..]);
        let mut mac = Hmac::new(&self.mac);
        mac.update(&out);
        let tag = mac.finalize();
        out.extend_from_slice(&tag);
        out
    }

    /// Verifies and decrypts a message produced by [`AuthKey::encrypt`].
    pub fn decrypt(&self, message: &[u8]) -> Result<Vec<u8>, AuthDecryptError> {
        if message.len() < NONCE_LEN + TAG_LEN {
            return Err(AuthDecryptError);
        }
        let (body, tag) = message.split_at(message.len() - TAG_LEN);
        let mut mac = Hmac::new(&self.mac);
        mac.update(body);
        if !ct_eq(&mac.finalize(), tag) {
            return Err(AuthDecryptError);
        }
        let nonce: [u8; NONCE_LEN] = body[..NONCE_LEN].try_into().expect("length checked");
        let mut plaintext = body[NONCE_LEN..].to_vec();
        let aes = Aes::new(&self.enc);
        ctr_xor(&aes, &nonce, &mut plaintext);
        Ok(plaintext)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(77)
    }

    #[test]
    fn roundtrip() {
        let mut r = rng();
        let key = AuthKey::from_master(b"some master key material");
        for len in [0usize, 1, 16, 100, 5000] {
            let pt = vec![0x5au8; len];
            let ct = key.encrypt(&mut r, &pt);
            assert_eq!(ct.len(), NONCE_LEN + len + TAG_LEN);
            assert_eq!(key.decrypt(&ct).unwrap(), pt);
        }
    }

    #[test]
    fn tamper_detection() {
        let mut r = rng();
        let key = AuthKey::from_master(b"k");
        let ct = key.encrypt(&mut r, b"attack at dawn");
        for i in 0..ct.len() {
            let mut bad = ct.clone();
            bad[i] ^= 1;
            assert_eq!(key.decrypt(&bad), Err(AuthDecryptError), "byte {i}");
        }
    }

    #[test]
    fn truncation_detected() {
        let mut r = rng();
        let key = AuthKey::from_master(b"k");
        let ct = key.encrypt(&mut r, b"hello");
        for cut in [0usize, 1, NONCE_LEN, ct.len() - 1] {
            assert!(key.decrypt(&ct[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn wrong_key_fails() {
        let mut r = rng();
        let ct = AuthKey::from_master(b"right key").encrypt(&mut r, b"secret");
        assert!(AuthKey::from_master(b"wrong key").decrypt(&ct).is_err());
    }

    #[test]
    fn fresh_nonces_randomize_ciphertext() {
        let mut r = rng();
        let key = AuthKey::from_master(b"k");
        let c1 = key.encrypt(&mut r, b"same plaintext");
        let c2 = key.encrypt(&mut r, b"same plaintext");
        assert_ne!(c1, c2);
    }

    #[test]
    fn deterministic_with_explicit_nonce() {
        let key = AuthKey::from_master(b"k");
        let n = [3u8; NONCE_LEN];
        assert_eq!(
            key.encrypt_with_nonce(&n, b"msg"),
            key.encrypt_with_nonce(&n, b"msg")
        );
    }
}
