//! Authenticated encryption: ChaCha20-Poly1305 (RFC 8439 §2.8) with empty
//! associated data.
//!
//! Used wherever the paper calls for the semantically secure cipher `E`:
//! OCBE envelope payloads and encrypted subdocuments. The wire layout is
//! `nonce (12) ‖ ciphertext ‖ tag (16)`.
//!
//! ChaCha20 block 0 under the message's nonce yields the one-time Poly1305
//! key; blocks 1.. encrypt. The tag is Poly1305 over
//! `ct ‖ pad16 ‖ le64(0) ‖ le64(len(ct))`, and decryption checks it in
//! constant time before it produces any plaintext.

use crate::chacha20::chacha20_block;
use crate::ct::ct_eq;
use crate::ctr::chacha20_xor;
use crate::kdf::derive_key;
use crate::poly1305::Poly1305;
use rand::RngCore;

pub use crate::chacha20::NONCE_LEN;
pub use crate::poly1305::TAG_LEN;

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
/// The supplied master key material is stretched into the 256-bit
/// ChaCha20-Poly1305 key via HKDF, so any byte string (e.g. a GKM group
/// key, or an OCBE session secret) can serve directly as key material.
#[derive(Clone)]
pub struct AuthKey {
    key: [u8; 32],
}

/// The RFC 8439 tag of `ct` under associated data `aad`, keyed by block 0.
fn aead_tag(key: &[u8; 32], nonce: &[u8; NONCE_LEN], aad: &[u8], ct: &[u8]) -> [u8; TAG_LEN] {
    let one_time_key: [u8; 32] = chacha20_block(key, 0, nonce)[..32]
        .try_into()
        .expect("32 of 64 bytes");
    let pad16 = |len: usize| &[0u8; 16][..(16 - len % 16) % 16];
    let mut mac = Poly1305::new(&one_time_key);
    mac.update(aad);
    mac.update(pad16(aad.len()));
    mac.update(ct);
    mac.update(pad16(ct.len()));
    mac.update(&(aad.len() as u64).to_le_bytes());
    mac.update(&(ct.len() as u64).to_le_bytes());
    mac.finalize()
}

impl AuthKey {
    /// Derives an authenticated-encryption key from arbitrary key material.
    pub fn from_master(master: &[u8]) -> Self {
        let key = derive_key(master, "pbcd-authenc-chacha20-poly1305", 32);
        Self {
            key: key.try_into().expect("32-byte derivation"),
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
    /// plaintexts, and a one-time Poly1305 key, which lets an observer
    /// forge tags. Without a counter to guarantee uniqueness, draw each
    /// nonce at random as [`AuthKey::encrypt`] does.
    ///
    /// Panics if `plaintext` is longer than ChaCha20's 32-bit block counter
    /// covers (256 GiB minus 64 bytes).
    pub fn encrypt_with_nonce(&self, nonce: &[u8; NONCE_LEN], plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(NONCE_LEN + plaintext.len() + TAG_LEN);
        out.extend_from_slice(nonce);
        out.extend_from_slice(plaintext);
        chacha20_xor(&self.key, nonce, 1, &mut out[NONCE_LEN..]);
        let tag = aead_tag(&self.key, nonce, &[], &out[NONCE_LEN..]);
        out.extend_from_slice(&tag);
        out
    }

    /// Verifies and decrypts a message produced by [`AuthKey::encrypt`].
    pub fn decrypt(&self, message: &[u8]) -> Result<Vec<u8>, AuthDecryptError> {
        if message.len() < NONCE_LEN + TAG_LEN {
            return Err(AuthDecryptError);
        }
        let (nonce, rest) = message.split_at(NONCE_LEN);
        let (ct, tag) = rest.split_at(rest.len() - TAG_LEN);
        let nonce: &[u8; NONCE_LEN] = nonce.try_into().expect("length checked");
        if !ct_eq(&aead_tag(&self.key, nonce, &[], ct), tag) {
            return Err(AuthDecryptError);
        }
        let mut plaintext = ct.to_vec();
        chacha20_xor(&self.key, nonce, 1, &mut plaintext);
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

    fn hex(s: &str) -> Vec<u8> {
        let s: String = s.split_whitespace().collect();
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn key_80_to_9f() -> [u8; 32] {
        core::array::from_fn(|i| 0x80 + i as u8)
    }

    const SUNSCREEN: &[u8] = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it.";

    #[test]
    fn rfc8439_one_time_key() {
        // §2.6.2: the first 32 bytes of block 0.
        let nonce = hex("000000000001020304050607").try_into().unwrap();
        assert_eq!(
            chacha20_block(&key_80_to_9f(), 0, &nonce)[..32],
            hex("8ad5a08b905f81cc815040274ab29471a833b637e3fd0da508dbb8e2fdd1a646")[..]
        );
    }

    #[test]
    fn rfc8439_aead() {
        // §2.8.2, the one vector with associated data.
        let key = key_80_to_9f();
        let nonce = hex("070000004041424344454647").try_into().unwrap();
        let aad = hex("50515253c0c1c2c3c4c5c6c7");
        let mut ct = SUNSCREEN.to_vec();
        chacha20_xor(&key, &nonce, 1, &mut ct);
        assert_eq!(
            ct,
            hex(
                "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6
                 3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36
                 92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc
                 3ff4def08e4b7a9de576d26586cec64b6116"
            )
        );
        assert_eq!(
            aead_tag(&key, &nonce, &aad, &ct)[..],
            hex("1ae10b594f09e26a7e902ecbd0600691")[..]
        );
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
