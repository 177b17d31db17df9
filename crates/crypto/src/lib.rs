//! # pbcd-crypto
//!
//! Symmetric cryptography for the PBCD workspace, implemented from scratch
//! and validated against published test vectors:
//!
//! * [`sha1`](mod@sha1) / [`sha256`](mod@sha256) — FIPS 180-4 hash functions (the paper's random
//!   oracle `H(·)`; the original system used OpenSSL SHA-1),
//! * [`hmac`](mod@hmac) — RFC 2104 MAC over any [`Hasher`],
//! * [`aes`] / [`ctr`] — FIPS 197 block cipher as a constant-time bitsliced
//!   kernel, eight blocks per call, + counter mode (the paper's semantically
//!   secure cipher `E`),
//! * [`kdf`] — RFC 5869 HKDF,
//! * [`authenc`] — encrypt-then-MAC authenticated encryption,
//! * [`ct`] — constant-time comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod authenc;
pub mod ct;
pub mod ctr;
pub mod hmac;
pub mod kdf;
pub mod sha1;
pub mod sha256;

/// A streaming hash function, generic glue for [`hmac::Hmac`] and protocol
/// code that is parameterized over the random-oracle instantiation.
pub trait Hasher: Default {
    /// Internal block length in bytes (HMAC padding unit).
    const BLOCK_LEN: usize;
    /// Digest length in bytes.
    const OUTPUT_LEN: usize;

    /// Absorbs data.
    fn update(&mut self, data: &[u8]);
    /// Finishes, returning `OUTPUT_LEN` bytes.
    fn finalize_vec(self) -> Vec<u8>;

    /// One-shot digest over the concatenation of `parts`.
    fn digest_concat(parts: &[&[u8]]) -> Vec<u8> {
        let mut h = Self::default();
        for p in parts {
            h.update(p);
        }
        h.finalize_vec()
    }
}

pub use aes::Aes;
pub use authenc::{AuthDecryptError, AuthKey, TAG_LEN};
pub use ct::ct_eq;
pub use ctr::{ctr_encrypt, ctr_xor, NONCE_LEN};
pub use hmac::{hmac, Hmac};
pub use kdf::{derive_key, hkdf, hkdf_expand, hkdf_extract};
pub use sha1::{sha1, Sha1};
pub use sha256::{sha256, sha256_concat, Sha256};
