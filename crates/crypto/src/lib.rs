//! # pbcd-crypto
//!
//! Symmetric cryptography for the PBCD workspace, implemented from scratch
//! and validated against published test vectors:
//!
//! * [`sha256`](mod@sha256) — the FIPS 180-4 hash function (the paper's
//!   random oracle `H(·)`),
//! * [`blake2b`] — the RFC 7693 hash at a 32-byte output, unkeyed: the
//!   digest of the container a signed publish signs,
//! * [`hmac`](mod@hmac) — RFC 2104 MAC over SHA-256,
//! * [`chacha20`](mod@chacha20) / [`ctr`] — the RFC 8439 stream cipher:
//!   one constant-time ARX block per call, run in counter mode,
//! * [`poly1305`](mod@poly1305) — the RFC 8439 one-time authenticator on
//!   44/44/42-bit limbs,
//! * [`kdf`] — RFC 5869 HKDF,
//! * [`authenc`] — the ChaCha20-Poly1305 AEAD (the paper's semantically
//!   secure cipher `E`),
//! * [`ct`] — constant-time comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod authenc;
pub mod blake2b;
pub mod chacha20;
pub mod ct;
pub mod ctr;
pub mod hmac;
pub mod kdf;
pub mod poly1305;
pub mod sha256;

pub use authenc::{AuthDecryptError, AuthKey, NONCE_LEN, TAG_LEN};
pub use chacha20::chacha20_block;
pub use ct::ct_eq;
pub use ctr::chacha20_xor;
pub use hmac::{hmac, Hmac};
pub use kdf::{derive_key, hkdf, hkdf_expand, hkdf_extract};
pub use poly1305::poly1305;
pub use sha256::{sha256, sha256_concat, Sha256};
