//! # pbcd-crypto
//!
//! Symmetric cryptography for the PBCD workspace, implemented from scratch
//! and validated against published test vectors:
//!
//! * [`sha256`](mod@sha256) — the FIPS 180-4 hash function (the paper's
//!   random oracle `H(·)`),
//! * [`hmac`](mod@hmac) — RFC 2104 MAC over SHA-256,
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
pub mod sha256;

pub use aes::Aes;
pub use authenc::{AuthDecryptError, AuthKey, TAG_LEN};
pub use ct::ct_eq;
pub use ctr::{ctr_encrypt, ctr_xor, NONCE_LEN};
pub use hmac::{hmac, Hmac};
pub use kdf::{derive_key, hkdf, hkdf_expand, hkdf_extract};
pub use sha256::{sha256, sha256_concat, Sha256};
