//! # pbcd-group
//!
//! Prime-order cyclic groups for the PBCD workspace. The paper instantiated
//! its protocols over the Jacobian group of a genus-2 hyperelliptic curve;
//! this crate provides the same abstract interface ([`CyclicGroup`]) with
//! two from-scratch backends:
//!
//! * [`p256::P256Group`] — NIST P-256 elliptic curve (default),
//! * [`modp::ModpGroup`] — RFC 5114 1024/160 modp Schnorr group,
//!
//! plus [`schnorr_sig`] — Schnorr signatures used by the Identity Manager
//! to certify identity tokens and by publishers to sign broker publishes —
//! and [`blake2b_256`], the digest a signed publish carries in place of its
//! container (re-exported here so the broker reaches it through its one
//! `pbcd_group` dependency).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod modp;
pub mod ops;
pub mod p256;
pub mod p256_field;
pub mod schnorr_sig;
pub mod traits;

pub use modp::{ModpElem, ModpGroup};
pub use p256::{P256Group, P256Point};
pub use pbcd_crypto::blake2b::blake2b_256;
pub use schnorr_sig::{challenge, verify_batch, Signature, SigningKey, VerifyingKey};
pub use traits::{CyclicGroup, Scalar, ScalarCtx};
