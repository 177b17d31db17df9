//! # pbcd-ocbe
//!
//! Oblivious Commitment-Based Envelope protocols (Li & Li, "OACerts";
//! paper §IV-C) — the privacy-preserving delivery mechanism for conditional
//! subscription secrets:
//!
//! * [`eq`] — EQ-OCBE for equality predicates,
//! * [`bitwise`] — GE-/LE-OCBE envelopes over radix-16 digits for inequalities,
//! * [`session`] — one API over all six comparison operators
//!   (`=, ≠, >, ≥, <, ≤`), with `>`/`<`/`≠` derived exactly as the paper
//!   prescribes,
//! * [`predicate`] — the predicate language.
//!
//! Guarantees (paper §VI-A): the receiver recovers the payload **iff** its
//! committed value satisfies the predicate; the sender learns nothing about
//! the value, *including* whether the envelope could be opened.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitwise;
pub mod eq;
pub mod error;
pub mod session;

/// Re-export of the predicate language from `pbcd-policy`.
pub use pbcd_policy::predicate;

pub use bitwise::{BitProof, BitSecrets, BitwiseEnvelope, Direction, SHARE_LEN};
pub use eq::EqEnvelope;
pub use error::OcbeError;
pub use predicate::{max_value, ComparisonOp, Predicate};
pub use session::{Envelope, OcbeSystem, ProofMessage, ProofSecrets};
