//! # pbcd-math
//!
//! Mathematical substrate for the PBCD workspace (a Rust reproduction of
//! Shang–Nabeel–Paci–Bertino, *"A Privacy-Preserving Approach to Policy-Based
//! Content Dissemination"*, ICDE 2010):
//!
//! * [`uint`] — fixed-width big integers on 64-bit limbs (`Uint<L>`),
//! * [`mont`] — Montgomery-form modular arithmetic ([`MontCtx`]) with
//!   sliding-window / simultaneous exponentiation and batched inversion,
//! * [`pow`] — fixed-base exponentiation tables ([`FixedBaseTable`]),
//! * [`fp`] — ergonomic prime-field elements with shared contexts,
//! * [`linalg`] — dense elimination / null-space solving over `F_q`
//!   (the role NTL's `kernel()` plays in the paper's C++ system),
//! * [`prime`] — Miller–Rabin testing and prime generation.
//!
//! Everything is implemented from scratch; the only dependency is `rand`
//! for randomness plumbing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Carry-chain loops over parallel limb arrays read more clearly with
// explicit indices than with zipped iterators.
#![allow(clippy::needless_range_loop)]

pub mod fp;
pub mod linalg;
pub mod mont;
pub mod pow;
pub mod prime;
pub mod uint;

pub use fp::{Fp, FpCtx};
pub use linalg::{dot, Echelon, Matrix};
pub use mont::MontCtx;
pub use pow::FixedBaseTable;
pub use prime::{gen_prime, gkm_q80, miller_rabin};
pub use uint::{Uint, U1024, U1088, U128, U192, U256, U512};
