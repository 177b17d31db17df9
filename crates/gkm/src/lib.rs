//! # pbcd-gkm
//!
//! Broadcast group key management for the PBCD workspace — the paper's
//! core technical contribution and the baselines it is evaluated against:
//!
//! * [`acv`] — **ACV-BGKM** (§V-C): access-control-vector broadcast GKM.
//!   Qualified subscribers derive the group key from public values and
//!   their conditional subscription secrets; rekey sends nothing to anyone.
//! * [`css`] — the publisher's CSS table `T` (§V-B, Table I).
//! * [`sharded`] — subscriber bucketing for very large N (§VIII-C).
//! * [`marker`] — the reviewer-proposed XOR/marker scheme (§VIII-D).
//! * [`secure_lock`] — the CRT secure lock (Chiou & Chen; related work).
//! * [`lkh`] — Logical Key Hierarchy (stateful tree rekeying; related work).
//! * [`simplistic`] — direct per-subscriber key delivery (§VIII-B).
//! * [`traits`] — the [`BroadcastGkm`] trait every *stateless* scheme
//!   implements (LKH cannot: its rekey sends per-member messages), making
//!   the schemes hot-swappable in `pbcd_core` and the benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acv;
pub mod css;
pub mod lkh;
pub mod marker;
pub mod secure_lock;
pub mod sharded;
pub mod simplistic;
pub mod traits;

pub use acv::{AccessRow, AcvBgkm, AcvPublicInfo, KevCache};
pub use css::{Css, CssTable, Nym};
pub use lkh::{LkhMember, LkhPublisher, RekeyMessage};
pub use marker::{MarkerGkm, MarkerPublicInfo};
pub use secure_lock::{LockPublicInfo, SecureLockGkm};
pub use sharded::{ShardedAcvBgkm, ShardedPublicInfo};
pub use simplistic::{SimplisticGkm, SimplisticPublicInfo};
pub use traits::BroadcastGkm;
