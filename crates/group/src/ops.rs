//! Process-wide tally of group exponentiations.
//!
//! Exponentiations dominate the cost of every protocol in this workspace
//! (Pedersen commits, Schnorr verification, OCBE compose/open, ACV rekey),
//! so both backends bump these counters at their exponentiation entry
//! points: one tick per single-base exponentiation (a fixed-base comb
//! lookup counts the same as a generic double-and-add — the tally counts
//! *logical* exponentiations, not doublings), and one tick per double
//! exponentiation, i.e. per verification check `g^x · B^y == expected`
//! ([`crate::CyclicGroup::check`]). The telemetry plane in `pbcd_core`
//! mirrors the totals into its metrics registry at snapshot time.
//!
//! The counters are global (one pair per process, all backends summed) and
//! monotone; each tick is a single relaxed atomic add, invisible next to
//! the ~10⁵ ns an exponentiation costs. Tests must therefore only assert
//! *deltas*, never absolute values.

use std::sync::atomic::{AtomicU64, Ordering};

static EXP: AtomicU64 = AtomicU64::new(0);
static EXP2: AtomicU64 = AtomicU64::new(0);

/// Records `n` single-base exponentiations.
#[inline]
pub fn count_exp(n: u64) {
    EXP.fetch_add(n, Ordering::Relaxed);
}

/// Records one double exponentiation (a `g^x · B^y == expected` check).
#[inline]
pub fn count_exp2() {
    EXP2.fetch_add(1, Ordering::Relaxed);
}

/// Total single-base exponentiations performed by this process.
pub fn exp_total() -> u64 {
    EXP.load(Ordering::Relaxed)
}

/// Total double exponentiations performed by this process.
pub fn exp2_total() -> u64 {
    EXP2.load(Ordering::Relaxed)
}
