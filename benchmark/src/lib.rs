//! # pbcd_benchmark
//!
//! One repeatable end-to-end benchmark of the pbcd system: five
//! closed-loop workloads, six end-to-end metrics from an untraced pass,
//! and per-layer metrics from a traced pass. See `README.md` for the
//! metric glossary and how the layers are expected to move the
//! end-to-end numbers.
//!
//! The crate measures every layer from outside, by timing calls into the
//! public functions of the repository's crates; it changes none of them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod fixture;
pub mod gen;
pub mod json;
pub mod metrics;
pub mod probe;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
