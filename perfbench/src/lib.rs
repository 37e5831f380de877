//! The one `perf` benchmark: five named workloads, the end-to-end metrics a
//! user of Waterwheel would see, and an outside-in per-layer trace from the
//! message queue to the query merge. `BENCHMARK.json` at the repository root
//! names the command, the metrics and their regression bounds; the README
//! beside this crate explains the workloads and what the first runs showed.
//!
//! This package sits outside the repository's workspace and instruments
//! nothing inside it: every number is taken from this crate's own code,
//! around calls into the other crates' public functions.

#![warn(missing_docs)]

pub mod cli;
pub mod drive;
pub mod e2e;
pub mod inputs;
pub mod report;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod sut;
pub mod trace;
