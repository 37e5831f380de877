//! In-memory index structures for Waterwheel.
//!
//! The centrepiece is the [`TemplateBTree`] (paper §III-B): a B+ tree whose
//! inner-node skeleton — the *template* — is retained and reused across chunk
//! flushes so that inserts never split nodes. The template is read-only
//! during normal operation, so concurrent inserts and reads only contend on
//! individual leaf latches.
//!
//! The paper's comparison trees (§VI-A: the latch-crabbing concurrent B+
//! tree and the bulk-loading tree) live in `waterwheel-baselines`; they
//! implement this crate's [`TupleIndex`].
//!
//! Supporting machinery:
//!
//! * [`skew`] — the distribution-skewness factor `S(P, D)` and the
//!   Equation-3 boundary recomputation used by adaptive template update
//!   (paper §III-C).
//! * [`bloom`] — per-leaf bloom filters over time mini-ranges that let
//!   subqueries skip leaves with no temporally-qualifying tuples (§IV-B).
//! * [`stats`] — instrumentation counters behind the insertion-time
//!   breakdown of Figure 7(b).
//! * [`TupleIndex`] — the common trait the benchmark harnesses drive.

#![warn(missing_docs)]

pub mod bloom;
pub mod columnar;
pub mod config;
pub mod sealed;
pub mod skew;
pub mod stats;
pub mod template;
pub mod traits;

pub use bloom::TimeBloom;
pub use config::{BloomConfig, IndexConfig};
pub use sealed::{SealedLeaf, SealedTree};
pub use stats::{IndexStats, StatsSnapshot};
pub use template::TemplateBTree;
pub use traits::TupleIndex;
