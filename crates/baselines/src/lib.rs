//! Comparator systems for the overall evaluation (paper §VI-D).
//!
//! The paper compares Waterwheel against HBase and Druid. Neither can run
//! here (JVM clusters), so this crate reimplements the *mechanisms the paper
//! credits for their behaviour* — not the full systems:
//!
//! * [`LsmStore`] (HBase-like): a write-ahead log, a sorted memtable, and
//!   size-tiered compaction of sorted runs. Key-range scans are efficient;
//!   **temporal predicates are not indexed**, so a query must read every
//!   key-qualifying tuple ("all tuples satisfying the key range constraint
//!   must be read and tested against the temporal constraint"). Compaction
//!   repeatedly rewrites data, capping insert throughput ("updates still
//!   need to be merged with historical data").
//! * [`TimeStore`] (Druid-like): a WAL plus time-partitioned segments with
//!   per-segment inverted indexes built at ingest. Temporal pruning is
//!   excellent; **key ranges are not first-class** — an inverted index maps
//!   exact values, not ranges, so a range query degenerates to a full scan
//!   of the temporally-qualifying segments ("due to the lack of support of
//!   range indexes in Druid, all tuples satisfying the temporal constraint
//!   should be read and verified against the key range constraint").
//!
//! Both implement [`StreamStore`], the interface the Figure 14–16 harnesses
//! drive; the Waterwheel system facade implements it too.
//!
//! The index-level comparison trees of §VI-A (Figures 7–9) live here as
//! well, behind `waterwheel-index`'s `TupleIndex`:
//!
//! * [`ConcurrentBTree`] — a traditional B+ tree with node splits and the
//!   Bayer–Schkolnick latch-crabbing concurrency protocol (paper ref [4]).
//! * [`BulkLoadingBTree`] — accumulates tuples, sorts them, and builds the
//!   index bottom-up; tuples are invisible to queries until the build
//!   completes, which is exactly why the paper rejects bulk loading for
//!   realtime visibility.

#![warn(missing_docs)]

pub mod bulk;
pub mod concurrent;
pub mod lsm;
pub mod timestore;
pub mod wal;

pub use bulk::BulkLoadingBTree;
pub use concurrent::ConcurrentBTree;
pub use lsm::{LsmConfig, LsmStore};
pub use timestore::{TimeStore, TimeStoreConfig};
pub use wal::WriteAheadLog;

use waterwheel_core::{KeyInterval, TimeInterval, Tuple};

/// The system-level interface of the Figure 14–16 comparison harnesses.
pub trait StreamStore: Send + Sync {
    /// Ingests one tuple.
    fn insert(&self, tuple: Tuple);

    /// Answers a key+time range query.
    fn query(&self, keys: &KeyInterval, times: &TimeInterval) -> Vec<Tuple>;

    /// Tuples ingested so far.
    fn len(&self) -> usize;

    /// Whether the store is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Display name for benchmark tables.
    fn name(&self) -> &'static str;
}
