//! Druid-like baseline: time-partitioned segments with inverted indexes
//! (paper §VI-D, Table I).
//!
//! What the paper credits/blames Druid for, preserved here:
//!
//! * data is partitioned into **time segments**, so temporal pruning is
//!   excellent — query latency is "high but stable as the selectivity of
//!   key domain varies";
//! * per-segment **inverted indexes on exact key values** are built at
//!   ingest (Druid's bitmap indexes) — real per-tuple work, but useless for
//!   *range* predicates: "Druid only supports inverted indexes and thus
//!   cannot execute key range query efficiently". A range query scans every
//!   tuple of every temporally-qualifying segment;
//! * every write is journalled (WAL), like Druid's realtime task journal.

use crate::wal::WriteAheadLog;
use crate::StreamStore;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use waterwheel_cluster::LatencyModel;
use waterwheel_core::{Key, KeyInterval, TimeInterval, Timestamp, Tuple};

/// TimeStore tuning knobs.
#[derive(Clone, Debug)]
pub struct TimeStoreConfig {
    /// Segment width in milliseconds (Druid's `segmentGranularity`).
    pub segment_ms: u64,
    /// WAL directory.
    pub wal_path: PathBuf,
    /// Per-group-commit remote durability cost (HDFS hflush pipeline /
    /// journal hand-off); zero by default.
    pub wal_commit_latency: std::time::Duration,
    /// Storage-access model for query-time segment reads. Druid historicals
    /// read segments from deep storage / local segment cache; charging each
    /// consulted segment one access puts the baseline on the same simulated
    /// substrate as Waterwheel's chunks. Default: free.
    pub scan_latency: LatencyModel,
}

static NEXT_WAL: AtomicUsize = AtomicUsize::new(0);

impl Default for TimeStoreConfig {
    fn default() -> Self {
        Self {
            segment_ms: 60_000,
            wal_path: std::env::temp_dir().join(format!(
                "ww-timestore-{}-{}.wal",
                std::process::id(),
                NEXT_WAL.fetch_add(1, Ordering::Relaxed)
            )),
            scan_latency: LatencyModel::default(),
            wal_commit_latency: std::time::Duration::ZERO,
        }
    }
}

/// One time segment: rows plus an inverted index on exact key values.
#[derive(Default)]
struct Segment {
    rows: Vec<Tuple>,
    /// Exact-value inverted index (Druid's bitmap index analogue). Built at
    /// ingest; consulted only for point (exact-key) lookups.
    inverted: HashMap<Key, Vec<u32>>,
}

impl Segment {
    fn insert(&mut self, tuple: Tuple) {
        let row_id = self.rows.len() as u32;
        self.inverted.entry(tuple.key).or_default().push(row_id);
        self.rows.push(tuple);
    }
}

/// The Druid-like time-partitioned store.
pub struct TimeStore {
    cfg: TimeStoreConfig,
    wal: WriteAheadLog,
    segments: RwLock<HashMap<u64, Segment>>,
    count: AtomicUsize,
    /// Tuples scanned by queries (key-filter misses included).
    tuples_read: AtomicU64,
}

impl TimeStore {
    /// Creates a store with the given configuration.
    pub fn new(cfg: TimeStoreConfig) -> waterwheel_core::Result<Self> {
        let wal = WriteAheadLog::with_commit_latency(&cfg.wal_path, cfg.wal_commit_latency)?;
        Ok(Self {
            cfg,
            wal,
            segments: RwLock::new(HashMap::new()),
            count: AtomicUsize::new(0),
            tuples_read: AtomicU64::new(0),
        })
    }

    fn segment_of(&self, ts: Timestamp) -> u64 {
        ts / self.cfg.segment_ms
    }

    /// Number of live segments.
    pub fn segment_count(&self) -> usize {
        self.segments.read().len()
    }

    /// Tuples scanned by queries so far.
    pub fn tuples_read(&self) -> u64 {
        self.tuples_read.load(Ordering::Relaxed)
    }

    /// The ids of live segments overlapping `times`, in ascending order.
    ///
    /// Enumerates the (sparse) live-segment set rather than the dense id
    /// range: a wide time constraint (e.g. the full domain) would otherwise
    /// walk ~2⁶⁴/granularity ids.
    fn qualifying_segments(segments: &HashMap<u64, Segment>, lo_seg: u64, hi_seg: u64) -> Vec<u64> {
        let mut ids: Vec<u64> = segments
            .keys()
            .copied()
            .filter(|&id| id >= lo_seg && id <= hi_seg)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Exact-key lookup through the inverted index — the query shape Druid
    /// *is* good at, provided for contrast in the benches.
    pub fn point_lookup(&self, key: Key, times: &TimeInterval) -> Vec<Tuple> {
        let segments = self.segments.read();
        let mut out = Vec::new();
        let (lo, hi) = (self.segment_of(times.lo()), self.segment_of(times.hi()));
        for seg_id in Self::qualifying_segments(&segments, lo, hi) {
            let seg = &segments[&seg_id];
            if let Some(rows) = seg.inverted.get(&key) {
                for &r in rows {
                    let t = &seg.rows[r as usize];
                    if times.contains(t.ts) {
                        out.push(t.clone());
                    }
                }
            }
        }
        out
    }
}

impl StreamStore for TimeStore {
    fn insert(&self, tuple: Tuple) {
        self.wal.append(&tuple).expect("WAL append failed");
        let seg_id = self.segment_of(tuple.ts);
        self.segments
            .write()
            .entry(seg_id)
            .or_default()
            .insert(tuple);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Range query: prune segments by time, then **full-scan** the
    /// survivors — the inverted index cannot answer range predicates.
    fn query(&self, keys: &KeyInterval, times: &TimeInterval) -> Vec<Tuple> {
        let segments = self.segments.read();
        let mut out = Vec::new();
        let mut read = 0usize;
        let (lo, hi) = (self.segment_of(times.lo()), self.segment_of(times.hi()));
        for seg_id in Self::qualifying_segments(&segments, lo, hi) {
            let seg = &segments[&seg_id];
            // One segment access per qualifying segment, plus scanned bytes.
            self.cfg.scan_latency.charge(seg.rows.len() * 50, false);
            for t in &seg.rows {
                read += 1;
                if times.contains(t.ts) && keys.contains(t.key) {
                    out.push(t.clone());
                }
            }
        }
        self.tuples_read.fetch_add(read as u64, Ordering::Relaxed);
        out
    }

    fn len(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }

    fn name(&self) -> &'static str {
        "timestore (druid-like)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(segment_ms: u64) -> TimeStore {
        TimeStore::new(TimeStoreConfig {
            segment_ms,
            ..TimeStoreConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn insert_query_roundtrip() {
        let s = store(1_000);
        for i in 0..500u64 {
            s.insert(Tuple::bare(i, i * 10));
        }
        assert_eq!(s.len(), 500);
        let hits = s.query(&KeyInterval::full(), &TimeInterval::new(1_000, 2_000));
        assert_eq!(hits.len(), 101);
        let hits = s.query(&KeyInterval::new(0, 50), &TimeInterval::new(1_000, 2_000));
        assert_eq!(hits.len(), 0); // keys 100..=200 own that time range
    }

    #[test]
    fn segments_partition_by_time() {
        let s = store(1_000);
        for i in 0..100u64 {
            s.insert(Tuple::bare(1, i * 100));
        }
        // 100 tuples spread over ts 0..9900 → 10 segments of 1000 ms.
        assert_eq!(s.segment_count(), 10);
    }

    #[test]
    fn temporal_pruning_reads_only_qualifying_segments() {
        let s = store(1_000);
        for i in 0..1_000u64 {
            s.insert(Tuple::bare(i, i * 10));
        }
        let before = s.tuples_read();
        let hits = s.query(&KeyInterval::full(), &TimeInterval::new(0, 999));
        assert_eq!(hits.len(), 100);
        let read = s.tuples_read() - before;
        assert!(read <= 100, "read {read} tuples from pruned segments");
    }

    #[test]
    fn key_range_queries_scan_everything_in_time_range() {
        // The Druid weakness: a narrow key range still scans all
        // temporally-qualifying tuples.
        let s = store(1_000_000);
        for i in 0..1_000u64 {
            s.insert(Tuple::bare(i, 10));
        }
        let before = s.tuples_read();
        let hits = s.query(&KeyInterval::new(0, 9), &TimeInterval::new(0, 100));
        assert_eq!(hits.len(), 10);
        assert!(s.tuples_read() - before >= 1_000);
    }

    #[test]
    fn point_lookup_uses_inverted_index() {
        let s = store(1_000);
        for i in 0..300u64 {
            s.insert(Tuple::bare(i % 10, i * 10));
        }
        let hits = s.point_lookup(7, &TimeInterval::full());
        assert_eq!(hits.len(), 30);
        assert!(hits.iter().all(|t| t.key == 7));
    }

    #[test]
    fn duplicates_are_preserved() {
        let s = store(1_000);
        for i in 0..64u64 {
            s.insert(Tuple::bare(5, 100 + i));
        }
        assert_eq!(
            s.query(&KeyInterval::point(5), &TimeInterval::full()).len(),
            64
        );
    }
}
