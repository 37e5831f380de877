//! Baseline: a bulk-loading B+ tree (paper §VI-A).
//!
//! "The bulk-loading tree is also implemented with the same data structures,
//! but it sorts all the tuples first and then builds the index structure in
//! a bottom-up manner. Since all data tuples in the bulk-loading B+ tree are
//! invisible before the completion of the index build, the query performance
//! of the bulk-loading B+ tree is not evaluated."
//!
//! Inserts append to a staging buffer; [`BulkLoadingBTree::build`] sorts the
//! buffer (time accounted to `sort_ns`) and constructs leaves plus inner
//! levels bottom-up (time accounted to `build_ns`). Queries only see built
//! data — reproducing the visibility delay that disqualifies bulk loading
//! for Waterwheel's realtime requirement.

use parking_lot::Mutex;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;
use waterwheel_core::{Key, KeyInterval, TimeInterval, Tuple};
use waterwheel_index::{IndexStats, StatsSnapshot, TupleIndex};

/// A built, immutable B+ tree: sorted leaves plus separator keys.
struct BuiltIndex {
    /// Leaves in key order, each sorted by `(key, ts)`.
    leaves: Vec<Vec<Tuple>>,
    /// `leaves.len() − 1` separator keys (first key of each right leaf).
    separators: Vec<Key>,
}

impl BuiltIndex {
    fn query(
        &self,
        keys: &KeyInterval,
        times: &TimeInterval,
        predicate: Option<&(dyn Fn(&Tuple) -> bool + Sync)>,
        out: &mut Vec<Tuple>,
    ) {
        // Leftmost candidate leaf (strict: duplicates may straddle leaves).
        let lo = self.separators.partition_point(|&s| s < keys.lo());
        for leaf in &self.leaves[lo..] {
            let start = leaf.partition_point(|e| e.key < keys.lo());
            let mut past_end = false;
            for e in &leaf[start..] {
                if e.key > keys.hi() {
                    past_end = true;
                    break;
                }
                if times.contains(e.ts) && predicate.is_none_or(|p| p(e)) {
                    out.push(e.clone());
                }
            }
            if past_end {
                break;
            }
        }
    }
}

struct Inner {
    staging: Vec<Tuple>,
    built: Vec<BuiltIndex>,
    built_count: usize,
}

/// The bulk-loading B+ tree baseline.
pub struct BulkLoadingBTree {
    leaf_capacity: usize,
    inner: Mutex<Inner>,
    stats: Arc<IndexStats>,
}

impl BulkLoadingBTree {
    /// Creates an empty tree; `leaf_capacity` bounds tuples per built leaf.
    pub fn new(leaf_capacity: usize) -> Self {
        assert!(leaf_capacity >= 1);
        Self {
            leaf_capacity,
            inner: Mutex::new(Inner {
                staging: Vec::new(),
                built: Vec::new(),
                built_count: 0,
            }),
            stats: Arc::new(IndexStats::default()),
        }
    }

    /// Number of tuples still staged (invisible to queries).
    pub fn staged(&self) -> usize {
        self.inner.lock().staging.len()
    }

    /// Sorts the staging buffer and builds it into an immutable index
    /// segment, making its tuples visible to queries.
    ///
    /// Returns the number of tuples built. Sorting and building times are
    /// recorded separately — they are the two baseline-specific bars in the
    /// Figure 7(b) breakdown.
    pub fn build(&self) -> usize {
        let mut inner = self.inner.lock();
        if inner.staging.is_empty() {
            return 0;
        }
        let mut batch = std::mem::take(&mut inner.staging);

        let t0 = Instant::now();
        batch.sort_by_key(|a| (a.key, a.ts));
        self.stats.add(&self.stats.sort_ns, t0.elapsed());

        let t1 = Instant::now();
        let n = batch.len();
        let mut leaves: Vec<Vec<Tuple>> = Vec::with_capacity(n.div_ceil(self.leaf_capacity));
        let mut separators: Vec<Key> = Vec::new();
        let mut it = batch.into_iter().peekable();
        while it.peek().is_some() {
            let leaf: Vec<Tuple> = it.by_ref().take(self.leaf_capacity).collect();
            if !leaves.is_empty() {
                separators.push(leaf[0].key);
            }
            leaves.push(leaf);
        }
        inner.built.push(BuiltIndex { leaves, separators });
        inner.built_count += n;
        self.stats.add(&self.stats.build_ns, t1.elapsed());
        n
    }
}

impl TupleIndex for BulkLoadingBTree {
    fn insert(&self, tuple: Tuple) {
        let t0 = Instant::now();
        self.inner.lock().staging.push(tuple);
        self.stats.add(&self.stats.insert_ns, t0.elapsed());
    }

    /// Only *built* tuples are visible — the staging buffer is invisible by
    /// construction, as in the paper.
    fn query(
        &self,
        keys: &KeyInterval,
        times: &TimeInterval,
        predicate: Option<&(dyn Fn(&Tuple) -> bool + Sync)>,
    ) -> Vec<Tuple> {
        let inner = self.inner.lock();
        let mut out = Vec::new();
        for seg in &inner.built {
            seg.query(keys, times, predicate, &mut out);
        }
        out
    }

    /// Counts *all* inserted tuples, staged or built, so throughput
    /// comparisons across the three trees are apples-to-apples.
    fn len(&self) -> usize {
        let inner = self.inner.lock();
        inner.built_count + inner.staging.len()
    }

    fn stats(&self) -> StatsSnapshot {
        let _ = Ordering::Relaxed; // stats are atomics; nothing extra needed
        self.stats.snapshot()
    }

    fn name(&self) -> &'static str {
        "bulk-loading"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staged_tuples_are_invisible_until_build() {
        let t = BulkLoadingBTree::new(8);
        for i in 0..100u64 {
            t.insert(Tuple::bare(i, i));
        }
        assert_eq!(t.len(), 100);
        assert_eq!(t.staged(), 100);
        assert!(t
            .query(&KeyInterval::full(), &TimeInterval::full(), None)
            .is_empty());
        assert_eq!(t.build(), 100);
        assert_eq!(t.staged(), 0);
        assert_eq!(
            t.query(&KeyInterval::full(), &TimeInterval::full(), None)
                .len(),
            100
        );
    }

    #[test]
    fn build_sorts_unordered_input() {
        let t = BulkLoadingBTree::new(4);
        for i in (0..64u64).rev() {
            t.insert(Tuple::bare(i, 0));
        }
        t.build();
        let hits = t.query(&KeyInterval::new(10, 20), &TimeInterval::full(), None);
        let keys: Vec<_> = hits.iter().map(|h| h.key).collect();
        assert_eq!(keys, (10..=20).collect::<Vec<_>>());
    }

    #[test]
    fn multiple_builds_accumulate_segments() {
        let t = BulkLoadingBTree::new(4);
        for round in 0..3u64 {
            for i in 0..20u64 {
                t.insert(Tuple::bare(i, round));
            }
            t.build();
        }
        let hits = t.query(&KeyInterval::point(5), &TimeInterval::full(), None);
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn sort_and_build_times_are_recorded() {
        let t = BulkLoadingBTree::new(64);
        for i in 0..10_000u64 {
            t.insert(Tuple::bare(i ^ 0x5555, i));
        }
        t.build();
        let s = t.stats();
        assert!(s.sort > std::time::Duration::ZERO);
        assert!(s.build > std::time::Duration::ZERO);
    }

    #[test]
    fn empty_build_is_a_noop() {
        let t = BulkLoadingBTree::new(4);
        assert_eq!(t.build(), 0);
    }

    #[test]
    fn duplicate_keys_across_leaf_boundaries_are_found() {
        let t = BulkLoadingBTree::new(4);
        for i in 0..16u64 {
            t.insert(Tuple::bare(9, i));
        }
        t.insert(Tuple::bare(1, 0));
        t.insert(Tuple::bare(20, 0));
        t.build();
        let hits = t.query(&KeyInterval::point(9), &TimeInterval::full(), None);
        assert_eq!(hits.len(), 16);
    }

    #[test]
    fn time_and_predicate_filters_apply() {
        let t = BulkLoadingBTree::new(8);
        for i in 0..50u64 {
            t.insert(Tuple::bare(i, i));
        }
        t.build();
        let pred = |tp: &Tuple| tp.key.is_multiple_of(5);
        let hits = t.query(
            &KeyInterval::full(),
            &TimeInterval::new(10, 30),
            Some(&pred),
        );
        let keys: Vec<_> = hits.iter().map(|h| h.key).collect();
        assert_eq!(keys, vec![10, 15, 20, 25, 30]);
    }
}
