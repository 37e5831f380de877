//! The template-based B+ tree (paper §III-B, §III-C).
//!
//! A conventional B+ tree pays for node splits on the insert path. The
//! template tree observes that when the key distribution is stable, the
//! inner-node structure of the *previous* chunk's tree is a near-optimal
//! structure for the next chunk too. So after a flush only the leaves are
//! cleared; the inner skeleton — the **template** — is retained and reused.
//!
//! During normal operation the template is strictly read-only: an insert
//! routes through it without taking any inner-node lock and only latches the
//! destination leaf. Reads likewise. The only structure-changing operations
//! are *template updates* (triggered by the skewness detector of §III-C) and
//! *seals* (chunk flushes), both of which take the tree-level write lock,
//! which is exactly the paper's "pause all tuple insertion threads on this
//! B+ tree".

use crate::bloom::TimeBloom;
use crate::config::IndexConfig;
use crate::sealed::{SealedLeaf, SealedTree};
use crate::skew;
use crate::stats::{IndexStats, StatsSnapshot};
use crate::traits::TupleIndex;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use waterwheel_core::{Key, KeyInterval, Region, TimeInterval, Timestamp, Tuple};

/// An inner node of the template: separator keys plus child slots.
///
/// Children are either other inner nodes (arena indices) or leaves (indices
/// into the tree's leaf vector); a node never mixes the two kinds.
#[derive(Clone, Debug)]
struct InnerNode {
    keys: Vec<Key>,
    children: Vec<u32>,
    children_are_leaves: bool,
}

/// The read-only inner skeleton.
#[derive(Clone, Debug)]
struct Template {
    /// Strictly increasing separator keys; `separators.len() + 1` leaves.
    separators: Vec<Key>,
    /// Arena of inner nodes; the root is the last entry. Empty when the
    /// tree has a single leaf.
    nodes: Vec<InnerNode>,
}

impl Template {
    /// Builds the inner skeleton bottom-up from separator keys, mirroring
    /// the paper's bulk-style template (re)construction (§III-C2): group
    /// `fanout` children per node, propagate the inter-group separators
    /// upward, stop when one node remains.
    fn build(separators: Vec<Key>, fanout: usize) -> Self {
        debug_assert!(separators.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(fanout >= 2);
        let leaf_count = separators.len() + 1;
        let mut nodes: Vec<InnerNode> = Vec::new();
        if leaf_count == 1 {
            return Self { separators, nodes };
        }
        // Level 0: children are leaves; `level_seps[i]` separates child i
        // from child i+1.
        let mut level_children: Vec<u32> = (0..leaf_count as u32).collect();
        let mut level_seps: Vec<Key> = separators.clone();
        let mut children_are_leaves = true;
        loop {
            let mut next_children: Vec<u32> = Vec::new();
            let mut next_seps: Vec<Key> = Vec::new();
            let mut i = 0;
            while i < level_children.len() {
                let end = (i + fanout).min(level_children.len());
                let node = InnerNode {
                    keys: level_seps[i..end - 1].to_vec(),
                    children: level_children[i..end].to_vec(),
                    children_are_leaves,
                };
                nodes.push(node);
                next_children.push((nodes.len() - 1) as u32);
                if end < level_children.len() {
                    next_seps.push(level_seps[end - 1]);
                }
                i = end;
            }
            if next_children.len() == 1 {
                return Self { separators, nodes };
            }
            level_children = next_children;
            level_seps = next_seps;
            children_are_leaves = false;
        }
    }

    /// Number of leaves the template routes to.
    fn leaf_count(&self) -> usize {
        self.separators.len() + 1
    }

    /// Routes a key to its leaf index by traversing the inner nodes from
    /// the root — the paper's insert path ("routed to the target leaf node
    /// by traversing the tree from root without any modifications to the
    /// non-leaf nodes").
    fn route(&self, key: Key) -> usize {
        if self.nodes.is_empty() {
            return 0;
        }
        let mut node = &self.nodes[self.nodes.len() - 1];
        loop {
            let slot = node.keys.partition_point(|&s| s <= key);
            let child = node.children[slot];
            if node.children_are_leaves {
                debug_assert_eq!(child as usize, skew::route(&self.separators, key));
                return child as usize;
            }
            node = &self.nodes[child as usize];
        }
    }

    /// Tree height in inner-node levels (0 for a single-leaf tree).
    fn height(&self) -> usize {
        if self.nodes.is_empty() {
            return 0;
        }
        let mut h = 1;
        let mut node = &self.nodes[self.nodes.len() - 1];
        while !node.children_are_leaves {
            node = &self.nodes[node.children[0] as usize];
            h += 1;
        }
        h
    }
}

/// Appends a leaf holds behind its sorted run before it merges them in.
/// Bounds what a scan filters linearly per leaf, and how often an insert
/// pays a merge: a leaf fills to about `leaf_capacity`, so it merges a
/// handful of times between seals.
const LEAF_TAIL_MAX: usize = 32;

/// One leaf: latched tuple storage plus pruning metadata.
///
/// Inserts append; order is restored later. `entries[..sorted]` is the
/// `(key, ts)`-sorted run, `entries[sorted..]` the tail of newer appends in
/// arrival order. The writer that pushes the tail past [`LEAF_TAIL_MAX`]
/// merges it under the write latch it already holds, and `seal` /
/// `update_template` merge before they drain — readers never sort.
///
/// The time bounds, which prune scans, are plain fields updated under the
/// leaf latch. The per-leaf temporal bloom filters the paper uses for
/// *chunk* subqueries (§IV-B) are built once at seal time, not maintained
/// per insert.
#[derive(Debug)]
struct LeafData {
    entries: Vec<Tuple>,
    sorted: usize,
    min_ts: Timestamp,
    max_ts: Timestamp,
}

impl LeafData {
    fn new() -> Self {
        Self {
            entries: Vec::new(),
            sorted: 0,
            min_ts: Timestamp::MAX,
            max_ts: 0,
        }
    }

    /// Appends one tuple to the tail. The first push reserves a whole
    /// leaf, so a leaf never grows 0 → 4 → … → `leaf_capacity`.
    fn push(&mut self, tuple: Tuple, leaf_capacity: usize) {
        if self.entries.capacity() == 0 {
            self.entries.reserve(leaf_capacity);
        }
        self.min_ts = self.min_ts.min(tuple.ts);
        self.max_ts = self.max_ts.max(tuple.ts);
        self.entries.push(tuple);
    }

    /// Merges the tail into the run. The sort is stable, the run precedes
    /// the tail and the tail is in arrival order, so ties on `(key, ts)`
    /// end up in arrival order — exactly where one-at-a-time sorted
    /// insertion would have put them, whatever the batch boundaries were.
    ///
    /// Only the run's suffix above the tail's minimum can interleave with
    /// the tail, so only that suffix is sorted: a leaf that is one hot key
    /// arriving in time order (indivisible, so it can grow to a large share
    /// of the tree) pays for its newest entries, not for its length.
    fn merge_tail(&mut self) {
        let (run, tail) = self.run_and_tail();
        let Some(tail_min) = tail.iter().map(|e| (e.key, e.ts)).min() else {
            return;
        };
        let settled = run.partition_point(|e| (e.key, e.ts) <= tail_min);
        self.entries[settled..].sort_by_key(|e| (e.key, e.ts));
        self.sorted = self.entries.len();
    }

    /// The sorted run and the unsorted tail.
    fn run_and_tail(&self) -> (&[Tuple], &[Tuple]) {
        self.entries.split_at(self.sorted)
    }
}

/// The protected interior: template, leaves and their hull.
struct TreeCore {
    template: Template,
    leaves: Vec<RwLock<LeafData>>,
    hull: Hull,
}

impl TreeCore {
    fn new_leaves(n: usize) -> Vec<RwLock<LeafData>> {
        (0..n).map(|_| RwLock::new(LeafData::new())).collect()
    }
}

/// The key–time hull of a tree's contents, kept beside the leaves rather
/// than in them: appends widen it under the tree read lock and `seal`
/// replaces it under the write lock, so reading it latches no leaf. The
/// bounds are `Relaxed`: they publish no other data, and the tree lock
/// orders seals against appends and reads.
struct Hull {
    min_key: AtomicU64,
    max_key: AtomicU64,
    min_ts: AtomicU64,
    max_ts: AtomicU64,
}

impl Hull {
    fn empty() -> Self {
        Self {
            min_key: AtomicU64::new(Key::MAX),
            max_key: AtomicU64::new(0),
            min_ts: AtomicU64::new(Timestamp::MAX),
            max_ts: AtomicU64::new(0),
        }
    }

    /// Widens the hull to `[keys.0, keys.1] × [times.0, times.1]`; an
    /// inverted pair widens nothing.
    fn widen(&self, keys: (Key, Key), times: (Timestamp, Timestamp)) {
        self.min_key.fetch_min(keys.0, Ordering::Relaxed);
        self.max_key.fetch_max(keys.1, Ordering::Relaxed);
        self.min_ts.fetch_min(times.0, Ordering::Relaxed);
        self.max_ts.fetch_max(times.1, Ordering::Relaxed);
    }

    /// The hull, or `None` when nothing widened it since the last reset.
    fn get(&self) -> Option<Region> {
        let load = |bound: &AtomicU64| bound.load(Ordering::Relaxed);
        Some(Region::new(
            KeyInterval::checked(load(&self.min_key), load(&self.max_key))?,
            TimeInterval::checked(load(&self.min_ts), load(&self.max_ts))?,
        ))
    }
}

/// The template-based B+ tree (paper §III-B).
///
/// Thread-safe: concurrent inserts and reads only contend on leaf latches;
/// template updates and seals pause everything via the tree-level lock.
pub struct TemplateBTree {
    cfg: IndexConfig,
    core: RwLock<TreeCore>,
    count: AtomicUsize,
    bytes: AtomicUsize,
    since_skew_check: AtomicUsize,
    /// Skewness measured right after the last template rebuild. With
    /// duplicate-heavy keys no range partition can reach `S ≤ threshold`
    /// (runs of one key are indivisible), so re-triggering is gated on
    /// exceeding the *achievable* skew by the threshold, preventing rebuild
    /// thrash.
    last_rebuild_skew: AtomicU64,
    /// Tuple count at the last rebuild; overflow-triggered rebuilds require
    /// the tree to have doubled since, bounding rebuild work amortized.
    last_rebuild_count: AtomicUsize,
    stats: Arc<IndexStats>,
}

impl TemplateBTree {
    /// Creates an empty tree with a trivial single-leaf template; the first
    /// skew check or seal grows it. The tree keeps no assigned interval:
    /// what it covers is its contents' hull, [`Self::region`].
    pub fn new(assigned: KeyInterval, cfg: IndexConfig) -> Self {
        Self::with_separators(assigned, cfg, Vec::new())
    }

    /// Creates a tree whose template is built from the given separators —
    /// used to recycle the structure of a previous chunk (paper §III-B) or
    /// to seed from a sampled distribution. `_assigned` is not kept.
    pub fn with_separators(_assigned: KeyInterval, cfg: IndexConfig, separators: Vec<Key>) -> Self {
        let template = Template::build(separators, cfg.fanout.max(2));
        let leaves = TreeCore::new_leaves(template.leaf_count());
        Self {
            cfg,
            core: RwLock::new(TreeCore {
                template,
                leaves,
                hull: Hull::empty(),
            }),
            count: AtomicUsize::new(0),
            bytes: AtomicUsize::new(0),
            since_skew_check: AtomicUsize::new(0),
            last_rebuild_skew: AtomicU64::new(0f64.to_bits()),
            last_rebuild_count: AtomicUsize::new(0),
            stats: Arc::new(IndexStats::default()),
        }
    }

    /// Total accumulated tuple bytes (drives the chunk-size flush trigger).
    pub fn byte_size(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    /// The exact key–time rectangle covered by the current contents, or
    /// `None` when empty. This is the "actual key interval" the metadata
    /// server tracks after a repartition (§III-D).
    pub fn region(&self) -> Option<Region> {
        self.core.read().hull.get()
    }

    /// Shared stats handle (benchmarks read it while threads insert).
    pub fn stats_handle(&self) -> Arc<IndexStats> {
        Arc::clone(&self.stats)
    }

    /// Per-leaf tuple counts (diagnostics and tests).
    pub fn leaf_counts(&self) -> Vec<usize> {
        let core = self.core.read();
        core.leaves.iter().map(|l| l.read().entries.len()).collect()
    }

    /// Current skewness factor `S(P, D)` of the leaf partition.
    pub fn skewness(&self) -> f64 {
        skew::skewness(&self.leaf_counts())
    }

    /// Current template height in inner-node levels.
    pub fn height(&self) -> usize {
        self.core.read().template.height()
    }

    /// Number of leaves in the current template.
    pub fn leaf_count(&self) -> usize {
        self.core.read().template.leaf_count()
    }

    fn ideal_leaf_count(&self, count: usize) -> usize {
        count.div_ceil(self.cfg.leaf_capacity).max(1)
    }

    /// Checks the skewness factor and rebuilds the template when it exceeds
    /// the threshold or the leaves have badly overflowed. Returns `true`
    /// when an update was performed. Called automatically from the insert
    /// path every `skew_check_interval` inserts; public for benchmarks.
    pub fn maybe_update_template(&self) -> bool {
        let counts = self.leaf_counts();
        let total: usize = counts.iter().sum();
        if total == 0 {
            return false;
        }
        let s = skew::skewness(&counts);
        let baseline = f64::from_bits(self.last_rebuild_skew.load(Ordering::Relaxed));
        // Growth gate shared by both triggers: a rebuild costs O(n), so the
        // tree must have grown ≥ 25 % (and by at least one check interval)
        // since the last one — this is what keeps template updates the
        // "infrequent" event the paper measures (§VI-A3) instead of firing
        // on the statistical noise of max-leaf-vs-mean with many leaves.
        let last = self.last_rebuild_count.load(Ordering::Relaxed);
        let grown = total >= last + (last / 4).max(self.cfg.skew_check_interval.min(4_096));
        let skewed = s > baseline + self.cfg.skew_threshold && grown;
        // Leaves have badly overflowed *and* the tree has grown enough since
        // the last rebuild that another one can actually help.
        let overflowed =
            total > counts.len() * self.cfg.leaf_capacity * 2 && total >= 2 * last.max(1);
        if skewed || overflowed {
            self.update_template();
            true
        } else {
            false
        }
    }

    /// Rebuilds the template around the current key distribution
    /// (paper §III-C2, Equation 3) and redistributes the tuples.
    ///
    /// Pauses all inserts/reads for the duration (tree-level write lock).
    pub fn update_template(&self) {
        let t0 = Instant::now();
        let mut core = self.core.write();
        // Drain all leaves; concatenation is (key, ts)-sorted because leaf
        // key ranges are disjoint and each leaf is sorted once its tail is
        // merged.
        let mut entries: Vec<Tuple> = Vec::with_capacity(self.count.load(Ordering::Relaxed));
        for leaf in &mut core.leaves {
            let leaf = leaf.get_mut();
            leaf.merge_tail();
            entries.append(&mut leaf.entries);
        }
        debug_assert!(entries
            .windows(2)
            .all(|w| (w[0].key, w[0].ts) <= (w[1].key, w[1].ts)));
        let keys: Vec<Key> = entries.iter().map(|e| e.key).collect();
        let leaves = self.ideal_leaf_count(entries.len());
        let separators = skew::equal_depth_boundaries(&keys, leaves);
        core.template = Template::build(separators, self.cfg.fanout.max(2));
        core.leaves = TreeCore::new_leaves(core.template.leaf_count());
        // The sorted entries fall into the new leaves as consecutive runs.
        let TreeCore {
            template, leaves, ..
        } = &mut *core;
        let mut rebuilt_counts = Vec::with_capacity(leaves.len());
        let mut entries = entries.into_iter();
        let mut start = 0;
        for (li, leaf) in leaves.iter_mut().enumerate() {
            let end = match template.separators.get(li) {
                Some(&sep) => start + keys[start..].partition_point(|&k| k < sep),
                None => keys.len(),
            };
            let leaf = leaf.get_mut();
            for t in entries.by_ref().take(end - start) {
                leaf.push(t, self.cfg.leaf_capacity);
            }
            leaf.sorted = leaf.entries.len();
            rebuilt_counts.push(end - start);
            start = end;
        }
        drop(core);
        let total: usize = rebuilt_counts.iter().sum();
        self.last_rebuild_skew
            .store(skew::skewness(&rebuilt_counts).to_bits(), Ordering::Relaxed);
        self.last_rebuild_count.store(total, Ordering::Relaxed);
        self.stats.add(&self.stats.build_ns, t0.elapsed());
        self.stats.template_updates.fetch_add(1, Ordering::Relaxed);
    }

    /// Inserts a batch, visible to queries on return: one routed pass
    /// under one tree-level read lock, one latch per touched leaf.
    ///
    /// Sealed trees do not depend on how a stream was cut into batches —
    /// [`TupleIndex::insert`] is this with a batch of one. Two things make
    /// that so: leaves restore `(key, ts)` order with ties in arrival order
    /// whenever they are drained, and a batch is cut where the skew-check
    /// counter fills, so template updates see the tree at the same tuple
    /// counts as one-at-a-time insertion.
    pub fn insert_batch(&self, mut tuples: Vec<Tuple>) {
        let interval = self.cfg.skew_check_interval.max(1);
        while !tuples.is_empty() {
            let t0 = Instant::now();
            let since_check = {
                let core = self.core.read();
                let room = interval.saturating_sub(self.since_skew_check.load(Ordering::Relaxed));
                let take = room.clamp(1, tuples.len());
                // Stable by key: groups the cut by destination leaf and
                // keeps arrival order among equal keys.
                tuples[..take].sort_by_cached_key(|t| t.key);
                self.append_routed(&core, tuples.drain(..take))
            };
            self.finish_insert(t0, since_check);
        }
    }

    /// The one leaf write path: appends `tuples` — key-ordered, so each
    /// destination leaf is one consecutive group — latching each touched
    /// leaf once, then publishes the hull and counters. Returns the
    /// skew-check counter after the bump.
    ///
    /// The hull and counter updates must happen under the tree-level read
    /// lock the caller holds: `seal` resets them under the write lock while
    /// draining the leaves, so an update after the leaf append but outside
    /// the lock could be missed by one seal and then land on the next —
    /// making `SealedTree::count` and `region` disagree with its leaves.
    fn append_routed(&self, core: &TreeCore, tuples: impl Iterator<Item = Tuple>) -> usize {
        let mut tuples = tuples.peekable();
        let (mut count, mut bytes) = (0, 0);
        let (mut keys, mut times) = ((Key::MAX, 0), (Timestamp::MAX, 0));
        while let Some(first) = tuples.peek() {
            let li = core.template.route(first.key);
            let below = core.template.separators.get(li).copied();
            let mut leaf = core.leaves[li].write();
            while let Some(t) = tuples.next_if(|t| below.is_none_or(|sep| t.key < sep)) {
                count += 1;
                bytes += t.encoded_len();
                keys = (keys.0.min(t.key), keys.1.max(t.key));
                times = (times.0.min(t.ts), times.1.max(t.ts));
                leaf.push(t, self.cfg.leaf_capacity);
            }
            if leaf.entries.len() - leaf.sorted > LEAF_TAIL_MAX {
                leaf.merge_tail();
            }
        }
        core.hull.widen(keys, times);
        self.count.fetch_add(count, Ordering::AcqRel);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.since_skew_check.fetch_add(count, Ordering::Relaxed) + count
    }

    /// Books the insert time and runs the periodic skewness check (paper
    /// §III-C1) once the counter has filled. Call without the core lock.
    fn finish_insert(&self, t0: Instant, since_check: usize) {
        self.stats.add(&self.stats.insert_ns, t0.elapsed());
        if since_check >= self.cfg.skew_check_interval {
            self.since_skew_check.store(0, Ordering::Relaxed);
            self.maybe_update_template();
        }
    }

    /// Seals the current contents as an immutable [`SealedTree`] and resets
    /// the leaves, retaining the template for the next chunk (§III-B:
    /// "we only eliminate the leaf nodes of the tree").
    ///
    /// Returns `None` when the tree is empty. When the template's leaf count
    /// has drifted far from the ideal for the sealed volume (bootstrap, or a
    /// large rate change), the template is refreshed from the sealed keys so
    /// the *next* chunk starts with a well-fitted structure.
    pub fn seal(&self) -> Option<SealedTree> {
        let mut core = self.core.write();
        let count = self.count.swap(0, Ordering::AcqRel);
        let region = std::mem::replace(&mut core.hull, Hull::empty()).get()?;
        self.bytes.store(0, Ordering::Relaxed);
        self.since_skew_check.store(0, Ordering::Relaxed);
        self.last_rebuild_skew
            .store(0f64.to_bits(), Ordering::Relaxed);
        self.last_rebuild_count.store(0, Ordering::Relaxed);

        let mut leaves = Vec::with_capacity(core.leaves.len());
        let mut all_keys: Vec<Key> = Vec::with_capacity(count);
        for slot in std::mem::take(&mut core.leaves) {
            let mut leaf = slot.into_inner();
            leaf.merge_tail();
            let (time_range, bloom) = if leaf.entries.is_empty() {
                (None, None)
            } else {
                // The paper's temporal bloom filters are a *chunk-side*
                // pruning structure (§IV-B); building them once at seal time
                // keeps the realtime insert path free of filter maintenance.
                let span = TimeInterval::new(leaf.min_ts, leaf.max_ts);
                let bloom = self.cfg.bloom.map(|b| {
                    let mut filter = TimeBloom::for_leaf(
                        b.mini_range_ms,
                        &span,
                        leaf.entries.len(),
                        b.bits_per_entry,
                    );
                    for e in &leaf.entries {
                        filter.insert(e.ts);
                    }
                    filter
                });
                (Some(span), bloom)
            };
            all_keys.extend(leaf.entries.iter().map(|e| e.key));
            leaves.push(SealedLeaf {
                entries: leaf.entries,
                bloom,
                time_range,
            });
        }
        let separators = core.template.separators.clone();

        // Refresh the template for the next chunk when badly fitted.
        let ideal = self.ideal_leaf_count(count);
        let current = core.template.leaf_count();
        if current * 3 < ideal * 2 || ideal * 3 < current * 2 {
            let new_seps = skew::equal_depth_boundaries(&all_keys, ideal);
            core.template = Template::build(new_seps, self.cfg.fanout.max(2));
        }
        core.leaves = TreeCore::new_leaves(core.template.leaf_count());
        drop(core);

        Some(SealedTree {
            leaves,
            separators,
            region,
            count,
        })
    }
}

impl TupleIndex for TemplateBTree {
    fn insert(&self, tuple: Tuple) {
        let t0 = Instant::now();
        let since_check = self.append_routed(&self.core.read(), std::iter::once(tuple));
        self.finish_insert(t0, since_check);
    }

    fn query(
        &self,
        keys: &KeyInterval,
        times: &TimeInterval,
        predicate: Option<&(dyn Fn(&Tuple) -> bool + Sync)>,
    ) -> Vec<Tuple> {
        let core = self.core.read();
        let lo_leaf = core.template.route(keys.lo());
        let hi_leaf = core.template.route(keys.hi());
        let matches = |e: &Tuple| times.contains(e.ts) && predicate.is_none_or(|p| p(e));
        let mut out = Vec::new();
        for li in lo_leaf..=hi_leaf {
            let leaf = core.leaves[li].read();
            // Temporal pruning via the leaf's min/max bounds (the bloom
            // filters are chunk-side structures built at seal time, §IV-B).
            if leaf.entries.is_empty()
                || !TimeInterval::new(leaf.min_ts, leaf.max_ts).overlaps(times)
            {
                self.stats.bloom_skips.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            self.stats.leaves_scanned.fetch_add(1, Ordering::Relaxed);
            // Binary-search the run, filter the bounded tail: a reader
            // never sorts, so it never needs more than the read latch.
            let (run, tail) = leaf.run_and_tail();
            let start = run.partition_point(|e| e.key < keys.lo());
            for e in &run[start..] {
                if e.key > keys.hi() {
                    break;
                }
                if matches(e) {
                    out.push(e.clone());
                }
            }
            for e in tail {
                if keys.contains(e.key) && matches(e) {
                    out.push(e.clone());
                }
            }
        }
        out
    }

    fn len(&self) -> usize {
        self.count.load(Ordering::Acquire)
    }

    fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    fn name(&self) -> &'static str {
        "template"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> IndexConfig {
        IndexConfig {
            fanout: 4,
            leaf_capacity: 8,
            skew_threshold: 0.2,
            skew_check_interval: 64,
            ..IndexConfig::default()
        }
    }

    fn tree() -> TemplateBTree {
        TemplateBTree::new(KeyInterval::full(), cfg())
    }

    #[test]
    fn template_build_and_route_agree_with_separators() {
        for leaf_count in [1usize, 2, 3, 4, 5, 16, 17, 64, 100] {
            let seps: Vec<Key> = (1..leaf_count as u64).map(|i| i * 10).collect();
            let t = Template::build(seps.clone(), 4);
            assert_eq!(t.leaf_count(), leaf_count);
            for key in 0..(leaf_count as u64 * 10 + 5) {
                assert_eq!(
                    t.route(key),
                    skew::route(&seps, key),
                    "leaf_count={leaf_count} key={key}"
                );
            }
        }
    }

    #[test]
    fn template_height_grows_logarithmically() {
        let seps: Vec<Key> = (1..64).collect();
        let t = Template::build(seps, 4);
        // 64 leaves, fanout 4 → 3 inner levels.
        assert_eq!(t.height(), 3);
    }

    #[test]
    fn insert_and_query_roundtrip() {
        let t = tree();
        for i in 0..100u64 {
            t.insert(Tuple::bare(i * 3, 1000 + i));
        }
        assert_eq!(t.len(), 100);
        let hits = t.query(&KeyInterval::new(30, 60), &TimeInterval::full(), None);
        let mut keys: Vec<_> = hits.iter().map(|h| h.key).collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![30, 33, 36, 39, 42, 45, 48, 51, 54, 57, 60]);
    }

    #[test]
    fn query_respects_time_range_and_predicate() {
        let t = tree();
        for i in 0..50u64 {
            t.insert(Tuple::bare(i, i * 10));
        }
        let hits = t.query(&KeyInterval::full(), &TimeInterval::new(100, 200), None);
        assert_eq!(hits.len(), 11); // ts 100..=200 step 10
        let pred = |tp: &Tuple| tp.key.is_multiple_of(2);
        let hits = t.query(
            &KeyInterval::full(),
            &TimeInterval::new(100, 200),
            Some(&pred),
        );
        assert_eq!(hits.len(), 6);
    }

    #[test]
    fn leaves_keep_a_sorted_run_and_a_bounded_tail() {
        // One wide leaf (default capacity, no skew check in reach): the
        // only thing restoring order is the tail bound.
        let t = TemplateBTree::new(KeyInterval::full(), IndexConfig::default());
        let mut batch = Vec::new();
        for i in 0..500u64 {
            batch.push(Tuple::bare(i * 7919 % 500, i));
            // Single inserts and batches of every size up to 13.
            if batch.len() as u64 > i % 13 {
                t.insert_batch(std::mem::take(&mut batch));
            } else if i % 5 == 0 {
                t.insert(batch.pop().unwrap());
            }
            let core = t.core.read();
            let leaf = core.leaves[0].read();
            let (run, tail) = leaf.run_and_tail();
            assert!(tail.len() <= LEAF_TAIL_MAX, "tail of {}", tail.len());
            assert!(run
                .windows(2)
                .all(|w| (w[0].key, w[0].ts) <= (w[1].key, w[1].ts)));
        }
        t.insert_batch(batch);
        assert_eq!(t.len(), 500);
        assert_eq!(t.leaf_counts(), vec![500]);
        let hits = t.query(&KeyInterval::new(100, 199), &TimeInterval::full(), None);
        assert_eq!(hits.len(), 100);
        t.seal().unwrap().check_invariants().unwrap();
    }

    #[test]
    fn skew_triggers_template_update_and_rebalances() {
        let t = tree();
        // Uniform warm-up so a multi-leaf template forms.
        for i in 0..512u64 {
            t.insert(Tuple::bare(i * 100, i));
        }
        assert!(t.leaf_count() > 1, "template should have grown");
        let updates_before = t.stats().template_updates;
        // Now hammer a narrow key range (distinct keys) to skew the
        // distribution; enough volume to clear the rebuild growth gate.
        for i in 0..2_048u64 {
            t.insert(Tuple::bare(50_000 + i, 10_000 + i));
        }
        let snap = t.stats();
        assert!(
            snap.template_updates > updates_before,
            "no update despite skew"
        );
        // Between (growth-gated) automatic rebuilds some residual skew is
        // expected with such tiny leaves; a rebuild must eliminate it.
        t.update_template();
        assert!(t.skewness() < 1.0, "still very skewed: {}", t.skewness());
        // No data lost through updates.
        assert_eq!(t.len(), 2_560);
        assert_eq!(
            t.query(&KeyInterval::full(), &TimeInterval::full(), None)
                .len(),
            2_560
        );
    }

    #[test]
    fn seal_retains_template_and_empties_leaves() {
        let t = tree();
        for i in 0..256u64 {
            t.insert(Tuple::bare(i * 7, i));
        }
        let leaf_count = t.leaf_count();
        let sealed = t.seal().expect("non-empty");
        sealed.check_invariants().unwrap();
        assert_eq!(sealed.count, 256);
        assert_eq!(t.len(), 0);
        assert_eq!(t.leaf_count(), leaf_count, "template must be retained");
        assert!(t
            .query(&KeyInterval::full(), &TimeInterval::full(), None)
            .is_empty());
        // Next chunk reuses the template.
        for i in 0..256u64 {
            t.insert(Tuple::bare(i * 7, 10_000 + i));
        }
        assert_eq!(t.len(), 256);
    }

    #[test]
    fn seal_empty_tree_returns_none() {
        assert!(tree().seal().is_none());
    }

    #[test]
    fn sealed_region_is_exact_hull() {
        let t = tree();
        t.insert(Tuple::bare(10, 500));
        t.insert(Tuple::bare(90, 100));
        let sealed = t.seal().unwrap();
        assert_eq!(sealed.region.keys, KeyInterval::new(10, 90));
        assert_eq!(sealed.region.times, TimeInterval::new(100, 500));
    }

    #[test]
    fn duplicate_keys_are_preserved() {
        let t = tree();
        for i in 0..100u64 {
            t.insert(Tuple::bare(42, i));
        }
        let hits = t.query(&KeyInterval::point(42), &TimeInterval::full(), None);
        assert_eq!(hits.len(), 100);
    }

    #[test]
    fn bloom_skips_temporally_disjoint_leaves() {
        let t = tree();
        // Two temporal batches in well-separated key ranges.
        for i in 0..256u64 {
            t.insert(Tuple::bare(i, 1_000 + i));
        }
        t.update_template();
        self_check_bloom(&t);
    }

    fn self_check_bloom(t: &TemplateBTree) {
        let before = t.stats().bloom_skips;
        // Query a time window long before any tuple: all leaves skippable.
        let hits = t.query(&KeyInterval::full(), &TimeInterval::new(0, 10), None);
        assert!(hits.is_empty());
        assert!(t.stats().bloom_skips > before, "bloom produced no skips");
    }

    #[test]
    fn concurrent_insert_and_query_is_linearizable_enough() {
        use std::thread;
        let t = Arc::new(tree());
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let t = Arc::clone(&t);
                thread::spawn(move || {
                    for i in 0..500u64 {
                        t.insert(Tuple::bare(w * 10_000 + i, i));
                    }
                })
            })
            .collect();
        // Interleave queries; they must never panic or return junk.
        for _ in 0..50 {
            let hits = t.query(&KeyInterval::new(0, 9_999), &TimeInterval::full(), None);
            assert!(hits.iter().all(|h| h.key < 10_000));
        }
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(t.len(), 2_000);
        assert_eq!(
            t.query(&KeyInterval::full(), &TimeInterval::full(), None)
                .len(),
            2_000
        );
    }

    #[test]
    fn duplicate_heavy_keys_do_not_thrash_rebuilds() {
        // Every tuple shares one key: no range partition can balance, so
        // after at most a handful of (geometrically gated) rebuilds the
        // detector must go quiet instead of rebuilding on every check.
        let t = tree();
        for i in 0..4_096u64 {
            t.insert(Tuple::bare(7, i));
        }
        let updates = t.stats().template_updates;
        assert!(
            updates <= 12,
            "rebuild thrash: {updates} updates for 4096 one-key inserts"
        );
        assert_eq!(t.len(), 4_096);
        assert_eq!(
            t.query(&KeyInterval::point(7), &TimeInterval::full(), None)
                .len(),
            4_096
        );
    }

    /// The hull of everything a full scan returns, as `region()` should be.
    fn scanned_hull(t: &TemplateBTree) -> Option<Region> {
        t.query(&KeyInterval::full(), &TimeInterval::full(), None)
            .iter()
            .map(|e| Region::new(KeyInterval::point(e.key), TimeInterval::point(e.ts)))
            .reduce(|a, b| a.hull(&b))
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// The hull the tree keeps without a leaf latch equals the hull of
        /// its contents through any interleaving of batches (some large
        /// enough to trigger skew checks), explicit template updates and
        /// seals; a seal's region is the hull it emptied.
        #[test]
        fn region_is_the_hull_of_the_contents(
            steps in proptest::collection::vec(
                (0u8..6, proptest::collection::vec((0u64..3_000, 0u64..3_000), 0..150)),
                1..16,
            ),
        ) {
            let t = tree();
            for (op, batch) in steps {
                match op {
                    0 => t.update_template(),
                    1 => {
                        let hull = scanned_hull(&t);
                        proptest::prop_assert_eq!(t.seal().map(|s| s.region), hull);
                    }
                    _ => t.insert_batch(batch.into_iter().map(|(k, ts)| Tuple::bare(k, ts)).collect()),
                }
                proptest::prop_assert_eq!(t.region(), scanned_hull(&t));
                proptest::prop_assert_eq!(t.region().is_none(), t.len() == 0);
            }
        }
    }
}
