//! Query servers: subquery execution over chunks (paper §IV-B).
//!
//! A query server executes subqueries whose data regions have been flushed.
//! Execution follows the paper exactly:
//!
//! 1. load the chunk's *template* (index block) — from the LRU cache when
//!    possible, otherwise from the DFS (one file access);
//! 2. locate the key-qualifying leaves through the template;
//! 3. skip leaves whose min/max time bounds or temporal bloom filter prove
//!    they hold no qualifying tuple (§IV-B);
//! 4. fetch the remaining leaf pages — cache first, then DFS with
//!    contiguous misses coalesced into one access — and filter tuples.
//!
//! Templates and leaf pages are the two LRU caching-unit kinds; the server's
//! cluster node determines whether DFS reads take the co-located fast path.
//!
//! An aggregate subquery ([`QueryServer::aggregate`]) answers one chunk's
//! share of an aggregate without shipping a tuple: the chunk's summary
//! over the wheel interior, the leaf directory's landmark aggregate for
//! every leaf wholly inside a fringe, and a scan of only the leaves a
//! fringe cuts (DESIGN.md §4b).
//!
//! The read path is parallel inside one server (the paper's millisecond
//! latencies at high client concurrency, §VI-C):
//!
//! * DFS access is bounded by an **I/O permit set** ([`IO_PERMITS`])
//!   instead of one coarse lock, so independent coalesced leaf reads from
//!   concurrent subqueries proceed together;
//! * template and summary loads are **singleflighted** — concurrent
//!   subqueries missing on the same chunk's index block issue one DFS read
//!   and share the parsed result;
//! * within a subquery, each coalesced miss-run is read when its first
//!   leaf comes up, on the subquery's own thread: no thread is started to
//!   read ahead (starting one cost more than the overlap it bought, and a
//!   cold scan paid it on every subquery with more than one run).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use waterwheel_agg::{plan, AggShare, WheelSummary, SLICE_BITS};
use waterwheel_cluster::Cluster;
use waterwheel_core::aggregate::{default_measure, MeasureFn};
use waterwheel_core::{
    ChunkId, CounterRegistry, KeyInterval, NodeId, Region, Result, ServerId, SubQuery,
    SystemConfig, TimeInterval, Tuple, WwError,
};
use waterwheel_index::columnar::{DecodedLeaf, ScanScratch};
use waterwheel_storage::{
    Block, BlockCache, BlockKey, ChunkIndex, ChunkReader, SimDfs, Singleflight,
};

/// Upper bound on pooled scan scratches; beyond this, finished scratches
/// are dropped rather than retained. Concurrent subqueries rarely exceed
/// the worker count, so the pool stays tiny.
const SCRATCH_POOL_CAP: usize = 32;

/// Concurrent DFS reads a query server of a deployment may have in flight
/// (its I/O permit set).
pub const IO_PERMITS: usize = 4;

waterwheel_core::counters! {
    /// Per-server execution counters (`query.*`).
    pub struct QueryServerStats {
        /// Subqueries executed.
        subqueries,
        /// Leaf pages read from the DFS.
        leaf_reads,
        /// Leaf pages served from the cache.
        leaf_cache_hits,
        /// Leaves skipped by temporal pruning (bounds or bloom).
        leaves_pruned,
        /// Leaves skipped because their MIN/MAX measure bounds are disjoint
        /// from the subquery's measure range.
        measure_pruned_leaves,
        /// Templates (index blocks) read from the DFS.
        template_reads,
        /// Nanoseconds spent reading and parsing the templates read from
        /// the DFS (after the I/O permit was granted).
        template_load_ns,
        /// Header and index-block bytes of the templates read from the DFS.
        template_bytes,
        /// Templates served from the cache.
        template_cache_hits,
        /// Chunk summaries read from the DFS (footer-only accesses).
        summary_reads,
        /// Chunk summaries served from the cache.
        summary_cache_hits,
        /// Nanoseconds spent waiting for an I/O permit (contention signal:
        /// stays near zero until concurrent subqueries outnumber the permits).
        io_wait_ns,
        /// Total busy nanoseconds (for load-balance diagnostics).
        busy_ns,
        /// Columnar scans served from an already-decoded cached leaf (the
        /// decoded-column cache tier's hits).
        column_decode_hits,
        /// Columnar scans that had to decode the leaf's key/timestamp columns
        /// from their encoded image first.
        column_decode_misses,
        /// Rows surviving the key/time selection vector across all columnar
        /// scans (before any residual predicate).
        scan_selected_rows,
    }
}

/// A counting semaphore bounding concurrent DFS accesses, with wait-time
/// accounting. `permits = 1` degenerates to the old serial I/O lock.
struct IoPermits {
    max: usize,
    available: Mutex<usize>,
    freed: Condvar,
}

impl IoPermits {
    fn new(max: usize) -> Self {
        let max = max.max(1);
        Self {
            max,
            available: Mutex::new(max),
            freed: Condvar::new(),
        }
    }

    /// Blocks until a permit is free; records the wait in `wait_ns`.
    fn acquire<'a>(&'a self, wait_ns: &AtomicU64) -> IoPermitGuard<'a> {
        let t0 = std::time::Instant::now();
        let mut available = self.available.lock().unwrap_or_else(|e| e.into_inner());
        while *available == 0 {
            available = self
                .freed
                .wait(available)
                .unwrap_or_else(|e| e.into_inner());
        }
        *available -= 1;
        wait_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        IoPermitGuard { permits: self }
    }
}

struct IoPermitGuard<'a> {
    permits: &'a IoPermits,
}

impl Drop for IoPermitGuard<'_> {
    fn drop(&mut self) {
        let mut available = self
            .permits
            .available
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        *available += 1;
        debug_assert!(*available <= self.permits.max);
        self.permits.freed.notify_one();
    }
}

/// One leaf scan's target: a rectangle of one chunk, and the residual
/// predicate its tuples must pass.
#[derive(Clone, Copy)]
struct Scan<'a> {
    index: &'a ChunkIndex,
    chunk: ChunkId,
    keys: &'a KeyInterval,
    times: &'a TimeInterval,
    predicate: Option<&'a (dyn Fn(&Tuple) -> bool + Sync)>,
}

/// A query server bound to a cluster node.
pub struct QueryServer {
    id: ServerId,
    node: NodeId,
    dfs: SimDfs,
    cache: BlockCache,
    stats: Arc<QueryServerStats>,
    /// Failure injection: when set, every subquery errors.
    failed: AtomicBool,
    /// Bounds concurrent DFS accesses.
    io_permits: IoPermits,
    /// Concurrent template loads of one chunk collapse to one DFS read.
    template_flights: Singleflight<ChunkId, Arc<waterwheel_storage::ChunkIndex>>,
    /// Same for footer-only summary loads.
    summary_flights: Singleflight<ChunkId, Option<Arc<WheelSummary>>>,
    /// Per-worker scratch arenas: each subquery checks one out and reuses
    /// its decode/select buffers across every leaf it touches.
    scratch_pool: Mutex<Vec<ScanScratch>>,
    /// Measure folded by aggregate subqueries over the leaves they scan;
    /// must be the one the chunks' summaries and directories were written
    /// with.
    measure: parking_lot::RwLock<MeasureFn>,
}

impl QueryServer {
    /// Creates a query server on `node` with a `cache_bytes` LRU budget and
    /// the serial defaults (one cache shard, one I/O permit) — the
    /// configuration the deterministic unit tests count DFS accesses under.
    /// Deployments go through [`Self::with_config`].
    pub fn new(id: ServerId, node: NodeId, dfs: SimDfs, cache_bytes: usize) -> Self {
        Self::with_layout(id, node, dfs, cache_bytes, 1, 1)
    }

    /// Creates a deployment's query server: the cache sized and sharded by
    /// `cfg` (`cache_capacity_bytes`, `cache_shards`), [`IO_PERMITS`]
    /// concurrent DFS reads.
    pub fn with_config(id: ServerId, node: NodeId, dfs: SimDfs, cfg: &SystemConfig) -> Self {
        Self::with_layout(
            id,
            node,
            dfs,
            cfg.cache_capacity_bytes,
            cfg.cache_shards,
            IO_PERMITS,
        )
    }

    /// Fully explicit constructor (benches and the component tests that
    /// compare layouts).
    pub fn with_layout(
        id: ServerId,
        node: NodeId,
        dfs: SimDfs,
        cache_bytes: usize,
        cache_shards: usize,
        io_permits: usize,
    ) -> Self {
        Self {
            id,
            node,
            dfs,
            cache: BlockCache::with_shards(cache_bytes, cache_shards),
            stats: Arc::default(),
            failed: AtomicBool::new(false),
            io_permits: IoPermits::new(io_permits),
            template_flights: Singleflight::new(),
            summary_flights: Singleflight::new(),
            scratch_pool: Mutex::new(Vec::new()),
            measure: parking_lot::RwLock::new(default_measure()),
        }
    }

    /// Installs the measure aggregate subqueries fold (must match the
    /// indexing servers').
    pub fn set_measure(&self, measure: MeasureFn) {
        *self.measure.write() = measure;
    }

    /// This server's id.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// The cluster node hosting this server.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Execution counters.
    pub fn stats(&self) -> &Arc<QueryServerStats> {
        &self.stats
    }

    /// Registers this server's counter sets — execution, block cache, and
    /// the template/summary singleflight groups — under its id.
    pub fn register_counters(&self, counters: &CounterRegistry) {
        let id = Some(self.id);
        counters.register("query", id, self.stats.clone());
        counters.register("cache", id, self.cache.stats().clone());
        counters.register(
            "query.template_flights",
            id,
            self.template_flights.stats().clone(),
        );
        counters.register(
            "query.summary_flights",
            id,
            self.summary_flights.stats().clone(),
        );
    }

    /// Cache handle (diagnostics and the cache-ablation bench).
    pub fn cache(&self) -> &BlockCache {
        &self.cache
    }

    /// Injects (or clears) a failure; failed servers error on every
    /// subquery, which the coordinator handles by re-dispatching (§V).
    pub fn set_failed(&self, failed: bool) {
        self.failed.store(failed, Ordering::SeqCst);
        if failed {
            // A restarted server loses its cache (and the cache's stats:
            // a fresh instance must not report pre-crash hit ratios).
            self.cache.clear();
        }
    }

    /// Whether failure injection is active.
    pub fn is_failed(&self) -> bool {
        self.failed.load(Ordering::SeqCst)
    }

    /// Whether this server is co-located with one of the chunk's replicas.
    pub fn is_colocated(&self, chunk: ChunkId, cluster: &Cluster) -> bool {
        cluster.is_colocated(self.id, chunk, self.dfs.replication())
    }

    /// Executes a chunk subquery: the tuples of its rectangle that pass
    /// its predicate and, under this server's measure, its measure range.
    pub fn execute(&self, sq: &SubQuery, chunk: ChunkId) -> Result<Vec<Tuple>> {
        self.timed(|| {
            let index = self.load_template(chunk)?;
            let leaves = self.select_leaves(&index, sq);
            let measure = self.measure.read().clone();
            let keep = |t: &Tuple| sq.keeps(t, &*measure);
            let keep: Option<&(dyn Fn(&Tuple) -> bool + Sync)> = sq.filters().then_some(&keep);
            self.with_scratch(|scratch| {
                let scan = Scan {
                    index: &index,
                    chunk,
                    keys: &sq.keys,
                    times: &sq.times,
                    predicate: keep,
                };
                self.scan_leaves(&scan, &leaves, scratch)
            })
        })
    }

    /// Reads a chunk's sealed aggregate summary — from the LRU cache when
    /// possible, otherwise via a footer-only DFS read (leaf pages are never
    /// touched; concurrent misses on one chunk share a single read). Chunks
    /// written without a summary return `Ok(None)`.
    fn read_summary(&self, chunk: ChunkId) -> Result<Option<Arc<WheelSummary>>> {
        if let Some(Block::Summary(summary)) = self.cache.get(&BlockKey::Summary(chunk)) {
            self.stats
                .summary_cache_hits
                .fetch_add(1, Ordering::Relaxed);
            return Ok(Some(summary));
        }
        self.summary_flights.load(chunk, || {
            let summary = {
                let _io = self.io_permits.acquire(&self.stats.io_wait_ns);
                let file = self.dfs.open(chunk, Some(self.node))?;
                ChunkReader::new(file).read_summary()?
            };
            self.stats.summary_reads.fetch_add(1, Ordering::Relaxed);
            Ok(summary.map(|s| {
                let s = Arc::new(s);
                self.cache
                    .put(BlockKey::Summary(chunk), Block::Summary(Arc::clone(&s)));
                s
            }))
        })
    }

    /// Loads a chunk's template: cache, then a singleflighted DFS read.
    fn load_template(&self, chunk: ChunkId) -> Result<Arc<waterwheel_storage::ChunkIndex>> {
        if let Some(Block::Index(idx)) = self.cache.get(&BlockKey::Index(chunk)) {
            self.stats
                .template_cache_hits
                .fetch_add(1, Ordering::Relaxed);
            return Ok(idx);
        }
        self.template_flights.load(chunk, || {
            let idx = {
                let _io = self.io_permits.acquire(&self.stats.io_wait_ns);
                let t0 = std::time::Instant::now();
                let file = self.dfs.open(chunk, Some(self.node))?;
                let idx = ChunkReader::new(file).load_index()?;
                self.stats
                    .template_load_ns
                    .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                idx
            };
            self.stats.template_reads.fetch_add(1, Ordering::Relaxed);
            self.stats
                .template_bytes
                .fetch_add(idx.template_len, Ordering::Relaxed);
            self.cache
                .put(BlockKey::Index(chunk), Block::Index(Arc::clone(&idx)));
            Ok(idx)
        })
    }

    /// Answers one chunk's share of an aggregate over `sq`'s rectangle —
    /// the query's own, not clipped to the chunk. The rectangle splits
    /// against the wheel ([`plan::split`]); the chunk's summary answers the
    /// interior when it was sliced like the plan, and its residues join
    /// the fringes (without a usable summary the whole rectangle is one
    /// fringe). In each fringe, a leaf whose keys and times lie wholly
    /// inside merges its directory entry unread; the leaves the fringe cuts
    /// are scanned and their matching tuples folded under the measure. A
    /// filtered subquery ([`SubQuery::filters`]) folds its filtered scan
    /// instead: summary cells and leaf entries cannot see a filter.
    pub fn aggregate(&self, sq: &SubQuery, chunk: ChunkId) -> Result<AggShare> {
        let measure = self.measure.read().clone();
        let mut share = AggShare::default();
        if sq.filters() {
            share.fold(&self.execute(sq, chunk)?, &*measure);
            return Ok(share);
        }
        self.timed(|| {
            let index = self.load_template(chunk)?;
            let split = plan::split(&sq.keys, &sq.times, SLICE_BITS);
            let summary = match split.interior {
                Some(_) => self.read_summary(chunk)?,
                None => None,
            };
            let fringes = match summary.filter(|s| s.slice_bits() == SLICE_BITS) {
                Some(s) => {
                    let out = split.interior.map(|i| s.fold(i.slices, &i.covered));
                    share.fold_interior(&split, out)
                }
                None if split.interior.is_some() => vec![Region::new(sq.keys, sq.times)],
                None => split.fringes,
            };
            self.with_scratch(|scratch| -> Result<()> {
                for fringe in &fringes {
                    let mut cut = Vec::new();
                    for li in self.leaves_in(&index, &fringe.keys, &fringe.times) {
                        match index.leaf_landmark_inside(li, fringe) {
                            Some(landmark) => {
                                share.agg.merge(&landmark);
                                share.leaves_merged += 1;
                            }
                            None => cut.push(li),
                        }
                    }
                    let scan = Scan {
                        index: &index,
                        chunk,
                        keys: &fringe.keys,
                        times: &fringe.times,
                        predicate: None,
                    };
                    share.fold(&self.scan_leaves(&scan, &cut, scratch)?, &*measure);
                }
                Ok(())
            })?;
            Ok(share)
        })
    }

    /// Runs one subquery's work unless the server is failed, counting it
    /// and its busy time.
    fn timed<T>(&self, work: impl FnOnce() -> Result<T>) -> Result<T> {
        let t0 = std::time::Instant::now();
        if self.is_failed() {
            return Err(WwError::Injected("query server down"));
        }
        let result = work();
        self.stats.subqueries.fetch_add(1, Ordering::Relaxed);
        self.stats
            .busy_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        result
    }

    /// Checks a scan scratch out of the pool (or a fresh one under
    /// contention), runs `work` with it, and returns it for the next
    /// subquery — the per-worker arena of the scan path.
    fn with_scratch<T>(&self, work: impl FnOnce(&mut ScanScratch) -> T) -> T {
        let mut scratch = self
            .scratch_pool
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop()
            .unwrap_or_default();
        let result = work(&mut scratch);
        let mut pool = self.scratch_pool.lock().unwrap_or_else(|e| e.into_inner());
        if pool.len() < SCRATCH_POOL_CAP {
            pool.push(scratch);
        }
        result
    }

    /// The leaves whose keys may meet `keys` and whose times are not
    /// pruned for `times` (bounds or bloom); pruned leaves are counted.
    fn leaves_in<'a>(
        &'a self,
        index: &'a ChunkIndex,
        keys: &KeyInterval,
        times: &'a TimeInterval,
    ) -> impl Iterator<Item = usize> + 'a {
        let (lo, hi) = index.leaf_range(keys);
        (lo..=hi).filter(move |&li| {
            let pruned = index.leaf_prunable(li, times);
            if pruned {
                self.stats.leaves_pruned.fetch_add(1, Ordering::Relaxed);
            }
            !pruned
        })
    }

    /// The leaves a range subquery reads: those of [`Self::leaves_in`] not
    /// pruned by measure bounds.
    fn select_leaves(&self, index: &ChunkIndex, sq: &SubQuery) -> Vec<usize> {
        self.leaves_in(index, &sq.keys, &sq.times)
            .filter(|&li| {
                // MIN/MAX measure pruning (composes with the temporal
                // pruning): bounds are conservative, so a disjoint leaf
                // provably holds no qualifying tuple.
                let disjoint = matches!(
                    (sq.measure_range, index.leaves[li].measure),
                    (Some((qlo, qhi)), Some(m)) if m.max < qlo || m.min > qhi
                );
                if disjoint {
                    self.stats
                        .measure_pruned_leaves
                        .fetch_add(1, Ordering::Relaxed);
                }
                !disjoint
            })
            .collect()
    }

    /// Scans `leaves` (ascending) of one chunk for the tuples of `scan`'s
    /// rectangle that pass its predicate. One classification pass probes
    /// the cache for each leaf's decoded form and coalesces the misses into
    /// contiguous runs, each one DFS access.
    fn scan_leaves(
        &self,
        scan: &Scan<'_>,
        leaves: &[usize],
        scratch: &mut ScanScratch,
    ) -> Result<Vec<Tuple>> {
        let Scan {
            index,
            chunk,
            keys,
            times,
            predicate,
        } = *scan;
        // A slot holds the leaf's cached decoded form (payload blocks stay
        // compressed, scans skip the varint kernels), or `None` for a miss.
        let mut slots: Vec<(usize, Option<Arc<DecodedLeaf>>)> = Vec::with_capacity(leaves.len());
        let mut miss_runs: Vec<(usize, usize)> = Vec::new(); // inclusive
        for &li in leaves {
            match self.cache.get(&BlockKey::Leaf(chunk, li as u32)) {
                Some(Block::ColumnDecoded(leaf)) => {
                    self.stats.leaf_cache_hits.fetch_add(1, Ordering::Relaxed);
                    self.stats
                        .column_decode_hits
                        .fetch_add(1, Ordering::Relaxed);
                    slots.push((li, Some(leaf)));
                }
                _ => {
                    match miss_runs.last_mut() {
                        // Extend the current run only across *consecutive*
                        // leaves — a skipped or cached leaf in between ends
                        // the coalesced read.
                        Some((_, mhi)) if *mhi + 1 == li => *mhi = li,
                        _ => miss_runs.push((li, li)),
                    }
                    slots.push((li, None));
                }
            }
        }
        let mut out = Vec::new();
        // Fetch + filter, in leaf order. Column scans materialize late:
        // the key/time selection vector alone picks survivors and the
        // payload block is only decompressed when some survive; the
        // predicate then filters the materialized rows. Survivor counts
        // feed `scan_selected_rows`.
        let collect_hits = |hits: Vec<Tuple>, out: &mut Vec<Tuple>| {
            self.stats
                .scan_selected_rows
                .fetch_add(hits.len() as u64, Ordering::Relaxed);
            match predicate {
                Some(p) => out.extend(hits.into_iter().filter(|t| p(t))),
                None => out.extend(hits),
            }
        };
        // An encoded image pays the decode once: the decoded form is what
        // gets cached, so the next scan of this leaf is a decode hit.
        let scan_cols = |li: usize,
                         image: &[u8],
                         out: &mut Vec<Tuple>,
                         scratch: &mut ScanScratch|
         -> Result<()> {
            self.stats
                .column_decode_misses
                .fetch_add(1, Ordering::Relaxed);
            let count = index.leaves[li].count;
            let decoded = Arc::new(DecodedLeaf::decode(image, count, true, scratch)?);
            collect_hits(decoded.scan(keys, times, scratch)?, out);
            self.cache.put(
                BlockKey::Leaf(chunk, li as u32),
                Block::ColumnDecoded(decoded),
            );
            Ok(())
        };
        // One coalesced DFS access for the miss run `mlo..=mhi`: read the
        // encoded images under an I/O permit and count them; decoding and
        // caching wait for the filter step.
        let fetch_run = |mlo: usize, mhi: usize| -> Result<Vec<Vec<u8>>> {
            let pages = {
                let _io = self.io_permits.acquire(&self.stats.io_wait_ns);
                ChunkReader::new(self.dfs.open(chunk, Some(self.node))?)
                    .read_leaf_pages(index, mlo, mhi)?
            };
            self.stats
                .leaf_reads
                .fetch_add((mhi - mlo + 1) as u64, Ordering::Relaxed);
            Ok(pages)
        };
        // Filters every slot in leaf order. A decoded cached leaf skips the
        // column decode entirely; a miss takes the next image of the
        // current run, and the next run is read when its first leaf comes
        // up — in leaf order, on this thread.
        let mut runs = miss_runs.iter();
        let mut pages = Vec::new().into_iter();
        for (li, slot) in &slots {
            match slot {
                Some(leaf) => collect_hits(leaf.scan(keys, times, scratch)?, &mut out),
                None => {
                    let image = match pages.next() {
                        Some(image) => image,
                        None => {
                            let too_few =
                                || WwError::InvalidState("leaf read returned too few pages".into());
                            let &(mlo, mhi) = runs.next().ok_or_else(too_few)?;
                            pages = fetch_run(mlo, mhi)?.into_iter();
                            pages.next().ok_or_else(too_few)?
                        }
                    };
                    scan_cols(*li, &image, &mut out, scratch)?;
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waterwheel_cluster::LatencyModel;
    use waterwheel_core::{KeyInterval, QueryId, SubQueryId, SubQueryTarget, TimeInterval};
    use waterwheel_index::{IndexConfig, TemplateBTree, TupleIndex};
    use waterwheel_storage::write_chunk;

    fn setup(name: &str) -> (SimDfs, ChunkId, Vec<Tuple>) {
        let root = std::env::temp_dir().join(format!("ww-qs-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let dfs = SimDfs::new(root, Cluster::new(4), 3, LatencyModel::default()).unwrap();
        let cfg = IndexConfig {
            leaf_capacity: 16,
            fanout: 4,
            skew_check_interval: 64,
            ..IndexConfig::default()
        };
        let tree = TemplateBTree::new(KeyInterval::full(), cfg);
        for i in 0..600u64 {
            tree.insert(Tuple::new(i * 5, 1_000 + i, vec![0u8; 6]));
        }
        let sealed = tree.seal().unwrap();
        let tuples = sealed.clone().into_tuples();
        let chunk = ChunkId(0);
        dfs.write_chunk(chunk, &write_chunk(&sealed)).unwrap();
        (dfs, chunk, tuples)
    }

    fn subquery(keys: KeyInterval, times: TimeInterval, chunk: ChunkId) -> SubQuery {
        SubQuery {
            id: SubQueryId {
                query: QueryId(0),
                index: 0,
            },
            keys,
            times,
            predicate: None,
            measure_range: None,
            target: SubQueryTarget::Chunk(chunk),
            offset: None,
        }
    }

    #[test]
    fn executes_subquery_correctly() {
        let (dfs, chunk, tuples) = setup("exec");
        let qs = QueryServer::new(ServerId(0), NodeId(0), dfs, 1 << 20);
        let keys = KeyInterval::new(500, 1_500);
        let times = TimeInterval::new(1_100, 1_250);
        let sq = subquery(keys, times, chunk);
        let mut got = qs.execute(&sq, chunk).unwrap();
        got.sort_by_key(|t| (t.key, t.ts));
        let want: Vec<Tuple> = tuples
            .iter()
            .filter(|t| keys.contains(t.key) && times.contains(t.ts))
            .cloned()
            .collect();
        assert_eq!(got, want);
        assert!(!got.is_empty());
    }

    #[test]
    fn parallel_layout_matches_serial_results() {
        let (dfs, chunk, tuples) = setup("parallel-exact");
        let qs = QueryServer::with_layout(ServerId(0), NodeId(0), dfs, 1 << 20, 8, 4);
        let keys = KeyInterval::new(500, 1_500);
        let times = TimeInterval::new(1_100, 1_250);
        let sq = subquery(keys, times, chunk);
        let mut got = qs.execute(&sq, chunk).unwrap();
        got.sort_by_key(|t| (t.key, t.ts));
        let want: Vec<Tuple> = tuples
            .iter()
            .filter(|t| keys.contains(t.key) && times.contains(t.ts))
            .cloned()
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn cache_serves_repeat_subqueries() {
        let (dfs, chunk, _) = setup("cache");
        let qs = QueryServer::new(ServerId(0), NodeId(0), dfs.clone(), 8 << 20);
        let sq = subquery(KeyInterval::new(0, 2_000), TimeInterval::full(), chunk);
        qs.execute(&sq, chunk).unwrap();
        let opens_after_first = dfs.stats().opens.load(Ordering::Relaxed);
        let leaf_reads_first = qs.stats().leaf_reads.load(Ordering::Relaxed);
        assert!(leaf_reads_first > 0);
        assert_eq!(qs.stats().template_reads.load(Ordering::Relaxed), 1);
        qs.execute(&sq, chunk).unwrap();
        // Second run: no new DFS accesses, all from cache.
        assert_eq!(dfs.stats().opens.load(Ordering::Relaxed), opens_after_first);
        assert!(qs.stats().leaf_cache_hits.load(Ordering::Relaxed) >= leaf_reads_first);
        assert_eq!(qs.stats().template_cache_hits.load(Ordering::Relaxed), 1);
    }

    /// `template_load_ns` and `template_bytes` cost only the templates read
    /// from the DFS: the cold load counts its header and index block, a
    /// cache hit adds nothing.
    #[test]
    fn only_a_cold_template_load_is_charged() {
        let (dfs, chunk, _) = setup("template-cost");
        let qs = QueryServer::new(ServerId(0), NodeId(0), dfs.clone(), 8 << 20);
        let sq = subquery(KeyInterval::new(0, 2_000), TimeInterval::full(), chunk);
        let cost = |qs: &QueryServer| {
            let s = qs.stats();
            let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
            (
                get(&s.template_reads),
                get(&s.template_load_ns),
                get(&s.template_bytes),
            )
        };
        assert_eq!(cost(&qs), (0, 0, 0));
        qs.execute(&sq, chunk).unwrap();
        let file = dfs.open(chunk, None).unwrap();
        let template_len = ChunkReader::new(file).load_index().unwrap().template_len;
        let (reads, ns, bytes) = cost(&qs);
        assert_eq!((reads, bytes), (1, template_len));
        assert!(ns > 0);
        qs.execute(&sq, chunk).unwrap();
        assert_eq!(qs.stats().template_cache_hits.load(Ordering::Relaxed), 1);
        assert_eq!(cost(&qs), (reads, ns, bytes));
    }

    #[test]
    fn concurrent_template_misses_singleflight_to_one_read() {
        let (dfs, chunk, _) = setup("singleflight");
        let dfs_latency = SimDfs::new(
            dfs.root().to_path_buf(),
            Cluster::new(4),
            3,
            LatencyModel {
                open: std::time::Duration::from_millis(20),
                bandwidth: None,
                local_factor: 1.0,
            },
        )
        .unwrap();
        let qs = Arc::new(QueryServer::with_layout(
            ServerId(0),
            NodeId(0),
            dfs_latency,
            8 << 20,
            8,
            8,
        ));
        let sq = subquery(KeyInterval::new(0, 50), TimeInterval::full(), chunk);
        std::thread::scope(|scope| {
            for _ in 0..6 {
                let qs = Arc::clone(&qs);
                let sq = sq.clone();
                scope.spawn(move || {
                    qs.execute(&sq, chunk).unwrap();
                });
            }
        });
        // All six subqueries needed the template, but the 20 ms open gave
        // them time to pile onto one flight: far fewer than 6 reads.
        let reads = qs.stats().template_reads.load(Ordering::Relaxed);
        let hits = qs.stats().template_cache_hits.load(Ordering::Relaxed);
        assert!(reads >= 1);
        assert_eq!(reads + hits + qs.template_flights.shared(), 6);
        assert!(
            qs.template_flights.shared() > 0 || hits > 0,
            "no de-duplication happened at all"
        );
    }

    #[test]
    fn temporal_pruning_skips_leaves() {
        let (dfs, chunk, _) = setup("prune");
        let qs = QueryServer::new(ServerId(0), NodeId(0), dfs, 1 << 20);
        // All data has ts ≥ 1000; query far in the past.
        let sq = subquery(KeyInterval::full(), TimeInterval::new(0, 10), chunk);
        let got = qs.execute(&sq, chunk).unwrap();
        assert!(got.is_empty());
        assert!(qs.stats().leaves_pruned.load(Ordering::Relaxed) > 0);
        assert_eq!(qs.stats().leaf_reads.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn key_range_reads_only_needed_leaves() {
        let (dfs, chunk, _) = setup("selective");
        let qs = QueryServer::new(ServerId(0), NodeId(0), dfs, 1 << 20);
        let narrow = subquery(KeyInterval::new(0, 100), TimeInterval::full(), chunk);
        qs.execute(&narrow, chunk).unwrap();
        let narrow_reads = qs.stats().leaf_reads.load(Ordering::Relaxed);
        let wide = subquery(KeyInterval::full(), TimeInterval::full(), chunk);
        qs.execute(&wide, chunk).unwrap();
        let wide_reads = qs.stats().leaf_reads.load(Ordering::Relaxed) - narrow_reads;
        assert!(
            wide_reads > narrow_reads * 2,
            "narrow {narrow_reads} vs wide {wide_reads}"
        );
    }

    #[test]
    fn mid_run_cache_hit_still_coalesces_neighbours() {
        // Warm exactly one leaf in the middle of the qualifying range, then
        // scan everything: the runs on either side of the warm leaf must be
        // read, the warm leaf must come from cache, and the result must be
        // exact.
        let (dfs, chunk, tuples) = setup("midhit");
        let qs = QueryServer::new(ServerId(0), NodeId(0), dfs, 8 << 20);
        let narrow = subquery(KeyInterval::new(1_400, 1_500), TimeInterval::full(), chunk);
        qs.execute(&narrow, chunk).unwrap();
        let warmed_hits = qs.stats().leaf_cache_hits.load(Ordering::Relaxed);
        let wide = subquery(KeyInterval::full(), TimeInterval::full(), chunk);
        let mut got = qs.execute(&wide, chunk).unwrap();
        got.sort_by_key(|t| (t.key, t.ts, t.payload.clone()));
        let mut want = tuples.clone();
        want.sort_by_key(|t| (t.key, t.ts, t.payload.clone()));
        assert_eq!(got, want);
        assert!(
            qs.stats().leaf_cache_hits.load(Ordering::Relaxed) > warmed_hits,
            "warm leaf was re-read instead of served from cache"
        );
    }

    #[test]
    fn inline_and_reader_thread_reads_agree() {
        // The same wide scan, reached two ways. Warming a leaf at the *end*
        // of the range leaves one miss run with nothing cached ahead of it;
        // warming one in the *middle* leaves two runs with a cached leaf
        // between them. Tuples, the read/hit accounting and what ends up
        // cached must not depend on which way it went.
        let (dfs, chunk, mut tuples) = setup("paths");
        tuples.sort_by_key(|t| (t.key, t.ts));
        let wide = subquery(KeyInterval::full(), TimeInterval::full(), chunk);
        let run = |warm: KeyInterval| {
            let qs = QueryServer::new(ServerId(0), NodeId(0), dfs.clone(), 8 << 20);
            qs.execute(&subquery(warm, TimeInterval::full(), chunk), chunk)
                .unwrap();
            let warmed = qs.stats().leaf_reads.load(Ordering::Relaxed);
            assert!(warmed > 0);
            let mut got = qs.execute(&wide, chunk).unwrap();
            got.sort_by_key(|t| (t.key, t.ts));
            let leaves = qs.load_template(chunk).unwrap().leaves.len();
            // Which leaves ended up cached in decoded form.
            let cached: Vec<bool> = (0..leaves as u32)
                .map(|li| {
                    matches!(
                        qs.cache().get(&BlockKey::Leaf(chunk, li)),
                        Some(Block::ColumnDecoded(_))
                    )
                })
                .collect();
            let reads = qs.stats().leaf_reads.load(Ordering::Relaxed);
            let hits = qs.stats().leaf_cache_hits.load(Ordering::Relaxed);
            (
                got,
                leaves as u64,
                warmed,
                reads,
                hits,
                cached,
                qs.cache().used_bytes(),
            )
        };
        let last_key = tuples.last().unwrap().key;
        let inline = run(KeyInterval::new(last_key, last_key));
        let threaded = run(KeyInterval::new(1_400, 1_500));
        assert_eq!(inline.0, tuples, "inline read");
        assert_eq!(threaded.0, tuples, "reader-thread read");
        for (path, (_, leaves, warmed, reads, hits, cached, _)) in
            [("inline", &inline), ("threaded", &threaded)]
        {
            assert!(warmed < leaves, "{path}: the warm-up must leave misses");
            assert_eq!(reads, leaves, "{path}: every leaf read exactly once");
            assert_eq!(hits, warmed, "{path}: warm leaves served from cache");
            assert!(cached.iter().all(|&c| c), "{path}");
        }
        assert_eq!(inline.6, threaded.6, "cached bytes");
    }

    #[test]
    fn failure_injection_errors_and_clears_cache() {
        let (dfs, chunk, _) = setup("fail");
        let qs = QueryServer::new(ServerId(0), NodeId(0), dfs, 1 << 20);
        let sq = subquery(KeyInterval::full(), TimeInterval::full(), chunk);
        qs.execute(&sq, chunk).unwrap();
        assert!(!qs.cache().is_empty());
        let pre_crash_hits = qs.cache().stats().hits.load(Ordering::Relaxed)
            + qs.cache().stats().misses.load(Ordering::Relaxed);
        assert!(pre_crash_hits > 0);
        qs.set_failed(true);
        assert!(qs.execute(&sq, chunk).is_err());
        assert!(qs.cache().is_empty());
        // Restart simulation must not carry pre-crash cache counters.
        assert_eq!(qs.cache().stats().hits.load(Ordering::Relaxed), 0);
        assert_eq!(qs.cache().stats().misses.load(Ordering::Relaxed), 0);
        qs.set_failed(false);
        assert!(qs.execute(&sq, chunk).is_ok());
    }

    /// An aggregate merges every leaf wholly inside its rectangle from the
    /// directory and reads only the leaves the rectangle's edges cut.
    #[test]
    fn an_aggregate_reads_only_the_leaves_its_rectangle_cuts() {
        let (dfs, chunk, tuples) = setup("cut");
        // `setup` writes no measure; rewrite the chunk with one.
        let cfg = IndexConfig {
            leaf_capacity: 16,
            fanout: 4,
            skew_check_interval: 64,
            ..IndexConfig::default()
        };
        let tree = TemplateBTree::new(KeyInterval::full(), cfg);
        tree.insert_batch(tuples.clone());
        let measure = |t: &Tuple| t.key % 97;
        let bytes = waterwheel_storage::write_chunk_opts(
            &tree.seal().unwrap(),
            None,
            &waterwheel_storage::ChunkWriteOptions {
                measure: Some(&measure),
                ..Default::default()
            },
        );
        let chunk = ChunkId(chunk.raw() + 1);
        dfs.write_chunk(chunk, &bytes).unwrap();
        let qs = QueryServer::new(ServerId(0), NodeId(0), dfs, 1 << 20);
        qs.set_measure(Arc::new(measure));
        let (keys, times) = (
            KeyInterval::new(503, 2_498),
            TimeInterval::new(1_000, 1_599),
        );
        let share = qs.aggregate(&subquery(keys, times, chunk), chunk).unwrap();
        let mut want = waterwheel_agg::PartialAgg::empty();
        for t in tuples
            .iter()
            .filter(|t| keys.contains(t.key) && times.contains(t.ts))
        {
            want.insert(measure(t));
        }
        assert_eq!(share.agg, want);
        assert!(share.leaves_merged > 0);
        assert!(qs.stats().leaf_reads.load(Ordering::Relaxed) <= 2);
        assert!(share.scanned < want.count / 4, "{share:?}");
    }

    #[test]
    fn missing_chunk_is_an_error_not_a_panic() {
        let (dfs, _, _) = setup("missing");
        let qs = QueryServer::new(ServerId(0), NodeId(0), dfs, 1 << 20);
        let sq = subquery(KeyInterval::full(), TimeInterval::full(), ChunkId(99));
        assert!(qs.execute(&sq, ChunkId(99)).is_err());
    }

    #[test]
    fn concurrent_subqueries_on_parallel_layout_are_exact() {
        let (dfs, chunk, tuples) = setup("concurrent");
        let qs = Arc::new(QueryServer::with_layout(
            ServerId(0),
            NodeId(0),
            dfs,
            1 << 20,
            8,
            4,
        ));
        let cases: Vec<(KeyInterval, TimeInterval)> = vec![
            (KeyInterval::new(0, 500), TimeInterval::full()),
            (
                KeyInterval::new(400, 1_200),
                TimeInterval::new(1_050, 1_400),
            ),
            (KeyInterval::full(), TimeInterval::new(1_200, 1_300)),
            (KeyInterval::new(2_000, 2_999), TimeInterval::full()),
        ];
        std::thread::scope(|scope| {
            for (keys, times) in cases {
                let qs = Arc::clone(&qs);
                let tuples = &tuples;
                scope.spawn(move || {
                    for _ in 0..8 {
                        let sq = subquery(keys, times, chunk);
                        let mut got = qs.execute(&sq, chunk).unwrap();
                        got.sort_by_key(|t| (t.key, t.ts));
                        let want: Vec<Tuple> = tuples
                            .iter()
                            .filter(|t| keys.contains(t.key) && times.contains(t.ts))
                            .cloned()
                            .collect();
                        assert_eq!(got, want);
                    }
                });
            }
        });
    }
}
