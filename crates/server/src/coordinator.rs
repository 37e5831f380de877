//! The query coordinator: decomposition, parallel execution, merging, and
//! subquery-level fault tolerance (paper §IV-A, §IV-C, §V).
//!
//! For a query `q = ⟨K_q, T_q, f_q⟩` the coordinator:
//!
//! 1. finds all *query region candidates* — chunk regions via the metadata
//!    server's R-tree plus the indexing servers' in-memory regions (already
//!    widened by Δt, §IV-D);
//! 2. emits one subquery per candidate, each the intersection of the query
//!    with that candidate's region;
//! 3. executes in-memory subqueries on their owning indexing servers and
//!    chunk subqueries across the query servers under the configured
//!    dispatch policy (LADA by default, §IV-C);
//! 4. merges all partial results.
//!
//! Every hop is an RPC on the message plane: the coordinator holds only
//! server *addresses* and reaches indexing servers, query servers, and the
//! metadata server through its [`RpcClient`], inheriting the plane's
//! deadlines, retries, and fault injection.
//!
//! Subqueries fan out without creating threads: the coordinator owns one
//! persistent [`FanoutPool`] (at most `query_servers × WORKERS_PER_SERVER`
//! threads, started on first need, parked between queries, joined when the
//! coordinator is dropped or restarted). The thread that calls
//! [`Coordinator::execute`] is always the first worker of every dispatch
//! plan — a one-subquery plan never leaves it — and the pool only lends
//! helpers, so a busy pool slows nobody down and cannot deadlock
//! ([`dispatch::execute_plan`]). Chunk subqueries, their §V redispatch
//! rounds and the in-memory subqueries (one in-flight RPC per fresh-data
//! subquery, no shared lock on the indexing tier) all go through it.
//!
//! Fault tolerance (§V): a subquery that fails (server down, link cut) is
//! re-dispatched to the remaining healthy servers for up to
//! [`REDISPATCH_ROUNDS`] rounds; no intermediate results are persisted.

use crate::attributes::AttrRegistry;
use crate::dispatch::{self, DispatchPlan, DispatchPolicy, WORKERS_PER_SERVER};
use crate::fanout::FanoutPool;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use waterwheel_agg::{plan, AggregateAnswer, PartialAgg, WheelSummary, SLICE_BITS};
use waterwheel_cluster::Cluster;
use waterwheel_core::aggregate::{default_measure, AggregateQuery, MeasureFn};
use waterwheel_core::{
    ChunkId, Query, QueryId, QueryResult, Region, Result, ServerId, SubQuery, SubQueryId,
    SubQueryTarget, SystemConfig, Tuple, WwError,
};
use waterwheel_index::secondary::AttrProbe;
use waterwheel_index::Bitmap;
use waterwheel_net::{MetaClient, Request, RpcClient};

/// Rounds of subquery re-dispatch after the first dispatch plan (paper §V):
/// subqueries that failed (server crashed mid-plan, link down past the RPC
/// retry budget) are re-planned across the servers that still answer pings.
pub const REDISPATCH_ROUNDS: usize = 2;

/// Per-subquery answer slots, filled in by whichever worker runs each one.
type Slots<T> = Arc<Mutex<Vec<Option<T>>>>;

waterwheel_core::counters! {
    /// Coordinator-side counters (`coordinator.*`).
    pub struct CoordinatorStats {
        /// Queries executed.
        queries,
        /// Subqueries generated.
        subqueries,
        /// Subqueries re-dispatched after a server failure.
        redispatches,
        /// Chunk subqueries pruned by secondary attribute indexes (§VIII).
        attr_pruned_chunks,
        /// Chunk subqueries pruned because the chunk's registered MIN/MAX
        /// measure bounds cannot intersect the query's measure range.
        measure_pruned_chunks,
        /// Aggregate queries executed (DESIGN.md §4b).
        agg_queries,
        /// Wheel/summary cells merged into aggregate answers.
        agg_cells_merged,
        /// Aggregate subqueries that fell back to the tuple-scan path
        /// (fringes, residues, summary-less chunks, forced fallbacks).
        agg_fallback_subqueries,
        /// Largest chunk-subquery backlog handed to the query-server worker
        /// pools by a single dispatch plan (worker-pool queue depth).
        worker_queue_peak,
    }
}

/// An epoch-numbered routing table: which servers the coordinator plans
/// against. Starts from the construction-time lists at epoch 0 and follows
/// the metadata service's membership view as servers join and leave
/// ([`Coordinator::refresh_membership`]).
#[derive(Clone, Debug)]
struct RoutingTable {
    /// The membership epoch these lists were derived from.
    epoch: u64,
    /// Addresses of the query servers, in dispatch-slot order.
    query_servers: Vec<ServerId>,
    /// Addresses of the indexing servers (the fresh-data tier).
    indexing: Vec<ServerId>,
}

/// The query coordinator.
pub struct Coordinator {
    meta: MetaClient,
    rpc: RpcClient,
    cluster: Cluster,
    /// Epoch-numbered view of the server fleet.
    routing: RwLock<RoutingTable>,
    /// DFS replication factor, for locality-aware dispatch.
    replication: usize,
    policy: RwLock<DispatchPolicy>,
    /// Secondary-attribute registry shared with the indexing servers.
    attrs: RwLock<Arc<AttrRegistry>>,
    /// Ablation knob: when cleared, aggregate queries take the tuple-scan
    /// path end to end even if summaries exist.
    summaries_enabled: AtomicBool,
    /// Measure extractor, shared with the indexing servers so summary cells
    /// and scan folds agree.
    measure: RwLock<MeasureFn>,
    next_query: AtomicU64,
    stats: Arc<CoordinatorStats>,
    /// The threads subqueries fan out on (module docs). Declared last:
    /// dropping it joins them.
    pool: FanoutPool,
}

impl Coordinator {
    /// Creates a coordinator reaching the given server addresses over
    /// `rpc`'s message plane; `replication` is the DFS replication factor
    /// (for locality-aware dispatch).
    pub fn new(
        rpc: RpcClient,
        cluster: Cluster,
        query_servers: Vec<ServerId>,
        indexing: Vec<ServerId>,
        replication: usize,
        policy: DispatchPolicy,
        cfg: &SystemConfig,
    ) -> Self {
        assert!(!query_servers.is_empty());
        let pool = FanoutPool::new(query_servers.len() * WORKERS_PER_SERVER);
        Self {
            meta: MetaClient::new(rpc.clone()),
            rpc,
            cluster,
            routing: RwLock::new(RoutingTable {
                epoch: 0,
                query_servers,
                indexing,
            }),
            replication,
            policy: RwLock::new(policy),
            attrs: RwLock::new(Arc::new(AttrRegistry::new())),
            summaries_enabled: AtomicBool::new(cfg.agg_summaries_enabled),
            measure: RwLock::new(default_measure()),
            next_query: AtomicU64::new(0),
            stats: Arc::default(),
            pool,
        }
    }

    /// The fan-out pool (thread and ticket counters, for diagnostics).
    pub fn fanout_pool(&self) -> &FanoutPool {
        &self.pool
    }

    /// Installs the shared secondary-attribute registry (query side).
    pub fn set_attr_registry(&self, attrs: Arc<AttrRegistry>) {
        *self.attrs.write() = attrs;
    }

    /// The membership epoch the routing table was last derived from.
    pub fn routing_epoch(&self) -> u64 {
        self.routing.read().epoch
    }

    /// Pulls the metadata service's membership view and, if its epoch is
    /// newer than the routing table's, re-derives the server lists from it.
    /// Returns the routing epoch after the refresh. A view that lists no
    /// servers of a tier keeps the previous list for that tier — an empty
    /// fleet is a deployment that never registered members (the embedded
    /// construction-time wiring), not an instruction to route nowhere.
    pub fn refresh_membership(&self) -> Result<u64> {
        let view = self.meta.membership()?;
        let mut rt = self.routing.write();
        if view.epoch > rt.epoch {
            let query = view.query_ids();
            let indexing = view.indexing_ids();
            if !query.is_empty() {
                self.pool.set_cap(query.len() * WORKERS_PER_SERVER);
                rt.query_servers = query;
            }
            if !indexing.is_empty() {
                rt.indexing = indexing;
            }
            rt.epoch = view.epoch;
        }
        Ok(rt.epoch)
    }

    /// Checks whether the membership epoch moved past `planned` while a
    /// query was in flight; refreshes the routing table as a side effect.
    /// Failures to reach the metadata service are treated as "no race":
    /// the caller already holds a better-typed error to surface.
    fn epoch_raced(&self, planned: u64) -> bool {
        matches!(self.refresh_membership(), Ok(epoch) if epoch > planned)
    }

    /// Installs the measure extractor (must match the indexing servers').
    pub fn set_measure(&self, measure: MeasureFn) {
        *self.measure.write() = measure;
    }

    /// Toggles summary-served aggregation (ablation knob); when off,
    /// aggregate queries fold tuples from full scans instead.
    pub fn set_summaries_enabled(&self, enabled: bool) {
        self.summaries_enabled.store(enabled, Ordering::SeqCst);
    }

    /// Whether aggregate queries may be answered from summaries.
    pub fn summaries_enabled(&self) -> bool {
        self.summaries_enabled.load(Ordering::SeqCst)
    }

    /// Execution counters.
    pub fn stats(&self) -> &Arc<CoordinatorStats> {
        &self.stats
    }

    /// Switches the dispatch policy (the Figure 13 comparison knob).
    pub fn set_policy(&self, policy: DispatchPolicy) {
        *self.policy.write() = policy;
    }

    /// The active dispatch policy.
    pub fn policy(&self) -> DispatchPolicy {
        *self.policy.read()
    }

    /// Decomposes a query into subqueries against the current metadata —
    /// exposed separately for tests and diagnostics. Fails only if the
    /// metadata server is unreachable past the retry budget.
    pub fn decompose(&self, query: &Query, qid: QueryId) -> Result<Vec<SubQuery>> {
        let region = query.region();
        let mut out = Vec::new();
        let mut index = 0u32;
        // The measure range travels on subqueries only as a pruning hint
        // (bounds checks against stored MIN/MAX); exactness comes from the
        // folded predicate.
        let measure_range = query.measure_range;
        let mut push = |keys, times, target| {
            out.push(SubQuery {
                id: SubQueryId { query: qid, index },
                keys,
                times,
                predicate: query.predicate.clone(),
                measure_range,
                target,
            });
            index += 1;
        };
        for (server, r) in self.meta.memory_regions_overlapping(&region)? {
            let Some(overlap) = r.intersect(&region) else {
                continue;
            };
            push(
                overlap.keys,
                overlap.times,
                SubQueryTarget::InMemory(server),
            );
        }
        for (chunk, r) in self.meta.chunks_overlapping(&region)? {
            let Some(overlap) = r.intersect(&region) else {
                continue;
            };
            push(overlap.keys, overlap.times, SubQueryTarget::Chunk(chunk));
        }
        Ok(out)
    }

    /// Executes a query end-to-end and merges the results (§IV-A).
    ///
    /// A structured [`Query::attr_eq`] constraint is folded into the
    /// predicate for exactness and additionally used to prune chunks and
    /// leaves through the secondary indexes (paper §VIII).
    pub fn execute(&self, query: &Query) -> Result<QueryResult> {
        let qid = QueryId(self.next_query.fetch_add(1, Ordering::Relaxed));
        self.stats.queries.fetch_add(1, Ordering::Relaxed);
        self.execute_with_qid(query, qid)
    }

    /// Query execution under a pre-allocated id — shared by [`execute`]
    /// and the aggregate path's fringe/residue scans (which run several
    /// rectangles under one user-visible query).
    ///
    /// [`execute`]: Self::execute
    fn execute_with_qid(&self, query: &Query, qid: QueryId) -> Result<QueryResult> {
        // Fold attr_eq into the predicate so every executor filters exactly.
        let mut effective = query.clone();
        let attr_hint = match query.attr_eq {
            Some((attr, value)) => {
                let extract = self.attrs.read().get(attr).ok_or_else(|| {
                    WwError::Config(format!("attribute {attr} is not registered"))
                })?;
                let inner = effective.predicate.take();
                effective.predicate = Some(Arc::new(move |t: &waterwheel_core::Tuple| {
                    extract(t) == Some(value) && inner.as_ref().is_none_or(|p| p(t))
                }));
                Some((attr, value))
            }
            None => None,
        };
        // Fold the measure range the same way: chunk/leaf MIN-MAX bounds
        // only *prune*, so every surviving tuple is still checked exactly
        // against the registered measure here.
        if let Some((lo, hi)) = query.measure_range {
            let measure = self.measure.read().clone();
            let inner = effective.predicate.take();
            effective.predicate = Some(Arc::new(move |t: &waterwheel_core::Tuple| {
                let m = measure(t);
                (lo..=hi).contains(&m) && inner.as_ref().is_none_or(|p| p(t))
            }));
        }
        let query = &effective;
        let subqueries = self.decompose(query, qid)?;
        let n_subqueries = subqueries.len() as u32;
        self.stats
            .subqueries
            .fetch_add(subqueries.len() as u64, Ordering::Relaxed);

        let mut mem_sqs: Vec<(ServerId, SubQuery)> = Vec::new();
        let mut chunk_sqs: Vec<(SubQuery, ChunkId, Option<Bitmap>)> = Vec::new();
        for sq in subqueries {
            match sq.target {
                SubQueryTarget::InMemory(server) => mem_sqs.push((server, sq)),
                SubQueryTarget::Chunk(chunk) => {
                    // MIN/MAX measure pruning: a chunk whose registered
                    // measure bounds are disjoint from the query's range
                    // cannot contribute a tuple — skip it without a read.
                    if let Some((lo, hi)) = sq.measure_range {
                        if let Some((min, max)) = self
                            .meta
                            .summary_extent(chunk)?
                            .and_then(|ext| ext.measure_range)
                        {
                            if max < lo || min > hi {
                                self.stats
                                    .measure_pruned_chunks
                                    .fetch_add(1, Ordering::Relaxed);
                                continue;
                            }
                        }
                    }
                    // Secondary-index pruning (paper §VIII): skip chunks
                    // that provably lack the attribute value; restrict
                    // to qualifying leaves when a bitmap exists.
                    let leaf_filter = match attr_hint {
                        Some((attr, value)) => match self.meta.attr_probe(chunk, attr, value)? {
                            AttrProbe::Absent => {
                                self.stats
                                    .attr_pruned_chunks
                                    .fetch_add(1, Ordering::Relaxed);
                                continue;
                            }
                            AttrProbe::Leaves(bm) => Some(bm),
                            AttrProbe::Unknown => None,
                        },
                        None => None,
                    };
                    chunk_sqs.push((sq, chunk, leaf_filter));
                }
            }
        }
        // In-memory subqueries fan out concurrently, one RPC per owning
        // indexing server — the fresh-data path of §IV-A. A single one runs
        // right here; more share the pool with the chunk subqueries.
        let mut tuples: Vec<Tuple> = Vec::new();
        if !mem_sqs.is_empty() {
            let n = mem_sqs.len();
            let partials: Slots<Result<Vec<Tuple>>> =
                Arc::new(Mutex::new((0..n).map(|_| None).collect()));
            let exec = {
                let rpc = self.rpc.clone();
                let partials = Arc::clone(&partials);
                move |_slot: usize, i: usize| {
                    let (server, sq) = &mem_sqs[i];
                    let partial = rpc
                        .call(*server, Request::InMemorySubquery { sq: sq.clone() })
                        .and_then(|r| r.into_tuples());
                    partials.lock()[i] = Some(partial);
                    true
                }
            };
            dispatch::execute_plan(&self.pool, DispatchPlan::one_each(n), 1, exec);
            for partial in std::mem::take(&mut *partials.lock()) {
                tuples.extend(partial.ok_or_else(|| {
                    WwError::InvalidState("an in-memory subquery did not complete".into())
                })??);
            }
        }
        // Chunk subqueries run across the query servers.
        tuples.extend(self.execute_chunk_subqueries(chunk_sqs)?);
        Ok(QueryResult {
            query_id: qid,
            subqueries: n_subqueries,
            tuples,
        })
    }

    /// Executes an aggregate query (DESIGN.md §4b).
    ///
    /// The query rectangle is split into a summary-covered interior (whole
    /// key slices × whole seconds) and tuple-scan fringes. The interior is
    /// answered by folding the indexing servers' live wheels plus each
    /// overlapping chunk's sealed summary — without opening leaf pages;
    /// summary residues (capped rings), summary-less chunks, and fringes
    /// fall back to exact tuple scans. The pieces partition the query's
    /// tuple set, so the merged result equals a naive fold over a full
    /// scan. Queries with a predicate, `attr_eq`, or measure-range
    /// constraint cannot be answered from pre-folded cells and take the
    /// scan path end to end (the measure-range scan still prunes chunks
    /// through the registered MIN/MAX bounds).
    pub fn execute_aggregate(&self, aq: &AggregateQuery) -> Result<AggregateAnswer> {
        let qid = QueryId(self.next_query.fetch_add(1, Ordering::Relaxed));
        self.stats.queries.fetch_add(1, Ordering::Relaxed);
        self.stats.agg_queries.fetch_add(1, Ordering::Relaxed);
        let measure = self.measure.read().clone();
        let q = &aq.query;

        let mut agg = PartialAgg::empty();
        let mut cells_merged = 0u64;
        let mut scanned = 0u64;
        let mut fallback_sqs = 0u64;

        // Full fallback: predicates filter individual tuples, which
        // pre-folded cells cannot honor; the ablation knob forces this too.
        if q.predicate.is_some()
            || q.attr_eq.is_some()
            || q.measure_range.is_some()
            || !self.summaries_enabled()
        {
            let r = self.execute_with_qid(q, qid)?;
            for t in &r.tuples {
                agg.insert(measure(t));
            }
            scanned = r.tuples.len() as u64;
            self.stats
                .agg_fallback_subqueries
                .fetch_add(r.subqueries as u64, Ordering::Relaxed);
            return Ok(AggregateAnswer {
                query_id: qid,
                kind: aq.kind,
                agg,
                cells_merged: 0,
                scanned_tuples: scanned,
            });
        }

        let slice_bits = SLICE_BITS;
        let kp = plan::plan_keys(&q.keys, slice_bits);
        let tp = plan::plan_time(&q.times);

        // Fringe rectangles: key fringes span the full query time range;
        // time fringes span only the covered keys — together with the
        // interior they partition the query rectangle.
        let mut fringe_rects: Vec<Region> = kp
            .fringes
            .iter()
            .map(|kf| Region::new(*kf, q.times))
            .collect();
        if let Some(slices) = kp.slices {
            let covered_keys = plan::slices_to_keys(slices.0, slices.1, slice_bits);
            for tf in &tp.fringes {
                fringe_rects.push(Region::new(covered_keys, *tf));
            }
            if let Some(covered) = tp.covered {
                // Interior, fresh half: every reachable indexing server's
                // live wheel (in-memory data is disjoint from chunks). A
                // crashed or unreachable server's memory is gone — §V
                // recovery replays it into chunks — so those are skipped
                // like the pre-plane code skipped failed servers.
                let indexing = self.routing.read().indexing.clone();
                for &server in &indexing {
                    match self
                        .rpc
                        .call(server, Request::AggregateInMemory { slices, covered })
                    {
                        Ok(resp) => {
                            let out = resp.into_fold()?;
                            agg.merge(&out.agg);
                            cells_merged += out.cells_merged;
                        }
                        Err(WwError::Injected(_)) | Err(WwError::Unreachable(_)) => continue,
                        Err(e) => return Err(e),
                    }
                }
                // Interior, flushed half: fold each overlapping chunk's
                // summary; whatever a summary cannot answer becomes a
                // targeted scan of that chunk alone.
                let interior = Region::new(covered_keys, covered);
                let mut chunk_scans: Vec<(ChunkId, waterwheel_core::TimeInterval)> = Vec::new();
                for (chunk, _) in self.meta.chunks_overlapping(&interior)? {
                    let summary = match self.meta.summary_extent(chunk)? {
                        // A summary built under a different slicing cannot
                        // serve this plan's slice range.
                        Some(ext) if ext.slice_bits == slice_bits => self.load_summary(chunk)?,
                        _ => None,
                    };
                    match summary {
                        Some(summary) => {
                            let out = summary.fold(slices, &covered);
                            agg.merge(&out.agg);
                            cells_merged += out.cells_merged;
                            for residue in out.residues {
                                chunk_scans.push((chunk, residue));
                            }
                        }
                        None => chunk_scans.push((chunk, covered)),
                    }
                }
                if !chunk_scans.is_empty() {
                    let chunk_sqs: Vec<(SubQuery, ChunkId, Option<Bitmap>)> = chunk_scans
                        .iter()
                        .enumerate()
                        .map(|(i, (chunk, times))| {
                            (
                                SubQuery {
                                    id: SubQueryId {
                                        query: qid,
                                        index: i as u32,
                                    },
                                    keys: covered_keys,
                                    times: *times,
                                    predicate: None,
                                    measure_range: None,
                                    target: SubQueryTarget::Chunk(*chunk),
                                },
                                *chunk,
                                None,
                            )
                        })
                        .collect();
                    fallback_sqs += chunk_sqs.len() as u64;
                    self.stats
                        .subqueries
                        .fetch_add(chunk_sqs.len() as u64, Ordering::Relaxed);
                    let tuples = self.execute_chunk_subqueries(chunk_sqs)?;
                    scanned += tuples.len() as u64;
                    for t in &tuples {
                        agg.insert(measure(t));
                    }
                }
            }
        }
        // Fringe rectangles run as ordinary range sub-executions (fresh +
        // flushed data alike) and are folded tuple by tuple.
        for rect in fringe_rects {
            let r = self.execute_with_qid(&Query::range(rect.keys, rect.times), qid)?;
            scanned += r.tuples.len() as u64;
            fallback_sqs += r.subqueries as u64;
            for t in &r.tuples {
                agg.insert(measure(t));
            }
        }
        self.stats
            .agg_cells_merged
            .fetch_add(cells_merged, Ordering::Relaxed);
        self.stats
            .agg_fallback_subqueries
            .fetch_add(fallback_sqs, Ordering::Relaxed);
        Ok(AggregateAnswer {
            query_id: qid,
            kind: aq.kind,
            agg,
            cells_merged,
            scanned_tuples: scanned,
        })
    }

    /// Reads a chunk summary through a reachable query server (cached there
    /// as a first-class block kind). Servers co-located with one of the
    /// chunk's replicas are probed first (their DFS read takes the
    /// short-circuit path and warms the best-placed cache); within each
    /// locality class the start offset rotates by chunk id so repeated
    /// loads spread across the servers.
    ///
    /// Only *delivery* failures rotate to the next server: timeouts,
    /// unreachable links, and down servers. An application error — a
    /// corrupt summary footer, a missing chunk — is the same answer on
    /// every replica and is surfaced immediately instead of being
    /// retried `n` times and misreported as "all query servers failed".
    fn load_summary(&self, chunk: ChunkId) -> Result<Option<Arc<WheelSummary>>> {
        let rt = self.routing.read().clone();
        let n = rt.query_servers.len();
        let start = chunk.raw() as usize % n;
        let rotated = (0..n).map(|i| rt.query_servers[(start + i) % n]);
        let (colocated, remote): (Vec<ServerId>, Vec<ServerId>) =
            rotated.partition(|&qs| self.cluster.is_colocated(qs, chunk, self.replication));
        for qs in colocated.into_iter().chain(remote) {
            match self.rpc.call(qs, Request::ReadSummary { chunk }) {
                Ok(resp) => return resp.into_summary(),
                // The server never (usably) received the request, or is
                // injected-down: another server may still answer.
                Err(WwError::Timeout(_))
                | Err(WwError::Unreachable(_))
                | Err(WwError::Injected(_)) => continue,
                // An actual answer from the read path (corrupt footer,
                // I/O error, missing chunk): retrying elsewhere re-reads
                // the same bytes — surface it.
                Err(e) => return Err(e),
            }
        }
        // Every server of the planned epoch failed. If the membership
        // epoch moved while we probed, the plan was made against a
        // superseded view: answer with a typed *retryable* error so the
        // caller re-plans against the refreshed table, never with a wrong
        // or falsely-final answer.
        if self.epoch_raced(rt.epoch) {
            return Err(WwError::Unreachable(
                "membership epoch advanced mid-query; retry against the new view",
            ));
        }
        Err(WwError::InvalidState(
            "summary unreadable: all query servers failed".into(),
        ))
    }

    fn execute_chunk_subqueries(
        &self,
        chunk_sqs: Vec<(SubQuery, ChunkId, Option<Bitmap>)>,
    ) -> Result<Vec<Tuple>> {
        if chunk_sqs.is_empty() {
            return Ok(Vec::new());
        }
        let chunks: Vec<ChunkId> = chunk_sqs.iter().map(|(_, c, _)| *c).collect();
        // Plan against one routing-table snapshot: every dispatch and
        // redispatch below runs against this epoch's replica set, so a
        // membership change mid-query either never matters (the old
        // servers still answer) or surfaces as the typed epoch-race
        // error at the end — never as a mixed-epoch plan.
        let rt = self.routing.read().clone();
        let servers = rt.query_servers.len();
        let plan = dispatch::build_plan(self.policy(), &chunks, servers, |s, chunk| {
            self.cluster
                .is_colocated(rt.query_servers[s], chunk, self.replication)
        });
        // What a worker does for subquery `i` as `server`: one RPC, the
        // answer filed under `i`. Owned (not borrowed) state throughout —
        // pool threads outlive this call.
        let results: Slots<Vec<Tuple>> = Arc::new(Mutex::new(vec![None; chunk_sqs.len()]));
        let run = {
            let rpc = self.rpc.clone();
            let results = Arc::clone(&results);
            Arc::new(move |server: ServerId, i: usize| -> bool {
                let (sq, chunk, filter) = &chunk_sqs[i];
                let answer = rpc
                    .call(
                        server,
                        Request::ChunkSubquery {
                            sq: sq.clone(),
                            chunk: *chunk,
                            leaf_filter: filter.clone(),
                        },
                    )
                    .and_then(|r| r.into_tuples());
                match answer {
                    Ok(tuples) => {
                        results.lock()[i] = Some(tuples);
                        true
                    }
                    Err(_) => false,
                }
            })
        };
        let planned = {
            let run = Arc::clone(&run);
            let slots = rt.query_servers.clone();
            dispatch::execute_plan(&self.pool, plan, WORKERS_PER_SERVER, move |s, i| {
                run(slots[s], i)
            })
        };
        self.stats
            .worker_queue_peak
            .fetch_max(planned.queue_depth as u64, Ordering::Relaxed);
        // Re-dispatch any subqueries that failed or were never taken (§V):
        // the coordinator discards partial results and retries on servers
        // that still answer a liveness probe, with a work-conserving plan,
        // for a configurable number of rounds.
        for _round in 0..REDISPATCH_ROUNDS {
            let remaining: Vec<usize> = results
                .lock()
                .iter()
                .enumerate()
                .filter(|(_, r)| r.is_none())
                .map(|(i, _)| i)
                .collect();
            if remaining.is_empty() {
                break;
            }
            let healthy: Vec<ServerId> = rt
                .query_servers
                .iter()
                .copied()
                .filter(|&qs| self.rpc.ping(qs))
                .collect();
            if healthy.is_empty() {
                break;
            }
            self.stats
                .redispatches
                .fetch_add(remaining.len() as u64, Ordering::Relaxed);
            let retry_chunks: Vec<ChunkId> = remaining.iter().map(|&i| chunks[i]).collect();
            let retry_plan = dispatch::build_plan(
                DispatchPolicy::SharedQueue,
                &retry_chunks,
                healthy.len(),
                |_, _| true,
            );
            let run = Arc::clone(&run);
            dispatch::execute_plan(&self.pool, retry_plan, WORKERS_PER_SERVER, move |hs, ri| {
                run(healthy[hs], remaining[ri])
            });
        }
        // Every plan above has returned, so no worker holds a subquery.
        let results = std::mem::take(&mut *results.lock());
        if results.iter().any(Option::is_none) {
            // Same epoch-race rule as `load_summary`: if membership moved
            // past the planned epoch, the failure is "planned against a
            // stale view" — typed retryable, so the caller re-executes
            // against the refreshed routing table.
            if self.epoch_raced(rt.epoch) {
                return Err(WwError::Unreachable(
                    "membership epoch advanced mid-query; retry against the new view",
                ));
            }
            return Err(WwError::InvalidState(
                "subqueries unexecutable: all query servers failed".into(),
            ));
        }
        Ok(results.into_iter().flatten().flatten().collect())
    }
}

#[cfg(test)]
mod tests {
    // The coordinator is exercised end-to-end through the system facade
    // tests in `system.rs` and the workspace integration tests; unit tests
    // here focus on decomposition logic over a hand-wired message plane.
    use super::*;
    use crate::indexing::IndexingServer;
    use crate::query_server::QueryServer;
    use waterwheel_cluster::LatencyModel;
    use waterwheel_core::{KeyInterval, NodeId, Region, SystemConfig, TimeInterval};
    use waterwheel_meta::{ChunkInfo, MetadataService};
    use waterwheel_mq::{Consumer, MessageQueue};
    use waterwheel_net::{serve_meta, InProcTransport, Response, Transport, COORDINATOR};
    use waterwheel_storage::SimDfs;

    fn region(k0: u64, k1: u64, t0: u64, t1: u64) -> Region {
        Region::new(KeyInterval::new(k0, k1), TimeInterval::new(t0, t1))
    }

    fn coordinator(name: &str) -> (Coordinator, MetadataService) {
        let root = std::env::temp_dir().join(format!("ww-coord-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cluster = Cluster::new(2);
        let dfs = SimDfs::new(root, cluster.clone(), 2, LatencyModel::default()).unwrap();
        let meta = MetadataService::in_memory();
        let mq = MessageQueue::new();
        mq.create_topic("ingest", 1).unwrap();
        let cfg = SystemConfig::default();

        let transport = Arc::new(InProcTransport::with_registry(None, Arc::default()));
        serve_meta(transport.registry(), meta.clone());
        let qs = Arc::new(QueryServer::new(
            ServerId(10),
            NodeId(0),
            dfs.clone(),
            1 << 20,
        ));
        {
            let qs = Arc::clone(&qs);
            transport
                .registry()
                .bind(ServerId(10), move |env| match &env.payload {
                    Request::ChunkSubquery {
                        sq,
                        chunk,
                        leaf_filter,
                    } => Ok(Response::Tuples(qs.execute_filtered(
                        sq,
                        *chunk,
                        leaf_filter.as_ref(),
                    )?)),
                    Request::ReadSummary { chunk } => {
                        Ok(Response::Summary(qs.read_summary(*chunk)?))
                    }
                    Request::Ping => Ok(Response::Pong),
                    _ => Err(WwError::InvalidState("unexpected request".into())),
                });
        }
        let ix_rpc = RpcClient::new(
            Arc::clone(&transport) as Arc<dyn Transport>,
            ServerId(0),
            &cfg,
        );
        let ix = Arc::new(IndexingServer::new(
            ServerId(0),
            KeyInterval::full(),
            cfg.clone(),
            Consumer::new(mq, "ingest", 0, 0),
            dfs,
            MetaClient::new(ix_rpc),
        ));
        {
            let ix = Arc::clone(&ix);
            transport
                .registry()
                .bind(ServerId(0), move |env| match &env.payload {
                    Request::InMemorySubquery { sq } => {
                        Ok(Response::Tuples(ix.query_in_memory(sq)?))
                    }
                    Request::AggregateInMemory { slices, covered } => {
                        Ok(Response::Fold(ix.aggregate_in_memory(*slices, covered)?))
                    }
                    Request::Ping => Ok(Response::Pong),
                    _ => Err(WwError::InvalidState("unexpected request".into())),
                });
        }
        let rpc = RpcClient::new(
            Arc::clone(&transport) as Arc<dyn Transport>,
            COORDINATOR,
            &cfg,
        );
        (
            Coordinator::new(
                rpc,
                cluster,
                vec![ServerId(10)],
                vec![ServerId(0)],
                2,
                DispatchPolicy::Lada,
                &cfg,
            ),
            meta,
        )
    }

    #[test]
    fn decompose_emits_one_subquery_per_overlapping_region() {
        let (coord, meta) = coordinator("decompose");
        meta.register_chunk(
            ChunkId(0),
            ChunkInfo {
                region: region(0, 100, 0, 100),
                count: 1,
                bytes: 10,
                producer: ServerId(0),
            },
            0,
        )
        .unwrap();
        meta.register_chunk(
            ChunkId(1),
            ChunkInfo {
                region: region(200, 300, 0, 100),
                count: 1,
                bytes: 10,
                producer: ServerId(0),
            },
            0,
        )
        .unwrap();
        meta.update_memory_region(ServerId(0), Some(region(0, 1_000, 100, 200)));

        let q = Query::range(KeyInterval::new(50, 250), TimeInterval::new(50, 150));
        let sqs = coord.decompose(&q, QueryId(0)).unwrap();
        // Overlaps: chunk 0 (keys 50..=100, times 50..=100), chunk 1 (keys
        // 200..=250), and the in-memory region (times 100..=150).
        assert_eq!(sqs.len(), 3);
        let mem: Vec<_> = sqs
            .iter()
            .filter(|s| matches!(s.target, SubQueryTarget::InMemory(_)))
            .collect();
        assert_eq!(mem.len(), 1);
        assert_eq!(mem[0].times, TimeInterval::new(100, 150));
        // Subquery constraints are intersections, never wider than the query.
        for sq in &sqs {
            assert!(q.keys.covers(&sq.keys));
            assert!(q.times.covers(&sq.times));
        }
    }

    #[test]
    fn decompose_skips_disjoint_regions() {
        let (coord, meta) = coordinator("disjoint");
        meta.register_chunk(
            ChunkId(0),
            ChunkInfo {
                region: region(0, 10, 0, 10),
                count: 1,
                bytes: 10,
                producer: ServerId(0),
            },
            0,
        )
        .unwrap();
        let q = Query::range(KeyInterval::new(500, 600), TimeInterval::new(0, 10));
        assert!(coord.decompose(&q, QueryId(0)).unwrap().is_empty());
    }

    #[test]
    fn execute_empty_metadata_returns_empty() {
        let (coord, _meta) = coordinator("empty");
        let q = Query::range(KeyInterval::full(), TimeInterval::full());
        let r = coord.execute(&q).unwrap();
        assert!(r.tuples.is_empty());
    }

    /// Two hand-wired "query servers" whose `ReadSummary` answers are the
    /// given closures; returns the coordinator plus per-server probe
    /// counters. Servers are optionally placed on nodes 0 and 1.
    fn summary_probe_rig(
        cluster: Cluster,
        answer10: impl Fn() -> Result<Response> + Send + Sync + 'static,
        answer11: impl Fn() -> Result<Response> + Send + Sync + 'static,
    ) -> (Coordinator, Arc<AtomicU64>, Arc<AtomicU64>) {
        let cfg = SystemConfig::default();
        let transport = Arc::new(InProcTransport::with_registry(None, Arc::default()));
        let probes10 = Arc::new(AtomicU64::new(0));
        let probes11 = Arc::new(AtomicU64::new(0));
        {
            let probes = Arc::clone(&probes10);
            transport
                .registry()
                .bind(ServerId(10), move |env| match &env.payload {
                    Request::ReadSummary { .. } => {
                        probes.fetch_add(1, Ordering::SeqCst);
                        answer10()
                    }
                    Request::Ping => Ok(Response::Pong),
                    _ => Err(WwError::InvalidState("unexpected request".into())),
                });
        }
        {
            let probes = Arc::clone(&probes11);
            transport
                .registry()
                .bind(ServerId(11), move |env| match &env.payload {
                    Request::ReadSummary { .. } => {
                        probes.fetch_add(1, Ordering::SeqCst);
                        answer11()
                    }
                    Request::Ping => Ok(Response::Pong),
                    _ => Err(WwError::InvalidState("unexpected request".into())),
                });
        }
        let rpc = RpcClient::new(transport as Arc<dyn Transport>, COORDINATOR, &cfg);
        let coord = Coordinator::new(
            rpc,
            cluster,
            vec![ServerId(10), ServerId(11)],
            vec![],
            1,
            DispatchPolicy::Lada,
            &cfg,
        );
        (coord, probes10, probes11)
    }

    #[test]
    fn load_summary_surfaces_application_errors_immediately() {
        // A corrupt footer is the same answer on every replica: one probe,
        // error out — the healthy-looking second server is never asked.
        let (coord, probes10, probes11) = summary_probe_rig(
            Cluster::new(2),
            || Err(WwError::corrupt("summary footer", "bad magic")),
            || Ok(Response::Summary(None)),
        );
        // ChunkId(0) rotates the probe start to slot 0 (ServerId 10).
        let err = coord.load_summary(ChunkId(0)).unwrap_err();
        assert!(matches!(err, WwError::Corrupt { .. }), "got {err}");
        assert_eq!(probes10.load(Ordering::SeqCst), 1);
        assert_eq!(probes11.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn load_summary_rotates_past_delivery_failures() {
        // An injected-down server never usably received the request;
        // the next server in rotation answers and the load succeeds.
        let (coord, probes10, probes11) = summary_probe_rig(
            Cluster::new(2),
            || Err(WwError::Injected("server down")),
            || Ok(Response::Summary(None)),
        );
        let summary = coord.load_summary(ChunkId(0)).unwrap();
        assert!(summary.is_none());
        assert_eq!(probes10.load(Ordering::SeqCst), 1);
        assert_eq!(probes11.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn load_summary_probes_colocated_servers_first() {
        // Place server 10 on node 0 and server 11 on node 1, then pick a
        // chunk whose rotation favors server 10 but whose single replica
        // lives on node 1: locality must win over rotation, so only the
        // co-located server 11 is probed.
        let cluster = Cluster::new(2);
        cluster.place_servers_round_robin([ServerId(10), ServerId(11)]);
        let chunk = (0..200u64)
            .step_by(2) // even ⇒ rotation starts at slot 0 (ServerId 10)
            .map(ChunkId)
            .find(|&c| cluster.replicas(c, 1) == vec![NodeId(1)])
            .expect("some even chunk hashes to node 1");
        let (coord, probes10, probes11) = summary_probe_rig(
            cluster,
            || Ok(Response::Summary(None)),
            || Ok(Response::Summary(None)),
        );
        coord.load_summary(chunk).unwrap();
        assert_eq!(probes10.load(Ordering::SeqCst), 0);
        assert_eq!(probes11.load(Ordering::SeqCst), 1);
    }
}
