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

use crate::dispatch::{self, DispatchPlan, DispatchPolicy, WORKERS_PER_SERVER};
use crate::fanout::FanoutPool;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use waterwheel_agg::{AggShare, AggregateAnswer};
use waterwheel_cluster::Cluster;
use waterwheel_core::aggregate::AggregateQuery;
use waterwheel_core::{
    ChunkId, Query, QueryId, QueryResult, Result, ServerId, SubQuery, SubQueryId, SubQueryTarget,
    WwError,
};
use waterwheel_net::{MetaClient, Request, Response, RpcClient};

/// Rounds of subquery re-dispatch after the first dispatch plan (paper §V):
/// subqueries that failed (server crashed mid-plan, link down past the RPC
/// retry budget) are re-planned across the servers that still answer pings.
pub const REDISPATCH_ROUNDS: usize = 2;

/// Per-subquery answer slots, filled in by whichever worker runs each one.
type Slots<T> = Arc<Mutex<Vec<Option<T>>>>;

/// One call per target: an indexing server's address or a chunk id.
type Calls<T> = Vec<(T, Request)>;

waterwheel_core::counters! {
    /// Coordinator-side counters (`coordinator.*`).
    pub struct CoordinatorStats {
        /// Queries executed.
        queries,
        /// Subqueries generated.
        subqueries,
        /// Subqueries re-dispatched after a server failure.
        redispatches,
        /// Chunk subqueries pruned because the chunk's registered MIN/MAX
        /// measure bounds cannot intersect the query's measure range.
        measure_pruned_chunks,
        /// Aggregate queries executed (DESIGN.md §4b).
        agg_queries,
        /// Wheel/summary cells merged into aggregate answers.
        agg_cells_merged,
        /// Chunk leaves merged into aggregate answers from the leaf
        /// directory, without reading their pages.
        agg_leaves_merged,
        /// Aggregate subqueries that folded at least one tuple one by one.
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
            next_query: AtomicU64::new(0),
            stats: Arc::default(),
            pool,
        }
    }

    /// The fan-out pool (thread and ticket counters, for diagnostics).
    pub fn fanout_pool(&self) -> &FanoutPool {
        &self.pool
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
        let mut push = |keys, times, target| {
            out.push(SubQuery {
                id: SubQueryId { query: qid, index },
                keys,
                times,
                predicate: query.predicate.clone(),
                measure_range: query.measure_range,
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
    pub fn execute(&self, query: &Query) -> Result<QueryResult> {
        let qid = QueryId(self.next_query.fetch_add(1, Ordering::Relaxed));
        let (subqueries, mem_calls, chunk_calls) = self.plan(
            query,
            qid,
            |sq| Request::InMemorySubquery { sq },
            |sq, chunk| Request::ChunkSubquery { sq, chunk },
        )?;
        let mut tuples = Vec::new();
        for partial in self.execute_in_memory(mem_calls, Response::into_tuples) {
            tuples.extend(partial?);
        }
        for partial in self.execute_on_chunks(chunk_calls, Response::into_tuples)? {
            tuples.extend(partial);
        }
        Ok(QueryResult {
            query_id: qid,
            subqueries,
            tuples,
        })
    }

    /// Executes an aggregate query (DESIGN.md §4b).
    ///
    /// The query plans exactly as a range query does, but each target gets
    /// one *aggregate subquery* carrying the query's unclipped rectangle and
    /// answers its own share exactly, as a partial aggregate and never a
    /// tuple: an indexing server from its live wheels plus a fold of its
    /// trees over the fringes, a query server from the chunk's summary, its
    /// leaf directory and a scan of only the leaves the fringes cut. A
    /// subquery with a predicate or measure range folds its filtered scan
    /// instead. The shares partition the query's tuple set, so their merge
    /// equals a naive fold over a full scan.
    pub fn execute_aggregate(&self, aq: &AggregateQuery) -> Result<AggregateAnswer> {
        let qid = QueryId(self.next_query.fetch_add(1, Ordering::Relaxed));
        self.stats.agg_queries.fetch_add(1, Ordering::Relaxed);
        // Unclipped: planned against a chunk's key hull, a slice the query
        // covers would turn into a fringe.
        let (keys, times) = (aq.query.keys, aq.query.times);
        let whole = move |sq| SubQuery { keys, times, ..sq };
        let (_, mem_calls, chunk_calls) = self.plan(
            &aq.query,
            qid,
            |sq| Request::InMemoryAggregate { sq: whole(sq) },
            |sq, chunk| Request::ChunkAggregate {
                sq: whole(sq),
                chunk,
            },
        )?;
        let mut shares = self
            .execute_in_memory(mem_calls, Response::into_share)
            .into_iter()
            .collect::<Result<Vec<_>>>()?;
        shares.extend(self.execute_on_chunks(chunk_calls, Response::into_share)?);
        let mut total = AggShare::default();
        for share in &shares {
            total.merge(share);
        }
        let scanning = shares.iter().filter(|share| share.scanned > 0).count();
        self.stats
            .agg_cells_merged
            .fetch_add(total.cells_merged, Ordering::Relaxed);
        self.stats
            .agg_leaves_merged
            .fetch_add(total.leaves_merged, Ordering::Relaxed);
        self.stats
            .agg_fallback_subqueries
            .fetch_add(scanning as u64, Ordering::Relaxed);
        Ok(AggregateAnswer {
            query_id: qid,
            kind: aq.kind,
            agg: total.agg,
            cells_merged: total.cells_merged,
            scanned_tuples: total.scanned,
        })
    }

    /// Plans a query for either path: decomposes it and makes each
    /// subquery a call — `mem` an indexing server's, `chunk` a query
    /// server's. A chunk whose measure bounds miss the measure range gets
    /// no call. Returns the decomposed subquery count, then the calls to
    /// indexing servers and to query servers.
    fn plan(
        &self,
        query: &Query,
        qid: QueryId,
        mem: impl Fn(SubQuery) -> Request,
        chunk: impl Fn(SubQuery, ChunkId) -> Request,
    ) -> Result<(u32, Calls<ServerId>, Calls<ChunkId>)> {
        self.stats.queries.fetch_add(1, Ordering::Relaxed);
        let subqueries = self.decompose(query, qid)?;
        let n = subqueries.len() as u32;
        self.stats.subqueries.fetch_add(n as u64, Ordering::Relaxed);
        let (mut mem_calls, mut chunk_calls) = (Vec::new(), Vec::new());
        for sq in subqueries {
            let id = match sq.target {
                SubQueryTarget::InMemory(server) => {
                    mem_calls.push((server, mem(sq)));
                    continue;
                }
                SubQueryTarget::Chunk(id) => id,
            };
            if let Some((lo, hi)) = sq.measure_range {
                let bounds = self.meta.summary_extent(id)?.and_then(|e| e.measure_range);
                if bounds.is_some_and(|(min, max)| max < lo || min > hi) {
                    self.stats
                        .measure_pruned_chunks
                        .fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            }
            chunk_calls.push((id, chunk(sq, id)));
        }
        Ok((n, mem_calls, chunk_calls))
    }

    /// Sends each call to its indexing server, concurrently — the
    /// fresh-data path of §IV-A — and unwraps each answer with `answer`.
    /// A single call runs right here; more share the pool with the chunk
    /// subqueries.
    fn execute_in_memory<A: Send + 'static>(
        &self,
        calls: Calls<ServerId>,
        answer: fn(Response) -> Result<A>,
    ) -> Vec<Result<A>> {
        let n = calls.len();
        let partials: Slots<Result<A>> = Arc::new(Mutex::new((0..n).map(|_| None).collect()));
        let exec = {
            let rpc = self.rpc.clone();
            let partials = Arc::clone(&partials);
            move |_slot: usize, i: usize| {
                let (server, request) = &calls[i];
                let partial = rpc.call(*server, request.clone()).and_then(answer);
                partials.lock()[i] = Some(partial);
                true
            }
        };
        if n > 0 {
            dispatch::execute_plan(&self.pool, DispatchPlan::one_each(n), 1, exec);
        }
        let partials = std::mem::take(&mut *partials.lock());
        partials
            .into_iter()
            .map(|partial| {
                partial.unwrap_or_else(|| {
                    Err(WwError::InvalidState(
                        "an in-memory subquery did not complete".into(),
                    ))
                })
            })
            .collect()
    }

    /// Runs one call per chunk across the query servers under the dispatch
    /// policy, with §V redispatch of whatever failed, and unwraps each
    /// answer with `answer`.
    fn execute_on_chunks<A: Send + 'static>(
        &self,
        calls: Calls<ChunkId>,
        answer: fn(Response) -> Result<A>,
    ) -> Result<Vec<A>> {
        if calls.is_empty() {
            return Ok(Vec::new());
        }
        let chunks: Vec<ChunkId> = calls.iter().map(|(c, _)| *c).collect();
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
        let results: Slots<A> = Arc::new(Mutex::new((0..calls.len()).map(|_| None).collect()));
        let run = {
            let rpc = self.rpc.clone();
            let results = Arc::clone(&results);
            Arc::new(move |server: ServerId, i: usize| -> bool {
                match rpc.call(server, calls[i].1.clone()).and_then(answer) {
                    Ok(a) => {
                        results.lock()[i] = Some(a);
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
            // If membership moved past the planned epoch, the failure is
            // "planned against a stale view" — typed retryable, so the
            // caller re-executes against the refreshed routing table, never
            // with a wrong or falsely-final answer.
            if self.epoch_raced(rt.epoch) {
                return Err(WwError::Unreachable(
                    "membership epoch advanced mid-query; retry against the new view",
                ));
            }
            return Err(WwError::InvalidState(
                "subqueries unexecutable: all query servers failed".into(),
            ));
        }
        Ok(results.into_iter().flatten().collect())
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
    use waterwheel_agg::PartialAgg;
    use waterwheel_cluster::LatencyModel;
    use waterwheel_core::aggregate::AggregateKind;
    use waterwheel_core::{KeyInterval, NodeId, Region, SystemConfig, TimeInterval};
    use waterwheel_meta::{ChunkInfo, FlushedChunk, MetadataService};
    use waterwheel_mq::{Consumer, MessageQueue};
    use waterwheel_net::{serve_meta, InProcTransport, Transport, COORDINATOR};
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
                    Request::ChunkSubquery { sq, chunk } => {
                        Ok(Response::Tuples(qs.execute(sq, *chunk)?))
                    }
                    Request::ChunkAggregate { sq, chunk } => Ok(qs.aggregate(sq, *chunk)?.into()),
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
                    Request::InMemoryAggregate { sq } => Ok(ix.aggregate_in_memory(sq)?.into()),
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
            ),
            meta,
        )
    }

    /// Registers a flush of one chunk of `region` from indexing server 0.
    fn register(meta: &MetadataService, id: u64, region: Region) {
        let info = ChunkInfo {
            region,
            count: 1,
            bytes: 10,
            producer: ServerId(0),
        };
        let chunk = FlushedChunk {
            id: ChunkId(id),
            info,
            summary: None,
        };
        meta.register_flush(ServerId(0), vec![chunk], 0, None)
            .unwrap();
    }

    #[test]
    fn decompose_emits_one_subquery_per_overlapping_region() {
        let (coord, meta) = coordinator("decompose");
        register(&meta, 0, region(0, 100, 0, 100));
        register(&meta, 1, region(200, 300, 0, 100));
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
        register(&meta, 0, region(0, 10, 0, 10));
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

    /// An aggregate sends each decomposed target one aggregate subquery
    /// carrying the query's own rectangle — not the overlap `decompose`
    /// clips to the target's region — and merges the shares they answer.
    #[test]
    fn aggregate_subqueries_carry_the_unclipped_rectangle() {
        let cfg = SystemConfig::default();
        let transport = Arc::new(InProcTransport::with_registry(None, Arc::default()));
        let meta = MetadataService::in_memory();
        serve_meta(transport.registry(), meta.clone());
        register(&meta, 0, region(0, 100, 0, 100));
        register(&meta, 1, region(200, 300, 0, 100));
        meta.update_memory_region(ServerId(0), Some(region(0, 1_000, 100, 200)));
        let seen: Arc<Mutex<Vec<(ServerId, SubQuery)>>> = Arc::default();
        for (server, scanned) in [(ServerId(0), 0), (ServerId(10), 2)] {
            let seen = Arc::clone(&seen);
            transport.registry().bind(server, move |env| {
                let sq = match &env.payload {
                    Request::InMemoryAggregate { sq } | Request::ChunkAggregate { sq, .. } => sq,
                    _ => return Err(WwError::InvalidState("unexpected request".into())),
                };
                seen.lock().push((env.dst, sq.clone()));
                let mut agg = PartialAgg::empty();
                agg.insert(7);
                Ok(AggShare {
                    agg,
                    cells_merged: 1,
                    leaves_merged: 3,
                    scanned,
                }
                .into())
            });
        }
        let rpc = RpcClient::new(transport as Arc<dyn Transport>, COORDINATOR, &cfg);
        let coord = Coordinator::new(
            rpc,
            Cluster::new(1),
            vec![ServerId(10)],
            vec![ServerId(0)],
            1,
            DispatchPolicy::Lada,
        );
        let (keys, times) = (KeyInterval::new(50, 250), TimeInterval::new(50, 150));
        let answer = coord
            .execute_aggregate(&Query::range(keys, times).aggregate(AggregateKind::Sum))
            .unwrap();
        let seen = seen.lock();
        assert_eq!(seen.len(), 3, "two chunks and one memory region");
        assert_eq!(
            seen.iter().filter(|(dst, _)| *dst == ServerId(10)).count(),
            2
        );
        for (_, sq) in seen.iter() {
            assert_eq!((sq.keys, sq.times), (keys, times));
        }
        assert_eq!((answer.agg.count, answer.agg.sum), (3, 21));
        assert_eq!((answer.cells_merged, answer.scanned_tuples), (3, 4));
        let stats = coord.stats();
        assert_eq!(stats.agg_leaves_merged.load(Ordering::Relaxed), 9);
        assert_eq!(stats.agg_fallback_subqueries.load(Ordering::Relaxed), 2);
    }
}
