//! The embedded Waterwheel system: all servers wired together in-process.
//!
//! This is the crate's primary public entry point — the equivalent of
//! deploying the paper's Storm topology (Figure 3) onto a cluster, except
//! every server is an object (optionally pumped by background threads) and
//! the substrates are the in-process substitutes described in DESIGN.md.
//!
//! ```text
//!  insert() → Dispatchers ──RPC──▶ MessageQueue → IndexingServers → chunks
//!  query()  → Coordinator ──RPC──▶ { IndexingServers (fresh) ,
//!                                    QueryServers via LADA (chunks) } → merge
//! ```
//!
//! Every cross-server hop rides the message plane: the builder registers
//! every role of the shared role layer ([`crate::roles`], [`crate::gateway`])
//! on one handler registry, plus the metadata server at its well-known
//! address, fronts it with an [`InProcTransport`] or a TCP loopback
//! listener, and wraps that plane in one [`FaultPlane`]. Fault injection —
//! loss, latency, partitions, lost acks — therefore applies uniformly to
//! ingestion, queries, metadata traffic and migration steps, on either
//! plane; see [`Waterwheel::transport`]. `insert`, `query` and the rest
//! call the gateway's methods directly (no RPC hop); the same methods
//! answer the client verbs for callers on the plane.

use crate::coordinator::Coordinator;
use crate::dispatch::DispatchPolicy;
use crate::dispatcher::Dispatcher;
use crate::gateway::Gateway;
use crate::indexing::IndexingServer;
use crate::migration::{MigrationPlan, MigrationStats};
use crate::partitioning::{BalanceOutcome, PartitionBalancer};
use crate::query_server::QueryServer;
use crate::roles::{self, Host, IndexingRole, IndexingSlot, Topology};
use parking_lot::Mutex;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use waterwheel_agg::AggregateAnswer;
use waterwheel_cluster::{Cluster, LatencyModel};
use waterwheel_core::aggregate::{default_measure, AggregateQuery, MeasureFn};
use waterwheel_core::{Query, QueryResult, Result, ServerId, SystemConfig, Tuple, WwError};
use waterwheel_meta::{MemberRole, MetadataService};
use waterwheel_mq::MessageQueue;
use waterwheel_net::{
    serve_meta, FaultPlane, HandlerRegistry, InProcTransport, RpcTotals, TcpRpcServer,
    TcpTransport, Transport, WireStats, WireTotals,
};
use waterwheel_storage::SimDfs;
use waterwheel_wal::FsyncPolicy;

/// Builder for an embedded [`Waterwheel`] deployment.
pub struct WaterwheelBuilder {
    cfg: SystemConfig,
    root: PathBuf,
    nodes: usize,
    policy: DispatchPolicy,
    latency: LatencyModel,
    durable_meta: bool,
    durable_queue: bool,
    tcp_loopback: bool,
}

impl WaterwheelBuilder {
    /// Starts a builder rooted at `root` (chunk files and metadata live
    /// underneath it).
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self {
            cfg: SystemConfig::default(),
            root: root.into(),
            nodes: 4,
            policy: DispatchPolicy::Lada,
            latency: LatencyModel::default(),
            durable_meta: true,
            durable_queue: false,
            tcp_loopback: false,
        }
    }

    /// Overrides the system configuration.
    pub fn config(mut self, cfg: SystemConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Number of simulated cluster nodes.
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes.max(1);
        self
    }

    /// Subquery dispatch policy (default LADA).
    pub fn dispatch_policy(mut self, policy: DispatchPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// DFS latency model (default: free).
    pub fn dfs_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Keep the metadata service purely in memory (benches).
    pub fn volatile_metadata(mut self) -> Self {
        self.durable_meta = false;
        self
    }

    /// Journal the ingestion queue to disk (Kafka's durability contract,
    /// paper §V): tuples that were queued but not yet flushed to chunks
    /// survive full process restarts. Off by default — the embedded queue
    /// is memory-only, like the tests and benches expect.
    pub fn durable_queue(mut self) -> Self {
        self.durable_queue = true;
        self
    }

    /// Carry every cross-server RPC over a real TCP loopback socket instead
    /// of the in-process transport: the builder starts one
    /// [`TcpRpcServer`] on `127.0.0.1`, binds the same handlers behind it,
    /// and routes all senders through a [`TcpTransport`] connection pool.
    /// Answers are byte-identical to the default deployment; what changes
    /// is that envelopes genuinely cross the wire codec and kernel sockets.
    /// Fault injection ([`Waterwheel::transport`]) works the same on both.
    pub fn tcp_loopback(mut self) -> Self {
        self.tcp_loopback = true;
        self
    }

    /// Builds and wires the system.
    pub fn build(self) -> Result<Waterwheel> {
        self.cfg.validate()?;
        let topology = Topology::new(&self.cfg, self.nodes);
        // One fsync policy governs every durable surface (queue WAL, chunk
        // seals, metadata log): `durability_fsync` trades power-loss safety
        // for ingest latency, `wal_segment_bytes` bounds log segments and
        // the metadata compaction threshold.
        let policy = FsyncPolicy::from_flag(self.cfg.durability_fsync);
        let mq = if self.durable_queue {
            MessageQueue::durable_with(self.root.join("queue"), policy, self.cfg.wal_segment_bytes)?
        } else {
            MessageQueue::new()
        };
        // The message plane: every role binds its handler — and registers
        // its counters — into one shared registry; the registry is then
        // fronted either by the in-process transport (default — carries the
        // cluster hook) or by a real TCP loopback listener plus a pooled
        // client transport, and either one sits under the fault layer.
        // Handlers never know which plane called them.
        let registry = Arc::new(HandlerRegistry::new());
        let dfs = roles::open_dfs(&self.root, &topology, &self.cfg, self.latency, &registry)?;
        let meta = if self.durable_meta {
            MetadataService::open_with(
                self.root.join("meta.snapshot"),
                policy,
                self.cfg.wal_segment_bytes,
            )?
        } else {
            MetadataService::in_memory()
        };

        serve_meta(&registry, meta.clone());
        let (inner, tcp, rpc_server): (Arc<dyn Transport>, _, _) = if self.tcp_loopback {
            let stats = Arc::new(WireStats::default());
            let server = TcpRpcServer::bind(
                "127.0.0.1:0",
                Arc::clone(&registry),
                Arc::clone(&stats),
                None,
            )?;
            let t = Arc::new(TcpTransport::with_wire_stats(stats));
            t.set_default_route(Some(server.local_addr()));
            (t.clone(), Some(t), Some(server))
        } else {
            let cluster = Some(topology.cluster.clone());
            let t = InProcTransport::with_registry(cluster, Arc::clone(&registry));
            (Arc::new(t), None, None)
        };
        let faults = Arc::new(FaultPlane::new(inner));
        let host = Host {
            cfg: self.cfg,
            topology,
            plane: Arc::clone(&faults) as Arc<dyn Transport>,
            tcp,
        };
        host.register_plane(&registry);

        // Every server is a leased member of the cluster: the membership
        // view (and its epoch) is what the coordinator routes by, and what
        // elasticity — joins, drains, lease expiry — mutates at runtime.
        host.join_members(&host.topology.indexing, MemberRole::Indexing)?;
        host.join_members(&host.topology.query, MemberRole::Query)?;

        roles::bootstrap_schema(&meta, &host.topology.indexing)?;

        // Volatile metadata forgets the registered offsets with the
        // process, so the journal must keep every byte for the restart to
        // replay: trims then free in-memory records only.
        let ix_role = IndexingRole::new(
            host.clone(),
            &registry,
            mq.clone(),
            dfs.clone(),
            self.durable_meta,
        )?;
        let indexing = host
            .topology
            .indexing
            .iter()
            .map(|&id| ix_role.serve(&registry, id))
            .collect::<Result<Vec<_>>>()?;
        let query_servers = host
            .topology
            .query
            .iter()
            .map(|&id| roles::serve_query(&host, &registry, &dfs, id))
            .collect();
        let gateway = Gateway::new(host.clone(), self.policy)?;
        gateway.serve(&registry);

        Ok(Waterwheel {
            host,
            registry,
            mq,
            dfs,
            meta,
            faults,
            rpc_server,
            gateway,
            ix_role,
            indexing,
            query_servers,
            measure: Mutex::new(default_measure()),
            pumps_stop: Arc::new(AtomicBool::new(false)),
            pump_handles: Mutex::new(Vec::new()),
        })
    }
}

/// An embedded Waterwheel deployment.
pub struct Waterwheel {
    pub(crate) host: Host,
    /// Handlers and counter sets of every role; emptied on drop.
    registry: Arc<HandlerRegistry>,
    mq: MessageQueue,
    dfs: SimDfs,
    meta: MetadataService,
    /// The fault layer over the plane: `host.plane` is this same object.
    faults: Arc<FaultPlane>,
    rpc_server: Option<TcpRpcServer>,
    gateway: Arc<Gateway>,
    ix_role: IndexingRole,
    /// One slot per indexing server, in id order (ids are `0..n`).
    indexing: Vec<IndexingSlot>,
    query_servers: Vec<Arc<QueryServer>>,
    measure: Mutex<MeasureFn>,
    pumps_stop: Arc<AtomicBool>,
    pump_handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Waterwheel {
    /// Starts a builder.
    pub fn builder(root: impl Into<PathBuf>) -> WaterwheelBuilder {
        WaterwheelBuilder::new(root)
    }

    /// The active configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.host.cfg
    }

    /// The metadata service handle.
    pub fn metadata(&self) -> &MetadataService {
        &self.meta
    }

    /// The simulated DFS handle.
    pub fn dfs(&self) -> &SimDfs {
        &self.dfs
    }

    /// The simulated cluster handle.
    pub fn cluster(&self) -> &Cluster {
        &self.host.topology.cluster
    }

    /// The message queue handle.
    pub fn message_queue(&self) -> &MessageQueue {
        &self.mq
    }

    /// The fault layer every role sends through, in-process or TCP
    /// loopback alike: script latency, loss, partitions and lost acks per
    /// link, and read per-link RPC statistics. It is the same object as
    /// [`Self::plane`].
    pub fn transport(&self) -> &Arc<FaultPlane> {
        &self.faults
    }

    /// The message plane every role of this system sends on, in-process or
    /// TCP loopback alike: an `RpcClient` built on it reaches the client
    /// verbs at the dispatcher ids and `COORDINATOR`.
    pub fn plane(&self) -> &Arc<dyn Transport> {
        &self.host.plane
    }

    /// Whether this deployment carries RPCs over real TCP loopback sockets.
    pub fn is_tcp(&self) -> bool {
        self.rpc_server.is_some()
    }

    /// Per-link RPC totals from whichever plane carries this deployment.
    pub fn rpc_totals(&self) -> RpcTotals {
        self.host.plane.stats().totals()
    }

    /// Wire-level socket counters (bytes, connects, decode errors). All
    /// zero for the in-process deployment, which never touches a socket.
    pub fn wire_totals(&self) -> WireTotals {
        let tcp = self.host.tcp.as_ref();
        tcp.map(|t| t.wire().totals()).unwrap_or_default()
    }

    /// The registry every role of this system bound its handler and
    /// registered its counters on ([`SystemMetrics`](crate::SystemMetrics)
    /// walks it).
    pub fn registry(&self) -> &HandlerRegistry {
        &self.registry
    }

    /// The coordinator (policy switching, stats).
    pub fn coordinator(&self) -> Arc<Coordinator> {
        self.gateway.coordinator()
    }

    /// Replaces the query coordinator with a fresh instance (paper §V:
    /// "when the coordinator fails, the system simply cancels all the
    /// ongoing subqueries and re-initializes the queries on a newly created
    /// query coordinator"). All coordinator state is rebuilt from the
    /// metadata service; in-flight queries on the old instance complete or
    /// fail independently.
    pub fn restart_coordinator(&self) {
        self.gateway.restart_coordinator(&self.registry);
    }

    /// The query servers (stats, failure injection).
    pub fn query_servers(&self) -> &[Arc<QueryServer>] {
        &self.query_servers
    }

    /// Snapshot of the indexing servers (stats, failure injection).
    pub fn indexing_servers(&self) -> Vec<Arc<IndexingServer>> {
        self.indexing
            .iter()
            .map(|s| Arc::clone(&s.read()))
            .collect()
    }

    /// The dispatchers.
    pub fn dispatchers(&self) -> &[Arc<Dispatcher>] {
        self.gateway.dispatchers()
    }

    /// Installs the measure function folded by aggregate queries (the value
    /// extracted from each tuple — e.g. a fare, a speed, a byte count) on
    /// every role that reads it: the indexing servers (wheels, chunk
    /// summaries and leaf directories, their scans) and the query servers
    /// (the leaves an aggregate scans). Both also filter a query's measure
    /// range under it. The default measures payload length. Install it
    /// **before ingesting**: wheel cells, chunk summaries and leaf
    /// directories hold pre-measured values, so tuples indexed under a
    /// different measure keep answering with it until they age out.
    pub fn register_measure(&self, measure: impl Fn(&Tuple) -> u64 + Send + Sync + 'static) {
        let measure: MeasureFn = Arc::new(measure);
        *self.measure.lock() = Arc::clone(&measure);
        for server in self.indexing_servers() {
            server.set_measure(Arc::clone(&measure));
        }
        for server in &self.query_servers {
            server.set_measure(Arc::clone(&measure));
        }
    }

    /// Executes an aggregate query: COUNT / SUM / MIN / MAX / AVG of the
    /// registered measure over a key × time rectangle, answered from
    /// hierarchical wheel summaries where possible (DESIGN.md §4b).
    pub fn aggregate(&self, aq: &AggregateQuery) -> Result<AggregateAnswer> {
        self.coordinator().execute_aggregate(aq)
    }

    /// Ingests one tuple through a dispatcher (round-robin across them).
    /// The tuple may be buffered in the dispatcher until its batch fills
    /// (`ingest_batch_size`) or lingers past
    /// [`INGEST_LINGER`](crate::dispatcher::INGEST_LINGER); [`Self::drain`],
    /// [`Self::flush_all`] and the background pumps all flush those buffers.
    pub fn insert(&self, tuple: Tuple) -> Result<()> {
        self.gateway.insert(tuple)
    }

    /// Sends every partially filled ingest batch buffered in the
    /// dispatchers (and retries any batch whose earlier send failed).
    pub fn flush_ingest_batches(&self) -> Result<()> {
        self.gateway.flush_batches()
    }

    /// Tuples accepted by [`Self::insert`] but not yet acknowledged by an
    /// indexing server (still buffered in dispatcher batches).
    pub fn pending_ingest(&self) -> u64 {
        self.gateway.pending()
    }

    /// Synchronously pumps every indexing server once; returns tuples moved
    /// from the queue into the in-memory trees. Use this (or
    /// [`Self::start_pumps`]) to make inserted data visible.
    pub fn pump_all(&self, max_per_server: usize) -> Result<usize> {
        let mut total = 0;
        for server in self.indexing_servers() {
            if server.is_failed() {
                continue;
            }
            total += server.pump(max_per_server)?;
        }
        Ok(total)
    }

    /// Flushes buffered ingest batches and pumps until the ingestion queue
    /// is fully drained.
    pub fn drain(&self) -> Result<usize> {
        let mut total = 0;
        loop {
            self.flush_ingest_batches()?;
            let n = self.pump_all(4_096)?;
            if n == 0 && self.pending_ingest() == 0 {
                return Ok(total);
            }
            total += n;
        }
    }

    /// Spawns one background pump thread per indexing server (the embedded
    /// equivalent of the Storm topology's running executors). Idempotent.
    pub fn start_pumps(&self) {
        let mut handles = self.pump_handles.lock();
        if !handles.is_empty() {
            return;
        }
        self.pumps_stop.store(false, Ordering::SeqCst);
        handles.extend(
            self.indexing
                .iter()
                .map(|slot| roles::spawn_pump(slot, &self.pumps_stop)),
        );
        handles.push(roles::spawn_linger_flusher(
            self.dispatchers().to_vec(),
            &self.pumps_stop,
        ));
    }

    /// Stops the background pump threads and waits for them.
    pub fn stop_pumps(&self) {
        self.pumps_stop.store(true, Ordering::SeqCst);
        for handle in self.pump_handles.lock().drain(..) {
            let _ = handle.join();
        }
    }

    /// Executes a query.
    pub fn query(&self, query: &Query) -> Result<QueryResult> {
        self.coordinator().execute(query)
    }

    /// Forces queued-but-unflushed records to the OS (durable-queue mode);
    /// a no-op for memory-only queues.
    pub fn sync_queue(&self) -> Result<()> {
        self.mq.sync()
    }

    /// Forces every indexing server of the live membership to drain its
    /// queue partition and seal its in-memory state to chunks — issued as
    /// `Flush` RPCs through a dispatcher (the control hop of the §V
    /// durability boundary). Crashed servers are skipped: their memory is
    /// gone and replays on recovery.
    pub fn flush_all(&self) -> Result<()> {
        self.gateway.flush_all().map(drop)
    }

    /// Runs one adaptive-key-partitioning round (paper §III-D). When the
    /// round produces a plan, it is executed through the live-migration
    /// driver ([`crate::migration::run`]): snapshot flush → durable
    /// migration records → schema install → straggler flush → cut-over.
    /// Queries keep answering exactly throughout — the §III-D overlap
    /// window covers tuples the old owners still hold.
    pub fn rebalance(&self) -> Result<BalanceOutcome> {
        self.gateway.rebalance()
    }

    /// Executes one [`MigrationPlan`] through the migration driver.
    /// Separated from [`rebalance`](Self::rebalance) so tests can drive
    /// hand-built plans.
    pub fn migrate(&self, plan: MigrationPlan) -> Result<BalanceOutcome> {
        self.gateway.migrate(plan)
    }

    /// Migration-engine counters (started, completed, ranges reassigned).
    pub fn migration_stats(&self) -> &MigrationStats {
        self.gateway.migration_stats()
    }

    /// The partition balancer (stats, planning).
    pub fn balancer(&self) -> &PartitionBalancer {
        self.gateway.balancer()
    }

    /// Renews the membership lease of every live server (the embedded
    /// deployment's heartbeat tick; separate processes run their own
    /// heartbeat threads). Returns the membership epoch.
    pub fn heartbeat_members(&self) -> Result<u64> {
        let ttl = self.host.cfg.lease_ttl;
        let mut epoch = self.meta.membership_epoch();
        for s in self.indexing_servers() {
            if !s.is_failed() {
                epoch = self.meta.heartbeat(s.id(), ttl)?;
            }
        }
        for qs in &self.query_servers {
            if !qs.is_failed() {
                epoch = self.meta.heartbeat(qs.id(), ttl)?;
            }
        }
        Ok(epoch)
    }

    /// Evicts members whose lease lapsed (crashed servers stop
    /// heartbeating), fails nodes that no longer host any member, and
    /// re-replicates chunks off those nodes. Returns the evicted servers.
    pub fn expire_lapsed_members(&self) -> Result<Vec<ServerId>> {
        let evicted = self.meta.expire_lapsed_leases(self.host.cfg.lease_ttl)?;
        let mut out = Vec::with_capacity(evicted.len());
        for (server, node) in evicted {
            out.push(server);
            let view = self.meta.membership();
            let node_still_hosts = view
                .indexing
                .iter()
                .chain(view.query.iter())
                .any(|&(_, n)| n == node);
            if !node_still_hosts {
                self.cluster().fail_node(node)?;
                self.dfs.re_replicate(node);
            }
        }
        if !out.is_empty() {
            let _ = self.coordinator().refresh_membership();
        }
        Ok(out)
    }

    fn slot(&self, id: ServerId) -> Result<&IndexingSlot> {
        self.indexing
            .get(id.raw() as usize)
            .ok_or_else(|| WwError::not_found("indexing server", id))
    }

    /// Crashes an indexing server: its in-memory tuples are lost and it
    /// stops serving until [`Self::recover_indexing_server`].
    pub fn crash_indexing_server(&self, id: ServerId) -> Result<()> {
        self.slot(id)?.read().set_failed(true);
        self.meta.update_memory_region(id, None);
        Ok(())
    }

    /// Recovers a crashed indexing server by replaying its queue partition
    /// from the durable offset (paper §V) — the replacement instance ends up
    /// with exactly the tuples the old one held in memory.
    pub fn recover_indexing_server(&self, id: ServerId) -> Result<()> {
        let slot = self.slot(id)?;
        let replacement = self.ix_role.build(&self.registry, id)?;
        replacement.set_measure(self.measure.lock().clone());
        *slot.write() = replacement;
        // Re-join the membership: if the crash outlived the lease, the
        // member was evicted and needs a fresh registration (which bumps
        // the epoch); otherwise this just renews the lease.
        self.host.join_members(&[id], MemberRole::Indexing)
    }

    /// Total tuples currently queryable (in-memory + flushed).
    pub fn total_visible(&self) -> usize {
        let in_mem: usize = self
            .indexing_servers()
            .iter()
            .filter(|s| !s.is_failed())
            .map(|s| s.in_memory())
            .sum();
        let flushed: usize = self
            .meta
            .chunks_overlapping(&waterwheel_core::Region::full())
            .iter()
            .map(|(id, _)| self.meta.chunk_info(*id).map_or(0, |i| i.count as usize))
            .sum();
        in_mem + flushed
    }
}

impl Drop for Waterwheel {
    fn drop(&mut self) {
        // Threads go in reverse order of creation: the coordinator's
        // fan-out helpers (started by the first query) before the pumps
        // and the listener they call into (`FanoutPool::shutdown`).
        self.coordinator().fanout_pool().shutdown();
        self.stop_pumps();
        // Best-effort: push buffered batches into the queue so a durable
        // queue persists them before the final sync.
        for d in self.dispatchers() {
            let _ = d.flush_batches();
        }
        let _ = self.mq.sync();
        // The in-process plane (or the TCP listener) owns the registry
        // whose handlers (and counter sets: the dispatchers) own the roles,
        // which own clients of that plane: empty it, or nothing in that ring — the
        // coordinator's fan-out threads included — is ever released.
        self.registry.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waterwheel_core::{Expr, KeyInterval, TimeInterval};

    fn system(name: &str) -> Waterwheel {
        let root = std::env::temp_dir().join(format!("ww-sys-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut cfg = SystemConfig::default();
        cfg.chunk_size_bytes = 8 * 1024;
        cfg.indexing_servers = 2;
        cfg.query_servers = 3;
        cfg.dispatchers = 2;
        Waterwheel::builder(root).config(cfg).build().unwrap()
    }

    #[test]
    fn insert_pump_query_roundtrip() {
        let ww = system("roundtrip");
        for i in 0..500u64 {
            ww.insert(Tuple::bare(i * 1_000_000, 1_000 + i)).unwrap();
        }
        ww.drain().unwrap();
        let q = Query::range(KeyInterval::full(), TimeInterval::full());
        let r = ww.query(&q).unwrap();
        assert_eq!(r.tuples.len(), 500);
        // Narrow query.
        let q = Query::range(
            KeyInterval::new(0, 100_000_000),
            TimeInterval::new(1_000, 1_050),
        );
        let r = ww.query(&q).unwrap();
        assert_eq!(r.tuples.len(), 51);
    }

    #[test]
    fn data_spans_memory_and_chunks_transparently() {
        let ww = system("spans");
        for i in 0..400u64 {
            ww.insert(Tuple::bare(i * 1_000_000, 1_000 + i)).unwrap();
        }
        ww.drain().unwrap();
        ww.flush_all().unwrap(); // all to chunks
        for i in 400..500u64 {
            ww.insert(Tuple::bare(i * 1_000_000, 1_000 + i)).unwrap();
        }
        ww.drain().unwrap(); // these stay in memory
        assert!(ww.metadata().chunk_count() >= 1);
        let r = ww
            .query(&Query::range(KeyInterval::full(), TimeInterval::full()))
            .unwrap();
        assert_eq!(r.tuples.len(), 500);
        assert_eq!(ww.total_visible(), 500);
    }

    #[test]
    fn background_pumps_make_data_visible() {
        let ww = system("pumps");
        ww.start_pumps();
        for i in 0..200u64 {
            ww.insert(Tuple::bare(i * 1_000_000, 1_000 + i)).unwrap();
        }
        // Wait for the pumps to drain the queue.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let r = ww
                .query(&Query::range(KeyInterval::full(), TimeInterval::full()))
                .unwrap();
            if r.tuples.len() == 200 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "pumps stalled at {} tuples",
                r.tuples.len()
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        ww.stop_pumps();
    }

    #[test]
    fn indexing_server_crash_and_recovery_loses_nothing() {
        let ww = system("ix-recovery");
        for i in 0..600u64 {
            ww.insert(Tuple::bare(i * 1_000_000, 1_000 + i)).unwrap();
        }
        ww.drain().unwrap();
        let victim = ww.indexing_servers()[0].id();
        ww.crash_indexing_server(victim).unwrap();
        ww.recover_indexing_server(victim).unwrap();
        ww.drain().unwrap();
        let r = ww
            .query(&Query::range(KeyInterval::full(), TimeInterval::full()))
            .unwrap();
        assert_eq!(r.tuples.len(), 600, "recovery lost or duplicated tuples");
    }

    #[test]
    fn query_server_failure_is_masked_by_redispatch() {
        let ww = system("qs-failover");
        for i in 0..400u64 {
            ww.insert(Tuple::bare(i * 1_000_000, 1_000 + i)).unwrap();
        }
        ww.drain().unwrap();
        ww.flush_all().unwrap();
        ww.query_servers()[0].set_failed(true);
        ww.query_servers()[1].set_failed(true);
        let r = ww
            .query(&Query::range(KeyInterval::full(), TimeInterval::full()))
            .unwrap();
        assert_eq!(r.tuples.len(), 400);
        assert!(
            ww.coordinator()
                .stats()
                .redispatches
                .load(Ordering::Relaxed)
                > 0
        );
    }

    #[test]
    fn all_query_servers_down_is_an_error() {
        let ww = system("qs-alldown");
        for i in 0..300u64 {
            ww.insert(Tuple::bare(i * 1_000_000, 1_000 + i)).unwrap();
        }
        ww.drain().unwrap();
        ww.flush_all().unwrap();
        for qs in ww.query_servers() {
            qs.set_failed(true);
        }
        assert!(ww
            .query(&Query::range(KeyInterval::full(), TimeInterval::full()))
            .is_err());
    }

    #[test]
    fn metadata_survives_system_restart() {
        let root = std::env::temp_dir().join(format!("ww-sys-restart-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut cfg = SystemConfig::default();
        cfg.chunk_size_bytes = 2 * 1024;
        cfg.indexing_servers = 2;
        {
            let ww = Waterwheel::builder(&root)
                .config(cfg.clone())
                .build()
                .unwrap();
            for i in 0..600u64 {
                ww.insert(Tuple::bare(i * 1_000_000, 1_000 + i)).unwrap();
            }
            ww.drain().unwrap();
            ww.flush_all().unwrap();
        }
        // Restart over the same root: chunks + metadata recovered, and the
        // unflushed queue tail replays.
        let ww = Waterwheel::builder(&root).config(cfg).build().unwrap();
        let r = ww
            .query(&Query::range(KeyInterval::full(), TimeInterval::full()))
            .unwrap();
        assert_eq!(r.tuples.len(), 600);
    }

    #[test]
    fn tcp_loopback_system_answers_like_the_default_one() {
        let root = std::env::temp_dir().join(format!("ww-sys-tcp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut cfg = SystemConfig::default();
        cfg.chunk_size_bytes = 8 * 1024;
        cfg.indexing_servers = 2;
        let ww = Waterwheel::builder(root)
            .config(cfg)
            .tcp_loopback()
            .build()
            .unwrap();
        assert!(ww.is_tcp());
        for i in 0..300u64 {
            ww.insert(Tuple::bare(i * 1_000_000, 1_000 + i)).unwrap();
        }
        ww.drain().unwrap();
        ww.flush_all().unwrap();
        let r = ww
            .query(&Query::range(KeyInterval::full(), TimeInterval::full()))
            .unwrap();
        assert_eq!(r.tuples.len(), 300);
        // Predicates cross the wire as data and filter where the tuples are.
        let q = Query::with_predicate(
            KeyInterval::full(),
            TimeInterval::full(),
            (Expr::key() % 2_000_000).equals(0),
        );
        assert_eq!(ww.query(&q).unwrap().tuples.len(), 150);
        let wire = ww.wire_totals();
        assert!(wire.bytes_in > 0 && wire.bytes_out > 0, "{wire:?}");
        assert_eq!(wire.decode_errors, 0);
        assert!(ww.rpc_totals().sent > 0);
    }

    #[test]
    fn rebalance_runs_the_live_migration_state_machine() {
        let ww = system("migrate");
        // Skewed stream: every key in the low half, so server 0 takes all
        // the load and a rebalance round must move ranges.
        for i in 0..2_000u64 {
            ww.insert(Tuple::bare(i * 1_000, 1_000 + i)).unwrap();
        }
        ww.drain().unwrap();
        let out = ww.rebalance().unwrap();
        assert!(
            matches!(out, BalanceOutcome::Repartitioned { .. }),
            "skewed load must repartition, got {out:?}"
        );
        // The migration left durable, *completed* records with a cut-over
        // epoch, and the engine counters moved.
        let migs = ww.metadata().migrations();
        assert!(!migs.is_empty(), "live migration must record its moves");
        assert!(migs.iter().all(|m| m.completed()), "{migs:?}");
        assert_eq!(ww.migration_stats().started.load(Ordering::Relaxed), 1);
        assert_eq!(ww.migration_stats().completed.load(Ordering::Relaxed), 1);
        assert!(
            ww.migration_stats()
                .reassigned_ranges
                .load(Ordering::Relaxed)
                >= 1
        );
        // Every tuple still answers after the cut-over.
        let r = ww
            .query(&Query::range(KeyInterval::full(), TimeInterval::full()))
            .unwrap();
        assert_eq!(r.tuples.len(), 2_000, "migration lost or duplicated data");
    }

    #[test]
    fn lapsed_leases_evict_members_and_bump_the_epoch() {
        let root = std::env::temp_dir().join(format!("ww-sys-lease-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut cfg = SystemConfig::default();
        cfg.indexing_servers = 2;
        cfg.query_servers = 2;
        cfg.heartbeat_interval = std::time::Duration::from_millis(1);
        cfg.lease_ttl = std::time::Duration::from_millis(5);
        let ww = Waterwheel::builder(root).config(cfg).build().unwrap();
        let epoch0 = ww.metadata().membership_epoch();
        assert!(epoch0 >= 4, "build joins every server: epoch {epoch0}");
        // Everyone heartbeats: nothing lapses even after the TTL.
        std::thread::sleep(std::time::Duration::from_millis(10));
        ww.heartbeat_members().unwrap();
        // Crash one indexing server: it stops heartbeating, so after the
        // TTL + grace its lease lapses and the sweep evicts it.
        let victim = ww.indexing_servers()[0].id();
        ww.crash_indexing_server(victim).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(15));
        ww.heartbeat_members().unwrap(); // live members renew
        let evicted = ww.expire_lapsed_members().unwrap();
        assert_eq!(evicted, vec![victim]);
        assert!(ww.metadata().membership_epoch() > epoch0);
        // Recovery re-joins the member and bumps the epoch again.
        let after_evict = ww.metadata().membership_epoch();
        ww.recover_indexing_server(victim).unwrap();
        assert!(ww.metadata().membership_epoch() > after_evict);
        ww.heartbeat_members().unwrap();
    }

    #[test]
    fn predicate_queries_filter_server_side() {
        let ww = system("predicate");
        for i in 0..200u64 {
            ww.insert(Tuple::bare(i * 1_000_000, 1_000 + i)).unwrap();
        }
        ww.drain().unwrap();
        ww.flush_all().unwrap();
        let q = Query::with_predicate(
            KeyInterval::full(),
            TimeInterval::full(),
            (Expr::key() % 2_000_000).equals(0),
        );
        let r = ww.query(&q).unwrap();
        assert_eq!(r.tuples.len(), 100);
    }
}
