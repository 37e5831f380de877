//! The role layer: everything a server role *is*, written once.
//!
//! The paper's Figure 3 has one topology. A deployment is only *which roles
//! a process hosts and which transport fronts its handler registry*: the
//! embedded [`Waterwheel`](crate::Waterwheel) hosts every role behind an
//! in-process plane (or one TCP loopback listener), a `waterwheel-node`
//! process hosts one role behind its own listener. Both register what is
//! below — ids and placement ([`Topology`]), schema bootstrap, building an
//! [`IndexingServer`] from durable state, its handler and pump
//! ([`IndexingRole`]), the query server and its handler ([`serve_query`]),
//! membership joins and the lease keeper — so a verb or a durability rule
//! exists in exactly one place. The crate docs tabulate the settled verb
//! semantics; the verb-table test below holds both registries to them.
//!
//! Whatever binds a handler here also registers the counter sets behind it
//! on the same [`HandlerRegistry`] (`registry.counters()`), so a process
//! reports exactly the roles it hosts; the registry holds the statistics
//! structs, not the indexing and query servers that bump them.

use crate::coordinator::Coordinator;
use crate::dispatcher::{Dispatcher, LingerPark, INGEST_LINGER};
use crate::indexing::IndexingServer;
use crate::query_server::QueryServer;
use parking_lot::RwLock;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use waterwheel_cluster::{Cluster, LatencyModel};
use waterwheel_core::{KeyInterval, NodeId, Result, ServerId, SystemConfig, WwError};
use waterwheel_meta::{MemberRole, MetadataService, PartitionSchema};
use waterwheel_mq::{Consumer, MessageQueue};
use waterwheel_net::{
    HandlerRegistry, MetaClient, Request, Response, RpcClient, TcpTransport, Transport, COORDINATOR,
};
use waterwheel_storage::SimDfs;
use waterwheel_wal::FsyncPolicy;

/// Name of the ingestion topic; partition `i` feeds indexing server `i`.
pub const INGEST_TOPIC: &str = "ingest";

/// Tuples per pump step wherever a partition is pumped until empty.
const DRAIN_BATCH: usize = 4_096;

/// Indexing-server ids for a deployment with `n` of them (`0..`).
pub fn indexing_ids(n: usize) -> Vec<ServerId> {
    (0..n as u32).map(ServerId).collect()
}

/// Query-server ids (`1000..`).
pub fn query_ids(n: usize) -> Vec<ServerId> {
    (0..n as u32).map(|i| ServerId(1_000 + i)).collect()
}

/// Dispatcher ids (`2000..`).
pub fn dispatcher_ids(n: usize) -> Vec<ServerId> {
    (0..n as u32).map(|i| ServerId(2_000 + i)).collect()
}

/// The deterministic layout every process of a deployment rebuilds
/// identically from the server counts: ids per role and their round-robin
/// placement on the simulated cluster nodes (paper: fixed counts per node).
#[derive(Clone)]
pub struct Topology {
    /// The simulated cluster with every server placed.
    pub cluster: Cluster,
    /// Indexing-server ids.
    pub indexing: Vec<ServerId>,
    /// Query-server ids.
    pub query: Vec<ServerId>,
    /// Dispatcher ids.
    pub dispatchers: Vec<ServerId>,
}

impl Topology {
    /// Lays out `cfg`'s server counts over `nodes` cluster nodes: query
    /// servers are placed first, then indexing servers.
    pub fn new(cfg: &SystemConfig, nodes: usize) -> Self {
        let topo = Self {
            cluster: Cluster::new(nodes.max(1)),
            indexing: indexing_ids(cfg.indexing_servers),
            query: query_ids(cfg.query_servers),
            dispatchers: dispatcher_ids(cfg.dispatchers),
        };
        topo.cluster
            .place_servers_round_robin(topo.query.iter().copied());
        topo.cluster
            .place_servers_round_robin(topo.indexing.iter().copied());
        topo
    }

    /// The node hosting `id`, which must be an indexing or query id of
    /// this topology.
    pub fn node_of(&self, id: ServerId) -> NodeId {
        self.cluster
            .node_of(id)
            .expect("every indexing and query server of a topology is placed")
    }

    /// Chunk replication factor: `dfs_replication`, capped by the nodes
    /// there are to hold replicas.
    pub fn replication(&self, cfg: &SystemConfig) -> usize {
        cfg.dfs_replication.min(self.cluster.node_count())
    }
}

/// Recovers the durable partition schema, or publishes the uniform one
/// (version 1) on first start.
pub fn bootstrap_schema(meta: &MetadataService, indexing: &[ServerId]) -> Result<PartitionSchema> {
    if let Some(schema) = meta.partition() {
        return Ok(schema);
    }
    let mut schema = PartitionSchema::uniform(indexing);
    schema.version = 1;
    meta.set_partition(schema.clone())?;
    Ok(schema)
}

/// Opens the shared chunk store under `root` and registers its counters
/// (`dfs.*`, `wal.chunks.*`). One fsync policy (`durability_fsync`) governs
/// every durable surface, chunk seals included.
pub fn open_dfs(
    root: &Path,
    topology: &Topology,
    cfg: &SystemConfig,
    latency: LatencyModel,
    registry: &HandlerRegistry,
) -> Result<SimDfs> {
    let dfs = SimDfs::new(
        root.join("chunks"),
        topology.cluster.clone(),
        topology.replication(cfg),
        latency,
    )?
    .with_fsync(FsyncPolicy::from_flag(cfg.durability_fsync));
    registry
        .counters()
        .register("dfs", None, dfs.stats().clone());
    registry
        .counters()
        .register("wal.chunks", None, dfs.wal_stats());
    Ok(dfs)
}

/// What a process gives the roles it hosts: the configuration, the layout,
/// the plane its servers send on, and — when that plane is made of sockets
/// — the TCP transport `RegisterPeers` installs routes on.
#[derive(Clone)]
pub struct Host {
    /// The system configuration every role is built from.
    pub cfg: SystemConfig,
    /// Ids and placement.
    pub topology: Topology,
    /// The client side of the message plane.
    pub plane: Arc<dyn Transport>,
    /// The same plane as a TCP transport, when it is one.
    pub tcp: Option<Arc<TcpTransport>>,
}

impl Host {
    /// An RPC client sending as `src`.
    pub fn rpc(&self, src: ServerId) -> RpcClient {
        RpcClient::new(Arc::clone(&self.plane), src, &self.cfg)
    }

    /// A metadata-server stub sending as `src`.
    pub fn meta(&self, src: ServerId) -> MetaClient {
        MetaClient::new(self.rpc(src))
    }

    /// Registers the counters of the plane this process sends on: `rpc.*`
    /// (link totals, per-kind latencies) and, over sockets, `wire.*`.
    pub fn register_plane(&self, registry: &HandlerRegistry) {
        let counters = registry.counters();
        counters.register("rpc", None, self.plane.stats().clone());
        if let Some(tcp) = &self.tcp {
            counters.register("wire", None, tcp.wire().clone());
        }
    }

    /// One dispatcher per dispatcher id, routing under `schema`.
    pub fn dispatchers(&self, schema: &PartitionSchema) -> Vec<Arc<Dispatcher>> {
        let new = |&id| Arc::new(Dispatcher::new(id, self.rpc(id), schema.clone(), &self.cfg));
        self.topology.dispatchers.iter().map(new).collect()
    }

    /// A fresh query coordinator over this host's topology; all its state
    /// is rebuilt from the metadata server (paper §V).
    pub fn coordinator(&self) -> Arc<Coordinator> {
        Arc::new(Coordinator::new(
            self.rpc(COORDINATOR),
            self.topology.cluster.clone(),
            self.topology.query.clone(),
            self.topology.replication(&self.cfg),
        ))
    }

    /// Registers `ids` as leased members of `role` (paper §II-B dynamic
    /// membership). Re-joining identical members after a restart only
    /// renews leases, so epochs stay stable across recoveries.
    pub fn join_members(&self, ids: &[ServerId], role: MemberRole) -> Result<()> {
        for &id in ids {
            self.meta(id)
                .join(id, role, self.topology.node_of(id), self.cfg.lease_ttl)?;
        }
        Ok(())
    }
}

/// `RegisterPeers`: installs announced `(server id, address)` routes on the
/// process's TCP transport — how a running process learns about servers
/// that joined after it launched. A process routing in-process has none.
pub fn register_peers(
    tcp: Option<&TcpTransport>,
    peers: &[(ServerId, String)],
) -> Result<Response> {
    let Some(tcp) = tcp else {
        return Err(WwError::InvalidState(
            "RegisterPeers needs a TCP plane; this process routes in-process".into(),
        ));
    };
    for (id, addr) in peers {
        let addr: SocketAddr = addr.parse().map_err(|_| {
            WwError::InvalidState(format!("unparseable announced peer address {addr:?}"))
        })?;
        tcp.add_peer(*id, addr);
    }
    Ok(Response::Ack)
}

/// Where a process keeps one hosted indexing server. The handler and the
/// pump resolve the current instance through the slot at call time, so the
/// embedded system's recovery swap takes effect without rebinding; node
/// processes use the same slot and simply never swap.
pub type IndexingSlot = Arc<RwLock<Arc<IndexingServer>>>;

pub(crate) fn unsupported(role: &str) -> Result<Response> {
    Err(WwError::InvalidState(format!(
        "unsupported request for {role}"
    )))
}

/// The indexing role of one process: the ingestion queue its servers read
/// and the chunk store they seal to.
pub struct IndexingRole {
    host: Host,
    mq: MessageQueue,
    dfs: SimDfs,
    durable_offsets: bool,
}

impl IndexingRole {
    /// Sets the role up over `mq`, creating the ingestion topic with one
    /// partition per indexing server of the deployment (a durable queue
    /// replays its retained tuples and batch markers here), and registers
    /// the queue's counters (`ingest.*`, `wal.queue.*`).
    ///
    /// `durable_offsets` says whether the metadata service the servers
    /// register their offsets with survives a restart. Only then do the
    /// trims after a flush delete journal segments; otherwise they drop
    /// in-memory records only, and a restart replays the whole journal.
    pub fn new(
        host: Host,
        registry: &HandlerRegistry,
        mq: MessageQueue,
        dfs: SimDfs,
        durable_offsets: bool,
    ) -> Result<Self> {
        mq.create_topic(INGEST_TOPIC, host.cfg.indexing_servers)?;
        let counters = registry.counters();
        counters.register("ingest", None, mq.dedup_stats());
        counters.register("wal.queue", None, mq.wal_stats());
        Ok(Self {
            host,
            mq,
            dfs,
            durable_offsets,
        })
    }

    /// Builds server `id` from durable state (paper §V): its consumer
    /// resumes at the offset the last registered flush persisted and its
    /// interval comes from the published schema. Its counters (`indexing.*`) take the place of any predecessor's.
    ///
    /// This is the only place a queue [`Consumer`] is made outside tests,
    /// always for partition = server id: each partition has one reader,
    /// which is what lets that reader trim it alone (DESIGN.md §5).
    pub fn build(&self, registry: &HandlerRegistry, id: ServerId) -> Result<Arc<IndexingServer>> {
        // Indexing ids are `0..n`, so the raw id is the partition number
        // even when this process hosts only a slice of them.
        let partition = id.raw() as usize;
        let meta = self.host.meta(id);
        // A server joining an elastic cluster is not in the published
        // schema until the first cut-over reassigns it; it owns nothing
        // until then, so any placeholder interval works — `full()` keeps
        // the template tree's fan-out shape sensible.
        let interval = meta
            .partition()?
            .and_then(|schema| schema.interval_of(id))
            .unwrap_or_else(KeyInterval::full);
        let offset = meta.durable_offset(id)?;
        let server = Arc::new(IndexingServer::new(
            id,
            interval,
            self.host.cfg.clone(),
            Consumer::new(self.mq.clone(), INGEST_TOPIC, partition, offset),
            self.dfs.clone(),
            meta,
        ));
        server.set_journal_trim(self.durable_offsets);
        registry
            .counters()
            .register("indexing", Some(id), server.counters());
        Ok(server)
    }

    /// Builds server `id` and binds its RPC handler on `registry`.
    pub fn serve(&self, registry: &HandlerRegistry, id: ServerId) -> Result<IndexingSlot> {
        let slot: IndexingSlot = Arc::new(RwLock::new(self.build(registry, id)?));
        let partition = id.raw() as usize;
        let (tcp, mq) = (self.host.tcp.clone(), self.mq.clone());
        let handler_slot = Arc::clone(&slot);
        registry.bind(id, move |env| {
            // Resolved per call so a recovery swap takes effect. The ingest
            // verb never looks at the server's health: the queue accepts
            // writes while its consumer is down, and they replay (Kafka).
            let server = Arc::clone(&handler_slot.read());
            match &env.payload {
                Request::IngestBatch { seq, tuples } => {
                    // The partition is the exactly-once table: a redelivery
                    // appends nothing, and a fresh batch's marker and tuples
                    // land as one journal frame, committed before the ack.
                    let (src, batch) = (env.src.raw(), tuples.to_vec());
                    let first = mq.append_batch_from(INGEST_TOPIC, partition, src, *seq, batch)?;
                    Ok(Response::AckBatch {
                        tuples: tuples.len() as u32,
                        deduped: first.is_none(),
                    })
                }
                Request::Flush | Request::Ping if server.is_failed() => {
                    Err(WwError::Injected("indexing server down"))
                }
                Request::Flush => {
                    // Seal everything queued so far, not just what the
                    // pump happened to reach.
                    while server.pump(DRAIN_BATCH)? > 0 {}
                    Ok(Response::Flushed(server.flush()?))
                }
                Request::InMemorySubquery { sq } => {
                    Ok(Response::Tuples(server.query_in_memory(sq)?))
                }
                Request::InMemoryAggregate { sq } => Ok(server.aggregate_in_memory(sq)?.into()),
                Request::Reassign { interval } => {
                    // Only the *assigned* interval changes; tuples already
                    // in memory outside it stay queryable until flush
                    // (§III-D overlap).
                    server.reassign(*interval);
                    Ok(Response::Ack)
                }
                Request::RegisterPeers { peers } => register_peers(tcp.as_deref(), peers),
                Request::Ping => Ok(Response::Pong),
                _ => unsupported("an indexing server"),
            }
        });
        Ok(slot)
    }
}

/// Spawns a thread that sleeps `interval`, then runs `tick`, until `stop`
/// is set — the shape of every periodic loop a role runs.
pub fn spawn_every(
    stop: &Arc<AtomicBool>,
    interval: Duration,
    mut tick: impl FnMut() + Send + 'static,
) -> JoinHandle<()> {
    let stop = Arc::clone(stop);
    std::thread::spawn(move || {
        while !stop.load(Ordering::SeqCst) {
            std::thread::sleep(interval);
            tick();
        }
    })
}

/// Longest an idle pump stays parked without a wake. Appends, the stop
/// latch and a recovery swap all wake it, so this is a liveness guard only.
pub const PUMP_BACKSTOP: Duration = Duration::from_secs(1);

/// Spawns the background pump of one indexing server — the Storm executor
/// keeping freshly queued tuples queryable without waiting for a flush.
/// It drains whatever is queued, then parks on its queue partition until
/// an append lands there, so a tuple is pumped as it arrives. Runs until
/// `stop` is set and the thread unparked ([`stop_threads`]); a failing
/// server is retried after 1 ms.
pub fn spawn_pump(slot: &IndexingSlot, stop: &Arc<AtomicBool>) -> JoinHandle<()> {
    let (slot, stop) = (Arc::clone(slot), Arc::clone(stop));
    std::thread::spawn(move || {
        while !stop.load(Ordering::SeqCst) {
            // Re-read each round so a recovery swap takes effect.
            let server = Arc::clone(&slot.read());
            match server.pump(1_024) {
                Ok(0) => {
                    let swapped = || !Arc::ptr_eq(&slot.read(), &server);
                    server.wait_for_records(PUMP_BACKSTOP, || {
                        stop.load(Ordering::SeqCst) || swapped()
                    });
                }
                Ok(_) => {}
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    })
}

/// Spawns the linger flusher of a process's dispatchers: partial batches
/// older than [`INGEST_LINGER`] are pushed out, so a trickling stream becomes
/// visible without waiting for a batch to fill — and a batch whose send
/// failed is retried without waiting for the next insert. Each sweep visits
/// every link, then the thread sleeps until the earliest deadline left, or
/// with none until a dispatch gives a link one ([`LingerPark`]). A failed
/// sweep is retried after one linger: the failed batch stays pending in its
/// dispatcher.
pub fn spawn_linger_flusher(
    dispatchers: Vec<Arc<Dispatcher>>,
    stop: &Arc<AtomicBool>,
) -> JoinHandle<()> {
    let stop = Arc::clone(stop);
    std::thread::spawn(move || {
        let park = Arc::new(LingerPark::for_current_thread());
        for d in &dispatchers {
            d.attach_linger(&park);
        }
        while !stop.load(Ordering::SeqCst) {
            park.sweeping();
            let next = dispatchers
                .iter()
                .filter_map(|d| {
                    d.flush_lingering()
                        .unwrap_or_else(|_| Some(Instant::now() + INGEST_LINGER))
                })
                .min();
            park.park_until(next, &stop);
        }
    })
}

/// Sets `stop` and joins `handles`, unparking each thread first so that
/// none sleeps out its park: the pumps and the linger flusher check `stop`
/// whenever they are unparked. (Threads from [`spawn_every`] finish their
/// current interval.)
pub fn stop_threads(stop: &AtomicBool, handles: impl IntoIterator<Item = JoinHandle<()>>) {
    stop.store(true, Ordering::SeqCst);
    let handles: Vec<_> = handles.into_iter().collect();
    for handle in &handles {
        handle.thread().unpark();
    }
    for handle in handles {
        let _ = handle.join();
    }
}

/// Builds query server `id` over `dfs`, binds its RPC handler and registers
/// its counters.
pub fn serve_query(
    host: &Host,
    registry: &HandlerRegistry,
    dfs: &SimDfs,
    id: ServerId,
) -> Arc<QueryServer> {
    let qs = Arc::new(QueryServer::with_config(
        id,
        host.topology.node_of(id),
        dfs.clone(),
        &host.cfg,
    ));
    qs.register_counters(registry.counters());
    let (tcp, server) = (host.tcp.clone(), Arc::clone(&qs));
    registry.bind(id, move |env| match &env.payload {
        Request::ChunkSubquery { sq, chunk } => Ok(Response::Tuples(server.execute(sq, *chunk)?)),
        Request::ChunkAggregate { sq, chunk } => Ok(server.aggregate(sq, *chunk)?.into()),
        Request::RegisterPeers { peers } => register_peers(tcp.as_deref(), peers),
        Request::Ping if server.is_failed() => Err(WwError::Injected("query server down")),
        Request::Ping => Ok(Response::Pong),
        _ => unsupported("a query server"),
    });
    qs
}

/// Spawns the thread renewing the membership leases of `ids` (ZooKeeper's
/// ephemeral nodes, §II-B): a heartbeat per interval until `stop` is set,
/// then a graceful `leave` per server. Renewal errors are ignored — if the
/// lease already lapsed (a long stall), the metadata server has evicted
/// this member and the operator restarts the process rather than having it
/// fight a cluster that moved on.
pub fn spawn_lease_keeper(
    host: &Host,
    stop: &Arc<AtomicBool>,
    ids: Vec<ServerId>,
) -> JoinHandle<()> {
    // Lease traffic gets its own client: deadline of one heartbeat, no
    // retries. Losing a renewal is harmless (the next interval covers it),
    // and the farewell `leave` must not stall process teardown for a full
    // RPC deadline when the metadata server is already gone.
    let mut cfg = host.cfg.clone();
    cfg.rpc_timeout = cfg.heartbeat_interval;
    cfg.rpc_retries = 0;
    let meta = MetaClient::new(RpcClient::new(Arc::clone(&host.plane), ids[0], &cfg));
    let stop = Arc::clone(stop);
    std::thread::spawn(move || {
        while !stop.load(Ordering::SeqCst) {
            std::thread::sleep(cfg.heartbeat_interval);
            for &id in &ids {
                let _ = meta.heartbeat(id, cfg.lease_ttl);
            }
        }
        for &id in &ids {
            let _ = meta.leave(id);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Waterwheel;
    use waterwheel_core::aggregate::AggregateKind;
    use waterwheel_core::{
        ChunkId, Query, QueryId, SubQuery, SubQueryId, SubQueryTarget, TimeInterval, Tuple,
    };
    use waterwheel_net::{MetaRequest, META_SERVER};

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Bound {
        Indexing,
        Query,
        Meta,
        Dispatcher,
        Coordinator,
    }

    /// The roles that serve `req`; every other bound address must answer a
    /// typed `InvalidState`. Exhaustive on purpose: a new verb does not
    /// compile until it is placed here.
    fn accepted_by(req: &Request, tcp: bool) -> &'static [Bound] {
        match req {
            Request::IngestBatch { .. } | Request::Flush => &[Bound::Indexing, Bound::Dispatcher],
            Request::InMemorySubquery { .. }
            | Request::InMemoryAggregate { .. }
            | Request::Reassign { .. } => &[Bound::Indexing],
            Request::ChunkSubquery { .. } | Request::ChunkAggregate { .. } => &[Bound::Query],
            Request::Ping => &[
                Bound::Indexing,
                Bound::Query,
                Bound::Dispatcher,
                Bound::Coordinator,
            ],
            Request::Meta(_) => &[Bound::Meta],
            Request::ClientQuery { .. }
            | Request::ClientAggregate { .. }
            | Request::MigrateUniform => &[Bound::Coordinator],
            Request::RegisterPeers { .. } if tcp => {
                &[Bound::Indexing, Bound::Query, Bound::Coordinator]
            }
            // No plane to install routes on.
            Request::RegisterPeers { .. } => &[],
            // The listener's: a TCP server with a shutdown hook answers it
            // before any handler sees it.
            Request::Shutdown => &[],
            // The registry's: answered at whatever is bound, META_SERVER
            // included, before any handler sees it.
            Request::Stats => &[
                Bound::Indexing,
                Bound::Query,
                Bound::Meta,
                Bound::Dispatcher,
                Bound::Coordinator,
            ],
        }
    }

    fn subquery(target: SubQueryTarget) -> SubQuery {
        SubQuery {
            id: SubQueryId {
                query: QueryId(0),
                index: 0,
            },
            keys: KeyInterval::full(),
            times: TimeInterval::full(),
            predicate: None,
            measure_range: None,
            target,
            offset: None,
        }
    }

    fn one_of_each(chunk: ChunkId) -> Vec<Request> {
        let ix = ServerId(0);
        vec![
            Request::IngestBatch {
                seq: 9,
                tuples: vec![Tuple::bare(2, 1_001)],
            },
            Request::Flush,
            Request::InMemorySubquery {
                sq: subquery(SubQueryTarget::InMemory(ix)),
            },
            Request::InMemoryAggregate {
                sq: subquery(SubQueryTarget::InMemory(ix)),
            },
            Request::ChunkSubquery {
                sq: subquery(SubQueryTarget::Chunk(chunk)),
                chunk,
            },
            Request::ChunkAggregate {
                sq: subquery(SubQueryTarget::Chunk(chunk)),
                chunk,
            },
            Request::Ping,
            Request::Meta(MetaRequest::Membership),
            Request::ClientQuery {
                query: Query::range(KeyInterval::full(), TimeInterval::full()),
            },
            Request::ClientAggregate {
                query: Query::range(KeyInterval::full(), TimeInterval::full())
                    .aggregate(AggregateKind::Count),
            },
            Request::Shutdown,
            Request::RegisterPeers {
                // A server the rig does not host: routes to the bound ones
                // must keep pointing at the listener.
                peers: vec![(ServerId(1_001), "127.0.0.1:9".into())],
            },
            Request::Reassign {
                interval: KeyInterval::full(),
            },
            Request::MigrateUniform,
            Request::Stats,
        ]
    }

    /// Sends one sample of every verb to every address the role layer, the
    /// gateway and `serve_meta` bound on an embedded system's registry —
    /// fronted by the in-process plane or by its `TcpRpcServer` — and holds
    /// the gateway's answers to what the embedded methods return.
    fn check_verb_table(tcp: bool) {
        let root =
            std::env::temp_dir().join(format!("ww-roles-verbs-{tcp}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut cfg = SystemConfig::default();
        cfg.indexing_servers = 1;
        cfg.query_servers = 1;
        let mut builder = Waterwheel::builder(root).config(cfg).volatile_metadata();
        if tcp {
            builder = builder.tcp_loopback();
        }
        let ww = builder.build().unwrap();
        let host = &ww.host;
        let (ix, qs) = (host.topology.indexing[0], host.topology.query[0]);
        let disp = host.topology.dispatchers[1];

        // Seal one chunk through the verbs themselves so the query-role
        // samples name something real.
        let client = host.rpc(ServerId(9_000));
        let tuples: Vec<Tuple> = (0..64).map(|i| Tuple::bare(i, 1_000 + i)).collect();
        client
            .call(ix, Request::IngestBatch { seq: 1, tuples })
            .unwrap();
        let chunks = client
            .call(ix, Request::Flush)
            .unwrap()
            .into_flushed()
            .unwrap();
        assert_eq!(chunks.len(), 1, "flush drains the partition, then seals");

        for req in one_of_each(chunks[0]) {
            let accepted = accepted_by(&req, tcp);
            for (bound, dst) in [
                (Bound::Indexing, ix),
                (Bound::Query, qs),
                (Bound::Meta, META_SERVER),
                (Bound::Dispatcher, disp),
                (Bound::Coordinator, COORDINATOR),
            ] {
                let answer = client.call(dst, req.clone());
                if accepted.contains(&bound) {
                    assert!(answer.is_ok(), "{bound:?} must serve {req:?}: {answer:?}");
                } else {
                    assert!(
                        matches!(answer, Err(WwError::InvalidState(_))),
                        "{bound:?} must reject {req:?} with InvalidState: {answer:?}"
                    );
                }
            }
        }

        // One gateway: a verb arriving on the plane answers what the
        // embedded method answers. The loop above ingested through the
        // dispatcher id (one tuple, flushed by its `Flush`) and through the
        // indexing id (another one, still queued).
        ww.insert(Tuple::bare(3, 1_002)).unwrap();
        let (keys, times) = (KeyInterval::full(), TimeInterval::full());
        let sealed = client.call(disp, Request::Flush).unwrap();
        assert_eq!(
            sealed.into_flushed().unwrap().len(),
            1,
            "Flush seals like flush_all"
        );
        ww.flush_all().unwrap();
        let query = Query::range(keys, times);
        let over_the_plane = client
            .call(COORDINATOR, Request::ClientQuery { query })
            .unwrap()
            .into_query()
            .unwrap();
        let direct = ww.query(&Query::range(keys, times)).unwrap();
        assert_eq!(over_the_plane.tuples, direct.tuples);
        assert_eq!(direct.tuples.len(), 64 + 3);
        let kind = AggregateKind::Count;
        let query = Query::range(keys, times).aggregate(kind);
        let over_the_plane = client
            .call(COORDINATOR, Request::ClientAggregate { query })
            .unwrap()
            .into_aggregate()
            .unwrap();
        let direct = ww
            .aggregate(&Query::range(keys, times).aggregate(kind))
            .unwrap();
        assert_eq!(over_the_plane.agg.count, direct.agg.count);
        assert_eq!(direct.agg.count, 64 + 3);

        // One scrape: whichever bound address is asked, the process answers
        // with the rows `SystemMetrics::collect` reads directly.
        let scraped = client.call(META_SERVER, Request::Stats).unwrap();
        let scraped = crate::SystemMetrics::from_rows(scraped.into_stats().unwrap());
        let direct = crate::SystemMetrics::collect(&ww);
        for name in [
            "indexing.ingested",
            "coordinator.queries",
            "meta.chunks_registered",
        ] {
            assert_eq!(scraped.get(name), direct.get(name), "{name}");
        }
        assert!(direct.get("coordinator.queries") >= 4);
    }

    #[test]
    fn every_verb_has_one_home_on_the_inproc_registry() {
        check_verb_table(false);
    }

    #[test]
    fn every_verb_has_one_home_on_the_tcp_registry() {
        check_verb_table(true);
    }
}
