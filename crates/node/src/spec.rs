//! Launching and talking to a multi-process loopback cluster.
//!
//! [`ClusterSpec::launch`] spawns the role processes (meta → indexing ×
//! `indexing_processes` → query × `query_processes` → dispatcher, so each
//! child's dependencies are already listening), reads each child's
//! `WW_NODE_READY <addr>` handshake line, and threads the accumulated
//! peer map into the next child's environment. The returned
//! [`ClusterHandle`] owns the children — and can reshape the cluster
//! live: [`ClusterHandle::add_node`] / [`ClusterHandle::drain_node`] grow
//! and shrink the indexing tier while ingest and queries keep running.
//! [`ClusterHandle::shutdown`] retires them via `Shutdown` RPCs (client
//! gateway first, metadata last) with a kill fallback, and dropping the
//! handle kills anything still running — tests never leak processes.

use crate::runtime::{
    check_layout, dispatcher_ids, indexing_ids, query_ids, route_peers, slice_ids, NodeConfig, Role,
};
use std::io::BufRead;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use waterwheel_agg::AggregateAnswer;
use waterwheel_core::{
    AggregateQuery, Query, QueryResult, Result, ServerId, SystemConfig, Tuple, WwError,
};
use waterwheel_meta::MembershipView;
use waterwheel_net::{
    MetaClient, Request, RpcClient, TcpTransport, Transport, COORDINATOR, META_SERVER,
};
use waterwheel_server::SystemMetrics;

/// The source address external clients send from (outside every server
/// id range).
pub const CLIENT_ID: ServerId = ServerId(5_000);

/// Shape of a multi-process cluster: the [`SystemConfig`] every process
/// receives whole (`spec.system.chunk_size_bytes = …`), plus what only a
/// process layout has — the shared root and how many OS processes share
/// each role.
#[derive(Clone, Debug)]
pub struct ClusterSpec {
    /// Shared root (chunks, metadata snapshot) every process opens.
    pub root: PathBuf,
    /// The deployment's configuration, identical in every process.
    pub system: SystemConfig,
    /// Simulated cluster nodes.
    pub nodes: usize,
    /// OS processes sharing the indexing role; `system.indexing_servers`
    /// must divide evenly across them. [`ClusterHandle::add_node`] grows
    /// this count live.
    pub indexing_processes: usize,
    /// OS processes sharing the query role; `system.query_servers` must
    /// divide evenly across them.
    pub query_processes: usize,
}

impl ClusterSpec {
    /// A spec with small, test-friendly defaults: one process per role,
    /// two servers of each kind.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        let mut system = SystemConfig::default();
        system.indexing_servers = 2;
        system.query_servers = 2;
        system.dispatchers = 2;
        // Nested flush RPCs (client → gateway → indexing pump-until-empty)
        // wrap whole pipeline stages and can outlive the embedded default;
        // loopback never needs to give up that early.
        system.rpc_timeout = Duration::from_secs(10);
        Self {
            root: root.into(),
            system,
            nodes: 4,
            indexing_processes: 1,
            query_processes: 1,
        }
    }

    pub(crate) fn node_config(
        &self,
        role: Role,
        proc_index: usize,
        peers: Vec<(Role, usize, SocketAddr)>,
    ) -> NodeConfig {
        NodeConfig {
            role,
            listen: "127.0.0.1:0".into(),
            root: self.root.clone(),
            system: self.system.clone(),
            nodes: self.nodes,
            indexing_processes: self.indexing_processes,
            query_processes: self.query_processes,
            proc_index,
            peers,
        }
    }

    /// The id of the first server hosted by `(role, proc_index)` — the
    /// representative a process-level RPC (shutdown, flush, stats)
    /// addresses to reach that process.
    fn rep_id(&self, role: Role, proc_index: usize) -> ServerId {
        match role {
            Role::Meta => META_SERVER,
            Role::Dispatcher => dispatcher_ids(self.system.dispatchers)[0],
            Role::Indexing => slice_ids(
                &indexing_ids(self.system.indexing_servers),
                proc_index,
                self.indexing_processes,
            )[0],
            Role::Query => slice_ids(
                &query_ids(self.system.query_servers),
                proc_index,
                self.query_processes,
            )[0],
        }
    }

    /// The launch plan: every `(role, proc_index)` in dependency order —
    /// meta first, then each indexing and query slice, the dispatcher
    /// gateway last.
    fn launch_order(&self) -> Vec<(Role, usize)> {
        let mut order = vec![(Role::Meta, 0)];
        order.extend((0..self.indexing_processes.max(1)).map(|p| (Role::Indexing, p)));
        order.extend((0..self.query_processes.max(1)).map(|p| (Role::Query, p)));
        order.push((Role::Dispatcher, 0));
        order
    }

    /// Spawns the role processes from `binary` (any executable whose
    /// `main` calls [`crate::maybe_run_child`] first — the
    /// `waterwheel-node` binary, or a self-hosting example/test).
    pub fn launch(&self, binary: impl AsRef<Path>) -> Result<ClusterHandle> {
        std::fs::create_dir_all(&self.root)?;
        // Dropping the handle reaps what already started: nothing must
        // outlive a failed launch.
        let mut cluster = ClusterHandle {
            spec: self.clone(),
            binary: binary.as_ref().to_path_buf(),
            procs: Vec::new(),
        };
        for (role, proc_index) in self.launch_order() {
            let nc = self.node_config(role, proc_index, cluster.peers());
            cluster.procs.push(spawn_proc(&cluster.binary, &nc)?);
        }
        Ok(cluster)
    }
}

/// Spawns one node process from `binary` configured by `nc` and blocks
/// until it reports ready; a child that fails to is killed and reaped.
fn spawn_proc(binary: &Path, nc: &NodeConfig) -> Result<NodeProc> {
    let mut cmd = Command::new(binary);
    cmd.stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    nc.apply_env(&mut cmd);
    let mut child = cmd.spawn()?;
    match read_ready(&mut child) {
        Ok(addr) => Ok(NodeProc {
            role: nc.role,
            proc_index: nc.proc_index,
            child,
            addr,
            killed: false,
        }),
        Err(e) => {
            let _ = child.kill();
            let _ = child.wait();
            Err(e)
        }
    }
}

/// Blocks until the child prints its `WW_NODE_READY <addr>` handshake.
fn read_ready(child: &mut Child) -> Result<SocketAddr> {
    let stdout = child.stdout.take().ok_or_else(|| {
        WwError::InvalidState("node child was spawned without a stdout pipe".into())
    })?;
    let mut lines = std::io::BufReader::new(stdout).lines();
    for line in &mut lines {
        let line = line?;
        if let Some(addr) = line.strip_prefix("WW_NODE_READY ") {
            return addr.trim().parse().map_err(|_| WwError::Corrupt {
                what: "node ready handshake",
                detail: format!("unparseable address {addr:?}"),
            });
        }
    }
    Err(WwError::InvalidState(
        "node process exited before reporting ready".into(),
    ))
}

struct NodeProc {
    role: Role,
    proc_index: usize,
    child: Child,
    addr: SocketAddr,
    /// SIGKILLed by [`ClusterHandle::kill_nine`] and already reaped:
    /// shutdown must not waste a deadline RPCing into the void.
    killed: bool,
}

/// A running multi-process cluster; owns the child processes.
pub struct ClusterHandle {
    /// What later [`Self::restart`] / [`Self::add_node`] launches are
    /// configured from. Every process reads and writes the one chunk
    /// format (v2), so a restart never mixes formats; a root holding v1
    /// chunks is refused by name.
    pub spec: ClusterSpec,
    binary: PathBuf,
    procs: Vec<NodeProc>,
}

impl ClusterHandle {
    /// Every running process as the `(role, proc_index, addr)` peer list
    /// children and clients route by.
    fn peers(&self) -> Vec<(Role, usize, SocketAddr)> {
        self.procs
            .iter()
            .map(|p| (p.role, p.proc_index, p.addr))
            .collect()
    }

    /// The listen address of a role's process.
    pub fn addr(&self, role: Role) -> Option<SocketAddr> {
        self.procs.iter().find(|p| p.role == role).map(|p| p.addr)
    }

    /// A client speaking the gateway RPC verbs against this cluster, with
    /// the spec's own RPC deadline and retry budget.
    pub fn client(&self) -> ClusterClient {
        let (timeout, retries) = (self.spec.system.rpc_timeout, self.spec.system.rpc_retries);
        self.client_with_timeout(timeout, retries)
    }

    /// A client with an explicit per-attempt deadline and retry budget —
    /// probes that expect the cluster to be down want a short one, since
    /// the transport keeps re-connecting until the deadline expires.
    pub fn client_with_timeout(&self, timeout: Duration, retries: u32) -> ClusterClient {
        ClusterClient::connect_as(&self.spec, &self.peers(), timeout, retries, CLIENT_ID)
    }

    /// A client with its own source identity for batch ingest. Each
    /// concurrently-ingesting thread needs a distinct identity: the
    /// gateway dedups [`ClusterClient::insert_batch`] deliveries on
    /// `(client id, dispatcher id)` sequence watermarks, so two threads
    /// sharing one identity would shadow each other's batches.
    pub fn ingest_client(&self, lane: u32) -> ClusterClient {
        ClusterClient::connect_as(
            &self.spec,
            &self.peers(),
            self.spec.system.rpc_timeout,
            self.spec.system.rpc_retries,
            ServerId(CLIENT_ID.0 + 1 + lane),
        )
    }

    /// SIGKILLs a role's process mid-flight (`Child::kill` delivers
    /// SIGKILL on Unix — no grace, no cleanup handlers) and reaps it. The
    /// rest of the cluster keeps running degraded until [`Self::restart`]
    /// brings the role back at the same address. This is the crash-
    /// recovery rig's hammer: everything the process held only in memory
    /// or unsynced buffers is gone.
    pub fn kill_nine(&mut self, role: Role) -> Result<()> {
        let p = self
            .procs
            .iter_mut()
            .find(|p| p.role == role && p.proc_index == 0)
            .ok_or_else(|| WwError::InvalidState(format!("no {role} process to kill")))?;
        p.child.kill()?;
        p.child.wait()?;
        p.killed = true;
        Ok(())
    }

    /// Respawns a role (after [`Self::kill_nine`]) at its **original
    /// address** — the rest of the cluster still routes there — with the
    /// full peer map, and blocks until the child reports ready. The
    /// restarted process recovers from durable state alone: queue WAL,
    /// metadata snapshot + log, and sealed chunk files.
    pub fn restart(&mut self, role: Role) -> Result<()> {
        let pos = self
            .procs
            .iter()
            .position(|p| p.role == role && p.proc_index == 0)
            .ok_or_else(|| WwError::InvalidState(format!("no {role} process to restart")))?;
        let old_addr = self.procs[pos].addr;
        let mut nc = self.spec.node_config(role, 0, self.peers());
        nc.listen = old_addr.to_string();
        let mut fresh = spawn_proc(&self.binary, &nc)?;
        if fresh.addr != old_addr {
            let _ = fresh.child.kill();
            let _ = fresh.child.wait();
            return Err(WwError::InvalidState(format!(
                "restarted {role} bound {}, expected {old_addr}",
                fresh.addr
            )));
        }
        self.procs[pos] = fresh;
        Ok(())
    }

    /// Grows the indexing tier by one OS process (Fig. 17 scale-out),
    /// live: spawns the process with `indexing_servers / indexing_processes`
    /// fresh server ids appended above the existing slices (so no existing
    /// process's slice moves), announces the new routes to the gateway, and
    /// runs the live migration state machine to rebalance key ownership
    /// onto the joiners. Ingest and queries keep running — and keep
    /// answering exactly — throughout. Returns the membership epoch after
    /// the cut-over.
    pub fn add_node(&mut self) -> Result<u64> {
        let per = self.spec.system.indexing_servers / self.spec.indexing_processes;
        let proc_index = self.spec.indexing_processes;
        let mut grown = self.spec.clone();
        grown.system.indexing_servers += per;
        grown.indexing_processes += 1;
        let joiner = spawn_proc(
            &self.binary,
            &grown.node_config(Role::Indexing, proc_index, self.peers()),
        )?;
        let addr = joiner.addr;
        self.procs.push(joiner);
        self.spec = grown;
        // The joiner registered its membership leases before reporting
        // ready; the rest of the cluster just needs routes to the new ids
        // before the rebalance reassigns ownership onto them.
        let client = self.client();
        let new_ids = slice_ids(
            &indexing_ids(self.spec.system.indexing_servers),
            proc_index,
            self.spec.indexing_processes,
        );
        client.register_peers(new_ids.iter().map(|&id| (id, addr.to_string())).collect())?;
        let (epoch, _ranges) = client.migrate_uniform()?;
        Ok(epoch)
    }

    /// Shrinks the indexing tier by one OS process, live: the last-added
    /// process's servers leave the membership, the migration state machine
    /// moves their key ranges (and seals their in-memory trees into
    /// globally-reachable chunks) onto the survivors, and only then is the
    /// process retired. Returns the membership epoch after the cut-over.
    pub fn drain_node(&mut self) -> Result<u64> {
        if self.spec.indexing_processes <= 1 {
            return Err(WwError::InvalidState(
                "cannot drain the last indexing process".into(),
            ));
        }
        let victim_proc = self.spec.indexing_processes - 1;
        let per = self.spec.system.indexing_servers / self.spec.indexing_processes;
        let victim_ids = slice_ids(
            &indexing_ids(self.spec.system.indexing_servers),
            victim_proc,
            self.spec.indexing_processes,
        );
        let client = self.client();
        // Leases first: the rebalance below reads the live membership, so
        // the victims must be gone from it before ownership is recomputed.
        for &id in &victim_ids {
            client.leave(id)?;
        }
        let (epoch, _ranges) = client.migrate_uniform()?;
        // Belt over the §III-D braces: the migration already sealed the
        // victims as sources, but one more drain closes the window for a
        // dispatch that raced the schema swap.
        for &id in &victim_ids {
            client.flush_server(id)?;
        }
        let _ = client.shutdown_server(victim_ids[0]);
        let pos = self
            .procs
            .iter()
            .position(|p| p.role == Role::Indexing && p.proc_index == victim_proc)
            .ok_or_else(|| WwError::InvalidState("no process hosts the drained slice".into()))?;
        let mut p = self.procs.remove(pos);
        wait_or_kill(&mut p.child, Duration::from_secs(10));
        self.spec.system.indexing_servers -= per;
        self.spec.indexing_processes -= 1;
        Ok(epoch)
    }

    /// Retires the cluster: `Shutdown` RPC per process — gateway first so
    /// nothing keeps dispatching into dying backends, metadata last —
    /// then waits for each child, killing any that ignore the request.
    /// Roles already SIGKILLed (and not restarted) are skipped rather
    /// than RPCed into the void. Returns an error if any child had to be
    /// killed or exited dirty.
    pub fn shutdown(mut self) -> Result<()> {
        let client = self.client();
        let mut clean = true;
        for role in [Role::Dispatcher, Role::Query, Role::Indexing, Role::Meta] {
            let targets: Vec<(usize, bool)> = self
                .procs
                .iter()
                .filter(|p| p.role == role)
                .map(|p| (p.proc_index, p.killed))
                .collect();
            for (proc_index, killed) in targets {
                if killed {
                    clean = false;
                } else {
                    clean &= client
                        .shutdown_server(self.spec.rep_id(role, proc_index))
                        .is_ok();
                }
            }
            // Reap this tier before shutting down the ones it still talks
            // to: a retiring dispatcher refreshes its routing table against
            // meta, and retiring indexing/query processes send their
            // farewell `leave` there — tearing meta down first would leave
            // them blocking on a dead listener instead of exiting.
            for p in self
                .procs
                .iter_mut()
                .filter(|p| p.role == role && !p.killed)
            {
                clean &= wait_or_kill(&mut p.child, Duration::from_secs(10));
            }
        }
        self.procs.clear();
        if clean {
            Ok(())
        } else {
            Err(WwError::InvalidState(
                "a node process had to be killed during shutdown".into(),
            ))
        }
    }
}

impl Drop for ClusterHandle {
    fn drop(&mut self) {
        for p in &mut self.procs {
            if p.child.try_wait().ok().flatten().is_none() {
                let _ = p.child.kill();
            }
            let _ = p.child.wait();
        }
    }
}

/// Waits for a child to exit cleanly within `grace`; kills it otherwise.
/// Returns whether the exit was clean (no kill, zero status).
fn wait_or_kill(child: &mut Child, grace: Duration) -> bool {
    let deadline = Instant::now() + grace;
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return status.success(),
            Ok(None) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(10));
            }
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return false;
            }
        }
    }
}

/// A typed client for a multi-process cluster: inserts through the
/// dispatcher gateway, queries through the coordinator, and shuts roles
/// down — all over one pooled TCP transport.
pub struct ClusterClient {
    rpc: RpcClient,
    meta: MetaClient,
    disp_ids: Vec<ServerId>,
    qs_ids: Vec<ServerId>,
    ix_ids: Vec<ServerId>,
    /// One address per process of the cluster.
    procs: Vec<ServerId>,
    batch_seq: AtomicU64,
}

impl ClusterClient {
    /// A client of a running cluster known only by `peers`, the addresses
    /// of (some of) its processes, and the `system` settings it was started
    /// with. A role counts as split over one process more than its highest
    /// listed process index; fails when its servers do not divide evenly
    /// over that many (a proc index the deployment cannot have).
    pub fn connect(system: &SystemConfig, peers: &[(Role, usize, SocketAddr)]) -> Result<Self> {
        let processes = |role| {
            let listed = peers.iter().filter(|p| p.0 == role);
            listed.map(|p| p.1 + 1).max().unwrap_or(1)
        };
        let spec = ClusterSpec {
            root: PathBuf::new(),
            system: system.clone(),
            nodes: 0,
            indexing_processes: processes(Role::Indexing),
            query_processes: processes(Role::Query),
        };
        check_layout(system, spec.indexing_processes, spec.query_processes)?;
        let (timeout, retries) = (system.rpc_timeout, system.rpc_retries);
        Ok(Self::connect_as(&spec, peers, timeout, retries, CLIENT_ID))
    }

    fn connect_as(
        spec: &ClusterSpec,
        peers: &[(Role, usize, SocketAddr)],
        timeout: Duration,
        retries: u32,
        src: ServerId,
    ) -> Self {
        let disp_ids = dispatcher_ids(spec.system.dispatchers);
        let qs_ids = query_ids(spec.system.query_servers);
        let ix_ids = indexing_ids(spec.system.indexing_servers);
        let t = Arc::new(TcpTransport::new());
        route_peers(
            &t,
            peers,
            (&ix_ids, spec.indexing_processes),
            (&qs_ids, spec.query_processes),
            &disp_ids,
        );
        let mut cfg = spec.system.clone();
        cfg.rpc_timeout = timeout;
        cfg.rpc_retries = retries;
        let rpc = RpcClient::new(t as Arc<dyn Transport>, src, &cfg);
        Self {
            meta: MetaClient::new(rpc.clone()),
            rpc,
            disp_ids,
            qs_ids,
            ix_ids,
            procs: peers
                .iter()
                .map(|&(role, idx, _)| spec.rep_id(role, idx))
                .collect(),
            // Above every earlier client incarnation under this id, so a
            // gateway that outlived them never mistakes a fresh batch for
            // a redelivery.
            batch_seq: AtomicU64::new(waterwheel_server::incarnation_seq_base()),
        }
    }

    /// Ingests one tuple: a batch of one, exactly-once like any other.
    pub fn insert(&self, tuple: Tuple) -> Result<()> {
        self.insert_batch(vec![tuple]).map(|_| ())
    }

    /// Ingests a whole batch in one exactly-once RPC, returning how many
    /// tuples the gateway accepted. The batch carries this client's own
    /// monotonic sequence number, so a timed-out-and-retried delivery is
    /// recognised and never appended twice.
    ///
    /// The dedup key is `(client id, dispatcher id, seq)`: batches from
    /// one client must reach a given dispatcher in sequence order, so
    /// drive a client from a single thread (use
    /// [`ClusterHandle::ingest_client`] to give each ingesting thread its
    /// own identity).
    pub fn insert_batch(&self, tuples: Vec<Tuple>) -> Result<u32> {
        let seq = self.batch_seq.fetch_add(1, Ordering::Relaxed);
        let dst = self.disp_ids[seq as usize % self.disp_ids.len()];
        // Every call numbers a new batch, so nothing was sent before.
        waterwheel_server::send_batch(&self.rpc, dst, seq, tuples, &mut false)
    }

    /// Flushes the whole pipeline: buffered batches, queued tuples, and
    /// in-memory trees all land in chunks before this returns.
    pub fn flush(&self) -> Result<()> {
        self.flush_server(self.disp_ids[0])
    }

    /// Runs a query — rectangle, predicate, measure range — through the
    /// coordinator.
    pub fn query(&self, query: &Query) -> Result<QueryResult> {
        let query = query.clone();
        self.rpc
            .call(COORDINATOR, Request::ClientQuery { query })?
            .into_query()
    }

    /// Runs an aggregate query through the coordinator.
    pub fn aggregate(&self, query: &AggregateQuery) -> Result<AggregateAnswer> {
        let query = query.clone();
        self.rpc
            .call(COORDINATOR, Request::ClientAggregate { query })?
            .into_aggregate()
    }

    /// Scrapes every process once (`Stats` at one of its addresses) and
    /// concatenates the rows: the cluster's counters, in the form
    /// `SystemMetrics::collect` gives for an embedded system.
    pub fn stats(&self) -> Result<SystemMetrics> {
        let mut rows = Vec::new();
        for &id in &self.procs {
            rows.extend(self.rpc.call(id, Request::Stats)?.into_stats()?);
        }
        Ok(SystemMetrics::from_rows(rows))
    }

    /// Pings one server id (any role).
    pub fn ping(&self, id: ServerId) -> Result<()> {
        self.rpc.call(id, Request::Ping)?.into_pong()
    }

    /// Asks a role's first process to exit cleanly. The listener
    /// acknowledges before tearing down, so an `Ok` means the request
    /// landed.
    pub fn shutdown_role(&self, role: Role) -> Result<()> {
        let dst = match role {
            Role::Meta => META_SERVER,
            Role::Indexing => self.ix_ids[0],
            Role::Query => self.qs_ids[0],
            Role::Dispatcher => self.disp_ids[0],
        };
        self.shutdown_server(dst)
    }

    /// Asks the process hosting `id` to exit cleanly.
    pub fn shutdown_server(&self, id: ServerId) -> Result<()> {
        self.rpc.call(id, Request::Shutdown)?.into_ack()
    }

    /// Drains and seals one indexing server: pump its queue partition dry,
    /// then flush its in-memory tree into chunks.
    pub fn flush_server(&self, id: ServerId) -> Result<()> {
        self.rpc
            .call(id, Request::Flush)?
            .into_flushed()
            .map(|_| ())
    }

    /// Teaches the gateway process the socket addresses of servers that
    /// joined after it launched — routing to them works from the next RPC.
    pub fn register_peers(&self, peers: Vec<(ServerId, String)>) -> Result<()> {
        self.rpc
            .call(COORDINATOR, Request::RegisterPeers { peers })?
            .into_ack()
    }

    /// Runs the gateway's live migration state machine: rebalance key
    /// ownership uniformly across the current indexing membership. Returns
    /// `(membership epoch after the cut-over, ranges that moved)`; the call
    /// is idempotent when ownership is already uniform (`ranges == 0`).
    pub fn migrate_uniform(&self) -> Result<(u64, u32)> {
        self.rpc
            .call(COORDINATOR, Request::MigrateUniform)?
            .into_migrated()
    }

    /// Gracefully removes one server from the membership (its process may
    /// keep running — [`ClusterHandle::drain_node`] retires it after the
    /// rebalance). Returns the membership epoch after the departure.
    pub fn leave(&self, server: ServerId) -> Result<u64> {
        self.meta.leave(server)
    }

    /// The metadata server's current epoch-numbered membership view.
    pub fn membership(&self) -> Result<MembershipView> {
        self.meta.membership()
    }
}
