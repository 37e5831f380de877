//! The per-process node runtime: rebuild the deterministic layout, bind
//! this role's handlers into a [`HandlerRegistry`], and serve them over a
//! TCP listener until a `Shutdown` RPC (or losing the launcher's stdin
//! pipe) tears the process down.

use crate::spec::ClusterSpec;
use std::io::{BufRead, Write};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use waterwheel_cluster::LatencyModel;
use waterwheel_core::{Result, ServerId, SystemConfig, WwError};
use waterwheel_meta::{MemberRole, MetadataService};
use waterwheel_mq::MessageQueue;
use waterwheel_net::{
    serve_meta, HandlerRegistry, TcpRpcServer, TcpTransport, Transport, WireStats, COORDINATOR,
    META_SERVER,
};
use waterwheel_server::roles::{self, Host, IndexingRole, Topology};
pub use waterwheel_server::roles::{dispatcher_ids, indexing_ids, query_ids};
use waterwheel_server::Gateway;
use waterwheel_wal::FsyncPolicy;

/// Which server group a node process hosts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// The metadata service (ZooKeeper's seat, §II-B).
    Meta,
    /// All indexing servers plus the ingestion queue.
    Indexing,
    /// All query servers.
    Query,
    /// All dispatchers plus the query coordinator — the client gateway.
    Dispatcher,
}

impl Role {
    /// Every role, in launch order (dependencies first).
    pub const ALL: [Role; 4] = [Role::Meta, Role::Indexing, Role::Query, Role::Dispatcher];

    /// The CLI/env spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Role::Meta => "meta",
            Role::Indexing => "indexing",
            Role::Query => "query",
            Role::Dispatcher => "dispatcher",
        }
    }

    /// Parses the CLI/env spelling.
    pub fn parse(s: &str) -> Option<Role> {
        Role::ALL.into_iter().find(|r| r.as_str() == s)
    }
}

impl std::fmt::Display for Role {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Everything a node process needs to take its place in the cluster: the
/// [`SystemConfig`] every process of the deployment shares, carried whole,
/// plus the handful of values that are per-process or describe the process
/// layout itself.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeConfig {
    /// This process's role.
    pub role: Role,
    /// Listen address (`127.0.0.1:0` picks a free port).
    pub listen: String,
    /// Shared filesystem root (chunks + metadata snapshot).
    pub root: PathBuf,
    /// The deployment's configuration (identical in every process).
    pub system: SystemConfig,
    /// Simulated cluster nodes.
    pub nodes: usize,
    /// How many OS processes share the indexing role. Each hosts a
    /// contiguous `indexing_servers / indexing_processes` slice of the
    /// server ids, so growing the cluster by one process never moves an
    /// existing process's slice.
    pub indexing_processes: usize,
    /// How many OS processes share the query role (same slicing rule).
    pub query_processes: usize,
    /// Which slice of its role this process hosts (`0..processes`). Meta
    /// and dispatcher are single-process and ignore it.
    pub proc_index: usize,
    /// Addresses of the role processes this one calls into, as
    /// `(role, proc_index, addr)`.
    pub peers: Vec<(Role, usize, SocketAddr)>,
}

/// Parses one `role[:proc]=addr` peer. `role:IDX=addr` names one process of
/// a multi-process role; bare `role=addr` means its first process.
pub fn parse_peer(s: &str) -> std::result::Result<(Role, usize, SocketAddr), String> {
    let (role, addr) = s
        .split_once('=')
        .ok_or_else(|| format!("peer {s:?} is not role[:proc]=addr"))?;
    let (role, idx) = role.split_once(':').unwrap_or((role, "0"));
    Ok((
        Role::parse(role).ok_or_else(|| format!("unknown peer role {role:?}"))?,
        idx.parse().map_err(|e| format!("peer {s:?}: {e}"))?,
        addr.parse().map_err(|e| format!("peer {s:?}: {e}"))?,
    ))
}

impl NodeConfig {
    /// The first process of `role` in a [`ClusterSpec::new`] deployment —
    /// its defaults are the node defaults — listening on `listen`.
    pub fn new(role: Role, listen: impl Into<String>, root: impl Into<PathBuf>) -> Self {
        let mut nc = ClusterSpec::new(root).node_config(role, 0, Vec::new());
        nc.listen = listen.into();
        nc
    }

    /// Reads the `WW_NODE_*` environment contract written by
    /// [`Self::apply_env`].
    pub fn from_env() -> std::result::Result<Self, String> {
        let var = |k: &str| std::env::var(k).map_err(|_| format!("{k} is not set"));
        let num = |k: &str| -> std::result::Result<usize, String> {
            var(k)?.parse().map_err(|e| format!("{k}: {e}"))
        };
        let role = var("WW_NODE_ROLE")?;
        Ok(Self {
            role: Role::parse(&role).ok_or_else(|| format!("unknown role {role:?}"))?,
            listen: var("WW_NODE_LISTEN")?,
            root: PathBuf::from(var("WW_NODE_ROOT")?),
            system: var("WW_NODE_CONFIG")?
                .parse()
                .map_err(|e: WwError| format!("WW_NODE_CONFIG: {e}"))?,
            nodes: num("WW_NODE_NODES")?,
            indexing_processes: num("WW_NODE_IX_PROCS")?,
            query_processes: num("WW_NODE_QS_PROCS")?,
            proc_index: num("WW_NODE_PROC")?,
            peers: var("WW_NODE_PEERS")?
                .split(',')
                .filter(|part| !part.is_empty())
                .map(parse_peer)
                .collect::<std::result::Result<_, _>>()?,
        })
    }

    /// Writes the environment contract onto a child command: the per-process
    /// values one variable each, the whole [`SystemConfig`] in its text form
    /// as `WW_NODE_CONFIG`.
    pub fn apply_env(&self, cmd: &mut std::process::Command) {
        let peers: Vec<String> = self
            .peers
            .iter()
            .map(|(r, idx, a)| format!("{r}:{idx}={a}"))
            .collect();
        cmd.env("WW_NODE_ROLE", self.role.as_str())
            .env("WW_NODE_LISTEN", &self.listen)
            .env("WW_NODE_ROOT", &self.root)
            .env("WW_NODE_CONFIG", self.system.to_string())
            .env("WW_NODE_NODES", self.nodes.to_string())
            .env("WW_NODE_IX_PROCS", self.indexing_processes.to_string())
            .env("WW_NODE_QS_PROCS", self.query_processes.to_string())
            .env("WW_NODE_PROC", self.proc_index.to_string())
            .env("WW_NODE_PEERS", peers.join(","));
    }
}

/// The contiguous slice of a role's server ids hosted by process `p` of
/// `n`. Launchers keep `ids.len()` divisible by `n`, so slices are
/// equal-sized — and because growth adds whole slices at the top, an
/// existing process's slice never moves when the cluster grows.
pub fn slice_ids(ids: &[ServerId], p: usize, n: usize) -> Vec<ServerId> {
    let per = ids.len() / n.max(1);
    ids.iter().skip(p * per).take(per).copied().collect()
}

/// Fails unless `cfg` is valid and each role's servers split into equal
/// slices over its processes — what makes every [`slice_ids`] non-empty.
pub(crate) fn check_layout(cfg: &SystemConfig, ix_procs: usize, qs_procs: usize) -> Result<()> {
    cfg.validate()?;
    if !cfg.indexing_servers.is_multiple_of(ix_procs) || !cfg.query_servers.is_multiple_of(qs_procs)
    {
        return Err(WwError::Config(
            "server counts must divide evenly across role processes".into(),
        ));
    }
    Ok(())
}

/// Routes every server id to the address of the process hosting it.
/// `indexing` and `query` pair a role's ids with how many processes share
/// them.
pub(crate) fn route_peers(
    t: &TcpTransport,
    peers: &[(Role, usize, SocketAddr)],
    indexing: (&[ServerId], usize),
    query: (&[ServerId], usize),
    dispatchers: &[ServerId],
) {
    for &(role, idx, addr) in peers {
        match role {
            Role::Meta => t.add_peer(META_SERVER, addr),
            Role::Indexing => t.add_peers(slice_ids(indexing.0, idx, indexing.1), addr),
            Role::Query => t.add_peers(slice_ids(query.0, idx, query.1), addr),
            Role::Dispatcher => {
                t.add_peers(dispatchers.iter().copied(), addr);
                t.add_peer(COORDINATOR, addr);
            }
        }
    }
}

/// Runs one node role until shut down. Prints `WW_NODE_READY <addr>` once
/// the listener is accepting, answers RPCs, and returns after a
/// [`Request::Shutdown`](waterwheel_net::Request::Shutdown) lands or the launcher's stdin pipe closes.
pub fn run_node(nc: NodeConfig) -> Result<()> {
    let cfg = nc.system;
    let (ix_procs, qs_procs) = (nc.indexing_processes.max(1), nc.query_processes.max(1));
    check_layout(&cfg, ix_procs, qs_procs)?;
    let topology = Topology::new(&cfg, nc.nodes);
    // Handlers and counter sets of whatever this process hosts; `Stats`
    // at any of its addresses answers from it.
    // Overload is shed by the listener's worker queue (class shares,
    // typed `Overloaded` answers), as on the embedded TCP plane.
    let registry = Arc::new(HandlerRegistry::new());
    // One set of socket counters for the process: listener and client pool.
    let wire = Arc::new(WireStats::default());
    let transport = Arc::new(TcpTransport::with_wire_stats(Arc::clone(&wire)));
    route_peers(
        &transport,
        &nc.peers,
        (&topology.indexing, ix_procs),
        (&topology.query, qs_procs),
        &topology.dispatchers,
    );
    let host = Host {
        cfg,
        topology,
        plane: Arc::clone(&transport) as Arc<dyn Transport>,
        tcp: Some(transport),
    };
    host.register_plane(&registry);
    // The shared chunk store, for the two roles that read or write it.
    let open_dfs = || {
        let latency = LatencyModel::default();
        roles::open_dfs(&nc.root, &host.topology, &host.cfg, latency, &registry)
    };
    let pumps_stop = Arc::new(AtomicBool::new(false));
    let mut pump_handles: Vec<std::thread::JoinHandle<()>> = Vec::new();

    match nc.role {
        Role::Meta => {
            let meta = MetadataService::open_with(
                nc.root.join("meta.snapshot"),
                FsyncPolicy::from_flag(host.cfg.durability_fsync),
                host.cfg.wal_segment_bytes,
            )?;
            // Bootstrapped before this process reports ready, so every
            // later-starting role finds the schema.
            roles::bootstrap_schema(&meta, &host.topology.indexing)?;
            // Lease sweeper: members that stop heartbeating (a kill -9'd
            // process, a partitioned node) are evicted after the TTL and
            // the membership epoch bumps, so routing tables converge on
            // the survivors without operator action.
            let (sweeper, grace) = (meta.clone(), host.cfg.lease_ttl);
            pump_handles.push(roles::spawn_every(
                &pumps_stop,
                host.cfg.heartbeat_interval,
                move || {
                    let _ = sweeper.expire_lapsed_leases(grace);
                },
            ));
            serve_meta(&registry, meta);
        }
        Role::Indexing => {
            let hosted = slice_ids(&host.topology.indexing, nc.proc_index, ix_procs);
            // The §V durability boundary: the ingest queue is a WAL under
            // the node root, so a kill -9 after an ack cannot lose the
            // batch — the restarted process replays this log from each
            // server's durable offset. Each indexing process owns its own
            // queue directory (partition files must not be shared across
            // processes); the first keeps the legacy "mq" name so
            // single-process stores recover across upgrades.
            let mq_dir = if nc.proc_index == 0 {
                "mq".to_string()
            } else {
                format!("mq-p{}", nc.proc_index)
            };
            let mq = MessageQueue::durable_with(
                nc.root.join(mq_dir),
                FsyncPolicy::from_flag(host.cfg.durability_fsync),
                host.cfg.wal_segment_bytes,
            )?;
            let dfs = open_dfs()?;
            // The meta process always runs a durable service, so the
            // offsets trims rest on survive any restart.
            let role = IndexingRole::new(host.clone(), &registry, mq, dfs, true)?;
            for &id in &hosted {
                let slot = role.serve(&registry, id)?;
                pump_handles.push(roles::spawn_pump(&slot, &pumps_stop));
            }
            // Dynamic membership (Fig. 17): every hosted server registers
            // under a heartbeat lease before this process reports ready,
            // so a launcher that waits for the ready line can rely on the
            // membership epoch already covering it.
            host.join_members(&hosted, MemberRole::Indexing)?;
            pump_handles.push(roles::spawn_lease_keeper(&host, &pumps_stop, hosted));
        }
        Role::Query => {
            let hosted = slice_ids(&host.topology.query, nc.proc_index, qs_procs);
            let dfs = open_dfs()?;
            for &id in &hosted {
                roles::serve_query(&host, &registry, &dfs, id);
            }
            host.join_members(&hosted, MemberRole::Query)?;
            pump_handles.push(roles::spawn_lease_keeper(&host, &pumps_stop, hosted));
        }
        Role::Dispatcher => {
            let gateway = Gateway::new(host.clone())?;
            gateway.serve(&registry);
            pump_handles.push(roles::spawn_linger_flusher(
                gateway.dispatchers().to_vec(),
                &pumps_stop,
            ));
            // Routing freshness: poll the membership epoch at the
            // heartbeat cadence so servers joining (or being evicted)
            // after launch reach the coordinator's routing table without
            // waiting for a query to fail first.
            pump_handles.push(roles::spawn_every(
                &pumps_stop,
                host.cfg.heartbeat_interval,
                move || {
                    let _ = gateway.coordinator().refresh_membership();
                },
            ));
        }
    }

    // The stop latch: tripped by a Shutdown RPC (acknowledged before the
    // hook runs) or by the launcher's stdin pipe closing — the watchdog
    // that reaps orphaned children if the parent dies without saying
    // goodbye.
    let stop = Arc::new((StdMutex::new(false), Condvar::new()));
    let trip = |stop: &Arc<(StdMutex<bool>, Condvar)>| {
        let (lock, cv) = &**stop;
        *lock.lock().unwrap() = true;
        cv.notify_all();
    };
    // A restarted process re-claims the exact port its peers route to;
    // besides SO_REUSEADDR (set by the listener) give the kernel a moment
    // to finish tearing down the predecessor's socket.
    let server = {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let hook = {
                let stop = Arc::clone(&stop);
                Box::new(move || trip(&stop)) as Box<dyn FnOnce() + Send>
            };
            match TcpRpcServer::bind(
                &nc.listen,
                Arc::clone(&registry),
                Arc::clone(&wire),
                Some(hook),
            ) {
                Ok(s) => break s,
                Err(e) if std::time::Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(50)),
            }
        }
    };
    println!("WW_NODE_READY {}", server.local_addr());
    let _ = std::io::stdout().flush();
    {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let stdin = std::io::stdin();
            let mut line = String::new();
            loop {
                line.clear();
                match stdin.lock().read_line(&mut line) {
                    Ok(0) | Err(_) => break, // EOF: the launcher is gone.
                    Ok(_) => {}
                }
            }
            trip(&stop);
        });
    }

    let (lock, cv) = &*stop;
    let mut stopped = lock.lock().unwrap();
    while !*stopped {
        stopped = cv.wait(stopped).unwrap();
    }
    drop(stopped);
    roles::stop_threads(&pumps_stop, pump_handles);
    drop(server);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roles_round_trip_their_spelling() {
        for role in Role::ALL {
            assert_eq!(Role::parse(role.as_str()), Some(role));
        }
        assert_eq!(Role::parse("zookeeper"), None);
    }

    #[test]
    fn env_contract_round_trips_the_whole_config() {
        let mut spec = ClusterSpec::new("/tmp/ww-env");
        // Off-default settings, most of which the old per-field contract
        // silently dropped on the way to the child.
        for assignment in [
            "cache_capacity_bytes=1048576",
            "ingest_batch_size=7",
            "late_visibility=750us",
            "durability_fsync=false",
            "chunk_compression=false",
            "heartbeat_interval=250ms",
            "lease_ttl=900ms",
        ] {
            spec.system.set(assignment).unwrap();
        }
        spec.system.indexing_servers = 6;
        spec.nodes = 3;
        spec.indexing_processes = 3;
        spec.query_processes = 2;
        let peers = vec![
            (Role::Meta, 0, "127.0.0.1:4100".parse().unwrap()),
            (Role::Indexing, 2, "127.0.0.1:4102".parse().unwrap()),
            (Role::Dispatcher, 0, "127.0.0.1:4101".parse().unwrap()),
        ];
        let nc = spec.node_config(Role::Query, 1, peers);
        let mut cmd = std::process::Command::new("true");
        nc.apply_env(&mut cmd);
        // Replay the command's captured env through from_env's parser by
        // materializing it into this process (unique keys, test-local).
        for (k, v) in cmd.get_envs() {
            std::env::set_var(k, v.unwrap());
        }
        let back = NodeConfig::from_env();
        for (k, _) in cmd.get_envs() {
            std::env::remove_var(k);
        }
        let back = back.unwrap();
        assert_eq!(back, nc);
        // What the child runs on is what the spec said, every field of it.
        assert_eq!(back.system, spec.system);
        assert!(cmd.get_envs().count() <= 9, "the env contract grew");
    }

    #[test]
    fn peers_parse_with_and_without_a_process_index() {
        let addr: SocketAddr = "127.0.0.1:4100".parse().unwrap();
        assert_eq!(
            parse_peer("indexing:2=127.0.0.1:4100"),
            Ok((Role::Indexing, 2, addr))
        );
        // Bare `role=addr` means the role's first process.
        assert_eq!(parse_peer("meta=127.0.0.1:4100"), Ok((Role::Meta, 0, addr)));
        for bad in [
            "meta",
            "zookeeper=127.0.0.1:1",
            "meta:x=127.0.0.1:1",
            "meta=nowhere",
        ] {
            assert!(parse_peer(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn slices_are_contiguous_and_stable_under_growth() {
        let four = indexing_ids(4);
        assert_eq!(slice_ids(&four, 0, 2), vec![ServerId(0), ServerId(1)]);
        assert_eq!(slice_ids(&four, 1, 2), vec![ServerId(2), ServerId(3)]);
        // Growing 2 → 3 processes (same per-process count) adds a new
        // slice at the top without moving an existing process's slice.
        let six = indexing_ids(6);
        assert_eq!(slice_ids(&six, 0, 3), slice_ids(&four, 0, 2));
        assert_eq!(slice_ids(&six, 1, 3), slice_ids(&four, 1, 2));
        assert_eq!(slice_ids(&six, 2, 3), vec![ServerId(4), ServerId(5)]);
    }
}
