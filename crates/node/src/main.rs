//! The `waterwheel-node` binary: run one cluster role, dump a running
//! cluster's counters, or `smoke` a whole four-process loopback cluster end
//! to end.
//!
//! ```text
//! waterwheel-node --role meta --listen 127.0.0.1:4100 --root /tmp/ww
//! waterwheel-node --role indexing --listen 127.0.0.1:0 --root /tmp/ww \
//!     --peer meta=127.0.0.1:4100 --set chunk_size_bytes=65536
//! waterwheel-node stats --peer meta=127.0.0.1:4100 --peer indexing=127.0.0.1:4101
//! waterwheel-node smoke [--root DIR] [--tuples N]
//! ```
//!
//! `stats` scrapes each listed process once (the `Stats` verb) and prints
//! the rows as an embedded system's `SystemMetrics` prints its own; any
//! subset may be listed. A role split over several processes lists them as
//! `role:proc=addr` (the highest index listed + 1 is its process count),
//! with the deployment's server counts given by `--set` as everywhere else.
//!
//! `--set name=value` assigns any `SystemConfig` field through the same
//! setter the launcher's `WW_NODE_CONFIG` variable is read with; every
//! process of a deployment must be given the same settings. Children
//! spawned by the launcher are configured through `WW_NODE_*` environment
//! variables instead of flags; both paths funnel into the same
//! [`NodeConfig`].

use std::io::Write;
use std::path::PathBuf;
use waterwheel_core::{AggregateKind, KeyInterval, StatRow, TimeInterval, Tuple};
use waterwheel_node::runtime::parse_peer;
use waterwheel_node::{ClusterClient, ClusterSpec, NodeConfig, Role};

fn main() {
    // Child processes of the launcher take this exit and never return.
    waterwheel_node::maybe_run_child();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("smoke") => smoke(&args[1..]),
        Some("stats") => stats(&args[1..]),
        Some(_) => match parse_role_cli(&args) {
            Ok(cfg) => waterwheel_node::run_node(cfg).map_err(|e| e.to_string()),
            Err(e) => Err(e),
        },
        None => Err(usage()),
    };
    if let Err(e) = outcome {
        eprintln!("waterwheel-node: {e}");
        std::process::exit(1);
    }
}

fn usage() -> String {
    "usage: waterwheel-node --role <meta|indexing|query|dispatcher> --listen ADDR --root DIR \
     [--peer role[:proc]=addr]... [--nodes N] [--set name=value]...\n\
     \u{20}      waterwheel-node stats --peer role[:proc]=addr... [--set name=value]...\n\
     \u{20}      waterwheel-node smoke [--root DIR] [--tuples N]"
        .into()
}

fn parse_role_cli(args: &[String]) -> Result<NodeConfig, String> {
    let mut role = None;
    let mut listen = None;
    let mut root = None;
    let mut peers = Vec::new();
    let mut nodes = None;
    let mut settings = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        match flag.as_str() {
            "--role" => {
                role = Some(Role::parse(value).ok_or_else(|| format!("unknown role {value:?}"))?)
            }
            "--listen" => listen = Some(value.clone()),
            "--root" => root = Some(PathBuf::from(value)),
            "--peer" => peers.push(parse_peer(value)?),
            "--nodes" => nodes = Some(value.parse().map_err(|e| format!("--nodes: {e}"))?),
            "--set" => settings.push(value),
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    let role = role.ok_or("--role is required")?;
    let listen = listen.ok_or("--listen is required")?;
    let root = root.ok_or("--root is required")?;
    let mut cfg = NodeConfig::new(role, listen, root);
    for assignment in settings {
        cfg.system.set(assignment).map_err(|e| e.to_string())?;
    }
    if let Some(n) = nodes {
        cfg.nodes = n;
    }
    cfg.peers = peers;
    Ok(cfg)
}

/// Scrapes the processes named by `--peer` and prints their counters.
fn stats(args: &[String]) -> Result<(), String> {
    let mut system = ClusterSpec::new("").system;
    let mut peers = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        match flag.as_str() {
            "--peer" => peers.push(parse_peer(value)?),
            "--set" => system.set(value).map_err(|e| e.to_string())?,
            other => return Err(format!("unknown stats flag {other:?}\n{}", usage())),
        }
    }
    let metrics = ClusterClient::connect(&system, &peers)
        .and_then(|client| client.stats())
        .map_err(|e| e.to_string())?;
    // `stats … | head` closing the pipe early is not an error.
    match std::io::stdout().write_all(metrics.to_string().as_bytes()) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => Err(e.to_string()),
        _ => Ok(()),
    }
}

/// Launches a four-process loopback cluster from this very binary,
/// drives an exact-answer workload through it, and shuts it down. Exits
/// nonzero on any mismatch — the CI multi-process gate.
fn smoke(args: &[String]) -> Result<(), String> {
    let mut root = None;
    let mut tuples = 2_000u64;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--root" => root = Some(PathBuf::from(value("--root")?)),
            "--tuples" => {
                tuples = value("--tuples")?
                    .parse()
                    .map_err(|e| format!("--tuples: {e}"))?
            }
            other => return Err(format!("unknown smoke flag {other:?}")),
        }
    }
    let root = root.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("ww-node-smoke-{}", std::process::id()))
    });
    let _ = std::fs::remove_dir_all(&root);

    let spec = ClusterSpec::new(&root);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let cluster = spec.launch(exe).map_err(|e| e.to_string())?;
    let client = cluster.client();
    eprintln!(
        "smoke: 4 processes up (dispatcher gateway at {})",
        cluster.addr(Role::Dispatcher).unwrap()
    );

    for i in 0..tuples {
        client
            .insert(Tuple::bare(i * 1_000_000, 1_000 + i))
            .map_err(|e| format!("insert #{i}: {e}"))?;
    }
    client.flush().map_err(|e| format!("flush: {e}"))?;

    let full = client
        .query(KeyInterval::full(), TimeInterval::full())
        .map_err(|e| format!("full query: {e}"))?;
    check_eq("full-range tuple count", full.tuples.len() as u64, tuples)?;
    let narrow = client
        .query(
            KeyInterval::new(0, 100_000_000),
            TimeInterval::new(1_000, 1_050),
        )
        .map_err(|e| format!("narrow query: {e}"))?;
    check_eq("narrow tuple count", narrow.tuples.len() as u64, 51)?;
    let count = client
        .aggregate(
            KeyInterval::full(),
            TimeInterval::full(),
            AggregateKind::Count,
        )
        .map_err(|e| format!("aggregate: {e}"))?;
    check_eq("COUNT aggregate", count.agg.count, tuples)?;

    // The cluster's own account of the above, scraped from all four
    // processes, must agree with what this client sent.
    let scraped = client.stats().map_err(|e| format!("stats: {e}"))?;
    let account = || {
        check_eq(
            "scraped indexing.ingested + indexing.side_stored",
            scraped.get("indexing.ingested") + scraped.get("indexing.side_stored"),
            tuples,
        )?;
        check_eq(
            "scraped coordinator.queries",
            scraped.get("coordinator.queries"),
            3,
        )?;
        // The flush collected every batch the gateway had on the wire.
        check_eq(
            "scraped dispatcher.dispatched",
            scraped.get("dispatcher.dispatched"),
            tuples,
        )?;
        check_eq(
            "scraped dispatcher.pending + dispatcher.in_flight",
            scraped.get("dispatcher.pending") + scraped.get("dispatcher.in_flight"),
            0,
        )?;
        // The flush pumped every partition and trimmed it at the offset it
        // registered: nothing trails, and the queue holds no flushed tuple.
        check_eq(
            "scraped indexing.queue_lag",
            scraped.get("indexing.queue_lag"),
            0,
        )?;
        check_eq(
            "scraped indexing.queue_retained",
            scraped.get("indexing.queue_retained"),
            0,
        )?;
        let answered = |r: &&StatRow| r.name == "wire.shed";
        let processes = scraped.rows().iter().filter(answered).count();
        check_eq("processes that answered the scrape", processes as u64, 4)
    };
    account().inspect_err(|_| eprintln!("{scraped}"))?;

    cluster.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    let _ = std::fs::remove_dir_all(&root);
    println!(
        "SMOKE OK: {tuples} tuples over 4 processes, exact range + aggregate answers, \
         scraped counters agree, clean shutdown"
    );
    Ok(())
}

fn check_eq(what: &str, got: u64, want: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got}, want {want}"))
    }
}
