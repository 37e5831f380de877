//! End-to-end multi-process cluster: four OS processes on loopback answer
//! exactly, survive per-role pings, and shut down without leaking
//! children.

use waterwheel_core::{AggregateKind, Expr, KeyInterval, Query, ServerId, TimeInterval, Tuple};
use waterwheel_net::{COORDINATOR, META_SERVER};
use waterwheel_node::{ClusterSpec, Role, PAYLOAD_BYTE_ATTR};

fn fresh_root(name: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!("ww-node-it-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

#[test]
fn four_process_cluster_answers_exactly_and_shuts_down_clean() {
    let spec = ClusterSpec::new(fresh_root("exact"));
    let cluster = spec.launch(env!("CARGO_BIN_EXE_waterwheel-node")).unwrap();
    let client = cluster.client();

    // Every role answers a ping through its own listener.
    client.ping(ServerId(2_000)).unwrap();
    client.ping(COORDINATOR).unwrap();
    client.ping(ServerId(0)).unwrap();
    client.ping(ServerId(1_000)).unwrap();
    // The metadata role answers typed requests but not pings; an
    // InvalidState answer still proves the hop works.
    assert!(client.ping(META_SERVER).is_err());

    const N: u64 = 2_000;
    for i in 0..N {
        client
            .insert(Tuple::bare(i * 1_000_000, 1_000 + i))
            .unwrap();
    }
    client.flush().unwrap();

    let full = client
        .query(&Query::range(KeyInterval::full(), TimeInterval::full()))
        .unwrap();
    assert_eq!(full.tuples.len() as u64, N, "full range lost tuples");
    assert!(full.subqueries >= 1);

    let narrow = client
        .query(&Query::range(
            KeyInterval::new(0, 100_000_000),
            TimeInterval::new(1_000, 1_050),
        ))
        .unwrap();
    assert_eq!(narrow.tuples.len(), 51);

    // Exact aggregates across the process boundary, every kind.
    let over = |kind| {
        client
            .aggregate(&Query::range(KeyInterval::full(), TimeInterval::full()).aggregate(kind))
            .unwrap()
    };
    assert_eq!(over(AggregateKind::Count).agg.count, N);
    assert_eq!(over(AggregateKind::Min).agg.min(), Some(0));
    assert_eq!(over(AggregateKind::Max).agg.max(), Some(0));
    // Default measure is payload length; bare tuples all measure 0.
    assert_eq!(over(AggregateKind::Sum).agg.sum, 0);
    assert_eq!(over(AggregateKind::Avg).value(), Some(0.0));

    // Data inserted after a flush is answered from indexing-server memory
    // (pumps drain the queue in the background; flush makes it exact).
    for i in N..N + 500 {
        client
            .insert(Tuple::bare(i * 1_000_000, 1_000 + i))
            .unwrap();
    }
    client.flush().unwrap();
    let full = client
        .query(&Query::range(KeyInterval::full(), TimeInterval::full()))
        .unwrap();
    assert_eq!(full.tuples.len() as u64, N + 500);

    // One scrape reads the whole cluster: every process answers `Stats`
    // with its own rows, and together they account for the traffic above.
    let stats = client.stats().unwrap();
    let reported = |name: &str| stats.rows().iter().filter(|r| r.name == name).count();
    assert_eq!(reported("wire.shed"), 4, "one row per process");
    assert_eq!(stats.get("wire.shed"), 0, "nothing was shed");
    assert_eq!(reported("indexing.ingested"), 2, "one row per server");
    assert_eq!(reported("meta.membership_epoch"), 1);
    assert_eq!(
        stats.get("indexing.ingested") + stats.get("indexing.side_stored"),
        N + 500
    );
    assert_eq!(stats.get("dispatcher.dispatched"), N + 500);
    assert_eq!(stats.get("coordinator.queries"), 3 + 5);
    assert!(stats.get("query.leaf_reads") > 0);
    assert!(stats.get("wire.bytes_in") > 0 && stats.get("wal.queue.bytes") > 0);

    // The CLI reads the same rows, from any subset of the processes.
    let peer = |role| format!("{role}={}", cluster.addr(role).unwrap());
    let dump = stats_cli(&["--peer", &peer(Role::Indexing), "--peer", &peer(Role::Meta)]);
    assert!(dump.status.success(), "{dump:?}");
    let text = String::from_utf8(dump.stdout).unwrap();
    assert_eq!(text.matches("wire.shed ").count(), 2, "{text}");
    assert_eq!(text.matches("indexing.ingested@srv-").count(), 2, "{text}");
    assert!(!text.contains("coordinator.queries"), "{text}");

    cluster.shutdown().expect("a node had to be killed");
}

/// A multi-process cluster answers `f_q`: a predicated range query, an
/// `attr_eq` query on the well-known payload-byte attribute, and a
/// predicated COUNT and SUM, each equal to an oracle over what went in.
#[test]
fn four_process_cluster_answers_predicates() {
    let spec = ClusterSpec::new(fresh_root("predicates"));
    let cluster = spec.launch(env!("CARGO_BIN_EXE_waterwheel-node")).unwrap();
    let client = cluster.client();
    let tuples: Vec<Tuple> = (0..1_500u64)
        .map(|i| {
            Tuple::new(
                i * 1_000_003,
                1_000 + i,
                vec![(i % 7) as u8; 1 + i as usize % 5],
            )
        })
        .collect();
    for t in &tuples {
        client.insert(t.clone()).unwrap();
    }
    client.flush().unwrap();
    let sorted = |mut v: Vec<Tuple>| {
        v.sort_by_key(|t| (t.key, t.ts));
        v
    };
    let oracle = |keep: &dyn Fn(&Tuple) -> bool| -> Vec<Tuple> {
        tuples.iter().filter(|t| keep(t)).cloned().collect()
    };

    let times = TimeInterval::new(1_200, 2_000);
    let q = Query::with_predicate(KeyInterval::full(), times, (Expr::key() % 3).equals(1));
    let got = sorted(client.query(&q).unwrap().tuples);
    let want = oracle(&|t| times.contains(t.ts) && t.key % 3 == 1);
    assert!(!want.is_empty());
    assert_eq!(got, want, "predicated range query");

    let q =
        Query::range(KeyInterval::full(), TimeInterval::full()).and_attr_eq(PAYLOAD_BYTE_ATTR, 4);
    let got = sorted(client.query(&q).unwrap().tuples);
    assert_eq!(got, oracle(&|t| t.payload[0] == 4), "attr_eq query");

    let small = Query::with_predicate(
        KeyInterval::full(),
        TimeInterval::full(),
        Expr::payload(0, 1).lt(3),
    );
    let want = oracle(&|t| t.payload[0] < 3);
    let count = client
        .aggregate(&small.clone().aggregate(AggregateKind::Count))
        .unwrap();
    assert_eq!(count.agg.count, want.len() as u64, "predicated COUNT");
    let sum = client
        .aggregate(&small.aggregate(AggregateKind::Sum))
        .unwrap();
    let payload_bytes: u128 = want.iter().map(|t| t.payload.len() as u128).sum();
    assert_eq!(
        sum.agg.sum, payload_bytes,
        "predicated SUM of the default measure"
    );
    assert_eq!((count.cells_merged, sum.cells_merged), (0, 0));

    cluster.shutdown().expect("a node had to be killed");
}

fn stats_cli(args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_waterwheel-node"))
        .arg("stats")
        .args(args)
        .output()
        .unwrap()
}

/// `stats` takes its process layout from the command line: whatever is
/// listed there, the answer is rows or a one-line error — never a panic.
#[test]
fn stats_cli_turns_bad_peer_lists_into_errors() {
    let failed = |args: &[&str]| {
        let out = stats_cli(args);
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        err
    };
    // Process 2 of a role with two servers: no such slice.
    let err = failed(&["--peer", "indexing:2=127.0.0.1:9"]);
    assert!(err.contains("divide evenly"), "{err}");
    // More processes than the (`--set`) servers of the role.
    let err = failed(&["--set", "query_servers=1", "--peer", "query:1=127.0.0.1:9"]);
    assert!(err.contains("divide evenly"), "{err}");
    // A possible layout whose one listed process is not there.
    let quick = ["--set", "rpc_timeout=50ms", "--set", "rpc_retries=0"];
    failed(&[&quick[..], &["--peer", "indexing:1=127.0.0.1:9"]].concat());
    failed(&[&quick[..], &["--peer", "dispatcher=127.0.0.1:9"]].concat());
}

/// Immediate visibility through the gateway: a trickle far smaller than
/// `ingest_batch_size` sits in the dispatchers' partial batches until the
/// gateway's linger flusher pushes it out — nobody calls `flush()` here.
#[test]
fn a_partial_batch_becomes_visible_without_a_flush() {
    let spec = ClusterSpec::new(fresh_root("linger"));
    assert!(spec.system.ingest_batch_size > 10);
    let cluster = spec.launch(env!("CARGO_BIN_EXE_waterwheel-node")).unwrap();
    let client = cluster.client();
    for i in 0..10u64 {
        client
            .insert(Tuple::bare(i * 1_000_000, 1_000 + i))
            .unwrap();
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    let seen = loop {
        let seen = client
            .query(&Query::range(KeyInterval::full(), TimeInterval::full()))
            .unwrap()
            .tuples
            .len();
        if seen == 10 || std::time::Instant::now() >= deadline {
            break seen;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    };
    assert_eq!(seen, 10, "unflushed tuples never became visible");
    cluster.shutdown().unwrap();
}

#[test]
fn shutdown_actually_tears_the_listeners_down() {
    let spec = ClusterSpec::new(fresh_root("teardown"));
    let cluster = spec.launch(env!("CARGO_BIN_EXE_waterwheel-node")).unwrap();
    let gateway = cluster.addr(Role::Dispatcher).unwrap();
    let client = cluster.client();
    // A short-deadline probe for after the teardown: the transport keeps
    // re-connecting until the deadline, so a generous one would stall.
    let probe = cluster.client_with_timeout(std::time::Duration::from_millis(500), 0);
    client.insert(Tuple::bare(1, 1_000)).unwrap();
    cluster.shutdown().unwrap();
    // The gateway port no longer accepts connections.
    let refused =
        std::net::TcpStream::connect_timeout(&gateway, std::time::Duration::from_millis(500));
    assert!(refused.is_err(), "gateway still listening after shutdown");
    // And the old client observes the cluster as unreachable.
    let err = probe
        .query(&Query::range(KeyInterval::full(), TimeInterval::full()))
        .unwrap_err();
    assert!(err.is_retryable(), "expected a delivery failure, got {err}");
}
