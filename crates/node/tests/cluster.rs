//! End-to-end multi-process cluster: four OS processes on loopback answer
//! exactly, survive per-role pings, and shut down without leaking
//! children.

use waterwheel_core::{AggregateKind, KeyInterval, ServerId, TimeInterval, Tuple};
use waterwheel_net::{COORDINATOR, META_SERVER};
use waterwheel_node::{ClusterSpec, Role};

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
        .query(KeyInterval::full(), TimeInterval::full())
        .unwrap();
    assert_eq!(full.tuples.len() as u64, N, "full range lost tuples");
    assert!(full.subqueries >= 1);

    let narrow = client
        .query(
            KeyInterval::new(0, 100_000_000),
            TimeInterval::new(1_000, 1_050),
        )
        .unwrap();
    assert_eq!(narrow.tuples.len(), 51);

    // Exact aggregates across the process boundary, every kind.
    let over = |kind| {
        client
            .aggregate(KeyInterval::full(), TimeInterval::full(), kind)
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
        .query(KeyInterval::full(), TimeInterval::full())
        .unwrap();
    assert_eq!(full.tuples.len() as u64, N + 500);

    cluster.shutdown().expect("a node had to be killed");
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
            .query(KeyInterval::full(), TimeInterval::full())
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
        .query(KeyInterval::full(), TimeInterval::full())
        .unwrap_err();
    assert!(err.is_retryable(), "expected a delivery failure, got {err}");
}
