//! Kill-9 crash-recovery oracle: a cluster that loses its indexing (then
//! query) process to SIGKILL mid-ingest must, after restart and replay,
//! answer every query byte-exactly like an uninterrupted run.
//!
//! The crash window is the durability gap the WAL exists to close:
//! phase-B tuples are acked into the indexing process's queue WAL but
//! never flushed to chunks, so at kill time they live only in the WAL and
//! the process's (lost) in-memory trees. Recovery must resurrect exactly
//! those tuples — none lost, none doubled — from the persisted mq offset
//! and the replayed log.
//!
//! Scale with `WW_RECOVERY_N` (total tuples; CI smoke uses a small value).

use waterwheel_core::{AggregateKind, Expr, KeyInterval, Query, TimeInterval, Tuple};
use waterwheel_node::{ClusterClient, ClusterSpec, Role};

fn fresh_root(name: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!("ww-node-rec-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn total_n() -> u64 {
    std::env::var("WW_RECOVERY_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_600)
}

/// Deterministic workload tuple: one payload byte (`i % 4`) is the
/// attribute an equality query selects on and gives aggregates a
/// non-trivial measure (payload length 1).
fn tuple(i: u64) -> Tuple {
    Tuple::new(i * 1_000_000, 1_000 + i, vec![(i % 4) as u8])
}

/// Every answer shape the oracle compares: range, narrow range, attribute
/// equality, and all five aggregate kinds.
#[derive(Debug, PartialEq)]
struct Answers {
    full: Vec<Tuple>,
    narrow: Vec<Tuple>,
    attr: Vec<Tuple>,
    count: u64,
    sum: u128,
    min: Option<u64>,
    max: Option<u64>,
    avg: Option<f64>,
}

fn canonical(mut tuples: Vec<Tuple>) -> Vec<Tuple> {
    tuples.sort_by(|a, b| {
        (a.key, a.ts, a.payload.as_ref() as &[u8]).cmp(&(b.key, b.ts, b.payload.as_ref()))
    });
    tuples
}

fn collect_answers(client: &ClusterClient, n: u64) -> Answers {
    let full = client
        .query(&Query::range(KeyInterval::full(), TimeInterval::full()))
        .unwrap();
    let narrow = client
        .query(&Query::range(
            KeyInterval::new(0, 100_000_000),
            TimeInterval::new(1_000, 1_000 + n / 2),
        ))
        .unwrap();
    let attr = client
        .query(&Query::with_predicate(
            KeyInterval::full(),
            TimeInterval::full(),
            Expr::payload(0, 1).equals(2),
        ))
        .unwrap();
    let over = |kind| {
        client
            .aggregate(&Query::range(KeyInterval::full(), TimeInterval::full()).aggregate(kind))
            .unwrap()
    };
    Answers {
        full: canonical(full.tuples),
        narrow: canonical(narrow.tuples),
        attr: canonical(attr.tuples),
        count: over(AggregateKind::Count).agg.count,
        sum: over(AggregateKind::Sum).agg.sum,
        min: over(AggregateKind::Min).agg.min(),
        max: over(AggregateKind::Max).agg.max(),
        avg: over(AggregateKind::Avg).value(),
    }
}

#[test]
fn kill_nine_recovery_answers_byte_exactly() {
    let n = total_n();
    // Phase boundaries: A is flushed to chunks, B is acked but unflushed
    // (the crash window), C lands after the restart.
    let (a_end, b_end) = (n * 2 / 5, n * 4 / 5);

    // Uninterrupted oracle run.
    let oracle_answers = {
        let spec = ClusterSpec::new(fresh_root("oracle"));
        let cluster = spec.launch(env!("CARGO_BIN_EXE_waterwheel-node")).unwrap();
        let client = cluster.client();
        for i in 0..a_end {
            client.insert(tuple(i)).unwrap();
        }
        client.flush().unwrap();
        for i in a_end..b_end {
            client.insert(tuple(i)).unwrap();
        }
        for i in b_end..n {
            client.insert(tuple(i)).unwrap();
        }
        client.flush().unwrap();
        let answers = collect_answers(&client, n);
        cluster.shutdown().unwrap();
        answers
    };
    assert_eq!(
        oracle_answers.full.len() as u64,
        n,
        "oracle run lost tuples"
    );
    assert_eq!(oracle_answers.count, n);

    // Interrupted run: same inserts, with the indexing process SIGKILLed
    // while phase B sits only in its WAL and memory.
    let spec = ClusterSpec::new(fresh_root("crash"));
    let mut cluster = spec.launch(env!("CARGO_BIN_EXE_waterwheel-node")).unwrap();
    let client = cluster.client();
    for i in 0..a_end {
        client.insert(tuple(i)).unwrap();
    }
    client.flush().unwrap();
    for i in a_end..b_end {
        client.insert(tuple(i)).unwrap();
    }
    // No flush: phase B is durable only as acked WAL frames (full
    // batches) plus the gateway's buffered partial batches.
    cluster.kill_nine(Role::Indexing).unwrap();
    cluster.restart(Role::Indexing).unwrap();
    for i in b_end..n {
        client.insert(tuple(i)).unwrap();
    }
    client.flush().unwrap();

    let after_indexing_crash = collect_answers(&client, n);
    assert_eq!(
        after_indexing_crash, oracle_answers,
        "indexing kill -9 + replay diverged from the uninterrupted run"
    );
    // Now the stateless role: kill the query process and re-ask
    // everything; chunk reads must come back identical.
    cluster.kill_nine(Role::Query).unwrap();
    cluster.restart(Role::Query).unwrap();
    let after_query_crash = collect_answers(&client, n);
    assert_eq!(
        after_query_crash, oracle_answers,
        "query kill -9 + restart diverged from the uninterrupted run"
    );

    // Both killed roles were restarted, so the retirement is clean.
    cluster.shutdown().unwrap();
}
