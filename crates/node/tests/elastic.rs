//! Live elasticity over TCP: grow and shrink the indexing tier while
//! ingest and queries keep running, and prove the answers never waver.
//!
//! The growth test is the wire half of the migration oracle: a frozen
//! prefix of the stream is queried *continuously* while `add_node` runs
//! the live migration state machine twice (2 → 4 indexing processes), a
//! twin cluster that never migrates ingests the identical stream, and
//! every window is compared byte-exact between the two — including after
//! a `kill -9` of a migration source post-cutover.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use waterwheel_core::{
    AggregateKind, Expr, KeyInterval, Query, QueryResult, ServerId, TimeInterval, Tuple,
};
use waterwheel_meta::MetadataService;
use waterwheel_node::{ClusterClient, ClusterSpec, Role};
use waterwheel_wal::FsyncPolicy;

fn fresh_root(name: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!("ww-elastic-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// Spreads keys uniformly over the whole domain so every indexing server
/// owns a share under any uniform schema (Weyl sequence).
fn key_of(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn tuple_of(i: u64) -> Tuple {
    Tuple::new(key_of(i), 1_000 + i, vec![(i % 251) as u8])
}

/// Canonical order for byte-exact comparison: results arrive merged from
/// different subquery fan-outs on the two clusters.
fn canon(mut r: QueryResult) -> Vec<Tuple> {
    r.tuples
        .sort_by(|a, b| (a.key, a.ts, a.payload.as_ref()).cmp(&(b.key, b.ts, b.payload.as_ref())));
    r.tuples
}

/// Runs a query with retries across retryable (membership-epoch race,
/// transient routing) errors; anything else fails the test.
fn query_retry(
    client: &ClusterClient,
    keys: KeyInterval,
    times: TimeInterval,
    deadline: Duration,
) -> QueryResult {
    let until = Instant::now() + deadline;
    loop {
        match client.query(&Query::range(keys, times)) {
            Ok(r) => return r,
            Err(e) if e.is_retryable() && Instant::now() < until => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("query failed non-retryably: {e}"),
        }
    }
}

/// Every comparison window the oracle checks: full scan, a key slice, a
/// time slice, and a joint slice.
fn windows() -> Vec<(KeyInterval, TimeInterval)> {
    vec![
        (KeyInterval::full(), TimeInterval::full()),
        (KeyInterval::new(0, u64::MAX / 3), TimeInterval::full()),
        (KeyInterval::full(), TimeInterval::new(1_100, 1_400)),
        (
            KeyInterval::new(u64::MAX / 4, u64::MAX / 2),
            TimeInterval::new(1_000, 1_700),
        ),
    ]
}

fn assert_twin_exact(grown: &ClusterClient, twin: &ClusterClient, what: &str) {
    for (keys, times) in windows() {
        let a = canon(query_retry(grown, keys, times, Duration::from_secs(30)));
        let b = canon(query_retry(twin, keys, times, Duration::from_secs(30)));
        assert_eq!(
            a.len(),
            b.len(),
            "{what}: window {keys:?}/{times:?} cardinality diverged"
        );
        assert_eq!(a, b, "{what}: window {keys:?}/{times:?} bytes diverged");
    }
    // An attribute equality on the first payload byte.
    let attr = Query::with_predicate(
        KeyInterval::full(),
        TimeInterval::full(),
        Expr::payload(0, 1).equals(7),
    );
    let a = canon(grown.query(&attr).unwrap());
    let b = canon(twin.query(&attr).unwrap());
    assert_eq!(a, b, "{what}: attribute-equality window diverged");
    let a = grown
        .aggregate(
            &Query::range(KeyInterval::full(), TimeInterval::full())
                .aggregate(AggregateKind::Count),
        )
        .unwrap();
    let b = twin
        .aggregate(
            &Query::range(KeyInterval::full(), TimeInterval::full())
                .aggregate(AggregateKind::Count),
        )
        .unwrap();
    assert_eq!(a.agg.count, b.agg.count, "{what}: COUNT diverged");
}

#[test]
fn add_node_migrates_live_with_byte_exact_answers() {
    let root = fresh_root("add");
    let twin_root = fresh_root("add-twin");
    let mut spec = ClusterSpec::new(&root);
    spec.system.indexing_servers = 2;
    spec.indexing_processes = 2; // one server per process: per-slice = 1
    spec.system.query_servers = 2;
    spec.query_processes = 2;
    spec.system.chunk_size_bytes = 32 * 1_024;
    spec.system.heartbeat_interval = Duration::from_millis(100);
    spec.system.lease_ttl = Duration::from_millis(1_500);
    let mut twin_spec = spec.clone();
    twin_spec.root = twin_root.clone();

    let bin = env!("CARGO_BIN_EXE_waterwheel-node");
    let mut cluster = spec.launch(bin).unwrap();
    let twin = twin_spec.launch(bin).unwrap();
    let client = cluster.client();
    let twin_client = twin.client();

    // Frozen prefix: fully ingested, flushed, and acked before any
    // migration starts. Its windows are the invariant the continuous
    // oracle holds against the moving cluster.
    const FROZEN: u64 = 600;
    for i in 0..FROZEN {
        client.insert(tuple_of(i)).unwrap();
        twin_client.insert(tuple_of(i)).unwrap();
    }
    client.flush().unwrap();
    twin_client.flush().unwrap();

    // Continuous oracle: hammer the frozen windows while ownership moves.
    let stop = Arc::new(AtomicBool::new(false));
    let oracle = {
        let stop = Arc::clone(&stop);
        let client = cluster.client();
        std::thread::spawn(move || {
            let frozen_times = TimeInterval::new(1_000, 1_000 + FROZEN - 1);
            let mut rounds = 0u64;
            while !stop.load(Ordering::SeqCst) {
                let full = query_retry(
                    &client,
                    KeyInterval::full(),
                    frozen_times,
                    Duration::from_secs(30),
                );
                assert_eq!(
                    full.tuples.len() as u64,
                    FROZEN,
                    "frozen window lost or duplicated tuples mid-migration"
                );
                let narrow = query_retry(
                    &client,
                    KeyInterval::new(0, u64::MAX / 3),
                    frozen_times,
                    Duration::from_secs(30),
                );
                let expect = (0..FROZEN).filter(|&i| key_of(i) <= u64::MAX / 3).count();
                assert_eq!(
                    narrow.tuples.len(),
                    expect,
                    "frozen key-slice diverged mid-migration"
                );
                rounds += 1;
            }
            rounds
        })
    };

    // Concurrent ingest: the stream keeps flowing into both clusters
    // while the grown one migrates.
    let ingested = Arc::new(AtomicU64::new(FROZEN));
    let ingest = {
        let stop = Arc::clone(&stop);
        let ingested = Arc::clone(&ingested);
        let client = cluster.client();
        let twin_client = twin.client();
        std::thread::spawn(move || {
            let mut i = FROZEN;
            while !stop.load(Ordering::SeqCst) && i < FROZEN + 2_000 {
                client.insert(tuple_of(i)).unwrap();
                twin_client.insert(tuple_of(i)).unwrap();
                ingested.store(i + 1, Ordering::SeqCst);
                i += 1;
            }
        })
    };

    // Grow 2 → 3 → 4 indexing processes, live. Each call runs the full
    // state machine: snapshot-ship, schema cut-over, straggler drain.
    let before = client.membership().unwrap();
    let e1 = cluster.add_node().unwrap();
    let e2 = cluster.add_node().unwrap();
    assert!(
        before.epoch < e1 && e1 < e2,
        "membership epoch must advance with each join+cutover ({} → {e1} → {e2})",
        before.epoch
    );

    // Let the oracle observe the post-cutover world too, then quiesce.
    std::thread::sleep(Duration::from_millis(300));
    stop.store(true, Ordering::SeqCst);
    ingest.join().unwrap();
    let rounds = oracle.join().unwrap();
    assert!(rounds > 0, "oracle never ran during the migration");

    // The grown cluster now spans 4 indexing processes; a fresh client
    // routes to all of them and the membership shows every joiner.
    let client = cluster.client();
    let view = client.membership().unwrap();
    assert_eq!(view.indexing_ids().len(), 4, "joiners missing from view");
    let total = ingested.load(Ordering::SeqCst);
    client.flush().unwrap();
    twin_client.flush().unwrap();
    let full = client
        .query(&Query::range(KeyInterval::full(), TimeInterval::full()))
        .unwrap();
    assert_eq!(full.tuples.len() as u64, total, "grown cluster lost tuples");
    assert_twin_exact(&client, &twin_client, "post-migration");

    // Kill -9 a migration *source* (proc 0 hosted ServerId 0, which gave
    // up ranges at both cut-overs). Everything it ever held is sealed in
    // globally-reachable chunks; once its lease lapses and the epoch
    // bumps, answers come from the survivors — still byte-exact.
    cluster.kill_nine(Role::Indexing).unwrap();
    std::thread::sleep(spec.system.lease_ttl + Duration::from_millis(500));
    assert_twin_exact(&client, &twin_client, "post-kill-9-of-source");

    let _ = cluster.shutdown(); // the killed source makes this deliberately dirty
    twin.shutdown().unwrap();

    // Both grow steps went through the one migration driver: every move
    // left a durable record at the metadata process, all cut over, and each
    // joiner (ids 2 and 3) took up a range. (A uniform re-split also shifts
    // boundaries between the old servers, so not every `to` is a joiner.)
    let meta = MetadataService::open_with(
        root.join("meta.snapshot"),
        FsyncPolicy::from_flag(spec.system.durability_fsync),
        spec.system.wal_segment_bytes,
    )
    .unwrap();
    let migs = meta.migrations();
    assert!(!migs.is_empty(), "a multi-process migration left no record");
    assert!(migs.iter().all(|m| m.completed()), "{migs:?}");
    for joiner in [ServerId(2), ServerId(3)] {
        assert!(migs.iter().any(|m| m.to == joiner), "{joiner}: {migs:?}");
    }
    assert!(migs.iter().all(|m| m.from.raw() < 4 && m.to.raw() < 4));
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&twin_root);
}

#[test]
fn drain_node_moves_ownership_before_retiring_the_process() {
    let root = fresh_root("drain");
    let mut spec = ClusterSpec::new(&root);
    spec.system.indexing_servers = 2;
    spec.indexing_processes = 2;
    spec.system.chunk_size_bytes = 32 * 1_024;
    spec.system.heartbeat_interval = Duration::from_millis(100);
    spec.system.lease_ttl = Duration::from_millis(1_500);
    let mut cluster = spec.launch(env!("CARGO_BIN_EXE_waterwheel-node")).unwrap();
    let client = cluster.client();

    const N: u64 = 500;
    for i in 0..N {
        client.insert(tuple_of(i)).unwrap();
    }
    client.flush().unwrap();

    let before = client.membership().unwrap();
    assert_eq!(before.indexing_ids().len(), 2);
    let epoch = cluster.drain_node().unwrap();
    assert!(epoch > before.epoch, "drain must advance the epoch");

    // The survivor owns everything: the stream keeps flowing and every
    // tuple — drained era and after — stays exactly queryable.
    let client = cluster.client();
    assert_eq!(
        client.membership().unwrap().indexing_ids().len(),
        1,
        "victim servers still in the membership after drain"
    );
    for i in N..N + 200 {
        client.insert(tuple_of(i)).unwrap();
    }
    client.flush().unwrap();
    let full = query_retry(
        &client,
        KeyInterval::full(),
        TimeInterval::full(),
        Duration::from_secs(30),
    );
    assert_eq!(full.tuples.len() as u64, N + 200, "drain lost tuples");
    let count = client
        .aggregate(
            &Query::range(KeyInterval::full(), TimeInterval::full())
                .aggregate(AggregateKind::Count),
        )
        .unwrap();
    assert_eq!(count.agg.count, N + 200);

    cluster.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}
