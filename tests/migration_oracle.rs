//! The migration oracle: live key-range migration never changes an
//! answer.
//!
//! Two identically-fed systems run side by side — the *subject*
//! rebalances through the full live-migration state machine (snapshot
//! ship → durable records → dual-write install → straggler flush →
//! cut-over) while the *control* never migrates. A continuous query
//! thread hammers frozen windows on the subject throughout the
//! migration, ingest keeps flowing into both, and every window is
//! compared byte-exact between the twins afterwards — including after
//! the migration source crashes post-cutover and is evicted from the
//! membership. Both the in-process plane and the TCP loopback plane run
//! the same oracle. A second oracle cuts the driver off at every one of its
//! RPCs in turn and checks what it leaves behind.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use waterwheel::core::{ServerId, WwError};
use waterwheel::net::{LinkProfile, Transport, COORDINATOR, META_SERVER};
use waterwheel::prelude::*;
use waterwheel::server::{BalanceOutcome, MigrationPlan, PlanOutcome};

fn fresh_root(name: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!("ww-migor-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// Skewed stream: every key in the low half of the domain, so server 0
/// takes all the load and a rebalance round must move ranges.
fn tuple_of(i: u64) -> Tuple {
    Tuple::new(i * 1_000, 1_000 + i, vec![(i % 251) as u8])
}

/// The value of the payload byte the oracle's attribute-equality queries
/// select: tuples with `i % 251 == 7`.
const ATTR_VALUE: u64 = 7;

/// An attribute-equality query: payload byte 0 equals [`ATTR_VALUE`].
fn attr_query(times: TimeInterval) -> Query {
    Query::with_predicate(
        KeyInterval::full(),
        times,
        Expr::payload(0, 1).equals(ATTR_VALUE),
    )
}

fn build(name: &str, tcp: bool) -> Waterwheel {
    build_with(name, tcp, 2)
}

fn build_with(name: &str, tcp: bool, indexing_servers: usize) -> Waterwheel {
    let mut cfg = SystemConfig::default();
    cfg.chunk_size_bytes = 8 * 1024;
    cfg.indexing_servers = indexing_servers;
    cfg.query_servers = 3;
    cfg.dispatchers = 2;
    cfg.heartbeat_interval = Duration::from_millis(10);
    cfg.lease_ttl = Duration::from_millis(60);
    let b = Waterwheel::builder(fresh_root(name)).config(cfg);
    let b = if tcp { b.tcp_loopback() } else { b };
    b.build().unwrap()
}

fn normalized(mut tuples: Vec<Tuple>) -> Vec<Tuple> {
    tuples.sort_by(|a, b| (a.key, a.ts, &a.payload).cmp(&(b.key, b.ts, &b.payload)));
    tuples
}

/// The comparison windows: full scan, key slices that straddle migrated
/// boundaries, a time slice, and a joint slice.
fn windows() -> Vec<(KeyInterval, TimeInterval)> {
    vec![
        (KeyInterval::full(), TimeInterval::full()),
        (KeyInterval::new(0, 600_000), TimeInterval::full()),
        (KeyInterval::full(), TimeInterval::new(1_400, 2_100)),
        (
            KeyInterval::new(300_000, 1_500_000),
            TimeInterval::new(1_000, 2_500),
        ),
    ]
}

fn query_retry(ww: &Waterwheel, q: &Query) -> QueryResult {
    let until = Instant::now() + Duration::from_secs(30);
    loop {
        match ww.query(q) {
            Ok(r) => return r,
            Err(e) if e.is_retryable() && Instant::now() < until => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("oracle query failed non-retryably: {e}"),
        }
    }
}

fn range_retry(ww: &Waterwheel, keys: KeyInterval, times: TimeInterval) -> QueryResult {
    query_retry(ww, &Query::range(keys, times))
}

fn aggregate_retry(ww: &Waterwheel, q: &AggregateQuery) -> AggregateAnswer {
    let until = Instant::now() + Duration::from_secs(30);
    loop {
        match ww.coordinator().execute_aggregate(q) {
            Ok(a) => return a,
            Err(e) if e.is_retryable() && Instant::now() < until => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("oracle aggregate failed non-retryably: {e}"),
        }
    }
}

fn assert_twin_exact(subject: &Waterwheel, control: &Waterwheel, what: &str) {
    for (keys, times) in windows() {
        let a = normalized(range_retry(subject, keys, times).tuples);
        let b = normalized(range_retry(control, keys, times).tuples);
        assert_eq!(
            a, b,
            "{what}: window {keys:?}/{times:?} diverged from the unmigrated twin"
        );
    }
    let attr_q = attr_query(TimeInterval::full());
    let a = normalized(query_retry(subject, &attr_q).tuples);
    let b = normalized(query_retry(control, &attr_q).tuples);
    assert_eq!(a, b, "{what}: attr-eq window diverged");
    let q = Query::range(KeyInterval::full(), TimeInterval::full()).aggregate(AggregateKind::Count);
    let a = subject.coordinator().execute_aggregate(&q).unwrap();
    let b = control.coordinator().execute_aggregate(&q).unwrap();
    assert_eq!(a.agg.count, b.agg.count, "{what}: COUNT diverged");
}

/// The oracle, shared by both transport planes.
fn run_migration_oracle(subject: Waterwheel, control: Waterwheel) {
    let subject = Arc::new(subject);
    let control = Arc::new(control);

    // Frozen prefix: ingested, drained, and sealed before the migration
    // starts — the invariant the continuous thread holds mid-flight.
    const FROZEN: u64 = 2_000;
    for i in 0..FROZEN {
        subject.insert(tuple_of(i)).unwrap();
        control.insert(tuple_of(i)).unwrap();
    }
    subject.drain().unwrap();
    control.drain().unwrap();
    subject.flush_all().unwrap();
    control.flush_all().unwrap();

    // Continuous queries while ownership moves.
    let stop = Arc::new(AtomicBool::new(false));
    let oracle = {
        let stop = Arc::clone(&stop);
        let subject = Arc::clone(&subject);
        std::thread::spawn(move || {
            let frozen = TimeInterval::new(1_000, 1_000 + FROZEN - 1);
            let attr_expect = (0..FROZEN).filter(|i| i % 251 == ATTR_VALUE).count();
            let count_q = Query::range(KeyInterval::full(), frozen).aggregate(AggregateKind::Count);
            let mut rounds = 0u64;
            while !stop.load(Ordering::SeqCst) {
                let full = range_retry(&subject, KeyInterval::full(), frozen);
                assert_eq!(
                    full.tuples.len() as u64,
                    FROZEN,
                    "frozen window lost or duplicated tuples mid-migration"
                );
                let low = range_retry(&subject, KeyInterval::new(0, 600_000), frozen);
                assert_eq!(
                    low.tuples.len() as u64,
                    601, // keys 0, 1000, ..., 600_000
                    "frozen key-slice diverged mid-migration"
                );
                let hits = query_retry(&subject, &attr_query(frozen));
                assert_eq!(
                    hits.tuples.len(),
                    attr_expect,
                    "frozen attr-eq slice diverged mid-migration"
                );
                let agg = aggregate_retry(&subject, &count_q);
                assert_eq!(agg.agg.count, FROZEN, "frozen COUNT diverged mid-migration");
                rounds += 1;
            }
            rounds
        })
    };

    // Concurrent ingest into both twins while the subject migrates.
    let ingested = Arc::new(AtomicU64::new(FROZEN));
    let ingest = {
        let stop = Arc::clone(&stop);
        let ingested = Arc::clone(&ingested);
        let subject = Arc::clone(&subject);
        let control = Arc::clone(&control);
        std::thread::spawn(move || {
            let mut i = FROZEN;
            while !stop.load(Ordering::SeqCst) && i < FROZEN + 3_000 {
                subject.insert(tuple_of(i)).unwrap();
                control.insert(tuple_of(i)).unwrap();
                ingested.store(i + 1, Ordering::SeqCst);
                i += 1;
            }
        })
    };

    // The tentpole moment: the full live-migration state machine runs
    // while the two threads above are hammering the system.
    let out = subject.rebalance().unwrap();
    assert!(
        matches!(out, BalanceOutcome::Repartitioned { .. }),
        "skewed load must repartition, got {out:?}"
    );
    std::thread::sleep(Duration::from_millis(100));
    stop.store(true, Ordering::SeqCst);
    ingest.join().unwrap();
    let rounds = oracle.join().unwrap();
    assert!(rounds > 0, "oracle never observed the migration window");

    // Durable evidence: completed records with a cut-over epoch.
    let migs = subject.metadata().migrations();
    assert!(!migs.is_empty(), "live migration must record its moves");
    assert!(migs.iter().all(|m| m.completed()), "{migs:?}");

    // Quiesce and compare every window byte-exact against the twin.
    subject.drain().unwrap();
    control.drain().unwrap();
    subject.flush_all().unwrap();
    control.flush_all().unwrap();
    let total = ingested.load(Ordering::SeqCst);
    let full = range_retry(&subject, KeyInterval::full(), TimeInterval::full());
    assert_eq!(full.tuples.len() as u64, total, "subject lost tuples");
    assert_twin_exact(&subject, &control, "post-migration");

    // Crash the migration source post-cutover. Its memory was sealed to
    // chunks, so once the lease lapses and the membership sweep evicts
    // it, every window still answers byte-exact from the survivors.
    let src = migs.last().unwrap().from;
    subject.crash_indexing_server(src).unwrap();
    std::thread::sleep(Duration::from_millis(80)); // > lease_ttl
    subject.heartbeat_members().unwrap(); // survivors renew
    let evicted = subject.expire_lapsed_members().unwrap();
    assert_eq!(evicted, vec![src], "the crashed source must be evicted");
    assert_twin_exact(&subject, &control, "post-crash-of-source");
}

#[test]
fn live_migration_answers_byte_exact_in_process() {
    run_migration_oracle(build("subj-mem", false), build("ctrl-mem", false));
}

#[test]
fn live_migration_answers_byte_exact_over_tcp() {
    run_migration_oracle(build("subj-tcp", true), build("ctrl-tcp", false));
}

/// A fed, unflushed system (so the snapshot flush has work to do) and the
/// plan its skew calls for. The stream is a pure function of `seed`.
fn fed_with_plan(name: &str, seed: u64, tcp: bool) -> (Waterwheel, MigrationPlan) {
    // Three servers: the plan has several moves and more than one source.
    let ww = build_with(name, tcp, 3);
    let mut x = seed;
    for i in 0..1_500u64 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        let key = (x >> 33) % 2_000_000; // low end of the domain: skewed
        ww.insert(Tuple::new(key, 1_000 + i, vec![(i % 251) as u8]))
            .unwrap();
    }
    ww.drain().unwrap();
    let ids: Vec<ServerId> = ww.indexing_servers().iter().map(|s| s.id()).collect();
    match ww.balancer().plan_round(ww.dispatchers(), &ids).unwrap() {
        PlanOutcome::Plan(plan) => (ww, plan),
        other => panic!("seed {seed}: skewed load must plan, got {other:?}"),
    }
}

fn sent_on(ww: &Waterwheel, link: (ServerId, ServerId)) -> u64 {
    let per_link = ww.transport().stats().per_link();
    per_link
        .iter()
        .find(|(l, _)| *l == link)
        .map_or(0, |(_, t)| t.sent)
}

/// `(records begun, records completed, whether `migrate` fails)` when the
/// driver's `k + 1`-th RPC on `link` — and everything after it there — is
/// dropped, for a plan of `m` moves. This is the step order of the
/// `waterwheel_server::migration` module docs, per link: the first
/// dispatcher sends `Flush`, `Flush` to each source and `BeginMigration` ×
/// m, `SetPartition`, `CompleteMigration` × m to the metadata server; the
/// coordinator address sends one `Reassign` to each server of the new
/// schema and, once the records are complete, one best-effort membership
/// refresh. A source holding tuples in memory flushes them in step 1, its
/// own two calls to the metadata server; cut there, that flush fails and
/// keeps its tuples, and the migration stops before any record.
fn expected(link: (ServerId, ServerId), k: u64, m: u64) -> (u64, u64, bool) {
    match link {
        (COORDINATOR, META_SERVER) => (m, m, false),
        (COORDINATOR, _) => (m, 0, true),
        // Indexing ids are `0..1000`.
        (source, META_SERVER) if source.raw() < 1_000 => (0, 0, true),
        (_, META_SERVER) => (k.min(m), k.saturating_sub(m + 1), true),
        (_, _source) => (if k == 0 { 0 } else { m }, 0, true),
    }
}

#[test]
fn a_driver_cut_off_at_any_rpc_leaves_truthful_records_and_exact_answers() {
    for tcp in [false, true] {
        cut_off_at_every_rpc(tcp);
    }
}

/// The cut-off oracle with the subjects on the in-process or the TCP
/// loopback plane (the never-migrating twin stays in-process).
fn cut_off_at_every_rpc(tcp: bool) {
    const SEED: u64 = 0x5EED_FA11;
    let exact = |subject: &Waterwheel, control: &Waterwheel, what: &str| {
        for (keys, times) in windows() {
            let q = Query::range(keys, times);
            let a = normalized(subject.query(&q).unwrap().tuples);
            let b = normalized(control.query(&q).unwrap().tuples);
            assert_eq!(a, b, "{what}: window {keys:?}/{times:?} diverged");
        }
    };
    // The twin never migrates; the fault-free run tells which links the
    // driver uses and how many RPCs it sends on each.
    let (control, _) = fed_with_plan(&format!("cut-ctrl-{tcp}"), SEED, false);
    let (clean, plan) = fed_with_plan(&format!("cut-clean-{tcp}"), SEED, tcp);
    let m = plan.moves.len() as u64;
    let before = clean.transport().stats().per_link();
    clean.migrate(plan).unwrap();
    let mut links: Vec<((ServerId, ServerId), u64)> = clean
        .transport()
        .stats()
        .per_link()
        .into_iter()
        .map(|(link, after)| {
            let was = before.iter().find(|(l, _)| *l == link);
            (link, after.sent - was.map_or(0, |(_, t)| t.sent))
        })
        .filter(|&(_, sent)| sent > 0)
        .collect();
    links.sort();
    exact(&clean, &control, "fault-free");
    let rpcs: u64 = links.iter().map(|&(_, n)| n).sum();
    // At least: two flushes of a source, begin + complete per move, one
    // install, a `Reassign` per server (3), one refresh.
    assert!(m >= 2 && rpcs >= 2 * m + 7, "{m} moves, {links:?}");

    for &(link, sent) in &links {
        for k in 0..sent {
            let what = format!("tcp={tcp}, seed {SEED:#x}, {link:?} cut after {k} of {sent}");
            let name = format!("cut-{tcp}-{}-{}-{k}", link.0, link.1);
            let (ww, plan) = fed_with_plan(&name, SEED, tcp);
            let cut = LinkProfile {
                drop_after: Some(sent_on(&ww, link) + k),
                ..LinkProfile::default()
            };
            ww.transport().set_link_profile(link.0, link.1, cut);
            let (begun, completed, fails) = expected(link, k, m);
            // (a) a typed delivery error, never a panic or a hang.
            match ww.migrate(plan.clone()) {
                Err(WwError::Timeout(_)) if fails => {}
                Ok(_) if !fails => {}
                other => panic!("{what}: {other:?}"),
            }
            // (c) the records say exactly how far the driver got.
            let migs = ww.metadata().migrations();
            let done = migs.iter().filter(|r| r.completed()).count() as u64;
            assert_eq!((migs.len() as u64, done), (begun, completed), "{what}");
            // (b) whatever it left, every answer is still exact.
            ww.transport().clear_faults();
            exact(&ww, &control, &what);
            // (d) running the same plan again finishes the job: in-flight
            // records are adopted, only completed moves record afresh.
            ww.migrate(plan).unwrap();
            let migs = ww.metadata().migrations();
            assert!(migs.iter().all(|r| r.completed()), "{what}: {migs:?}");
            assert_eq!(migs.len() as u64, m + completed, "{what}: {migs:?}");
            exact(&ww, &control, &format!("{what}, re-driven"));
        }
    }
}
