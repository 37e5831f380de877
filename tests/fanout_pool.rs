//! The query path creates no threads (ISSUE 17): the coordinator's fan-out
//! pool is started once, reused by every range and aggregate query, and
//! joined when the coordinator is replaced.
//!
//! One `#[test]` on purpose: the checks read the *process's* thread count,
//! which tests running beside this one in the same binary would disturb.

use std::time::{Duration, Instant};
use waterwheel::prelude::*;
use waterwheel::server::dispatch::WORKERS_PER_SERVER;

/// Threads alive in this process (Linux); `None` elsewhere, which leaves
/// the pool's own counter as the only check.
fn thread_count() -> Option<usize> {
    std::fs::read_dir("/proc/self/task").ok().map(|d| d.count())
}

/// [`thread_count`] once it is down to `want`. `join` returns when the
/// thread has signalled its exit, which is before the kernel unlists it —
/// microseconds on a quiet host, milliseconds on a loaded one. A leaked
/// thread never leaves: its count comes back after the wait and fails the
/// caller's comparison.
fn settled_thread_count(want: Option<usize>) -> Option<usize> {
    let patience = Instant::now() + Duration::from_secs(5);
    loop {
        let now = thread_count();
        if now <= want || Instant::now() > patience {
            return now;
        }
        std::thread::yield_now();
    }
}

/// SplitMix64: deterministic query rectangles.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `n` queries, every fifth an aggregate; returns how many subqueries ran.
fn run_queries(ww: &Waterwheel, n: u64, salt: u64) -> u64 {
    let mut subqueries = 0;
    for i in 0..n {
        let a = mix(salt << 32 | i);
        let b = mix(a);
        let keys = KeyInterval::new(a.min(b), a.max(b));
        let lo = 1_000 + mix(b) % 600;
        let q = Query::range(keys, TimeInterval::new(lo, lo + 399));
        if i % 5 == 4 {
            ww.aggregate(&q.aggregate(AggregateKind::Sum)).unwrap();
        } else {
            subqueries += u64::from(ww.query(&q).unwrap().subqueries);
        }
    }
    subqueries
}

#[test]
fn queries_create_no_threads_and_a_coordinator_restart_returns_them() {
    let root = std::env::temp_dir().join(format!("ww-fanout-pool-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut cfg = SystemConfig::default();
    cfg.chunk_size_bytes = 16 * 1024;
    cfg.indexing_servers = 2;
    cfg.query_servers = 3;
    let cap = (cfg.query_servers * WORKERS_PER_SERVER) as u64;
    let before_build = thread_count();
    let ww = Waterwheel::builder(&root).config(cfg).build().unwrap();
    for i in 0..12_000u64 {
        ww.insert(Tuple::bare(mix(i), 1_000 + i % 1_000)).unwrap();
    }
    ww.drain().unwrap();
    ww.flush_all().unwrap();
    // Fresh tuples too, so queries also fan out to the indexing servers.
    for i in 12_000..12_400u64 {
        ww.insert(Tuple::bare(mix(i), 1_000 + i % 1_000)).unwrap();
    }
    ww.drain().unwrap();

    // Before the first query the pool has no thread at all.
    let bare = thread_count();
    assert_eq!(ww.coordinator().fanout_pool().threads_started(), 0);

    // Warm-up: the pool grows to what these plans ask for, at most its cap
    // (and the caches fill, so no later read needs a reader thread).
    assert!(run_queries(&ww, 300, 0) > 300, "plans must have fan-out");
    let coordinator = ww.coordinator();
    let pool = coordinator.fanout_pool();
    assert!((1..=cap).contains(&pool.threads_started()));

    // Steady state: a thousand range and aggregate queries, not one thread.
    // A pool below its cap may still add a thread when a plan arrives while
    // the previous plan's helpers are on their way back to sleep, so a
    // block that grew the pool counts as more warm-up — the cap bounds how
    // often that can happen.
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut blocks = 0;
    loop {
        let (started, threads) = (pool.threads_started(), thread_count());
        run_queries(&ww, 1_000, 1 + blocks);
        assert!(Instant::now() < deadline, "queries stalled behind the pool");
        if pool.threads_started() == started {
            assert_eq!(thread_count(), threads, "a thread outside the pool");
            break;
        }
        blocks += 1;
        assert!(blocks <= cap, "the pool grew past its cap");
    }
    assert!(pool.tickets_issued() > 0);
    drop(coordinator);

    // Restart: the old coordinator's pool is joined before the call
    // returns, the fresh one starts empty and grows again on demand.
    for round in 0..50 {
        ww.restart_coordinator();
        assert_eq!(
            settled_thread_count(bare),
            bare,
            "restart {round} leaked pool threads"
        );
        assert_eq!(ww.coordinator().fanout_pool().threads_started(), 0);
        run_queries(&ww, 20, 100 + round);
        assert!(ww.coordinator().fanout_pool().threads_started() <= cap);
        assert!(Instant::now() < deadline, "restart {round} stalled");
    }
    // Dropping the system releases its coordinator — the handlers that
    // held it are unbound — and with it the last pool.
    let coordinator = std::sync::Arc::downgrade(&ww.coordinator());
    drop(ww);
    assert!(coordinator.upgrade().is_none(), "the coordinator leaked");
    assert_eq!(
        settled_thread_count(before_build),
        before_build,
        "the system left threads"
    );
    let _ = std::fs::remove_dir_all(&root);
}
