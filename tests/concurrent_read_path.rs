//! Parallel read-path stress: many client threads issuing overlapping
//! range queries while ingest and flushes run, with the worker pool,
//! I/O permits, and sharded cache at their (parallel) defaults.
//!
//! Exactness discipline: wave 1 lands and flushes before the clients
//! start, and all wave-2 timestamps are strictly later — so every query
//! answer restricted to wave-1's time range must equal the full-scan
//! oracle over wave 1 *exactly*, no matter how much wave-2 ingest and
//! flushing is in flight. Tuples outside the query region are never
//! tolerated.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use waterwheel::core::WwError;
use waterwheel::prelude::*;
use waterwheel::server::dispatch::WORKERS_PER_SERVER;
use waterwheel::server::query_server::IO_PERMITS;
use waterwheel::workloads::oracle;

/// SplitMix64 — deterministic per-thread query/key streams.
fn mix(z: u64) -> u64 {
    waterwheel::core::mix64(z.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

fn normalized(mut v: Vec<Tuple>) -> Vec<Tuple> {
    v.sort_by(|a, b| (a.key, a.ts, &a.payload).cmp(&(b.key, b.ts, &b.payload)));
    v
}

/// Wave-1 timestamps; wave 2 lives strictly above this window.
fn wave1_times() -> TimeInterval {
    TimeInterval::new(1_000, 1_999)
}

#[test]
fn concurrent_clients_stay_exact_during_ingest_and_flush() {
    let root = std::env::temp_dir().join(format!("ww-read-path-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut cfg = SystemConfig::default();
    cfg.chunk_size_bytes = 32 * 1024;
    cfg.indexing_servers = 2;
    cfg.query_servers = 3;
    // Small cache: queries keep missing, so the permit set, singleflight,
    // and pipelined leaf reads all stay on the hot path under contention.
    cfg.cache_capacity_bytes = 64 * 1024;
    assert!(
        WORKERS_PER_SERVER > 1 && IO_PERMITS > 1 && cfg.cache_shards > 1,
        "defaults must exercise the parallel read path"
    );
    let ww = Arc::new(Waterwheel::builder(&root).config(cfg).build().unwrap());

    // Wave 1: settled before any client runs.
    let wave1: Vec<Tuple> = (0..8_000u64)
        .map(|i| Tuple::bare(mix(i), 1_000 + i % 1_000))
        .collect();
    for t in &wave1 {
        ww.insert(t.clone()).unwrap();
    }
    ww.drain().unwrap();
    ww.flush_all().unwrap();

    // Wave 2: strictly later timestamps, ingested + flushed while querying.
    let wave2: Vec<Tuple> = (0..8_000u64)
        .map(|i| Tuple::bare(mix(i ^ 0xDEAD_BEEF), 5_000 + i % 1_000))
        .collect();
    let done = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        {
            let ww = Arc::clone(&ww);
            let wave2 = &wave2;
            let done = Arc::clone(&done);
            scope.spawn(move || {
                for (i, t) in wave2.iter().enumerate() {
                    ww.insert(t.clone()).unwrap();
                    // Periodic flushes so clients race chunk registration
                    // and cache invalidation, not just fresh-data reads.
                    if i % 2_000 == 1_999 {
                        ww.drain().unwrap();
                        ww.flush_all().unwrap();
                    }
                }
                ww.drain().unwrap();
                done.store(true, Ordering::SeqCst);
            });
        }
        for client in 0..6u64 {
            let ww = Arc::clone(&ww);
            let wave1 = &wave1;
            let done = Arc::clone(&done);
            scope.spawn(move || {
                let mut rounds = 0u64;
                // Keep querying until ingest finishes, with a floor so
                // every client overlaps the flush storm at least a little.
                while !done.load(Ordering::SeqCst) || rounds < 12 {
                    let a = mix(client << 32 | rounds);
                    let b = mix(a);
                    let keys = KeyInterval::new(a.min(b), a.max(b));
                    // Settled window: must match the oracle exactly even
                    // mid-ingest. Results never stray outside the region.
                    let q = Query::range(keys, wave1_times());
                    let r = ww.query(&q).unwrap();
                    for t in &r.tuples {
                        assert!(keys.contains(t.key) && wave1_times().contains(t.ts));
                    }
                    assert_eq!(
                        normalized(r.tuples),
                        oracle(wave1, &keys, &wave1_times()),
                        "client {client} round {rounds} diverged from the oracle"
                    );
                    // Full-range probe racing wave 2: the wave-1 slice of
                    // the answer must still be exact; wave-2 tuples may be
                    // partially visible but never outside the key range.
                    let full = ww.query(&Query::range(keys, TimeInterval::full())).unwrap();
                    let mut settled = Vec::new();
                    for t in full.tuples {
                        assert!(keys.contains(t.key));
                        if wave1_times().contains(t.ts) {
                            settled.push(t);
                        }
                    }
                    assert_eq!(normalized(settled), oracle(wave1, &keys, &wave1_times()));
                    rounds += 1;
                }
            });
        }
    });

    // Everything settles: both waves visible exactly once.
    ww.flush_all().unwrap();
    let all: Vec<Tuple> = wave1.iter().chain(&wave2).cloned().collect();
    let got = ww
        .query(&Query::range(KeyInterval::full(), TimeInterval::full()))
        .unwrap();
    assert_eq!(
        normalized(got.tuples),
        oracle(&all, &KeyInterval::full(), &TimeInterval::full()),
        "read path lost or duplicated tuples"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Eight clients against settled data while one query server is failed and
/// healed over and over: every subquery the failed server refuses is
/// re-dispatched (§V) through the same fan-out pool the clients' first
/// plans are using, so redispatch runs under contention for helpers.
/// Answers stay byte-exact throughout, and nobody waits on the pool — the
/// in-test deadline turns a lost wake-up into a failure, not a hang.
#[test]
fn eight_clients_stay_exact_while_a_query_server_fails_and_heals() {
    let root = std::env::temp_dir().join(format!("ww-read-path-heal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut cfg = SystemConfig::default();
    cfg.chunk_size_bytes = 16 * 1024;
    cfg.indexing_servers = 2;
    cfg.query_servers = 3;
    cfg.cache_capacity_bytes = 64 * 1024;
    let ww = Arc::new(Waterwheel::builder(&root).config(cfg).build().unwrap());
    let data: Vec<Tuple> = (0..12_000u64)
        .map(|i| Tuple::bare(mix(i), 1_000 + i % 1_000))
        .collect();
    for t in &data {
        ww.insert(t.clone()).unwrap();
    }
    ww.drain().unwrap();
    ww.flush_all().unwrap();

    let deadline = Instant::now() + Duration::from_secs(120);
    let clients_done = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        {
            let ww = Arc::clone(&ww);
            let clients_done = Arc::clone(&clients_done);
            scope.spawn(move || {
                let victim = &ww.query_servers()[1];
                while clients_done.load(Ordering::SeqCst) < 8 {
                    victim.set_failed(true);
                    std::thread::sleep(Duration::from_millis(3));
                    victim.set_failed(false);
                    std::thread::sleep(Duration::from_millis(3));
                    assert!(Instant::now() < deadline, "clients never finished");
                }
            });
        }
        for client in 0..8u64 {
            let ww = Arc::clone(&ww);
            let data = &data;
            let clients_done = Arc::clone(&clients_done);
            scope.spawn(move || {
                // Counted on the way out, panicking or not, so a failing
                // client ends the run instead of leaving the flipper to
                // wait out the deadline.
                struct Done(Arc<AtomicU64>);
                impl Drop for Done {
                    fn drop(&mut self) {
                        self.0.fetch_add(1, Ordering::SeqCst);
                    }
                }
                let _done = Done(clients_done);
                for round in 0..60u64 {
                    let a = mix(client << 32 | round);
                    let b = mix(a);
                    let keys = KeyInterval::new(a.min(b), a.max(b));
                    let lo = 1_000 + mix(b) % 600;
                    let times = TimeInterval::new(lo, lo + 399);
                    // A subquery that meets the failed server in the first
                    // plan *and* in both redispatch rounds exhausts §V's
                    // budget; a typed error is the contract then (the
                    // retryable epoch-race one the first time a coordinator
                    // sees it, since its routing table starts at epoch 0),
                    // and a client asks again. Any answer must be exact.
                    let r = loop {
                        assert!(Instant::now() < deadline, "client {client} stalled");
                        match ww.query(&Query::range(keys, times)) {
                            Ok(r) => break r,
                            Err(WwError::InvalidState(why))
                                if why.contains("all query servers") => {}
                            Err(WwError::Unreachable(why)) if why.contains("epoch advanced") => {}
                            Err(e) => panic!("client {client} round {round}: {e}"),
                        }
                    };
                    assert_eq!(
                        normalized(r.tuples),
                        oracle(data, &keys, &times),
                        "client {client} round {round} diverged from the oracle"
                    );
                }
            });
        }
    });
    let stats = ww.coordinator();
    assert!(
        stats.stats().redispatches.load(Ordering::Relaxed) > 0,
        "the failed server was never asked: redispatch went untested"
    );
    let _ = std::fs::remove_dir_all(&root);
}
