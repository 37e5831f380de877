//! The fresh region (DESIGN.md §5): what an indexing server reports to the
//! metadata service as the region of its in-memory trees.
//!
//! * once `pump` returns, the reported region covers every tuple the server
//!   answers from memory — while a flush, a reassignment and tuples far
//!   below the reported bound race the pump;
//! * it is reported when it grows, not after every pump batch: background
//!   pumps make about one metadata call per flush cycle besides the flush's
//!   own two.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use waterwheel::core::{QueryId, ServerId, SubQuery, SubQueryId, SubQueryTarget};
use waterwheel::net::{Transport, META_SERVER};
use waterwheel::prelude::*;
use waterwheel::workloads::Rng;

fn fresh_root(name: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!("ww-region-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// Messages indexing server `ix` sent to the metadata server.
fn meta_calls(ww: &Waterwheel, ix: ServerId) -> u64 {
    let stats = ww.transport().stats().per_link();
    let link = stats.iter().find(|(l, _)| *l == (ix, META_SERVER));
    link.map_or(0, |(_, t)| t.sent)
}

fn everything(server: ServerId) -> SubQuery {
    SubQuery {
        id: SubQueryId {
            query: QueryId(0),
            index: 0,
        },
        keys: KeyInterval::full(),
        times: TimeInterval::full(),
        predicate: None,
        measure_range: None,
        target: SubQueryTarget::InMemory(server),
        offset: None,
    }
}

/// One thread pumps in random-sized batches and checks the invariant after
/// every pump; beside it one thread appends a stream in which one tuple in
/// 16 is minutes late (side-stored, below any reported lower bound) and
/// one in 16 a little late (within Δt), one flushes, and one reassigns the
/// server's interval at random. The region is read before the memory, so a
/// flush landing in between can only have shrunk what memory holds.
#[test]
fn the_reported_region_covers_every_fresh_tuple_while_flushes_and_reassignments_race() {
    const TUPLES: u64 = 12_000;
    for seed in 1..=3u64 {
        let mut cfg = SystemConfig::default();
        cfg.indexing_servers = 1;
        cfg.query_servers = 1;
        cfg.chunk_size_bytes = 24 * 1024;
        cfg.late_visibility = Duration::from_secs(5);
        let ww = Waterwheel::builder(fresh_root(&format!("race-{seed}")))
            .config(cfg)
            .build()
            .unwrap();
        let server = Arc::clone(&ww.indexing_servers()[0]);
        let id = server.id();
        let done = AtomicBool::new(false);
        let mut checks = 0u64;
        std::thread::scope(|s| {
            let mq = ww.message_queue().clone();
            s.spawn(move || {
                let mut rng = Rng::new(seed);
                for i in 0..TUPLES {
                    let now = 10_000_000 + i * 3;
                    let ts = match rng.below(16) {
                        0 => now - 120_000 - rng.below(60_000),
                        1 => now - rng.below(4_000),
                        _ => now,
                    };
                    let t = Tuple::new(rng.next_u64(), ts, i.to_le_bytes().to_vec());
                    mq.append("ingest", 0, t).unwrap();
                    if i % 64 == 0 {
                        std::thread::yield_now();
                    }
                }
            });
            s.spawn(|| {
                while !done.load(Ordering::SeqCst) {
                    server.flush().unwrap();
                    std::thread::sleep(Duration::from_micros(700));
                }
            });
            s.spawn(|| {
                let mut rng = Rng::new(seed ^ 0xa5a5);
                while !done.load(Ordering::SeqCst) {
                    let (a, b) = (rng.next_u64(), rng.next_u64());
                    server.reassign(KeyInterval::new(a.min(b), a.max(b)));
                    std::thread::sleep(Duration::from_micros(300));
                }
            });
            // Stops the helpers however this thread leaves the scope.
            struct Done<'a>(&'a AtomicBool);
            impl Drop for Done<'_> {
                fn drop(&mut self) {
                    self.0.store(true, Ordering::SeqCst);
                }
            }
            let _done = Done(&done);
            let mut rng = Rng::new(seed ^ 0x5a5a);
            let deadline = Instant::now() + Duration::from_secs(60);
            let mut pumped = 0;
            while pumped < TUPLES {
                assert!(Instant::now() < deadline, "seed {seed}: pumped {pumped}");
                pumped += server.pump(1 + rng.below(300) as usize).unwrap() as u64;
                let region = ww
                    .metadata()
                    .memory_regions_overlapping(&Region::full())
                    .into_iter()
                    .find_map(|(s, r)| (s == id).then_some(r));
                for t in server.query_in_memory(&everything(id)).unwrap() {
                    assert!(
                        region.is_some_and(|r| r.contains_tuple(&t)),
                        "seed {seed}: {t:?} in memory, outside the reported {region:?}"
                    );
                    checks += 1;
                }
            }
        });
        assert!(checks > TUPLES, "seed {seed}: only {checks} tuples checked");
        assert!(server.stats().side_stored.load(Ordering::Relaxed) > 0);
    }
}

/// Background pumps over 400 000 tuples on two indexing servers: the
/// indexing → metadata calls made while ingesting, counted per link, stay
/// at or below 0.1 per 1 000 tuples (one region report per pump batch made
/// ≈ 1.1). Flushes seal at fixed stream positions, so the count does not
/// depend on how the pumps happened to cut their batches.
#[test]
fn background_pumps_report_the_region_about_once_per_flush_cycle() {
    const TUPLES: u64 = 400_000;
    let mut cfg = SystemConfig::default();
    cfg.indexing_servers = 2;
    cfg.query_servers = 1;
    let ww = Waterwheel::builder(fresh_root("calls"))
        .config(cfg)
        .build()
        .unwrap();
    let servers = ww.indexing_servers();
    let setup: u64 = servers.iter().map(|s| meta_calls(&ww, s.id())).sum();
    ww.start_pumps();
    for i in 0..TUPLES {
        let t = Tuple::new(
            i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            1_000 + i / 8,
            i.to_le_bytes().to_vec(),
        );
        ww.insert(t).unwrap();
    }
    ww.flush_ingest_batches().unwrap();
    let deadline = Instant::now() + Duration::from_secs(120);
    while servers
        .iter()
        .map(|s| s.stats().ingested.load(Ordering::Relaxed))
        .sum::<u64>()
        < TUPLES
    {
        assert!(Instant::now() < deadline, "the pumps stalled");
        std::thread::sleep(Duration::from_millis(5));
    }
    ww.stop_pumps();
    let flushed: u64 = servers
        .iter()
        .map(|s| s.stats().chunks_flushed.load(Ordering::Relaxed))
        .sum();
    let calls = servers.iter().map(|s| meta_calls(&ww, s.id())).sum::<u64>() - setup;
    let per_thousand = calls as f64 / (TUPLES as f64 / 1_000.0);
    assert!(
        flushed >= 8,
        "only {flushed} chunks: too few flush cycles to tell"
    );
    assert!(
        per_thousand <= 0.1,
        "{calls} metadata calls ({per_thousand:.3} per 1 000 tuples) for {flushed} chunks"
    );
    let all = Query::range(KeyInterval::full(), TimeInterval::full());
    assert_eq!(ww.query(&all).unwrap().tuples.len() as u64, TUPLES);
}
