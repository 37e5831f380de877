//! Adaptivity integration tests: adaptive key partitioning (§III-D),
//! template updates under drifting distributions (§III-C), and late-arrival
//! visibility (§IV-D).

use waterwheel::prelude::*;
use waterwheel::server::BalanceOutcome;
use waterwheel::workloads::{
    Disorder, NetworkConfig, NetworkGen, NormalKeysConfig, NormalKeysGen, ShiftingKeysGen,
};

fn fresh_root(name: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!("ww-adapt-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn all() -> Query {
    Query::range(KeyInterval::full(), TimeInterval::full())
}

#[test]
fn skewed_stream_triggers_repartition_and_evens_load() {
    let mut cfg = SystemConfig::default();
    cfg.indexing_servers = 4;
    let ww = Waterwheel::builder(fresh_root("repartition"))
        .config(cfg)
        .build()
        .unwrap();
    let mut stream = NormalKeysGen::new(NormalKeysConfig {
        sigma: 1_000_000.0,
        seed: 3,
        ..NormalKeysConfig::default()
    });
    for _ in 0..20_000 {
        ww.insert(stream.next().unwrap()).unwrap();
    }
    ww.drain().unwrap();
    // Bootstrap uniform partition: the tight normal lands on one server.
    let outcome = ww.rebalance().unwrap();
    assert!(
        matches!(outcome, BalanceOutcome::Repartitioned { .. }),
        "expected repartition, got {outcome:?}"
    );
    // Under the new schema the same stream spreads across servers.
    let before: Vec<u64> = ww
        .indexing_servers()
        .iter()
        .map(|s| {
            s.stats()
                .ingested
                .load(std::sync::atomic::Ordering::Relaxed)
        })
        .collect();
    for _ in 0..20_000 {
        ww.insert(stream.next().unwrap()).unwrap();
    }
    ww.drain().unwrap();
    let deltas: Vec<u64> = ww
        .indexing_servers()
        .iter()
        .zip(&before)
        .map(|(s, b)| {
            s.stats()
                .ingested
                .load(std::sync::atomic::Ordering::Relaxed)
                - b
        })
        .collect();
    let mean = deltas.iter().sum::<u64>() as f64 / deltas.len() as f64;
    let max_dev = deltas
        .iter()
        .map(|&d| (d as f64 - mean).abs() / mean)
        .fold(0.0, f64::max);
    assert!(
        max_dev < 0.5,
        "load still skewed after repartition: {deltas:?}"
    );
    // No tuples lost through the overlap window.
    assert_eq!(ww.query(&all()).unwrap().tuples.len(), 40_000);
}

#[test]
fn queries_stay_correct_across_repartition_overlap_windows() {
    // The §III-D hazard: after a repartition two servers may hold tuples in
    // the same key range until their next flush. Queries must see both.
    let mut cfg = SystemConfig::default();
    cfg.indexing_servers = 2;
    cfg.chunk_size_bytes = 1 << 30; // never auto-flush: force the overlap
    let ww = Waterwheel::builder(fresh_root("overlap"))
        .config(cfg)
        .build()
        .unwrap();
    let mut stream = NormalKeysGen::new(NormalKeysConfig {
        sigma: 500_000.0,
        seed: 9,
        ..NormalKeysConfig::default()
    });
    for _ in 0..10_000 {
        ww.insert(stream.next().unwrap()).unwrap();
    }
    ww.drain().unwrap();
    assert!(matches!(
        ww.rebalance().unwrap(),
        BalanceOutcome::Repartitioned { .. }
    ));
    // Both servers now hold keys near the centre; keep streaming so the new
    // boundaries take effect while old data is still in memory.
    for _ in 0..10_000 {
        ww.insert(stream.next().unwrap()).unwrap();
    }
    ww.drain().unwrap();
    assert_eq!(ww.query(&all()).unwrap().tuples.len(), 20_000);
    // Narrow queries at the centre (the overlap hot spot) are exact too.
    let centre = waterwheel::workloads::synthetic::CENTER;
    let q = Query::range(
        KeyInterval::new(centre - 100_000, centre + 100_000),
        TimeInterval::full(),
    );
    let got = ww.query(&q).unwrap().tuples.len();
    assert!(got > 0);
}

#[test]
fn distribution_shift_rebuilds_templates_without_loss() {
    let mut cfg = SystemConfig::default();
    cfg.indexing_servers = 1;
    cfg.skew_check_interval = 512;
    let ww = Waterwheel::builder(fresh_root("shift"))
        .config(cfg)
        .build()
        .unwrap();
    let mut stream = ShiftingKeysGen::new(10_000.0, 1e15, 10_000, 4);
    for _ in 0..20_000 {
        ww.insert(stream.next().unwrap()).unwrap();
    }
    ww.drain().unwrap();
    assert_eq!(ww.query(&all()).unwrap().tuples.len(), 20_000);
}

#[test]
fn late_tuples_within_delta_t_are_visible_immediately() {
    let mut cfg = SystemConfig::default();
    cfg.late_visibility = std::time::Duration::from_secs(5);
    cfg.indexing_servers = 1;
    let ww = Waterwheel::builder(fresh_root("late"))
        .config(cfg)
        .build()
        .unwrap();
    let mut stream = NetworkGen::new(NetworkConfig {
        disorder: Disorder {
            probability: 0.2,
            max_delay_ms: 3_000, // within Δt
        },
        seed: 6,
        ..NetworkConfig::default()
    });
    let mut all_tuples = Vec::new();
    for _ in 0..5_000 {
        let t = stream.next().unwrap();
        all_tuples.push(t.clone());
        ww.insert(t).unwrap();
    }
    ww.drain().unwrap();
    // Every tuple — late or not — answers a full query.
    assert_eq!(ww.query(&all()).unwrap().tuples.len(), 5_000);
    // A recent-window query sees exactly the oracle's answer.
    let now = stream.now_ms();
    let window = TimeInterval::new(now.saturating_sub(10_000), now);
    let want = waterwheel::workloads::oracle(&all_tuples, &KeyInterval::full(), &window);
    let got = ww
        .query(&Query::range(KeyInterval::full(), window))
        .unwrap();
    assert_eq!(got.tuples.len(), want.len());
}

#[test]
fn very_late_tuples_are_separated_but_never_lost() {
    let mut cfg = SystemConfig::default();
    cfg.late_visibility = std::time::Duration::from_secs(2);
    cfg.indexing_servers = 1;
    cfg.chunk_size_bytes = 64 * 1024;
    let ww = Waterwheel::builder(fresh_root("very-late"))
        .config(cfg)
        .build()
        .unwrap();
    let mut stream = NetworkGen::new(NetworkConfig {
        disorder: Disorder {
            probability: 0.05,
            max_delay_ms: 60_000, // far beyond Δt
        },
        seed: 8,
        ..NetworkConfig::default()
    });
    let mut sent = Vec::new();
    for i in 0..20_000 {
        if i == 19_000 {
            // Flushes at every pump; the last 1 000 stay below the threshold.
            ww.drain().unwrap();
        }
        let t = stream.next().unwrap();
        sent.push(t.clone());
        ww.insert(t).unwrap();
    }
    ww.drain().unwrap();
    // The server's memory holds the stream's suffix since its last flush.
    // The oldest very-late tuples there lie below the main tree's hull,
    // widened by Δt, so only the side tree's region reports them.
    let fresh = &sent[sent.len() - ww.indexing_servers()[0].in_memory()..];
    let mut high_water = sent[..sent.len() - fresh.len()]
        .iter()
        .map(|t| t.ts)
        .max()
        .unwrap_or(0);
    let mut very_late = Vec::new();
    let mut main_lo = u64::MAX;
    for t in fresh {
        high_water = high_water.max(t.ts);
        if high_water - t.ts > 2_000 {
            very_late.push(t.ts);
        } else {
            main_lo = main_lo.min(t.ts);
        }
    }
    very_late.sort_unstable();
    assert!(
        very_late.len() >= 3,
        "only {} fresh very-late tuples",
        very_late.len()
    );
    let window = TimeInterval::new(very_late[0], very_late[2]);
    assert!(
        window.hi() + 2_000 < main_lo,
        "{window:?} meets the main tree's hull"
    );
    let want = sent.iter().filter(|t| window.contains(t.ts)).count();
    let oldest = Query::range(KeyInterval::full(), window);
    assert_eq!(ww.query(&oldest).unwrap().tuples.len(), want);
    let count = ww
        .aggregate(&oldest.aggregate(AggregateKind::Count))
        .unwrap();
    assert_eq!(count.agg.count, want as u64);
    ww.flush_all().unwrap();
    let side_stored: u64 = ww
        .indexing_servers()
        .iter()
        .map(|s| {
            s.stats()
                .side_stored
                .load(std::sync::atomic::Ordering::Relaxed)
        })
        .sum();
    assert!(side_stored > 0, "disorder produced no very-late tuples");
    assert_eq!(ww.query(&all()).unwrap().tuples.len(), 20_000);
}
