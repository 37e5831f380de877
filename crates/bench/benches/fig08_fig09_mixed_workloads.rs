//! Figures 8 & 9 — template vs concurrent B+ tree under mixed read/insert
//! workloads (paper §VI-A2).
//!
//! Three representative mixes on both datasets: 100 % insert, 25 % read /
//! 75 % insert, and 50 / 50. "Each operation is based on a key randomly
//! chosen from the key domain."
//!
//! Figure 8 reports insertion throughput (paper shape: template 2–3×
//! concurrent); Figure 9 reports average read latency (paper shape:
//! template *also* faster, because reads never latch inner nodes).

use std::time::{Duration, Instant};
use waterwheel_baselines::ConcurrentBTree;
use waterwheel_bench::*;
use waterwheel_core::{KeyInterval, TimeInterval, Tuple};
use waterwheel_index::{IndexConfig, TemplateBTree, TupleIndex};
use waterwheel_workloads::{key_hull, Rng};

struct MixResult {
    insert_rate: f64,
    read_latency: Duration,
}

fn run_mix(index: &dyn TupleIndex, tuples: &[Tuple], read_pct: u32, seed: u64) -> MixResult {
    let mut rng = Rng::new(seed);
    let domain = key_hull(tuples).unwrap_or_else(KeyInterval::full);
    // Warm the tree with a fifth of the data so early reads hit something.
    let warm = tuples.len() / 5;
    for t in &tuples[..warm] {
        index.insert(t.clone());
    }
    let mut inserted = warm;
    let mut insert_time = Duration::ZERO;
    let mut read_time = Duration::ZERO;
    let mut reads = 0u32;
    let mut ops = 0u64;
    while inserted < tuples.len() {
        ops += 1;
        if rng.below(100) < read_pct as u64 {
            // Point read on a random key from the domain.
            let key = rng.range_inclusive(domain.lo(), domain.hi());
            let t0 = Instant::now();
            let _ = index.query(&KeyInterval::point(key), &TimeInterval::full(), None);
            read_time += t0.elapsed();
            reads += 1;
        } else {
            let t0 = Instant::now();
            index.insert(tuples[inserted].clone());
            insert_time += t0.elapsed();
            inserted += 1;
        }
    }
    let _ = ops;
    MixResult {
        insert_rate: throughput(tuples.len() - warm, insert_time),
        read_latency: if reads == 0 {
            Duration::ZERO
        } else {
            read_time / reads
        },
    }
}

fn main() {
    let n = scaled(120_000);
    let datasets: Vec<(&str, Vec<Tuple>)> = vec![
        ("T-Drive", tdrive_tuples(n, 21)),
        ("Network", network_tuples(n, 22)),
    ];
    let mixes = [(0u32, "100% insert"), (25, "25% read"), (50, "50% read")];

    let cfg = IndexConfig {
        fanout: 16,
        leaf_capacity: 64,
        ..IndexConfig::default()
    };

    for (name, tuples) in &datasets {
        let mut fig8 = Vec::new();
        let mut fig9 = Vec::new();
        for &(read_pct, label) in &mixes {
            let template = TemplateBTree::new(KeyInterval::full(), cfg);
            let t = run_mix(&template, tuples, read_pct, 1);
            let concurrent = ConcurrentBTree::new(16, 64);
            let c = run_mix(&concurrent, tuples, read_pct, 1);
            fig8.push(vec![
                label.to_string(),
                fmt_rate(t.insert_rate),
                fmt_rate(c.insert_rate),
                format!("{:.2}x", t.insert_rate / c.insert_rate.max(1.0)),
            ]);
            if read_pct > 0 {
                fig9.push(vec![
                    label.to_string(),
                    fmt_dur(t.read_latency),
                    fmt_dur(c.read_latency),
                ]);
            }
        }
        print_table(
            &format!("Figure 8 ({name}): insertion throughput under mixed workloads"),
            &["workload", "template", "concurrent", "speedup"],
            &fig8,
        );
        print_table(
            &format!("Figure 9 ({name}): average read latency under mixed workloads"),
            &["workload", "template", "concurrent"],
            &fig9,
        );
    }
}
