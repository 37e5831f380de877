//! Ablation: secondary attribute indexes (paper §VIII future work).
//!
//! Attribute-equality queries with and without the bitmap/bloom secondary
//! index. The workload tags every tuple with a low-cardinality attribute;
//! one tag is rare and localized. With the index, the coordinator prunes
//! chunks via the value bloom and restricts leaf reads via the hot-value
//! bitmaps; without it (plain predicate), every key-qualifying leaf of
//! every overlapping chunk is read.

use std::time::{Duration, Instant};
use waterwheel_bench::*;
use waterwheel_cluster::LatencyModel;
use waterwheel_core::{Expr, KeyInterval, Query, SystemConfig, TimeInterval, Tuple};
use waterwheel_server::Waterwheel;

const ATTR_TAG: u16 = 1;

fn build(name: &str) -> Waterwheel {
    let root = std::env::temp_dir().join(format!("ww-attr-bench-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut cfg = SystemConfig::default();
    cfg.indexing_servers = 2;
    cfg.query_servers = 4;
    cfg.chunk_size_bytes = 256 << 10;
    let ww = Waterwheel::builder(&root)
        .config(cfg)
        .dfs_latency(LatencyModel {
            open: Duration::from_millis(2),
            bandwidth: Some(200 << 20),
            local_factor: 0.25,
        })
        .volatile_metadata()
        .build()
        .unwrap();
    ww.register_attribute(ATTR_TAG, Expr::payload(0, 1));
    ww
}

fn main() {
    let n = scaled(150_000) as u64;
    let ww = build("main");
    // 64 common tags; tag 200 only in a narrow window of the stream.
    for i in 0..n {
        let tag = if i % (n / 8) < 32 {
            200u8
        } else {
            (i % 64) as u8
        };
        ww.insert(Tuple::new(
            i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            1_000 + i / 100,
            vec![tag, 0, 0, 0, 0, 0, 0, 0],
        ))
        .unwrap();
    }
    ww.drain().unwrap();
    ww.flush_all().unwrap();
    println!(
        "{} tuples across {} chunks, {} attribute indexes",
        n,
        ww.metadata().chunk_count(),
        ww.metadata().attr_index_count()
    );

    let mut rows = Vec::new();
    for (label, tag) in [("rare tag (200)", 200u64), ("common tag (5)", 5u64)] {
        // With the secondary index: structured attr_eq constraint.
        let mut with_idx = Vec::new();
        for _ in 0..scaled(20) {
            for qs in ww.query_servers() {
                qs.cache().clear();
            }
            let q =
                Query::range(KeyInterval::full(), TimeInterval::full()).and_attr_eq(ATTR_TAG, tag);
            let t0 = Instant::now();
            let r = ww.query(&q).unwrap();
            with_idx.push(t0.elapsed());
            std::hint::black_box(r);
        }
        // Without: the equivalent predicate (no index to prune with).
        let mut without_idx = Vec::new();
        for _ in 0..scaled(20) {
            for qs in ww.query_servers() {
                qs.cache().clear();
            }
            let q = Query::with_predicate(
                KeyInterval::full(),
                TimeInterval::full(),
                Expr::payload(0, 1).equals(tag),
            );
            let t0 = Instant::now();
            let r = ww.query(&q).unwrap();
            without_idx.push(t0.elapsed());
            std::hint::black_box(r);
        }
        rows.push(vec![
            label.to_string(),
            fmt_dur(mean(&with_idx)),
            fmt_dur(mean(&without_idx)),
        ]);
    }
    let pruned = ww
        .coordinator()
        .stats()
        .attr_pruned_chunks
        .load(std::sync::atomic::Ordering::Relaxed);
    print_table(
        "Ablation: secondary attribute index (attr_eq vs opaque predicate)",
        &["query", "with index", "without index"],
        &rows,
    );
    println!("chunks pruned by attribute blooms: {pruned}");
    println!(
        "(expected shape: the rare tag gains most — whole chunks are pruned;\n\
         the common tag gains little, as in any secondary index)"
    );
}
