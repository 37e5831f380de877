//! Criterion microbenchmarks for the core data structures: per-operation
//! costs that underpin the figure-level harnesses. Kept deliberately small
//! (`sample_size(10)`, short measurement windows) so `cargo bench` over the
//! whole workspace stays in the minutes range.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::time::Duration;
use waterwheel_baselines::{BulkLoadingBTree, ConcurrentBTree};
use waterwheel_bench::{network_tuples, tdrive_tuples};
use waterwheel_core::{zorder, KeyInterval, Region, TimeInterval};
use waterwheel_index::{IndexConfig, TemplateBTree, TupleIndex};
use waterwheel_meta::RTree;
use waterwheel_storage::{write_chunk, ChunkReader};

fn cfg() -> IndexConfig {
    IndexConfig {
        fanout: 16,
        leaf_capacity: 64,
        ..IndexConfig::default()
    }
}

fn bench_tree_inserts(c: &mut Criterion) {
    let tuples = tdrive_tuples(10_000, 1);
    let mut group = c.benchmark_group("tree_insert_10k");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    group.bench_function("template", |b| {
        b.iter_batched(
            || TemplateBTree::new(KeyInterval::full(), cfg()),
            |tree| {
                for t in &tuples {
                    tree.insert(t.clone());
                }
                tree
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function("concurrent", |b| {
        b.iter_batched(
            || ConcurrentBTree::new(16, 64),
            |tree| {
                for t in &tuples {
                    tree.insert(t.clone());
                }
                tree
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function("bulk_with_build", |b| {
        b.iter_batched(
            || BulkLoadingBTree::new(64),
            |tree| {
                for t in &tuples {
                    tree.insert(t.clone());
                }
                tree.build();
                tree
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_tree_queries(c: &mut Criterion) {
    let tuples = network_tuples(50_000, 2);
    let tree = TemplateBTree::new(KeyInterval::full(), cfg());
    for t in &tuples {
        tree.insert(t.clone());
    }
    let mut group = c.benchmark_group("template_query");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    group.bench_function("key_1pct_all_time", |b| {
        b.iter(|| {
            tree.query(
                &KeyInterval::new(0, u32::MAX as u64 / 100),
                &TimeInterval::full(),
                None,
            )
        })
    });
    group.bench_function("key_all_time_narrow", |b| {
        b.iter(|| {
            tree.query(
                &KeyInterval::full(),
                &TimeInterval::new(1_000_000, 1_002_000),
                None,
            )
        })
    });
    group.finish();
}

fn bench_chunk_io(c: &mut Criterion) {
    let tuples = network_tuples(50_000, 3);
    let tree = TemplateBTree::new(KeyInterval::full(), cfg());
    for t in &tuples {
        tree.insert(t.clone());
    }
    let sealed = tree.seal().unwrap();
    let mut group = c.benchmark_group("chunk");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    group.bench_function("serialize_50k", |b| b.iter(|| write_chunk(&sealed)));
    let bytes = write_chunk(&sealed);
    group.bench_function("load_index", |b| {
        b.iter(|| ChunkReader::new(bytes.as_slice()).load_index().unwrap())
    });
    let index = ChunkReader::new(bytes.as_slice()).load_index().unwrap();
    group.bench_function("read_one_leaf", |b| {
        b.iter(|| {
            ChunkReader::new(bytes.as_slice())
                .read_leaves(&index, 0, 0)
                .unwrap()
        })
    });
    group.finish();
}

fn bench_zorder_and_rtree(c: &mut Criterion) {
    let mut group = c.benchmark_group("spatial");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    group.bench_function("zorder_encode", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(0x9E37);
            zorder::encode(i, i.rotate_left(7))
        })
    });
    group.bench_function("zorder_cover_rect_16", |b| {
        b.iter(|| zorder::cover_rect(1_000, 2_000_000, 5_000, 3_000_000, 16))
    });
    let mut rtree = RTree::new();
    for i in 0..10_000u64 {
        let k = (i * 7) % 100_000;
        let t = (i * 13) % 100_000;
        rtree.insert(
            Region::new(KeyInterval::new(k, k + 500), TimeInterval::new(t, t + 500)),
            i,
        );
    }
    group.bench_function("rtree_search_10k", |b| {
        b.iter(|| {
            rtree.search(&Region::new(
                KeyInterval::new(40_000, 45_000),
                TimeInterval::new(40_000, 45_000),
            ))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_tree_inserts,
    bench_tree_queries,
    bench_chunk_io,
    bench_zorder_and_rtree
);
criterion_main!(benches);
