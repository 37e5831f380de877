//! Secondary attribute indexes (paper §VIII future work): correctness of
//! attribute-equality queries and effectiveness of bloom/bitmap pruning.

use std::sync::atomic::Ordering;
use waterwheel::prelude::*;

fn fresh_root(name: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!("ww-attr-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// Attribute 1: the first payload byte (e.g. a "sensor type" tag).
const ATTR_TAG: u16 = 1;

fn system(name: &str) -> Waterwheel {
    let mut cfg = SystemConfig::default();
    cfg.chunk_size_bytes = 16 * 1024;
    cfg.indexing_servers = 2;
    cfg.query_servers = 2;
    let ww = Waterwheel::builder(fresh_root(name))
        .config(cfg)
        .build()
        .unwrap();
    ww.register_attribute(ATTR_TAG, Expr::payload(0, 1));
    ww
}

/// Tuples with key `i`, a tag cycling 0..16, and the tag as first payload
/// byte. Tag 200 appears only in keys 10_000..10_050.
fn ingest(ww: &Waterwheel, n: u64) -> usize {
    let mut rare = 0;
    for i in 0..n {
        let tag = if (10_000..10_050).contains(&i) {
            rare += 1;
            200u8
        } else {
            (i % 16) as u8
        };
        ww.insert(Tuple::new(i, 1_000 + i, vec![tag, 0, 0, 0]))
            .unwrap();
    }
    ww.drain().unwrap();
    rare
}

#[test]
fn attr_eq_queries_are_exact() {
    let ww = system("exact");
    ingest(&ww, 20_000);
    ww.flush_all().unwrap();
    // Common tag: every 16th tuple (minus the rare-tag window).
    let q = Query::range(KeyInterval::full(), TimeInterval::full()).and_attr_eq(ATTR_TAG, 5);
    let got = ww.query(&q).unwrap();
    let expected = (0..20_000u64)
        .filter(|i| !(10_000..10_050).contains(i) && i % 16 == 5)
        .count();
    assert_eq!(got.tuples.len(), expected);
    assert!(got.tuples.iter().all(|t| t.payload[0] == 5));
}

#[test]
fn rare_attribute_prunes_most_chunks() {
    let ww = system("prune");
    let rare = ingest(&ww, 40_000);
    ww.flush_all().unwrap();
    let chunks = ww.metadata().chunk_count();
    assert!(chunks >= 4, "need several chunks, got {chunks}");
    let q = Query::range(KeyInterval::full(), TimeInterval::full()).and_attr_eq(ATTR_TAG, 200);
    let got = ww.query(&q).unwrap();
    assert_eq!(got.tuples.len(), rare);
    let pruned = ww
        .coordinator()
        .stats()
        .attr_pruned_chunks
        .load(Ordering::Relaxed);
    assert!(
        pruned > 0,
        "no chunk pruned by the attribute bloom ({chunks} chunks total)"
    );
}

#[test]
fn absent_attribute_value_returns_empty_and_prunes_everything() {
    let ww = system("absent");
    ingest(&ww, 20_000);
    ww.flush_all().unwrap();
    let q = Query::range(KeyInterval::full(), TimeInterval::full()).and_attr_eq(ATTR_TAG, 999);
    let got = ww.query(&q).unwrap();
    assert!(got.tuples.is_empty());
}

#[test]
fn attr_eq_composes_with_ranges_and_predicates() {
    let ww = system("compose");
    ingest(&ww, 20_000);
    ww.drain().unwrap();
    // Half the data flushed, half in memory.
    ww.flush_all().unwrap();
    ingest(&ww, 20_000); // same keys again, later timestamps? (keys repeat)
    let q = Query::with_predicate(
        KeyInterval::new(0, 9_999),
        TimeInterval::full(),
        (Expr::key() % 2).equals(0),
    )
    .and_attr_eq(ATTR_TAG, 4);
    let got = ww.query(&q).unwrap();
    // Tag 4 ⇒ key % 16 == 4 ⇒ already even; within keys 0..9_999 → 625 per
    // ingest round.
    assert_eq!(got.tuples.len(), 625 * 2);
}

#[test]
fn unregistered_attribute_is_an_error() {
    let ww = system("unregistered");
    ingest(&ww, 100);
    let q = Query::range(KeyInterval::full(), TimeInterval::full()).and_attr_eq(77, 1);
    assert!(ww.query(&q).is_err());
}

#[test]
fn attribute_indexes_survive_restart() {
    let root = fresh_root("restart");
    let mut cfg = SystemConfig::default();
    cfg.chunk_size_bytes = 16 * 1024;
    {
        let ww = Waterwheel::builder(&root)
            .config(cfg.clone())
            .build()
            .unwrap();
        ww.register_attribute(ATTR_TAG, Expr::payload(0, 1));
        ingest(&ww, 20_000);
        ww.flush_all().unwrap();
        assert!(ww.metadata().attr_index_count() > 0);
    }
    let ww = Waterwheel::builder(&root).config(cfg).build().unwrap();
    // Extractor must be re-registered after restart (closures are not
    // persisted), but the on-disk chunk indexes are recovered.
    ww.register_attribute(ATTR_TAG, Expr::payload(0, 1));
    assert!(ww.metadata().attr_index_count() > 0);
    let q = Query::range(KeyInterval::full(), TimeInterval::full()).and_attr_eq(ATTR_TAG, 200);
    assert_eq!(ww.query(&q).unwrap().tuples.len(), 50);
}
