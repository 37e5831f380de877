//! Attribute-equality queries (paper §VIII names a secondary index for them
//! as future work): an attribute equality is a pushed-down predicate, and
//! its answers are exact over chunks, over memory, and combined with a key
//! range and a second predicate.

use waterwheel::prelude::*;

fn fresh_root(name: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!("ww-attr-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// The attribute: the first payload byte (e.g. a "sensor type" tag).
fn tag() -> Expr {
    Expr::payload(0, 1)
}

fn system(name: &str) -> Waterwheel {
    let mut cfg = SystemConfig::default();
    cfg.chunk_size_bytes = 16 * 1024;
    cfg.indexing_servers = 2;
    cfg.query_servers = 2;
    Waterwheel::builder(fresh_root(name))
        .config(cfg)
        .build()
        .unwrap()
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

fn tag_equals(v: u64) -> Query {
    Query::with_predicate(KeyInterval::full(), TimeInterval::full(), tag().equals(v))
}

#[test]
fn attr_eq_queries_are_exact() {
    let ww = system("exact");
    ingest(&ww, 20_000);
    ww.flush_all().unwrap();
    // Common tag: every 16th tuple (minus the rare-tag window).
    let got = ww.query(&tag_equals(5)).unwrap();
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
    let got = ww.query(&tag_equals(200)).unwrap();
    assert_eq!(got.tuples.len(), rare);
    assert!(got.tuples.iter().all(|t| t.payload[0] == 200));
}

#[test]
fn absent_attribute_value_returns_empty_and_prunes_everything() {
    let ww = system("absent");
    ingest(&ww, 20_000);
    ww.flush_all().unwrap();
    let got = ww.query(&tag_equals(999)).unwrap();
    assert!(got.tuples.is_empty());
}

#[test]
fn attr_eq_composes_with_ranges_and_predicates() {
    let ww = system("compose");
    ingest(&ww, 20_000);
    // Half the data flushed, half in memory.
    ww.flush_all().unwrap();
    ingest(&ww, 20_000); // same keys and timestamps again
    let q = Query::with_predicate(
        KeyInterval::new(0, 9_999),
        TimeInterval::full(),
        (Expr::key() % 2).equals(0).and(tag().equals(4)),
    );
    let got = ww.query(&q).unwrap();
    // Tag 4 ⇒ key % 16 == 4 ⇒ already even; within keys 0..9_999 → 625 per
    // ingest round.
    assert_eq!(got.tuples.len(), 625 * 2);
}
