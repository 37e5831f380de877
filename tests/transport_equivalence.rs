//! Transport equivalence: an embedded system carried over real TCP
//! loopback sockets answers every query byte-identically to the default
//! in-process deployment. The wire codec, connection pool, and listener
//! dispatch are exercised by a genuine workload — ingest batches, flushes,
//! metadata traffic, in-memory and chunk subqueries and their aggregate
//! forms — and the only observable difference is the socket counters.

use waterwheel::prelude::*;
use waterwheel::server::Waterwheel as Ww;
use waterwheel::workloads::{NetworkConfig, NetworkGen, QueryGen, TemporalShape};

fn fresh_root(name: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!("ww-teq-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// Builds one system, loads the shared deterministic workload into it, and
/// leaves half the data flushed to chunks and half in memory.
fn loaded_system(name: &str, tcp: bool) -> (Ww, u64) {
    let mut cfg = SystemConfig::default();
    cfg.chunk_size_bytes = 64 * 1024;
    cfg.indexing_servers = 2;
    cfg.query_servers = 3;
    cfg.dispatchers = 2;
    let mut builder = Waterwheel::builder(fresh_root(name)).config(cfg);
    if tcp {
        builder = builder.tcp_loopback();
    }
    let ww = builder.build().unwrap();
    // Secondary attribute: the low nibble of the key. Registered before
    // ingest so every chunk carries its bloom + bitmap index.
    ww.register_attribute(7, |t| Some(t.key & 0xF));
    let mut stream = NetworkGen::new(NetworkConfig {
        seed: 41,
        ..NetworkConfig::default()
    });
    for _ in 0..4_000 {
        ww.insert(stream.next().unwrap()).unwrap();
    }
    ww.drain().unwrap();
    ww.flush_all().unwrap();
    for _ in 0..2_000 {
        ww.insert(stream.next().unwrap()).unwrap();
    }
    ww.drain().unwrap();
    assert!(ww.metadata().chunk_count() > 0, "nothing reached chunks");
    (ww, stream.now_ms())
}

fn normalized(mut tuples: Vec<Tuple>) -> Vec<Tuple> {
    tuples.sort_by(|a, b| (a.key, a.ts, &a.payload).cmp(&(b.key, b.ts, &b.payload)));
    tuples
}

#[test]
fn tcp_and_inproc_systems_return_byte_identical_answers() {
    let (inproc, now) = loaded_system("inproc", false);
    let (tcp, now_tcp) = loaded_system("tcp", true);
    assert_eq!(now, now_tcp, "workload generators diverged");

    // Range queries across the paper's selectivities and temporal shapes.
    let mut qg = QueryGen::new(KeyInterval::new(0, u32::MAX as u64), 99);
    let mut compared = 0usize;
    for selectivity in [0.01, 0.1, 0.5] {
        for shape in TemporalShape::paper_set() {
            for _ in 0..3 {
                let q = qg.query(selectivity, shape, 1_000_000, now);
                let a = normalized(inproc.query(&q).unwrap().tuples);
                let b = normalized(tcp.query(&q).unwrap().tuples);
                assert_eq!(
                    a,
                    b,
                    "transports disagree: sel={selectivity} shape={}",
                    shape.label()
                );
                compared += a.len();
            }
        }
    }
    assert!(compared > 0, "every query came back empty");

    // Full scans, an attribute-filtered query, and a predicate query (the
    // closure cannot cross the wire; the TCP sender re-filters).
    let full = Query::range(KeyInterval::full(), TimeInterval::full());
    let a = normalized(inproc.query(&full).unwrap().tuples);
    let b = normalized(tcp.query(&full).unwrap().tuples);
    assert_eq!(a.len(), 6_000);
    assert_eq!(a, b);

    let attr = Query::range(KeyInterval::full(), TimeInterval::full()).and_attr_eq(7, 3);
    assert_eq!(
        normalized(inproc.query(&attr).unwrap().tuples),
        normalized(tcp.query(&attr).unwrap().tuples)
    );

    let pred = |t: &Tuple| t.key.is_multiple_of(3);
    let qa = Query::with_predicate(KeyInterval::full(), TimeInterval::full(), pred);
    let qb = Query::with_predicate(KeyInterval::full(), TimeInterval::full(), pred);
    let a = normalized(inproc.query(&qa).unwrap().tuples);
    let b = normalized(tcp.query(&qb).unwrap().tuples);
    assert!(!a.is_empty());
    assert_eq!(a, b);

    // Every aggregate kind merges to the same partial aggregate.
    for kind in AggregateKind::ALL {
        let aq =
            Query::range(KeyInterval::full(), TimeInterval::new(1_000_000, now)).aggregate(kind);
        let a = inproc.aggregate(&aq).unwrap();
        let b = tcp.aggregate(&aq).unwrap();
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.agg, b.agg, "{kind} diverged across transports");
        assert_eq!(a.value(), b.value());
    }

    // Both planes carried real traffic; only the TCP one touched sockets.
    assert!(inproc.rpc_totals().sent > 0);
    assert!(tcp.rpc_totals().sent > 0);
    let wire = tcp.wire_totals();
    assert!(wire.bytes_in > 0 && wire.bytes_out > 0);
    assert!(wire.connects > 0);
    assert_eq!(wire.decode_errors, 0);
    let silent = inproc.wire_totals();
    assert_eq!(silent.bytes_in, 0);
    assert_eq!(silent.bytes_out, 0);
    assert_eq!(silent.connects, 0);
}

/// Aggregates on Network keys — all below 2³², so no 4-bit key slice is
/// ever whole and every chunk share comes from its leaf directory and the
/// leaves the rectangle cuts — answer alike over both transports, and
/// equal a fold of the range query over the same rectangle.
#[test]
fn narrow_key_aggregates_agree_across_transports() {
    let (inproc, now) = loaded_system("narrow-inproc", false);
    let (tcp, _) = loaded_system("narrow-tcp", true);
    let mut qg = QueryGen::new(KeyInterval::new(0, u32::MAX as u64), 7);
    let mut rects = vec![(KeyInterval::new(0, u32::MAX as u64), TimeInterval::full())];
    for selectivity in [0.01, 0.1, 0.5] {
        for shape in TemporalShape::paper_set() {
            let q = qg.query(selectivity, shape, 1_000_000, now);
            rects.push((q.keys, q.times));
        }
    }
    for (keys, times) in rects {
        let range = inproc.query(&Query::range(keys, times)).unwrap().tuples;
        let mut want = waterwheel::agg::PartialAgg::empty();
        for t in &range {
            want.insert(t.payload.len() as u64);
        }
        for kind in AggregateKind::ALL {
            let aq = Query::range(keys, times).aggregate(kind);
            let a = inproc.aggregate(&aq).unwrap();
            let b = tcp.aggregate(&aq).unwrap();
            assert_eq!(a.agg, want, "{kind} over {keys:?} x {times:?}");
            assert_eq!(a.agg, b.agg, "{kind} diverged across transports");
            assert_eq!(a.value(), b.value());
            assert_eq!(a.cells_merged, 0, "no slice is whole");
        }
    }
    for ww in [&inproc, &tcp] {
        let m = waterwheel::server::SystemMetrics::collect(ww);
        assert!(m.get("coordinator.agg_leaves_merged") > 0, "{m}");
    }
}
