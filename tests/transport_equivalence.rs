//! Transport equivalence: an embedded system carried over real TCP
//! loopback sockets answers every query byte-identically to the default
//! in-process deployment. The wire codec, connection pool, and listener
//! dispatch are exercised by a genuine workload — ingest batches, flushes,
//! metadata traffic, in-memory and chunk subqueries and their aggregate
//! forms — and the only observable difference is the socket counters.

use std::time::Instant;
use waterwheel::agg::PartialAgg;
use waterwheel::core::{QueryId, SubQueryTarget};
use waterwheel::net::{wire, Envelope, Request, Transport, COORDINATOR, META_SERVER};
use waterwheel::prelude::*;
use waterwheel::server::Waterwheel as Ww;
use waterwheel::workloads::{NetworkConfig, NetworkGen, QueryGen, Rng, TemporalShape};

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

    // Full scans, an attribute equality (the low nibble of the key) and a
    // predicate query: each predicate crosses the wire and filters where
    // the tuples are.
    let full = Query::range(KeyInterval::full(), TimeInterval::full());
    let a = normalized(inproc.query(&full).unwrap().tuples);
    let b = normalized(tcp.query(&full).unwrap().tuples);
    assert_eq!(a.len(), 6_000);
    assert_eq!(a, b);

    let attr = Query::with_predicate(
        KeyInterval::full(),
        TimeInterval::full(),
        (Expr::key() & 0xF).equals(3),
    );
    assert_eq!(
        normalized(inproc.query(&attr).unwrap().tuples),
        normalized(tcp.query(&attr).unwrap().tuples)
    );

    let pred = (Expr::key() % 3).equals(0);
    let q = Query::with_predicate(KeyInterval::full(), TimeInterval::full(), pred);
    let a = normalized(inproc.query(&q).unwrap().tuples);
    let b = normalized(tcp.query(&q).unwrap().tuples);
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

/// A random predicate from the whole [`Expr`] grammar, at most `depth`
/// operators deep. Constants are mostly small, so remainders by zero and
/// shifts of 64 or more come up; payload reads reach past short payloads.
fn random_expr(rng: &mut Rng, depth: u32) -> Expr {
    if depth == 0 || rng.below(4) == 0 {
        return match rng.below(4) {
            0 => Expr::key(),
            1 => Expr::ts(),
            2 => Expr::payload(rng.below(24) as u32, *rng.choose(&[1, 2, 4, 8])),
            _ if rng.chance(0.2) => Expr::from(rng.next_u64()),
            _ => Expr::from(rng.below(72)),
        };
    }
    let a = random_expr(rng, depth - 1);
    if rng.below(9) == 0 {
        return !a;
    }
    let b = random_expr(rng, depth - 1);
    match rng.below(8) {
        0 => a & b,
        1 => a >> b,
        2 => a % b,
        3 => a.equals(b),
        4 => a.lt(b),
        5 => a.le(b),
        6 => a.and(b),
        _ => a.or(b),
    }
}

/// Attribute equalities — a common value, a rare one, an absent one, and
/// one combined with a key range and a second predicate — and random
/// predicates drawn from the whole expression grammar answer alike
/// in-process, over TCP, and as a naive filter over every stored tuple,
/// in memory and in chunks — range queries and aggregates both.
#[test]
fn random_predicates_answer_alike_in_process_over_tcp_and_naively() {
    let (inproc, now) = loaded_system("expr-inproc", false);
    let (tcp, _) = loaded_system("expr-tcp", true);
    // A tail below the chunk threshold stays in the in-memory trees, so
    // every case reads memory and chunks both.
    let mut tail = NetworkGen::new(NetworkConfig {
        seed: 43,
        ..NetworkConfig::default()
    });
    for t in (0..300).map(|_| tail.next().unwrap()) {
        inproc.insert(t.clone()).unwrap();
        tcp.insert(t).unwrap();
    }
    inproc.drain().unwrap();
    tcp.drain().unwrap();
    let full = Query::range(KeyInterval::full(), TimeInterval::full());
    let all = inproc.query(&full).unwrap().tuples;
    let in_memory: usize = inproc
        .indexing_servers()
        .iter()
        .map(|s| s.in_memory())
        .sum();
    assert_eq!(in_memory, 300);
    // The attribute: the low nibble of the user id, the payload's first
    // byte. The rare value is the first tuple's whole user id.
    let nibble = || Expr::payload(0, 1) & 0xF;
    let user = Expr::payload(0, 4).eval(&all[0]).unwrap();
    let mut stored_keys: Vec<u64> = all.iter().map(|t| t.key).collect();
    stored_keys.sort_unstable();
    let lower_half = KeyInterval::new(0, stored_keys[stored_keys.len() / 2]);
    let (keys, times) = (KeyInterval::full(), TimeInterval::full());
    let mut cases = vec![
        (keys, times, nibble().equals(5)),
        (keys, times, Expr::payload(0, 4).equals(user)),
        (keys, times, Expr::payload(0, 1).equals(256)),
        (
            lower_half,
            times,
            nibble().equals(5).and((Expr::key() % 2).equals(0)),
        ),
    ];
    let mut rng = Rng::new(2_024);
    for _ in 0..48 {
        let predicate = random_expr(&mut rng, 4);
        let times = TimeInterval::new(rng.below(now), now);
        cases.push((KeyInterval::full(), times, predicate));
    }
    let mut answered = 0;
    let mut sizes = Vec::new();
    for (keys, times, predicate) in cases {
        let q = Query::with_predicate(keys, times, predicate.clone());
        let keep =
            |t: &&Tuple| keys.contains(t.key) && times.contains(t.ts) && predicate.accepts(t);
        let want = normalized(all.iter().filter(keep).cloned().collect());
        assert_eq!(
            normalized(inproc.query(&q).unwrap().tuples),
            want,
            "{predicate:?}"
        );
        assert_eq!(
            normalized(tcp.query(&q).unwrap().tuples),
            want,
            "{predicate:?}"
        );
        let mut fold = PartialAgg::empty();
        for t in &want {
            fold.insert(t.payload.len() as u64);
        }
        let aq = q.aggregate(AggregateKind::Sum);
        assert_eq!(inproc.aggregate(&aq).unwrap().agg, fold, "{predicate:?}");
        assert_eq!(tcp.aggregate(&aq).unwrap().agg, fold, "{predicate:?}");
        answered += usize::from(!want.is_empty() && want.len() < all.len());
        sizes.push(want.len());
    }
    let (common, rare, absent, combined) = (sizes[0], sizes[1], sizes[2], sizes[3]);
    assert!(
        common * 32 > all.len() && common * 8 < all.len(),
        "{common}"
    );
    assert!(rare > 0 && rare < 8, "{rare}");
    assert_eq!(absent, 0);
    assert!(combined > 0 && combined < common, "{combined} of {common}");
    assert!(
        answered >= 8,
        "only {answered} predicates kept some but not all tuples"
    );
}

/// Over TCP a predicate filters where the tuples are: a query keeping under
/// 1 % of its rectangle moves at most twice its answer's bytes in response
/// frames — the bytes of the coordinator's links to its executors, less the
/// request frames it sent them — never the rectangle.
#[test]
fn a_selective_predicate_moves_its_answer_not_its_rectangle() {
    let (tcp, _) = loaded_system("bytes", true);
    let full = Query::range(KeyInterval::full(), TimeInterval::full());
    let rectangle = tcp.query(&full).unwrap().tuples.len();
    let q = Query::with_predicate(
        KeyInterval::full(),
        TimeInterval::full(),
        (Expr::ts() % 128).equals(5),
    );
    let moved = || -> u64 {
        let links = tcp.transport().stats().per_link();
        links
            .iter()
            .filter(|((src, dst), _)| *src == COORDINATOR && *dst != META_SERVER)
            .map(|(_, t)| t.bytes)
            .sum()
    };
    let before = moved();
    let answer = tcp.query(&q).unwrap().tuples;
    let moved = moved() - before;
    assert!(
        !answer.is_empty() && answer.len() * 100 <= rectangle,
        "{} of {rectangle}",
        answer.len()
    );

    let frame = |payload| {
        let env = Envelope {
            src: COORDINATOR,
            dst: COORDINATOR,
            rpc_id: 0,
            deadline: Instant::now(),
            payload,
        };
        wire::encode_request(0, &env).len() as u64
    };
    let requests: u64 = tcp
        .coordinator()
        .decompose(&q, QueryId(0))
        .unwrap()
        .into_iter()
        .map(|sq| match sq.target {
            SubQueryTarget::InMemory(_) => frame(Request::InMemorySubquery { sq }),
            SubQueryTarget::Chunk(chunk) => frame(Request::ChunkSubquery { sq, chunk }),
        })
        .sum();
    let responses = moved - requests;
    let answer_bytes: u64 = answer.iter().map(|t| t.encoded_len() as u64).sum();
    assert!(
        responses <= 2 * answer_bytes,
        "{responses} response bytes for a {answer_bytes}-byte answer of {} tuples",
        answer.len()
    );
}
