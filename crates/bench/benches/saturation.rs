//! Saturation: connection scale and overload shedding on the reactor
//! transport.
//!
//! The thread-per-connection transport this repo used to carry spent one
//! OS thread per accepted socket — a 1 024-client cluster cost a thousand
//! server threads before any work happened. The reactor multiplexes every
//! socket onto a fixed shard count, so this harness checks the two claims
//! that matter at scale:
//!
//! * **Connection scale** — `WW_SAT_CONNS` (default 1 024) simultaneous
//!   client connections each round-trip a ping; the server's thread count
//!   must stay O(reactor_threads + workers), i.e. NOT grow with the
//!   connection count, and every ping must answer (zero stuck
//!   connections).
//! * **Overload shedding** — a deliberately tiny server (few workers,
//!   short queue, tight admission budget) is driven at ~2× its capacity;
//!   the excess must come back as typed `Overloaded` answers with a
//!   retry-after hint, not as a collapse (handler panics, stuck clients,
//!   or unbounded queueing).
//!
//! Knobs:
//! * `WW_SAT_CONNS` — concurrent connection count (CI smoke uses 256).
//! * `WW_BENCH_REQUIRE_WIN=1` — exit non-zero unless the thread count
//!   stayed flat, nothing got stuck, and overload shed typed answers.
//!
//! Emits `BENCH_saturation.json` at the workspace root.

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use waterwheel_bench::*;
use waterwheel_core::{ServerId, SystemConfig, WwError};
use waterwheel_net::{
    wire, Envelope, HandlerRegistry, Request, Response, TcpRpcServer, TcpServerOptions,
    TcpTransport, Transport, WireStats,
};
use waterwheel_server::AdmissionController;

const ECHO: ServerId = ServerId(0);
const CLIENT: ServerId = ServerId(5_000);

/// Threads currently alive in this process (Linux); 0 elsewhere, which
/// disables the flat-thread assertions.
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.count())
        .unwrap_or(0)
}

fn ping_env(corr: u64) -> Vec<u8> {
    wire::encode_request(
        corr,
        &Envelope {
            src: CLIENT,
            dst: ECHO,
            rpc_id: corr,
            deadline: Instant::now() + Duration::from_secs(30),
            payload: Request::Ping,
        },
    )
}

/// Phase 1: `conns` raw sockets held open at once, one ping each, driven
/// by a small fixed client pool. Returns (answered, elapsed, server
/// threads while every connection was open).
fn connection_scale(
    conns: usize,
    server_addr: std::net::SocketAddr,
    threads_before: usize,
) -> (usize, Duration, usize) {
    // Open every socket first so the server holds `conns` concurrent
    // connections before any request flows.
    let sockets: Vec<TcpStream> = (0..conns)
        .map(|_| {
            let s = TcpStream::connect_timeout(&server_addr, Duration::from_secs(10))
                .expect("connect to saturation server");
            s.set_nodelay(true).unwrap();
            s
        })
        .collect();
    let threads_at_peak = thread_count();
    assert!(
        threads_at_peak >= threads_before,
        "thread bookkeeping went backwards"
    );

    // A fixed pool of client workers drives all sockets: each worker
    // writes every request it owns, then collects every response — so
    // requests are in flight on many connections simultaneously.
    let workers = 16.min(conns).max(1);
    let answered = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let mut per_worker: Vec<Vec<TcpStream>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, s) in sockets.into_iter().enumerate() {
        per_worker[i % workers].push(s);
    }
    let handles: Vec<_> = per_worker
        .into_iter()
        .map(|mut owned| {
            let answered = Arc::clone(&answered);
            std::thread::spawn(move || {
                for (i, s) in owned.iter_mut().enumerate() {
                    s.write_all(&ping_env(i as u64 + 1)).unwrap();
                }
                for s in owned.iter_mut() {
                    let body = wire::read_frame(s)
                        .expect("read ping response")
                        .expect("server closed a healthy connection");
                    match wire::decode_frame(&body).expect("decode ping response") {
                        wire::Frame::Response { result, .. } => {
                            assert!(matches!(result, Ok(Response::Pong)));
                            answered.fetch_add(1, Ordering::Relaxed);
                        }
                        wire::Frame::Request { .. } => panic!("server sent a request"),
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let elapsed = started.elapsed();
    (
        answered.load(Ordering::Relaxed) as usize,
        elapsed,
        threads_at_peak,
    )
}

struct OverloadOutcome {
    ok: u64,
    shed: u64,
    other: u64,
    hinted: u64,
}

/// Phase 2: drive a deliberately tiny server at ~2× capacity and count
/// typed sheds. Uses `Transport::send` directly (no retry layer) so every
/// `Overloaded` answer is visible.
fn overload(conns_hint: usize) -> OverloadOutcome {
    let registry = Arc::new(HandlerRegistry::new());
    registry.bind(ECHO, |_| {
        std::thread::sleep(Duration::from_millis(2));
        Ok(Response::Pong)
    });
    // Tight budgets on both shedding layers: admission (16 in flight) and
    // the worker queue (2 workers, 8 slots).
    let cfg = SystemConfig {
        admission_max_inflight: 16,
        admission_retry_after: Duration::from_millis(10),
        ..SystemConfig::default()
    };
    registry.set_admission(Arc::new(AdmissionController::new(&cfg)));
    let wire_stats = Arc::new(WireStats::default());
    let server = TcpRpcServer::bind_with(
        "127.0.0.1:0",
        registry,
        Arc::clone(&wire_stats),
        None,
        TcpServerOptions {
            workers: 2,
            queue_capacity: 8,
            overflow_retry_after: Duration::from_millis(10),
            ..TcpServerOptions::default()
        },
    )
    .unwrap();
    let transport = Arc::new(TcpTransport::with_wire_stats(wire_stats));
    transport.set_default_route(Some(server.local_addr()));

    // ~2× overload: the server runs at most 16 admitted requests; fire 32
    // concurrent senders, each a burst of 25.
    let senders = 32;
    let per_sender = (conns_hint / senders).clamp(10, 50);
    let ok = Arc::new(AtomicU64::new(0));
    let shed = Arc::new(AtomicU64::new(0));
    let other = Arc::new(AtomicU64::new(0));
    let hinted = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..senders)
        .map(|s| {
            let t = Arc::clone(&transport);
            let (ok, shed, other, hinted) = (
                Arc::clone(&ok),
                Arc::clone(&shed),
                Arc::clone(&other),
                Arc::clone(&hinted),
            );
            std::thread::spawn(move || {
                for i in 0..per_sender {
                    let env = Envelope {
                        src: ServerId(5_000 + s as u32),
                        dst: ECHO,
                        rpc_id: (s * per_sender + i) as u64,
                        deadline: Instant::now() + Duration::from_secs(10),
                        payload: Request::Ping,
                    };
                    match t.send(&env) {
                        Ok(Response::Pong) => {
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(WwError::Overloaded { retry_after }) => {
                            shed.fetch_add(1, Ordering::Relaxed);
                            if retry_after > Duration::ZERO {
                                hinted.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        _ => {
                            other.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    OverloadOutcome {
        ok: ok.load(Ordering::Relaxed),
        shed: shed.load(Ordering::Relaxed),
        other: other.load(Ordering::Relaxed),
        hinted: hinted.load(Ordering::Relaxed),
    }
}

fn main() {
    let conns: usize = std::env::var("WW_SAT_CONNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1_024);

    // The scale server: an echo registry behind explicit reactor/worker
    // counts, so the thread bound under test is known exactly.
    let registry = Arc::new(HandlerRegistry::new());
    registry.bind(ECHO, |env: &Envelope| match &env.payload {
        Request::Ping => Ok(Response::Pong),
        other => Err(WwError::InvalidState(format!("saturation got {other:?}"))),
    });
    let opts = TcpServerOptions {
        reactor_threads: 2,
        workers: 8,
        ..TcpServerOptions::default()
    };
    let wire_stats = Arc::new(WireStats::default());
    let threads_baseline = thread_count();
    let server =
        TcpRpcServer::bind_with("127.0.0.1:0", registry, Arc::clone(&wire_stats), None, opts)
            .unwrap();
    let threads_serving = thread_count();

    let (answered, elapsed, threads_at_peak) =
        connection_scale(conns, server.local_addr(), threads_serving);
    let stuck = conns - answered;
    let rate = throughput(answered, elapsed);
    // The claim under test: accepting `conns` connections added client
    // bookkeeping only — server threads stayed O(reactor + workers). The
    // slack covers the 16 transient client-pool workers plus runtime
    // housekeeping; with thread-per-connection this delta tracked `conns`.
    let thread_growth = threads_at_peak.saturating_sub(threads_serving);
    let flat = thread_count() == 0 || thread_growth < 32.min(conns / 2);

    drop(server);
    let over = overload(conns);
    // Teardown sweep: with every server and transport gone, the thread
    // count must fall back to the pre-bind baseline (no leaked reactor
    // shards, workers, or per-connection threads).
    let sweep_deadline = Instant::now() + Duration::from_secs(5);
    let threads_after = loop {
        let now = thread_count();
        if now <= threads_baseline || Instant::now() >= sweep_deadline {
            break now;
        }
        std::thread::sleep(Duration::from_millis(50));
    };

    print_table(
        &format!("Saturation — {conns} concurrent connections, reactor transport"),
        &["phase", "outcome"],
        &[
            vec![
                "scale".into(),
                format!(
                    "{answered}/{conns} answered at {} ({} stuck), +{thread_growth} threads at peak",
                    fmt_rate(rate),
                    stuck
                ),
            ],
            vec![
                "overload".into(),
                format!(
                    "{} ok, {} shed ({} hinted), {} other — 2 workers / 8-slot queue / 16 admitted",
                    over.ok, over.shed, over.hinted, over.other
                ),
            ],
            vec![
                "teardown".into(),
                format!(
                    "{threads_after} threads (baseline {threads_baseline}, serving {threads_serving})"
                ),
            ],
        ],
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"saturation\",\n",
            "  \"conns\": {conns},\n",
            "  \"answered\": {answered},\n",
            "  \"stuck\": {stuck},\n",
            "  \"ping_rate\": {rate:.1},\n",
            "  \"threads\": {{ \"baseline\": {tb}, \"serving\": {ts}, \"at_peak\": {tp}, \"after_teardown\": {ta}, \"growth_at_peak\": {tg} }},\n",
            "  \"overload\": {{ \"ok\": {o_ok}, \"shed\": {o_shed}, \"hinted\": {o_hint}, \"other\": {o_other} }}\n",
            "}}\n"
        ),
        conns = conns,
        answered = answered,
        stuck = stuck,
        rate = rate,
        tb = threads_baseline,
        ts = threads_serving,
        tp = threads_at_peak,
        ta = threads_after,
        tg = thread_growth,
        o_ok = over.ok,
        o_shed = over.shed,
        o_hint = over.hinted,
        o_other = over.other,
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_saturation.json");
    std::fs::write(out, json).unwrap();
    println!("wrote {out}");

    // Hard invariants, gated or not: nothing may hang and overload must
    // shed typed answers rather than fail some other way.
    assert_eq!(stuck, 0, "every connection must answer its ping");
    assert!(over.shed > 0, "2x overload must shed typed Overloaded");
    assert_eq!(over.shed, over.hinted, "every shed carries a retry hint");
    assert_eq!(over.other, 0, "overload must not surface untyped failures");

    if std::env::var("WW_BENCH_REQUIRE_WIN").as_deref() == Ok("1") {
        if !flat {
            eprintln!(
                "FAIL: server threads grew by {thread_growth} under {conns} connections — \
                 the reactor must not spawn per-connection threads"
            );
            std::process::exit(1);
        }
        if thread_count() > 0 && threads_after > threads_baseline {
            eprintln!(
                "FAIL: {threads_after} threads alive after teardown (baseline {threads_baseline}) — \
                 reactor shards or workers leaked"
            );
            std::process::exit(1);
        }
        println!(
            "PASS: {conns} connections on +{thread_growth} threads, {} typed sheds under 2x overload",
            over.shed
        );
    }
}
