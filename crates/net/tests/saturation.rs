//! Saturation: connection scale and overload shedding on the reactor
//! transport.
//!
//! The reactor multiplexes every socket onto one loop thread, so this test
//! checks the two claims that matter at scale:
//!
//! * **Connection scale** — 256 simultaneous client connections each
//!   round-trip a ping; the server runs one reactor thread plus its
//!   workers and must NOT grow with the connection count, and every ping
//!   must answer (zero stuck connections).
//! * **Overload shedding** — a deliberately tiny server (2 workers, an
//!   8-slot queue) is driven by 32 concurrent senders, well past its
//!   capacity; the excess must come back as typed `Overloaded` answers
//!   carrying the retry-after hint, each one counted in `wire.shed` — not
//!   as a collapse (handler panics, stuck clients, or unbounded queueing).
//!
//! Both phases end with every server and transport dropped, and the
//! process's thread count must fall back to its baseline. It is one
//! `#[test]` in its own binary so that `/proc/self/task` sees no other
//! test's threads.

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use waterwheel_core::{ServerId, WwError};
use waterwheel_net::{
    wire, Envelope, HandlerRegistry, Request, Response, TcpRpcServer, TcpServerOptions,
    TcpTransport, Transport, WireStats, OVERLOAD_RETRY_AFTER,
};

const ECHO: ServerId = ServerId(0);
const CLIENT: ServerId = ServerId(5_000);
const CONNS: usize = 256;

/// Threads currently alive in this process (Linux); `None` elsewhere,
/// which disables the thread-count assertions.
fn thread_count() -> Option<usize> {
    std::fs::read_dir("/proc/self/task").ok().map(|d| d.count())
}

/// [`thread_count`] once it is down to `want`. A joined thread has
/// signalled its exit before the kernel unlists it — microseconds on a
/// quiet host, milliseconds on a loaded one. A leaked thread never leaves:
/// its count comes back after the wait and fails the caller's comparison.
fn settled_thread_count(want: Option<usize>) -> Option<usize> {
    let patience = Instant::now() + Duration::from_secs(5);
    loop {
        let now = thread_count();
        if now <= want || Instant::now() > patience {
            return now;
        }
        std::thread::yield_now();
    }
}

fn ping_frame(corr: u64) -> Vec<u8> {
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

/// Phase 1: [`CONNS`] raw sockets held open at once, one ping each, driven
/// by a small fixed client pool. Returns how many answered and the
/// server's thread growth while every connection was open.
fn connection_scale() -> (usize, Option<usize>) {
    let registry = Arc::new(HandlerRegistry::new());
    registry.bind(ECHO, |env: &Envelope| match &env.payload {
        Request::Ping => Ok(Response::Pong),
        other => Err(WwError::InvalidState(format!("saturation got {other:?}"))),
    });
    // An explicit worker count, so the thread bound is known exactly.
    let opts = TcpServerOptions {
        workers: 8,
        ..TcpServerOptions::default()
    };
    let wire_stats = Arc::new(WireStats::default());
    let before = thread_count();
    let server = TcpRpcServer::bind_with("127.0.0.1:0", registry, wire_stats, None, opts).unwrap();
    let serving = thread_count();
    if let Some((before, serving)) = before.zip(serving) {
        assert_eq!(
            serving - before,
            1 + opts.workers,
            "a listener starts one reactor thread plus its workers"
        );
    }

    // Open every socket first so the server holds every connection at
    // once before any request flows.
    let sockets: Vec<TcpStream> = (0..CONNS)
        .map(|_| {
            let s = TcpStream::connect_timeout(&server.local_addr(), Duration::from_secs(10))
                .expect("connect to saturation server");
            s.set_nodelay(true).unwrap();
            s
        })
        .collect();
    let at_peak = thread_count();

    // A fixed pool of client workers drives all sockets: each writes every
    // request it owns, then collects every response — so requests are in
    // flight on many connections simultaneously.
    let workers = 16;
    let answered = Arc::new(AtomicU64::new(0));
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
                    s.write_all(&ping_frame(i as u64 + 1)).unwrap();
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
    drop(server);
    let growth = at_peak.zip(serving).map(|(p, s)| p.saturating_sub(s));
    (answered.load(Ordering::Relaxed) as usize, growth)
}

#[derive(Debug)]
struct OverloadOutcome {
    ok: u64,
    shed: u64,
    other: u64,
    /// `wire.shed` on the server after the burst.
    counted: u64,
}

/// Phase 2: drive a tiny server (2 workers, 8 queue slots, a 2 ms handler)
/// with 32 concurrent senders and count typed sheds. Uses
/// `Transport::send` directly (no retry layer) so every `Overloaded`
/// answer is visible.
fn overload() -> OverloadOutcome {
    let registry = Arc::new(HandlerRegistry::new());
    registry.bind(ECHO, |_| {
        std::thread::sleep(Duration::from_millis(2));
        Ok(Response::Ack)
    });
    let server_wire = Arc::new(WireStats::default());
    let server = TcpRpcServer::bind_with(
        "127.0.0.1:0",
        registry,
        Arc::clone(&server_wire),
        None,
        TcpServerOptions {
            workers: 2,
            queue_capacity: 8,
        },
    )
    .unwrap();
    let transport = Arc::new(TcpTransport::new());
    transport.set_default_route(Some(server.local_addr()));

    // At most 2 running + 8 queued: 32 senders with one request each in
    // flight overrun it whenever they line up.
    let (senders, per_sender) = (32, 10);
    let ok = Arc::new(AtomicU64::new(0));
    let shed = Arc::new(AtomicU64::new(0));
    let other = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..senders)
        .map(|s| {
            let t = Arc::clone(&transport);
            let (ok, shed, other) = (Arc::clone(&ok), Arc::clone(&shed), Arc::clone(&other));
            std::thread::spawn(move || {
                for i in 0..per_sender {
                    // `Flush` is ingest-class: it may use the whole queue.
                    let env = Envelope {
                        src: ServerId(5_000 + s as u32),
                        dst: ECHO,
                        rpc_id: (s * per_sender + i) as u64,
                        deadline: Instant::now() + Duration::from_secs(10),
                        payload: Request::Flush,
                    };
                    let counter = match t.send(&env) {
                        Ok(Response::Ack) => &ok,
                        Err(WwError::Overloaded { retry_after })
                            if retry_after == OVERLOAD_RETRY_AFTER =>
                        {
                            &shed
                        }
                        _ => &other,
                    };
                    counter.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    drop(server);
    OverloadOutcome {
        ok: ok.load(Ordering::Relaxed),
        shed: shed.load(Ordering::Relaxed),
        other: other.load(Ordering::Relaxed),
        counted: server_wire.totals().shed,
    }
}

#[test]
fn flat_threads_at_scale_typed_sheds_under_overload_and_a_clean_teardown() {
    let baseline = thread_count();

    let (answered, growth) = connection_scale();
    assert_eq!(answered, CONNS, "every connection must answer its ping");
    // Accepting the connections added client bookkeeping only — server
    // threads stayed one reactor plus the workers; with thread-per-connection this
    // tracked the connection count.
    if let Some(growth) = growth {
        assert!(
            growth < 32,
            "server threads grew by {growth} under {CONNS} connections — \
             the reactor must not spawn per-connection threads"
        );
    }

    let over = overload();
    assert!(
        over.shed > 0,
        "overload must shed typed Overloaded: {over:?}"
    );
    assert_eq!(
        over.other, 0,
        "every shed carries the hint, and nothing fails untyped: {over:?}"
    );
    assert_eq!(over.ok + over.shed, 32 * 10, "{over:?}");
    assert_eq!(over.counted, over.shed, "wire.shed counts every shed");

    // Teardown: with every server and transport gone, the thread count
    // falls back to the baseline (no leaked reactor loops, workers, or
    // per-connection threads).
    let after = settled_thread_count(baseline);
    assert!(
        after <= baseline,
        "{after:?} threads alive after teardown (baseline {baseline:?})"
    );
}
