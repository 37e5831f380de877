//! The TCP transport: the same [`Transport`] seam over real sockets,
//! driven by the event-loop [`Reactor`].
//!
//! [`TcpTransport`] is the client side — a per-destination-address
//! connection pool where **one connection carries many concurrent
//! in-flight RPCs**, correlated by a transport-level id stamped into each
//! frame. There is no reader thread per connection: every pooled socket
//! is registered with the transport's reactor, whose loop thread assembles
//! response frames incrementally and wakes the exact sender waiting on the
//! matching correlation id. [`Transport::start`] returns once the frame is
//! written; the sender collects the answer from its slot when it chooses
//! (its [`Pending`]). [`TcpRpcServer`] is the listener side — the
//! same reactor multiplexes the listening socket and every accepted
//! connection; decoded requests are executed by a small fixed worker pool
//! (ingest > query > metadata priority bands) dispatching the very same
//! [`HandlerRegistry`] the in-proc transport delivers to, so a server
//! process behaves identically however it is reached. A listener runs one
//! reactor thread plus its workers, however many connections it holds.
//!
//! Failure mapping keeps the retry layer above untouched:
//!
//! * no route / connect failure / connection lost → [`WwError::Unreachable`]
//! * response not arrived by the envelope deadline → [`WwError::Timeout`]
//!   (the RPC slot is abandoned; a late response is dropped on arrival)
//! * the request class's share of the worker queue full →
//!   [`WwError::Overloaded`] with the [`OVERLOAD_RETRY_AFTER`] hint,
//!   answered directly from the reactor without running the handler (the
//!   one place the system sheds load; in-process, a caller runs its own
//!   handler and nothing queues)
//! * an **error returned by the remote handler** travels back inside the
//!   response frame and is returned verbatim — like in-proc, it is an
//!   answer, not a delivery failure, and bumps no fault counters.
//!
//! Reconnection is lazy with bounded backoff: a send that finds its pooled
//! connection dead dials a fresh one, retrying until the envelope deadline
//! would pass; [`WireStats`] counts first connects and reconnects apart so
//! flapping links are visible in metrics. The pool holds one connection
//! per peer address: a dead entry stays until the next fresh connection
//! is pooled, which drops every dead entry, so the pool is bounded by the
//! live peers with no timer.
//!
//! An answer is returned exactly as it was decoded. What a query keeps is
//! decided where the tuples are: filters cross the wire as data, so an
//! answer is already what an in-proc run yields.

use crate::envelope::{Envelope, Request, RequestClass, Response};
use crate::reactor::{ConnHandle, ListenerHandle, Reactor, Sink};
use crate::transport::{
    HandlerRegistry, Pending, PendingAnswer, RpcStats, RpcStatsRegistry, Transport,
};
use crate::wire;
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use waterwheel_core::{Result, ServerId, WwError};

waterwheel_core::counters! {
    /// Wire-level counters shared by a process's TCP endpoints (client pool
    /// and listener); [`WireTotals`] is their plain form.
    pub struct WireStats => WireTotals {
        /// Frame bytes read off sockets (requests on servers, responses on clients).
        bytes_in,
        /// Frame bytes written to sockets.
        bytes_out,
        /// First successful connections to an address.
        connects,
        /// Successful re-connections after a pooled connection died.
        reconnects,
        /// Frames that failed to decode (the connection is dropped).
        decode_errors,
        /// Reactor poll returns that carried at least one readiness event.
        reactor_wakeups,
        /// Requests the listener's worker queue refused with an `Overloaded`
        /// answer (their class's share of the queue was full).
        shed,
    }
}

/// What a waiting sender finds in its RPC slot when woken.
enum SlotValue {
    /// The remote answered: the handler's outcome plus the response frame
    /// length (for byte accounting).
    Remote(Result<Response>, u64),
    /// The connection died before the response arrived.
    ConnectionLost(&'static str),
}

type Slot = Arc<(Mutex<Option<SlotValue>>, Condvar)>;

/// The reactor-facing half of one pooled client connection: routes each
/// decoded response frame into the in-flight slot matching its
/// correlation id.
struct ClientSink {
    pending: Mutex<HashMap<u64, Slot>>,
    dead: AtomicBool,
    wire: Arc<WireStats>,
}

impl ClientSink {
    /// Marks the connection dead and wakes every in-flight sender with a
    /// delivery failure.
    fn fail_all(&self, reason: &'static str) {
        self.dead.store(true, Ordering::Release);
        let drained: Vec<Slot> = self
            .pending
            .lock()
            .unwrap()
            .drain()
            .map(|(_, s)| s)
            .collect();
        for slot in drained {
            *slot.0.lock().unwrap() = Some(SlotValue::ConnectionLost(reason));
            slot.1.notify_all();
        }
    }
}

impl Sink for ClientSink {
    fn on_frame(&self, body: Vec<u8>) -> std::result::Result<(), &'static str> {
        let len = (body.len() + 4) as u64;
        self.wire.bytes_in.fetch_add(len, Ordering::Relaxed);
        match wire::decode_frame(&body) {
            Ok(wire::Frame::Response { corr, result }) => {
                // A slot may be gone: the sender timed out and abandoned
                // the RPC. Drop the late response.
                if let Some(slot) = self.pending.lock().unwrap().remove(&corr) {
                    *slot.0.lock().unwrap() = Some(SlotValue::Remote(result, len));
                    slot.1.notify_all();
                }
                Ok(())
            }
            Ok(wire::Frame::Request { .. }) => {
                // A peer sending requests down a client connection is
                // confused; treat as corruption.
                self.wire.decode_errors.fetch_add(1, Ordering::Relaxed);
                Err("peer sent a request on a client connection")
            }
            Err(_) => {
                self.wire.decode_errors.fetch_add(1, Ordering::Relaxed);
                Err("response frame failed to decode")
            }
        }
    }

    fn on_closed(&self, reason: &'static str) {
        self.fail_all(reason);
    }
}

/// One pooled connection: the reactor write handle and its sink (slots).
struct PooledConn {
    handle: ConnHandle,
    sink: Arc<ClientSink>,
}

impl PooledConn {
    fn live(&self) -> bool {
        !self.handle.is_closed() && !self.sink.dead.load(Ordering::Acquire)
    }
}

/// The [`Transport`] implementation over real TCP sockets.
pub struct TcpTransport {
    peers: Mutex<HashMap<ServerId, SocketAddr>>,
    /// Fallback route for addresses without a specific peer entry (the
    /// embedded loopback deployment routes every server to one listener).
    default_route: Mutex<Option<SocketAddr>>,
    /// One connection per peer address.
    pool: Mutex<HashMap<SocketAddr, Arc<PooledConn>>>,
    /// Addresses ever connected, to tell reconnects from first connects.
    ever_connected: Mutex<std::collections::HashSet<SocketAddr>>,
    stats: Arc<RpcStatsRegistry>,
    wire: Arc<WireStats>,
    next_corr: AtomicU64,
    connect_backoff: Duration,
    reactor: Arc<Reactor>,
}

impl TcpTransport {
    /// An empty transport with its own wire counters.
    pub fn new() -> Self {
        Self::with_wire_stats(Arc::new(WireStats::default()))
    }

    /// An empty transport charging `wire` (shared with a listener so one
    /// snapshot covers a whole process).
    pub fn with_wire_stats(wire: Arc<WireStats>) -> Self {
        let reactor = Reactor::new(Arc::clone(&wire)).expect("create reactor event loop");
        Self {
            peers: Mutex::new(HashMap::new()),
            default_route: Mutex::new(None),
            pool: Mutex::new(HashMap::new()),
            ever_connected: Mutex::new(std::collections::HashSet::new()),
            stats: Arc::default(),
            wire,
            next_corr: AtomicU64::new(1),
            connect_backoff: Duration::from_millis(10),
            reactor,
        }
    }

    /// Routes `dst` to `addr`.
    pub fn add_peer(&self, dst: ServerId, addr: SocketAddr) {
        self.peers.lock().unwrap().insert(dst, addr);
    }

    /// Routes every id in `dsts` to `addr` (one process hosting many
    /// server addresses).
    pub fn add_peers(&self, dsts: impl IntoIterator<Item = ServerId>, addr: SocketAddr) {
        let mut peers = self.peers.lock().unwrap();
        for dst in dsts {
            peers.insert(dst, addr);
        }
    }

    /// Routes every address without a specific peer entry to `addr`.
    pub fn set_default_route(&self, addr: Option<SocketAddr>) {
        *self.default_route.lock().unwrap() = addr;
    }

    /// The wire-level counters this transport charges.
    pub fn wire(&self) -> &Arc<WireStats> {
        &self.wire
    }

    /// Number of pooled connections, dead entries included until the
    /// next fresh connection is pooled.
    pub fn pooled_connections(&self) -> usize {
        self.pool.lock().unwrap().len()
    }

    fn route(&self, dst: ServerId) -> Option<SocketAddr> {
        self.peers
            .lock()
            .unwrap()
            .get(&dst)
            .copied()
            .or(*self.default_route.lock().unwrap())
    }

    /// Dials, configures, and registers one fresh connection.
    fn open_conn(&self, stream: TcpStream) -> Result<Arc<PooledConn>> {
        stream.set_nodelay(true).map_err(WwError::Io)?;
        let handle = self.reactor.attach(stream).map_err(WwError::Io)?;
        let sink = Arc::new(ClientSink {
            pending: Mutex::new(HashMap::new()),
            dead: AtomicBool::new(false),
            wire: Arc::clone(&self.wire),
        });
        self.reactor
            .activate(&handle, Arc::clone(&sink) as Arc<dyn Sink>);
        Ok(Arc::new(PooledConn { handle, sink }))
    }

    /// A live pooled connection to `addr`, dialing (with backoff bounded
    /// by `deadline`) if none exists or the pooled one died.
    fn connection(&self, addr: SocketAddr, deadline: Instant) -> Result<Arc<PooledConn>> {
        let mut attempt = 0u32;
        loop {
            if let Some(conn) = self.pool.lock().unwrap().get(&addr) {
                if conn.live() {
                    return Ok(Arc::clone(conn));
                }
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(WwError::Unreachable("connect budget exhausted"));
            }
            match TcpStream::connect_timeout(&addr, remaining.min(Duration::from_secs(1))) {
                Ok(stream) => {
                    let fresh = self.open_conn(stream)?;
                    let mut conns = self.pool.lock().unwrap();
                    // Another sender may have raced us to a live connection;
                    // prefer the pooled one and retire ours.
                    if let Some(existing) = conns.get(&addr) {
                        if existing.live() {
                            let existing = Arc::clone(existing);
                            drop(conns);
                            fresh.handle.close();
                            return Ok(existing);
                        }
                    }
                    if self.ever_connected.lock().unwrap().insert(addr) {
                        self.wire.connects.fetch_add(1, Ordering::Relaxed);
                    } else {
                        self.wire.reconnects.fetch_add(1, Ordering::Relaxed);
                    }
                    // Pooling a fresh connection drops every dead entry.
                    conns.retain(|_, c| c.live());
                    conns.insert(addr, Arc::clone(&fresh));
                    return Ok(fresh);
                }
                Err(_) => {
                    attempt += 1;
                    let backoff = self.connect_backoff * attempt;
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    if remaining.is_zero() || backoff >= remaining {
                        return Err(WwError::Unreachable("destination refused connections"));
                    }
                    std::thread::sleep(backoff);
                }
            }
        }
    }
}

impl Default for TcpTransport {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        // Tear down pooled sockets so the reactor releases their entries
        // (and any stragglers blocked on slots are woken).
        for conn in self.pool.lock().unwrap().values() {
            conn.handle.close();
        }
    }
}

impl Transport for TcpTransport {
    /// Registers the correlation slot and writes the frame; the answer is
    /// collected by the returned [`Pending`].
    fn start(&self, env: &Envelope) -> Pending {
        let link = self.stats.link(env.src, env.dst);
        link.sent.fetch_add(1, Ordering::Relaxed);

        let Some(addr) = self.route(env.dst) else {
            let e = WwError::Unreachable("no route to destination");
            return Pending::answered(Err(link.fault(e)));
        };
        let conn = match self.connection(addr, env.deadline) {
            Ok(c) => c,
            Err(e) => return Pending::answered(Err(link.fault(e))),
        };

        let corr = self.next_corr.fetch_add(1, Ordering::Relaxed);
        let slot: Slot = Arc::new((Mutex::new(None), Condvar::new()));
        conn.sink
            .pending
            .lock()
            .unwrap()
            .insert(corr, Arc::clone(&slot));

        let frame = wire::encode_request(corr, env);
        link.bytes.fetch_add(frame.len() as u64, Ordering::Relaxed);
        self.wire
            .bytes_out
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        if let Err(e) = conn.handle.send(&frame) {
            conn.sink.pending.lock().unwrap().remove(&corr);
            conn.sink.fail_all("connection lost while sending");
            conn.handle.close();
            let e = WwError::Unreachable(if e.kind() == std::io::ErrorKind::BrokenPipe {
                "connection closed by peer"
            } else {
                "connection lost while sending"
            });
            return Pending::answered(Err(link.fault(e)));
        }
        Pending::awaiting(TcpCall {
            slot,
            corr,
            conn,
            link,
            deadline: env.deadline,
        })
    }

    fn stats(&self) -> &Arc<RpcStatsRegistry> {
        &self.stats
    }
}

/// One request on the wire: the slot the reactor fills with its answer.
struct TcpCall {
    slot: Slot,
    corr: u64,
    conn: Arc<PooledConn>,
    link: Arc<RpcStats>,
    deadline: Instant,
}

impl PendingAnswer for TcpCall {
    fn is_ready(&self) -> bool {
        self.slot.0.lock().unwrap().is_some() || Instant::now() >= self.deadline
    }

    /// Waits for the reactor to fill the slot, up to the deadline.
    fn wait(self: Box<Self>) -> Result<Response> {
        let link = &self.link;
        let (lock, cvar) = &*self.slot;
        let mut value = lock.lock().unwrap();
        loop {
            if let Some(v) = value.take() {
                return match v {
                    SlotValue::Remote(Ok(resp), resp_len) => {
                        link.bytes.fetch_add(resp_len, Ordering::Relaxed);
                        Ok(resp)
                    }
                    // A remote handler error is an answer, not a delivery
                    // failure: no fault counters, same as in-proc.
                    SlotValue::Remote(Err(e), resp_len) => {
                        link.bytes.fetch_add(resp_len, Ordering::Relaxed);
                        Err(e)
                    }
                    SlotValue::ConnectionLost(reason) => {
                        Err(link.fault(WwError::Unreachable(reason)))
                    }
                };
            }
            let remaining = self.deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                drop(value);
                self.conn.sink.pending.lock().unwrap().remove(&self.corr);
                let e = WwError::Timeout("rpc response exceeded the deadline");
                return Err(link.fault(e));
            }
            let (guard, _) = cvar.wait_timeout(value, remaining).unwrap();
            value = guard;
        }
    }
}

type ShutdownHook = Arc<Mutex<Option<Box<dyn FnOnce() + Send>>>>;

// ---------------------------------------------------------------------------
// Server side
// ---------------------------------------------------------------------------

/// The retry-after hint on every `Overloaded` answer a listener sheds.
pub const OVERLOAD_RETRY_AFTER: Duration = Duration::from_millis(50);

/// Which worker band a request is queued on: ingest beats query beats
/// metadata. Control traffic (ping, shutdown, scrapes) rides the top band
/// so liveness probes answer even under load.
fn priority_band(class: RequestClass) -> usize {
    match class {
        RequestClass::Control | RequestClass::Ingest => 0,
        RequestClass::Query => 1,
        RequestClass::Metadata => 2,
    }
}

/// The queued depth at which a request of `class` is shed: ingest may fill
/// the whole queue, queries three quarters, metadata half, so a query or
/// metadata flood leaves room for the realtime ingest path. Control is
/// never shed for depth — a probe or scrape must answer precisely when the
/// server is busiest.
fn class_share(class: RequestClass, capacity: usize) -> usize {
    match class {
        RequestClass::Control => usize::MAX,
        RequestClass::Ingest => capacity,
        RequestClass::Query => capacity * 3 / 4,
        RequestClass::Metadata => capacity / 2,
    }
}

type Job = Box<dyn FnOnce() + Send>;

struct Bands {
    queues: [VecDeque<Job>; 3],
    depth: usize,
}

/// Shared state of the server's worker pool: three priority queues under
/// one lock, a depth cap, and a stop flag.
struct WorkerShared {
    bands: Mutex<Bands>,
    cv: Condvar,
    stopping: AtomicBool,
    cap: usize,
}

impl WorkerShared {
    /// Enqueues a job of `class` on its band; fails (returning the job)
    /// when the total queued depth has reached the class's share of the
    /// cap — the caller sheds the request.
    fn push(&self, class: RequestClass, job: Job) -> std::result::Result<(), Job> {
        let mut bands = self.bands.lock().unwrap();
        if bands.depth >= class_share(class, self.cap) || self.stopping.load(Ordering::Acquire) {
            return Err(job);
        }
        bands.queues[priority_band(class)].push_back(job);
        bands.depth += 1;
        drop(bands);
        self.cv.notify_one();
        Ok(())
    }

    /// Pops the highest-priority queued job, blocking until one arrives
    /// or the pool stops.
    fn pop(&self) -> Option<Job> {
        let mut bands = self.bands.lock().unwrap();
        loop {
            if self.stopping.load(Ordering::Acquire) {
                return None;
            }
            for q in bands.queues.iter_mut() {
                if let Some(job) = q.pop_front() {
                    bands.depth -= 1;
                    return Some(job);
                }
            }
            bands = self.cv.wait(bands).unwrap();
        }
    }
}

struct WorkerPool {
    shared: Arc<WorkerShared>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl WorkerPool {
    fn new(workers: usize, cap: usize) -> Self {
        let shared = Arc::new(WorkerShared {
            bands: Mutex::new(Bands {
                queues: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                depth: 0,
            }),
            cv: Condvar::new(),
            stopping: AtomicBool::new(false),
            cap: cap.max(1),
        });
        let mut threads = Vec::with_capacity(workers);
        for i in 0..workers.max(1) {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("ww-server-worker-{i}"))
                    .spawn(move || {
                        while let Some(job) = shared.pop() {
                            job();
                        }
                    })
                    .expect("spawn server worker"),
            );
        }
        Self {
            shared,
            threads: Mutex::new(threads),
        }
    }

    fn shutdown(&self) {
        if self.shared.stopping.swap(true, Ordering::AcqRel) {
            return;
        }
        self.shared.cv.notify_all();
        let threads = std::mem::take(&mut *self.threads.lock().unwrap());
        for t in threads {
            let _ = t.join();
        }
    }
}

/// The worker pool of a [`TcpRpcServer`]. Deployments run the defaults;
/// the shedding and priority tests shrink them to overrun a server.
#[derive(Clone, Copy, Debug)]
pub struct TcpServerOptions {
    /// Worker threads executing decoded requests.
    pub workers: usize,
    /// Bound on queued-but-not-running requests across all bands; each
    /// request class may fill its share of it (ingest all, queries 3/4,
    /// metadata 1/2, control unbounded), and overflow is shed with
    /// [`WwError::Overloaded`].
    pub queue_capacity: usize,
}

impl Default for TcpServerOptions {
    fn default() -> Self {
        Self {
            workers: 8,
            queue_capacity: 8192,
        }
    }
}

/// The reactor-facing half of one accepted server connection: decodes
/// request frames, queues them on the worker pool by priority, and sheds
/// what exceeds a class's share with a typed `Overloaded` answer.
struct ServerConn {
    handle: ConnHandle,
    registry: Arc<HandlerRegistry>,
    wire: Arc<WireStats>,
    workers: Arc<WorkerShared>,
    hook: ShutdownHook,
}

fn respond(handle: &ConnHandle, wire: &WireStats, corr: u64, result: &Result<Response>) {
    let frame = wire::encode_response(corr, result);
    wire.bytes_out
        .fetch_add(frame.len() as u64, Ordering::Relaxed);
    let _ = handle.send(&frame);
}

impl Sink for ServerConn {
    fn on_frame(&self, body: Vec<u8>) -> std::result::Result<(), &'static str> {
        self.wire
            .bytes_in
            .fetch_add((body.len() + 4) as u64, Ordering::Relaxed);
        let (corr, env) = match wire::decode_frame(&body) {
            Ok(wire::Frame::Request { corr, env }) => (corr, env),
            Ok(wire::Frame::Response { .. }) => return Ok(()),
            Err(_) => {
                self.wire.decode_errors.fetch_add(1, Ordering::Relaxed);
                return Err("request frame failed to decode");
            }
        };

        if matches!(env.payload, Request::Shutdown) {
            if let Some(hook) = self.hook.lock().unwrap().take() {
                // Acknowledge first so the launcher sees a clean answer,
                // then let the hook tear the process down.
                respond(&self.handle, &self.wire, corr, &Ok(Response::Ack));
                hook();
                return Ok(());
            }
        }

        let class = env.payload.class();
        let handle = self.handle.clone();
        let registry = Arc::clone(&self.registry);
        let wire_stats = Arc::clone(&self.wire);
        let job: Job = Box::new(move || {
            let result = registry.dispatch(&env);
            respond(&handle, &wire_stats, corr, &result);
        });
        if self.workers.push(class, job).is_err() {
            // The class's share of the queue is full: shed with a typed
            // answer instead of queueing unboundedly or dropping the frame
            // on the floor.
            self.wire.shed.fetch_add(1, Ordering::Relaxed);
            let shed = WwError::Overloaded {
                retry_after: OVERLOAD_RETRY_AFTER,
            };
            respond(&self.handle, &self.wire, corr, &Err(shed));
        }
        Ok(())
    }

    fn on_closed(&self, _reason: &'static str) {}
}

/// The listener side: accepts connections and serves a [`HandlerRegistry`].
///
/// A shared reactor multiplexes the listening socket and every accepted
/// connection; decoded requests run on a fixed worker pool with
/// ingest > query > metadata priority, and a request whose class has
/// filled its share of the queue is shed. A server runs one reactor
/// thread plus its workers, however many clients connect.
pub struct TcpRpcServer {
    local_addr: SocketAddr,
    stopped: AtomicBool,
    listener: Mutex<Option<ListenerHandle>>,
    conns: Arc<Mutex<Vec<ConnHandle>>>,
    workers: WorkerPool,
    /// Keeps the loop thread alive; dropped last.
    _reactor: Arc<Reactor>,
}

impl TcpRpcServer {
    /// Binds `addr` (port 0 picks a free port — see [`local_addr`](Self::local_addr))
    /// and starts serving `registry` with default options.
    ///
    /// `shutdown_hook`, when set, intercepts [`Request::Shutdown`]: the
    /// request is acknowledged on the wire and the hook then runs (node
    /// processes use it to exit). Without a hook the request falls through
    /// to the registry like any other.
    pub fn bind(
        addr: &str,
        registry: Arc<HandlerRegistry>,
        wire: Arc<WireStats>,
        shutdown_hook: Option<Box<dyn FnOnce() + Send>>,
    ) -> Result<Self> {
        Self::bind_with(
            addr,
            registry,
            wire,
            shutdown_hook,
            TcpServerOptions::default(),
        )
    }

    /// [`bind`](Self::bind) with an explicit worker pool.
    pub fn bind_with(
        addr: &str,
        registry: Arc<HandlerRegistry>,
        wire: Arc<WireStats>,
        shutdown_hook: Option<Box<dyn FnOnce() + Send>>,
        opts: TcpServerOptions,
    ) -> Result<Self> {
        // std sets `SO_REUSEADDR` before binding, so a restarted node
        // process re-claims the address its peers route to while
        // connections from its previous life linger in `TIME_WAIT`.
        let listener = TcpListener::bind(addr).map_err(WwError::Io)?;
        let local_addr = listener.local_addr().map_err(WwError::Io)?;
        let reactor = Reactor::new(Arc::clone(&wire)).map_err(WwError::Io)?;
        let workers = WorkerPool::new(opts.workers, opts.queue_capacity);
        let conns: Arc<Mutex<Vec<ConnHandle>>> = Arc::new(Mutex::new(Vec::new()));
        let hook: ShutdownHook = Arc::new(Mutex::new(shutdown_hook));

        // The accept callback lives inside the reactor; holding a strong
        // Arc<Reactor> there would be a retain cycle, so it upgrades a
        // Weak per accepted socket.
        let for_accept = Arc::downgrade(&reactor);
        let conn_list = Arc::clone(&conns);
        let worker_shared = Arc::clone(&workers.shared);
        let lh = reactor
            .listen(listener, move |stream| {
                let Some(reactor) = for_accept.upgrade() else {
                    return;
                };
                if stream.set_nodelay(true).is_err() {
                    return;
                }
                let Ok(handle) = reactor.attach(stream) else {
                    return;
                };
                let sink = Arc::new(ServerConn {
                    handle: handle.clone(),
                    registry: Arc::clone(&registry),
                    wire: Arc::clone(&wire),
                    workers: Arc::clone(&worker_shared),
                    hook: Arc::clone(&hook),
                });
                reactor.activate(&handle, sink as Arc<dyn Sink>);
                let mut list = conn_list.lock().unwrap();
                // Bound the handle list: drop entries the reactor already
                // tore down before appending.
                if list.len() % 128 == 127 {
                    list.retain(|h| !h.is_closed());
                }
                list.push(handle);
            })
            .map_err(WwError::Io)?;

        Ok(Self {
            local_addr,
            stopped: AtomicBool::new(false),
            listener: Mutex::new(Some(lh)),
            conns,
            workers,
            _reactor: reactor,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting (synchronously: the listening socket is closed
    /// before this returns), tears down live connections, and joins the
    /// worker pool. Idempotent.
    pub fn shutdown(&mut self) {
        if self.stopped.swap(true, Ordering::AcqRel) {
            return;
        }
        if let Some(lh) = self.listener.lock().unwrap().take() {
            lh.close();
        }
        for conn in self.conns.lock().unwrap().drain(..) {
            conn.close();
        }
        self.workers.shutdown();
    }
}

impl Drop for TcpRpcServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::MetaRequest;
    use waterwheel_core::{
        ChunkId, Expr, KeyInterval, Query, QueryId, SubQuery, SubQueryId, SubQueryTarget,
        TimeInterval, Tuple,
    };

    fn env(src: u32, dst: u32, timeout: Duration, payload: Request) -> Envelope {
        Envelope {
            src: ServerId(src),
            dst: ServerId(dst),
            rpc_id: 0,
            deadline: Instant::now() + timeout,
            payload,
        }
    }

    fn rig(registry: Arc<HandlerRegistry>) -> (TcpRpcServer, TcpTransport) {
        let wire = Arc::new(WireStats::default());
        let server = TcpRpcServer::bind("127.0.0.1:0", registry, Arc::clone(&wire), None).unwrap();
        let transport = TcpTransport::with_wire_stats(wire);
        transport.set_default_route(Some(server.local_addr()));
        (server, transport)
    }

    #[test]
    fn ping_round_trips_over_loopback() {
        let registry = Arc::new(HandlerRegistry::new());
        registry.bind(ServerId(1), |_| Ok(Response::Pong));
        let (_server, t) = rig(Arc::clone(&registry));
        let r = t
            .send(&env(0, 1, Duration::from_secs(5), Request::Ping))
            .unwrap();
        assert!(matches!(r, Response::Pong));
        let totals = t.stats().totals();
        assert_eq!(totals.sent, 1);
        assert_eq!(totals.timed_out + totals.unreachable, 0);
        assert!(totals.bytes > 0);
        let w = t.wire().totals();
        assert_eq!(w.connects, 1);
        assert!(w.bytes_in > 0 && w.bytes_out > 0);
        assert!(w.reactor_wakeups > 0, "the reactor moved these frames");
    }

    #[test]
    fn concurrent_rpcs_share_one_connection() {
        let registry = Arc::new(HandlerRegistry::new());
        registry.bind(ServerId(1), |_| {
            std::thread::sleep(Duration::from_millis(40));
            Ok(Response::Pong)
        });
        let (_server, t) = rig(Arc::clone(&registry));
        let t = Arc::new(t);
        let started = Instant::now();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    t.send(&env(i, 1, Duration::from_secs(5), Request::Ping))
                })
            })
            .collect();
        for h in handles {
            assert!(h.join().unwrap().is_ok());
        }
        // All eight multiplexed over a single pooled connection, and they
        // ran concurrently (8 × 40 ms sequentially would take 320 ms).
        assert_eq!(t.wire().totals().connects, 1);
        assert!(started.elapsed() < Duration::from_millis(300));
    }

    #[test]
    fn slow_handler_times_out_and_connection_survives() {
        let registry = Arc::new(HandlerRegistry::new());
        registry.bind(ServerId(1), |env| {
            if matches!(env.payload, Request::Flush) {
                std::thread::sleep(Duration::from_millis(250));
            }
            Ok(Response::Ack)
        });
        let (_server, t) = rig(Arc::clone(&registry));
        let e = t
            .send(&env(0, 1, Duration::from_millis(40), Request::Flush))
            .unwrap_err();
        assert!(matches!(e, WwError::Timeout(_)));
        assert_eq!(t.stats().totals().timed_out, 1);
        // The late response is dropped on arrival; the connection keeps
        // serving later RPCs.
        std::thread::sleep(Duration::from_millis(300));
        assert!(t
            .send(&env(0, 1, Duration::from_secs(5), Request::Ping))
            .is_ok());
        assert_eq!(t.wire().totals().connects, 1, "no reconnect needed");
    }

    #[test]
    fn no_route_and_refused_connections_are_unreachable() {
        let t = TcpTransport::new();
        let e = t
            .send(&env(0, 1, Duration::from_millis(100), Request::Ping))
            .unwrap_err();
        assert!(matches!(e, WwError::Unreachable(_)));

        // A route to a dead port: connect is refused until the budget runs out.
        let dead = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = dead.local_addr().unwrap();
        drop(dead);
        t.add_peer(ServerId(1), addr);
        let e = t
            .send(&env(0, 1, Duration::from_millis(120), Request::Ping))
            .unwrap_err();
        assert!(matches!(e, WwError::Unreachable(_)));
        assert_eq!(t.stats().totals().unreachable, 2);
    }

    #[test]
    fn remote_handler_errors_pass_through_without_fault_counters() {
        let registry = Arc::new(HandlerRegistry::new());
        registry.bind(ServerId(1), |_| Err(WwError::Injected("crash test")));
        let (_server, t) = rig(Arc::clone(&registry));
        let e = t
            .send(&env(0, 1, Duration::from_secs(5), Request::Ping))
            .unwrap_err();
        assert!(matches!(e, WwError::Injected(_)), "got {e}");
        assert!(!e.is_retryable());
        let totals = t.stats().totals();
        assert_eq!(totals.timed_out, 0);
        assert_eq!(totals.unreachable, 0);
    }

    #[test]
    fn unbound_destination_behind_listener_is_unreachable() {
        let registry = Arc::new(HandlerRegistry::new());
        let (_server, t) = rig(registry);
        let e = t
            .send(&env(0, 42, Duration::from_secs(5), Request::Ping))
            .unwrap_err();
        assert!(matches!(e, WwError::Unreachable(_)));
    }

    #[test]
    fn remote_answers_arrive_as_decoded() {
        let registry = Arc::new(HandlerRegistry::new());
        registry.bind(ServerId(1), |_| {
            Ok(Response::Tuples(vec![
                Tuple::bare(1, 10),
                Tuple::bare(2, 10),
                Tuple::bare(3, 10),
                Tuple::bare(4, 10),
            ]))
        });
        let (_server, t) = rig(Arc::clone(&registry));
        let sq = SubQuery {
            id: SubQueryId {
                query: QueryId(1),
                index: 0,
            },
            keys: KeyInterval::full(),
            times: TimeInterval::full(),
            predicate: Some((Expr::key() % 2).equals(0)),
            measure_range: None,
            target: SubQueryTarget::Chunk(ChunkId(0)),
            offset: None,
        };
        let r = t
            .send(&env(
                0,
                1,
                Duration::from_secs(5),
                Request::ChunkSubquery {
                    sq,
                    chunk: ChunkId(0),
                },
            ))
            .unwrap();
        let tuples = r.into_tuples().unwrap();
        assert_eq!(
            tuples.iter().map(|t| t.key).collect::<Vec<_>>(),
            vec![1, 2, 3, 4],
            "the transport returns the remote answer unmodified"
        );
    }

    #[test]
    fn reconnects_after_the_server_restarts() {
        let registry = Arc::new(HandlerRegistry::new());
        registry.bind(ServerId(1), |_| Ok(Response::Pong));
        let wire = Arc::new(WireStats::default());
        let mut server = TcpRpcServer::bind(
            "127.0.0.1:0",
            Arc::clone(&registry),
            Arc::new(WireStats::default()),
            None,
        )
        .unwrap();
        let addr = server.local_addr();
        let t = TcpTransport::with_wire_stats(Arc::clone(&wire));
        t.add_peer(ServerId(1), addr);
        assert!(t
            .send(&env(0, 1, Duration::from_secs(5), Request::Ping))
            .is_ok());

        server.shutdown();
        // The pooled connection is dead; the send fails as Unreachable
        // (either detected on write or when dialing is refused).
        let e = t
            .send(&env(0, 1, Duration::from_millis(200), Request::Ping))
            .unwrap_err();
        assert!(matches!(e, WwError::Unreachable(_)), "got {e}");

        // Rebind the same port (retry briefly: the old listener's socket
        // may take a moment to release).
        let mut revived = None;
        for _ in 0..50 {
            match TcpRpcServer::bind(
                &addr.to_string(),
                Arc::clone(&registry),
                Arc::new(WireStats::default()),
                None,
            ) {
                Ok(s) => {
                    revived = Some(s);
                    break;
                }
                Err(_) => std::thread::sleep(Duration::from_millis(40)),
            }
        }
        let _revived = revived.expect("could not rebind the listener port");
        assert!(t
            .send(&env(0, 1, Duration::from_secs(5), Request::Ping))
            .is_ok());
        let w = wire.totals();
        assert_eq!(w.connects, 1);
        assert!(w.reconnects >= 1, "the redial must count as a reconnect");
    }

    #[test]
    fn shutdown_hook_intercepts_shutdown_requests() {
        // A handler bound at the destination would also answer Ack: it
        // records the request, so a Shutdown that slipped past the hook
        // into the registry shows up here.
        let registry = Arc::new(HandlerRegistry::new());
        let reached = Arc::new(AtomicBool::new(false));
        let seen = Arc::clone(&reached);
        registry.bind(ServerId(1), move |_| {
            seen.store(true, Ordering::Release);
            Ok(Response::Ack)
        });
        let fired = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&fired);
        let wire = Arc::new(WireStats::default());
        let server = TcpRpcServer::bind(
            "127.0.0.1:0",
            registry,
            Arc::clone(&wire),
            Some(Box::new(move || flag.store(true, Ordering::Release))),
        )
        .unwrap();
        let t = TcpTransport::with_wire_stats(wire);
        t.set_default_route(Some(server.local_addr()));
        let r = t
            .send(&env(0, 1, Duration::from_secs(5), Request::Shutdown))
            .unwrap();
        assert!(matches!(r, Response::Ack));
        // The ack leaves before the hook runs (the launcher must see a
        // clean answer before the process goes), so wait for the flag.
        let deadline = Instant::now() + Duration::from_secs(10);
        while !fired.load(Ordering::Acquire) {
            assert!(Instant::now() < deadline, "the shutdown hook never ran");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            !reached.load(Ordering::Acquire),
            "the registry saw a Shutdown the hook should have taken"
        );
    }

    #[test]
    fn server_shutdown_refuses_new_connections() {
        let registry = Arc::new(HandlerRegistry::new());
        registry.bind(ServerId(1), |_| Ok(Response::Pong));
        let (mut server, t) = rig(Arc::clone(&registry));
        assert!(t
            .send(&env(0, 1, Duration::from_secs(5), Request::Ping))
            .is_ok());
        let addr = server.local_addr();
        server.shutdown();
        std::thread::sleep(Duration::from_millis(50));
        assert!(
            TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err(),
            "a stopped server must not accept connections"
        );
    }

    #[test]
    fn pooling_a_fresh_connection_drops_dead_entries() {
        let registry = Arc::new(HandlerRegistry::new());
        for id in 1..=2 {
            registry.bind(ServerId(id), |_| Ok(Response::Pong));
        }
        let wire = Arc::new(WireStats::default());
        let bind = || {
            TcpRpcServer::bind(
                "127.0.0.1:0",
                Arc::clone(&registry),
                Arc::clone(&wire),
                None,
            )
            .unwrap()
        };
        let (mut closing, other) = (bind(), bind());
        let t = TcpTransport::with_wire_stats(Arc::clone(&wire));
        t.add_peer(ServerId(1), closing.local_addr());
        t.add_peer(ServerId(2), other.local_addr());
        assert!(t
            .send(&env(0, 1, Duration::from_secs(5), Request::Ping))
            .is_ok());

        // The first peer closes: a send to it fails, and its dead entry
        // stays pooled — nothing reaps it on a timer.
        closing.shutdown();
        let e = t
            .send(&env(0, 1, Duration::from_millis(200), Request::Ping))
            .unwrap_err();
        assert!(matches!(e, WwError::Unreachable(_)), "got {e}");
        assert_eq!(t.pooled_connections(), 1);

        // Dialling the other peer pools a fresh connection and drops the
        // dead one with it.
        assert!(t
            .send(&env(0, 2, Duration::from_secs(5), Request::Ping))
            .is_ok());
        assert_eq!(t.pooled_connections(), 1, "no dead entry remains");
        assert!(t
            .send(&env(0, 2, Duration::from_secs(5), Request::Ping))
            .is_ok());
        assert_eq!(t.wire().totals().connects, 2, "the live entry is reused");
    }

    #[test]
    fn worker_queue_overflow_sheds_typed_overloaded() {
        let registry = Arc::new(HandlerRegistry::new());
        let ran = Arc::new(AtomicU64::new(0));
        let runs = Arc::clone(&ran);
        registry.bind(ServerId(1), move |_| {
            runs.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(150));
            Ok(Response::Ack)
        });
        let wire = Arc::new(WireStats::default());
        let server = TcpRpcServer::bind_with(
            "127.0.0.1:0",
            registry,
            Arc::clone(&wire),
            None,
            TcpServerOptions {
                workers: 1,
                queue_capacity: 1,
            },
        )
        .unwrap();
        let t = Arc::new(TcpTransport::with_wire_stats(wire));
        t.set_default_route(Some(server.local_addr()));
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    t.send(&env(i, 1, Duration::from_secs(5), Request::Flush))
                })
            })
            .collect();
        let mut ok = 0;
        let mut shed = 0;
        for h in handles {
            match h.join().unwrap() {
                Ok(Response::Ack) => ok += 1,
                Err(WwError::Overloaded { retry_after }) => {
                    assert_eq!(retry_after, OVERLOAD_RETRY_AFTER);
                    shed += 1;
                }
                other => panic!("unexpected outcome: {other:?}"),
            }
        }
        assert!(ok >= 1, "at least the running request completes");
        assert!(
            shed >= 1,
            "a 1-worker/1-slot server must shed under 8-way fire"
        );
        assert_eq!(ok + shed, 8, "every request got a typed answer");
        assert_eq!(ran.load(Ordering::Relaxed), ok, "a shed request never ran");
        assert_eq!(t.wire().totals().shed, shed, "every shed is counted");
    }

    /// A listener with one worker and a four-slot queue, the worker held
    /// inside a first `Flush` until [`release`](Self::release): what is sent
    /// meanwhile either waits in the queue or is shed. The handler logs the
    /// kind of every request it runs, in the order it runs them.
    struct HeldWorker {
        server: TcpRpcServer,
        t: Arc<TcpTransport>,
        gate: Arc<(Mutex<bool>, Condvar)>,
        ran: Arc<Mutex<Vec<&'static str>>>,
        first: Option<std::thread::JoinHandle<Result<Response>>>,
    }

    impl HeldWorker {
        fn new() -> Self {
            let gate = Arc::new((Mutex::new(false), Condvar::new()));
            let ran = Arc::new(Mutex::new(Vec::new()));
            let registry = Arc::new(HandlerRegistry::new());
            let (held, log) = (Arc::clone(&gate), Arc::clone(&ran));
            registry.bind(ServerId(1), move |env| {
                log.lock().unwrap().push(env.payload.kind());
                let (open, cv) = &*held;
                let mut open = open.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
                Ok(match env.payload {
                    Request::Ping => Response::Pong,
                    _ => Response::Ack,
                })
            });
            let wire = Arc::new(WireStats::default());
            let opts = TcpServerOptions {
                workers: 1,
                queue_capacity: 4,
            };
            let server =
                TcpRpcServer::bind_with("127.0.0.1:0", registry, Arc::clone(&wire), None, opts)
                    .unwrap();
            let t = Arc::new(TcpTransport::with_wire_stats(wire));
            t.set_default_route(Some(server.local_addr()));
            let mut rig = Self {
                server,
                t,
                gate,
                ran,
                first: None,
            };
            rig.first = Some(rig.spawn(Request::Flush));
            rig.wait_until("the worker holds the first request", |r| {
                r.ran.lock().unwrap().len() == 1
            });
            rig
        }

        fn depth(&self) -> usize {
            self.server.workers.shared.bands.lock().unwrap().depth
        }

        fn wait_until(&self, what: &str, done: impl Fn(&Self) -> bool) {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !done(self) {
                assert!(Instant::now() < deadline, "timed out waiting: {what}");
                std::thread::yield_now();
            }
        }

        fn spawn(&self, payload: Request) -> std::thread::JoinHandle<Result<Response>> {
            let t = Arc::clone(&self.t);
            std::thread::spawn(move || t.send(&env(0, 1, Duration::from_secs(30), payload)))
        }

        /// Sends `payload` from its own thread and waits until it is queued.
        fn queue(&self, payload: Request) -> std::thread::JoinHandle<Result<Response>> {
            let depth = self.depth();
            let sender = self.spawn(payload);
            self.wait_until("the request is queued", |r| r.depth() == depth + 1);
            sender
        }

        /// Sends `payload` and asserts it is shed with the hint. A request
        /// that is queued instead times out after two seconds and fails
        /// the assertion rather than hanging the test.
        fn shed(&self, payload: Request) {
            let e = self
                .t
                .send(&env(0, 1, Duration::from_secs(2), payload))
                .unwrap_err();
            assert!(matches!(e, WwError::Overloaded { .. }), "got {e}");
            assert_eq!(e.retry_after(), Some(OVERLOAD_RETRY_AFTER));
        }

        /// Opens the gate and collects the held first request.
        fn release(&mut self) {
            let (open, cv) = &*self.gate;
            *open.lock().unwrap() = true;
            cv.notify_all();
            if let Some(first) = self.first.take() {
                assert!(matches!(first.join().unwrap(), Ok(Response::Ack)));
            }
        }

        fn ran(&self) -> Vec<&'static str> {
            self.ran.lock().unwrap().clone()
        }
    }

    impl Drop for HeldWorker {
        fn drop(&mut self) {
            // Never leave the worker parked: the listener joins it on drop.
            let (open, cv) = &*self.gate;
            *open.lock().unwrap() = true;
            cv.notify_all();
        }
    }

    fn batch() -> Request {
        Request::IngestBatch {
            seq: 1,
            tuples: vec![Tuple::bare(1, 1)],
        }
    }

    fn client_query() -> Request {
        Request::ClientQuery {
            query: Query::range(KeyInterval::full(), TimeInterval::full()),
        }
    }

    #[test]
    fn a_full_queue_still_answers_a_ping() {
        let mut rig = HeldWorker::new();
        let queued: Vec<_> = (0..4).map(|_| rig.queue(batch())).collect();
        // The queue is full for ingest…
        rig.shed(batch());
        // …but a liveness probe is never shed for depth: it waits its turn
        // on the top band and answers.
        let ping = rig.queue(Request::Ping);
        rig.release();
        assert!(matches!(ping.join().unwrap(), Ok(Response::Pong)));
        for sender in queued {
            assert!(matches!(sender.join().unwrap(), Ok(Response::Ack)));
        }
        assert_eq!(rig.t.wire().totals().shed, 1);
    }

    #[test]
    fn a_query_flood_leaves_room_for_ingest() {
        let mut rig = HeldWorker::new();
        // Queries may fill three of the four slots…
        let queries: Vec<_> = (0..3).map(|_| rig.queue(client_query())).collect();
        rig.shed(client_query());
        // …and metadata only two, so it is shed too…
        rig.shed(Request::Meta(MetaRequest::Partition));
        // …while ingest still finds the last slot and is answered.
        let ingest = rig.queue(batch());
        rig.release();
        assert!(matches!(ingest.join().unwrap(), Ok(Response::Ack)));
        for sender in queries {
            assert!(matches!(sender.join().unwrap(), Ok(Response::Ack)));
        }
        let ran = rig.ran();
        assert_eq!(ran.iter().filter(|k| **k == "client_query").count(), 3);
        assert!(!ran.contains(&"meta"), "a shed request never ran: {ran:?}");
        assert_eq!(rig.t.wire().totals().shed, 2);
    }

    #[test]
    fn queued_requests_run_ingest_then_query_then_metadata() {
        let mut rig = HeldWorker::new();
        let queued = [
            rig.queue(Request::Meta(MetaRequest::Partition)),
            rig.queue(client_query()),
            rig.queue(batch()),
        ];
        rig.release();
        for sender in queued {
            assert!(matches!(sender.join().unwrap(), Ok(Response::Ack)));
        }
        assert_eq!(
            rig.ran(),
            ["flush", "ingest_batch", "client_query", "meta"],
            "the bands run in priority order, not arrival order"
        );
    }
}
