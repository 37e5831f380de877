//! The pluggable transport, its in-process implementation, and the fault
//! layer over both planes.
//!
//! [`Transport`] is the single seam every cross-server hop goes through:
//! it accepts an [`Envelope`] and returns a [`Pending`] answer — the
//! destination's [`Response`] or a delivery error, already in or still on
//! its way — so a sender may keep working while its request is on the wire
//! (the dispatcher's one in-flight batch per link).
//!
//! * [`InProcTransport`] is local delivery: the destination handler runs
//!   inline, a destination placed on a dead simulated node (the cluster's
//!   failure-injection hook) is unreachable, and nothing else happens.
//!   [`TcpTransport`](crate::TcpTransport) is the same seam over real
//!   sockets. Both dispatch one shared [`HandlerRegistry`], so the servers
//!   bound behind them are identical, and both charge **real encoded frame
//!   lengths** from [`wire`] to per-link [`RpcStats`] — the
//!   stats of an embedded run and a networked run describe the same
//!   traffic.
//! * [`FaultPlane`] wraps either one and scripts a real network's faults
//!   per directed link from a [`LinkProfile`]: latency/jitter, request
//!   loss, a deterministic cut-off after N messages (`drop_after`),
//!   directed partitions, and response loss. Every draw is a pure function
//!   of one fixed seed, the link and the link's message number, so a
//!   failure replays exactly whatever other links are doing.
//!
//! Most faults are *request* faults: a lost or late message fails
//! **before** the destination handler runs, so retrying such a failure can
//! never duplicate a side effect. [`LinkProfile::response_loss`] is the
//! exception — it drops the *ack after the handler already ran*, turning a
//! retry into a genuine redelivery. That is exactly the at-least-once
//! hazard real networks have, and it is why the batched ingest path tags
//! every `IngestBatch` with a sequence number the receiver dedups on (the
//! "retries make faults invisible, never duplicated tuples" oracle tests
//! exercise both fault classes, on both planes).

use crate::{
    envelope::{Envelope, Request, Response},
    wire,
};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use waterwheel_cluster::Cluster;
use waterwheel_core::{mix64, CounterRegistry, Counters, Result, ServerId, WwError};

/// A message handler bound at a destination address.
pub type Handler = Arc<dyn Fn(&Envelope) -> Result<Response> + Send + Sync>;

/// The set of handlers serving a process's addresses, shared by every
/// transport front-end (in-proc delivery and the TCP listener dispatch the
/// same registry, so a server behaves identically however it is reached) —
/// and, beside them, the process's [`CounterRegistry`]: roles register
/// their counter sets when they bind their handlers, and the registry
/// itself answers [`Request::Stats`] from them at every bound address.
#[derive(Default)]
pub struct HandlerRegistry {
    handlers: RwLock<HashMap<ServerId, Handler>>,
    counters: CounterRegistry,
}

fn unbound() -> WwError {
    WwError::Unreachable("no server bound at destination")
}

impl HandlerRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds (or replaces) the handler serving `dst`.
    pub fn bind(
        &self,
        dst: ServerId,
        handler: impl Fn(&Envelope) -> Result<Response> + Send + Sync + 'static,
    ) {
        self.handlers.write().insert(dst, Arc::new(handler));
    }

    /// The handler bound at `dst`, if any.
    pub fn get(&self, dst: ServerId) -> Option<Handler> {
        self.handlers.read().get(&dst).cloned()
    }

    /// The counter sets of this process: statistics structs, not the
    /// servers that bump them — and whatever owner of a computed value is
    /// registered whole (a dispatcher) is released by [`clear`](Self::clear).
    pub fn counters(&self) -> &CounterRegistry {
        &self.counters
    }

    /// Unbinds every handler and every counter set. Handlers hold their
    /// servers, and servers hold the plane that delivers to this registry;
    /// a deployment being torn down calls this to break that cycle, so its
    /// servers — and the threads they own — are released.
    pub fn clear(&self) {
        let handlers = std::mem::take(&mut *self.handlers.write());
        self.counters.clear();
        // Dropped outside the lock: releasing the last handle on a server
        // may join its threads.
        drop(handlers);
    }

    /// The addresses currently bound.
    pub fn bound(&self) -> Vec<ServerId> {
        self.handlers.read().keys().copied().collect()
    }

    /// Full server-side dispatch for one envelope: a `Stats` scrape is
    /// answered from the counter sets, anything else by the handler bound
    /// at the destination. The TCP server's workers and the in-proc
    /// transport both deliver through this path.
    pub fn dispatch(&self, env: &Envelope) -> Result<Response> {
        self.dispatch_bound(env).unwrap_or_else(|| Err(unbound()))
    }

    /// [`dispatch`](Self::dispatch), with `None` when nothing is bound at
    /// the destination — which a transport counts as a delivery fault,
    /// unlike an `Unreachable` a handler answered with.
    fn dispatch_bound(&self, env: &Envelope) -> Option<Result<Response>> {
        let handler = self.get(env.dst)?;
        Some(match env.payload {
            Request::Stats => Ok(Response::Stats(self.counters.snapshot())),
            _ => handler(env),
        })
    }
}

/// The message plane: every cross-server hop goes through `start`.
pub trait Transport: Send + Sync {
    /// Puts one envelope on its way and returns its [`Pending`] answer: the
    /// destination's response, or a delivery error ([`WwError::Timeout`] /
    /// [`WwError::Unreachable`]). The in-process plane answers before it
    /// returns; TCP returns once the frame is written.
    fn start(&self, env: &Envelope) -> Pending;

    /// Delivers one envelope and waits for its answer.
    fn send(&self, env: &Envelope) -> Result<Response> {
        self.start(env).wait()
    }

    /// The per-link statistics registry.
    fn stats(&self) -> &Arc<RpcStatsRegistry>;
}

/// The answer to one started delivery: either already in, or on its way.
pub struct Pending(PendingState);

enum PendingState {
    Answered(Result<Response>),
    Awaiting(Box<dyn PendingAnswer>),
}

/// An answer a transport is still waiting for (the TCP plane's
/// correlation slot; a test transport's held answer).
pub trait PendingAnswer: Send {
    /// Whether [`wait`](Self::wait) would return without blocking.
    fn is_ready(&self) -> bool;

    /// Blocks until the answer is in, or its deadline has passed.
    fn wait(self: Box<Self>) -> Result<Response>;
}

impl Pending {
    /// An answer that is already in — no allocation.
    pub fn answered(answer: Result<Response>) -> Self {
        Self(PendingState::Answered(answer))
    }

    /// An answer still on its way.
    pub fn awaiting(answer: impl PendingAnswer + 'static) -> Self {
        Self(PendingState::Awaiting(Box::new(answer)))
    }

    /// Whether the answer was already in when `start` returned — always
    /// on the in-process plane, which runs the handler inline; never for
    /// an answer still on its way then, even once it has come in.
    pub fn answered_at_start(&self) -> bool {
        matches!(self.0, PendingState::Answered(_))
    }

    /// Whether [`wait`](Self::wait) would return without blocking.
    pub fn is_ready(&self) -> bool {
        match &self.0 {
            PendingState::Answered(_) => true,
            PendingState::Awaiting(a) => a.is_ready(),
        }
    }

    /// The answer, blocking until it is in.
    pub fn wait(self) -> Result<Response> {
        match self.0 {
            PendingState::Answered(answer) => answer,
            PendingState::Awaiting(a) => a.wait(),
        }
    }
}

/// Latency and fault profile of one directed link (or the default for all).
#[derive(Clone, Copy, Debug, Default)]
pub struct LinkProfile {
    /// Fixed one-way transit latency charged per message.
    pub latency: Duration,
    /// Additional uniformly random transit latency in `[0, jitter)`.
    pub jitter: Duration,
    /// Probability in `[0, 1]` that a request is lost in transit (fails
    /// with [`WwError::Timeout`] before reaching the destination).
    pub loss: f64,
    /// Deterministic cut-off: after this many messages have been sent on
    /// the link, every further message is dropped — a server crashing
    /// mid-plan, reproducibly.
    pub drop_after: Option<u64>,
    /// Probability in `[0, 1]` that the *response* is lost after the
    /// destination handler ran (fails with [`WwError::Timeout`]). Unlike
    /// [`loss`](Self::loss), the side effect has already happened, so a
    /// retried request is redelivered to the handler — the at-least-once
    /// case idempotent handlers (ingest-batch dedup) must absorb.
    pub response_loss: f64,
}

waterwheel_core::counters! {
    /// Lock-free counters for one directed link; [`RpcTotals`] is their
    /// plain form, per link or summed across links.
    pub struct RpcStats => RpcTotals {
        /// Envelopes handed to the transport (including retries).
        sent,
        /// Retry attempts made by an [`RpcClient`](crate::RpcClient) on this link.
        retried,
        /// Attempts that failed with [`WwError::Timeout`] (lost or late).
        timed_out,
        /// Attempts that failed with [`WwError::Unreachable`].
        unreachable,
        /// Encoded frame bytes moved (requests + responses).
        bytes,
    }
}

impl RpcStats {
    /// Charges the delivery fault `e` to this link — a [`WwError::Timeout`]
    /// to `timed_out`, anything else to `unreachable` — and passes it on.
    pub(crate) fn fault(&self, e: WwError) -> WwError {
        let counter = match e {
            WwError::Timeout(_) => &self.timed_out,
            _ => &self.unreachable,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        e
    }
}

/// Number of power-of-two latency buckets: bucket `i` counts calls whose
/// duration rounds up to `2^i` nanoseconds (bucket 39 ≈ 9 minutes).
const LATENCY_BUCKETS: usize = 40;

/// Lock-free power-of-two latency histogram.
///
/// `record` is a single `fetch_add`; percentiles are read by walking the
/// cumulative counts and reporting the matched bucket's **upper bound**
/// (a ≤2x overestimate, never an underestimate — honest for tail SLOs).
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count())
            .finish()
    }
}

impl LatencyHistogram {
    /// Records one observed duration.
    pub fn record(&self, d: Duration) {
        let nanos = d.as_nanos().min(u64::MAX as u128) as u64;
        // Ceiling log2: bucket `i` holds durations in `(2^(i-1), 2^i]`.
        let idx = (64 - nanos.saturating_sub(1).leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Total recorded observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The `q`-quantile (`0.0..=1.0`) as the matched bucket's upper
    /// bound; zero when nothing was recorded.
    pub fn percentile(&self, q: f64) -> Duration {
        let total = self.count();
        if total == 0 {
            return Duration::ZERO;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        let idx = self.buckets.iter().position(|b| {
            cum += b.load(Ordering::Relaxed);
            cum >= target
        });
        Duration::from_nanos(1u64 << idx.unwrap_or(LATENCY_BUCKETS - 1))
    }
}

/// Per-link statistics, created on first use of a link.
#[derive(Default)]
pub struct RpcStatsRegistry {
    links: RwLock<HashMap<(ServerId, ServerId), Arc<RpcStats>>>,
    latencies: RwLock<BTreeMap<&'static str, Arc<LatencyHistogram>>>,
}

impl RpcStatsRegistry {
    /// The counters for the directed link `src → dst`.
    pub fn link(&self, src: ServerId, dst: ServerId) -> Arc<RpcStats> {
        if let Some(s) = self.links.read().get(&(src, dst)) {
            return Arc::clone(s);
        }
        Arc::clone(self.links.write().entry((src, dst)).or_default())
    }

    /// Records one completed RPC's wall-clock latency under its request
    /// kind (see `Request::kind`).
    pub fn record_latency(&self, kind: &'static str, d: Duration) {
        if let Some(h) = self.latencies.read().get(kind) {
            h.record(d);
            return;
        }
        self.latencies.write().entry(kind).or_default().record(d);
    }

    /// Snapshot of every link's counters.
    pub fn per_link(&self) -> Vec<((ServerId, ServerId), RpcTotals)> {
        let links = self.links.read();
        links.iter().map(|(&l, s)| (l, s.totals())).collect()
    }

    /// Totals aggregated across all links.
    pub fn totals(&self) -> RpcTotals {
        let mut t = RpcTotals::default();
        for s in self.links.read().values() {
            t += s.totals();
        }
        t
    }
}

/// The totals across links, then per request kind (client-observed, retries
/// included) `latency.<kind>.{count, p50_ns, p95_ns, p99_ns}`.
impl Counters for RpcStatsRegistry {
    fn visit(&self, f: &mut dyn FnMut(&str, u64)) {
        self.totals().visit(f);
        for (kind, h) in self.latencies.read().iter() {
            f(&format!("latency.{kind}.count"), h.count());
            for (label, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
                let nanos = h.percentile(q).as_nanos() as u64;
                f(&format!("latency.{kind}.{label}_ns"), nanos);
            }
        }
    }
}

/// The in-process transport: local delivery to the handler registry, with
/// exact frame-length byte accounting and the cluster's node-liveness hook.
/// Link faults are a layer over it — [`FaultPlane`].
pub struct InProcTransport {
    handlers: Arc<HandlerRegistry>,
    /// Node-liveness hook: a destination placed on a dead cluster node is
    /// unreachable.
    cluster: Option<Cluster>,
    stats: Arc<RpcStatsRegistry>,
}

impl InProcTransport {
    /// A transport delivering to `handlers` — the same registry a TCP
    /// listener can serve, so one set of bound servers answers over both
    /// planes; `cluster` enables the node-liveness hook for servers placed
    /// on simulated nodes.
    pub fn with_registry(cluster: Option<Cluster>, handlers: Arc<HandlerRegistry>) -> Self {
        Self {
            handlers,
            cluster,
            stats: Arc::default(),
        }
    }

    /// The handler registry this transport delivers to.
    pub fn registry(&self) -> &Arc<HandlerRegistry> {
        &self.handlers
    }

    fn deliver(&self, env: &Envelope) -> Result<Response> {
        let link = self.stats.link(env.src, env.dst);
        link.sent.fetch_add(1, Ordering::Relaxed);
        // Charge the byte counter with the real encoded frame length — the
        // exact bytes TcpTransport would put on a socket for this envelope
        // — sized without building the frame.
        link.bytes
            .fetch_add(wire::request_frame_len(env) as u64, Ordering::Relaxed);
        let dead = |c: &Cluster| c.node_of(env.dst).is_some_and(|n| !c.is_alive(n));
        if self.cluster.as_ref().is_some_and(dead) {
            return Err(link.fault(WwError::Unreachable("destination node is down")));
        }
        // Any error a handler answers with is an answer from the
        // destination — no fault counters; only an unbound address is a
        // delivery fault.
        let Some(answer) = self.handlers.dispatch_bound(env) else {
            return Err(link.fault(unbound()));
        };
        link.bytes
            .fetch_add(wire::response_frame_len(&answer) as u64, Ordering::Relaxed);
        answer
    }
}

impl Transport for InProcTransport {
    /// Runs the destination handler inline: the answer is in on return.
    fn start(&self, env: &Envelope) -> Pending {
        Pending::answered(self.deliver(env))
    }

    fn stats(&self) -> &Arc<RpcStatsRegistry> {
        &self.stats
    }
}

type Link = (ServerId, ServerId);

/// The faults scripted on a [`FaultPlane`], and its message numbering.
#[derive(Default)]
struct Faults {
    default: LinkProfile,
    links: HashMap<Link, LinkProfile>,
    /// Directed partitions: `(src, dst)` pairs that cannot communicate.
    partitions: HashSet<Link>,
    /// Envelopes handed to the plane per link, over its whole life.
    numbers: HashMap<Link, u64>,
}

/// Uniform draw `k` in `[0, 1)` for message `n` on `env`'s link — `k` is 0
/// for loss, 1 for jitter, 2 for response loss: position `3n + k` of the
/// link's own SplitMix64 stream. A pure function of one fixed seed, the
/// link and its message number, so which messages a profile hits never
/// depends on traffic on other links.
fn draw(env: &Envelope, n: u64, k: u64) -> f64 {
    let stream = mix64(0x5EED ^ u64::from(env.src.raw()) << 32 ^ u64::from(env.dst.raw()));
    let z = mix64(stream.wrapping_add((3 * n + k).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// The request fault for message `n` on `env`'s link, if any. Every one fails
/// before the destination handler runs, so a retry can never duplicate a
/// side effect.
fn request_fault(env: &Envelope, n: u64, partitioned: bool, p: &LinkProfile) -> Option<WwError> {
    if partitioned {
        return Some(WwError::Unreachable("link partitioned"));
    }
    if p.drop_after.is_some_and(|k| n > k) {
        return Some(WwError::Timeout("link stopped delivering (drop_after)"));
    }
    if p.loss > 0.0 && draw(env, n, 0) < p.loss {
        return Some(WwError::Timeout("request lost in transit"));
    }
    let delay = p.latency + p.jitter.mul_f64(draw(env, n, 1));
    if delay.is_zero() {
        return None;
    }
    // A message that would arrive past the deadline fails without reaching
    // the destination — the sender has already given up, so delivering it
    // would only risk duplicated side effects. The wait itself is simulated
    // (no sleep), keeping fault tests fast.
    if delay > env.deadline.saturating_duration_since(Instant::now()) {
        return Some(WwError::Timeout("transit exceeded the deadline"));
    }
    std::thread::sleep(delay);
    None
}

/// Link-fault injection as a layer over any message plane: a [`Transport`]
/// that scripts latency/jitter, request loss, the `drop_after` cut-off,
/// directed partitions and response loss per directed link, then hands the
/// envelope to the plane it wraps — in-process or TCP alike. What it drops
/// is charged to the inner plane's [`RpcStatsRegistry`] (`sent` plus the
/// fault's counter), so per-link statistics read the same on both planes.
pub struct FaultPlane {
    inner: Arc<dyn Transport>,
    faults: Mutex<Faults>,
}

impl FaultPlane {
    /// A fault-free layer over `inner`.
    pub fn new(inner: Arc<dyn Transport>) -> Self {
        Self {
            inner,
            faults: Mutex::default(),
        }
    }

    /// Installs the profile applied to links without a specific one.
    pub fn set_default_profile(&self, profile: LinkProfile) {
        self.faults.lock().default = profile;
    }

    /// Installs a profile for one directed link, overriding the default.
    pub fn set_link_profile(&self, src: ServerId, dst: ServerId, profile: LinkProfile) {
        self.faults.lock().links.insert((src, dst), profile);
    }

    /// Cuts the directed link `src → dst` (network partition injection).
    pub fn partition(&self, src: ServerId, dst: ServerId) {
        self.faults.lock().partitions.insert((src, dst));
    }

    /// Heals a previously cut link.
    pub fn heal(&self, src: ServerId, dst: ServerId) {
        self.faults.lock().partitions.remove(&(src, dst));
    }

    /// Heals every partition and removes every fault profile; message
    /// numbers keep counting.
    pub fn clear_faults(&self) {
        let mut faults = self.faults.lock();
        faults.default = LinkProfile::default();
        faults.links.clear();
        faults.partitions.clear();
    }
}

impl Transport for FaultPlane {
    fn start(&self, env: &Envelope) -> Pending {
        let link = (env.src, env.dst);
        let (n, profile, partitioned) = {
            let faults = &mut *self.faults.lock();
            let n = faults.numbers.entry(link).or_default();
            *n += 1;
            let profile = *faults.links.get(&link).unwrap_or(&faults.default);
            (*n, profile, faults.partitions.contains(&link))
        };
        if let Some(e) = request_fault(env, n, partitioned, &profile) {
            let stats = self.inner.stats().link(env.src, env.dst);
            stats.sent.fetch_add(1, Ordering::Relaxed);
            return Pending::answered(Err(stats.fault(e)));
        }
        let answer = self.inner.start(env);
        if profile.response_loss == 0.0 || draw(env, n, 2) >= profile.response_loss {
            return answer;
        }
        let lost = LostAck(answer, self.inner.stats().link(env.src, env.dst));
        // An answer already in is lost at once; one still on its way is
        // never ready and times out once it arrives.
        if lost.0.answered_at_start() {
            Pending::answered(Box::new(lost).wait())
        } else {
            Pending::awaiting(lost)
        }
    }

    fn stats(&self) -> &Arc<RpcStatsRegistry> {
        self.inner.stats()
    }
}

/// An answer whose ack is lost, and the link its loss is charged to: the
/// destination's handler ran — its side effects are real — but the sender
/// sees a timeout and will redeliver, so only idempotent handlers survive
/// this fault. An error the destination answered with passes through.
struct LostAck(Pending, Arc<RpcStats>);

impl PendingAnswer for LostAck {
    fn is_ready(&self) -> bool {
        false
    }

    fn wait(self: Box<Self>) -> Result<Response> {
        self.0.wait()?;
        Err(self.1.fault(WwError::Timeout("response lost in transit")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::Request;

    fn env(src: u32, dst: u32, timeout: Duration) -> Envelope {
        Envelope {
            src: ServerId(src),
            dst: ServerId(dst),
            rpc_id: 0,
            deadline: Instant::now() + timeout,
            payload: Request::Ping,
        }
    }

    fn pong_transport() -> InProcTransport {
        let t = InProcTransport::with_registry(None, Arc::default());
        t.registry().bind(ServerId(1), |_| Ok(Response::Pong));
        t
    }

    #[test]
    fn delivers_to_bound_handler_and_counts() {
        let t = pong_transport();
        let r = t.send(&env(0, 1, Duration::from_secs(1))).unwrap();
        assert!(matches!(r, Response::Pong));
        let totals = t.stats().totals();
        assert_eq!(totals.sent, 1);
        assert_eq!(totals.timed_out, 0);
        assert!(totals.bytes > 0, "request + response bytes counted");
    }

    #[test]
    fn unbound_destination_is_unreachable() {
        let t = pong_transport();
        let e = t.send(&env(0, 9, Duration::from_secs(1))).unwrap_err();
        assert!(matches!(e, WwError::Unreachable(_)));
        assert_eq!(
            t.stats()
                .link(ServerId(0), ServerId(9))
                .unreachable
                .load(Ordering::Relaxed),
            1
        );
    }

    const SEC: Duration = Duration::from_secs(1);

    /// A [`FaultPlane`] over one inner plane — in-process, or TCP loopback
    /// to a listener serving the same handlers — with a call-counting pong
    /// handler bound at servers 1 and 2.
    struct Rig {
        name: &'static str,
        plane: FaultPlane,
        calls: Arc<AtomicU64>,
        _server: Option<crate::TcpRpcServer>,
    }

    impl Rig {
        fn calls(&self) -> u64 {
            self.calls.load(Ordering::Relaxed)
        }

        fn link(&self, src: u32, dst: u32) -> RpcTotals {
            self.plane
                .stats()
                .link(ServerId(src), ServerId(dst))
                .totals()
        }
    }

    fn rig(tcp: bool) -> Rig {
        let registry = Arc::new(HandlerRegistry::new());
        let calls = Arc::new(AtomicU64::new(0));
        for dst in [1, 2] {
            let c = Arc::clone(&calls);
            registry.bind(ServerId(dst), move |_| {
                c.fetch_add(1, Ordering::Relaxed);
                Ok(Response::Pong)
            });
        }
        let (name, inner, server): (_, Arc<dyn Transport>, _) = if tcp {
            let server =
                crate::TcpRpcServer::bind("127.0.0.1:0", registry, Arc::default(), None).unwrap();
            let t = crate::TcpTransport::new();
            t.set_default_route(Some(server.local_addr()));
            ("tcp", Arc::new(t), Some(server))
        } else {
            let t = InProcTransport::with_registry(None, registry);
            ("in-proc", Arc::new(t), None)
        };
        Rig {
            name,
            plane: FaultPlane::new(inner),
            calls,
            _server: server,
        }
    }

    fn rigs() -> [Rig; 2] {
        [rig(false), rig(true)]
    }

    #[test]
    fn partition_cuts_one_direction_only() {
        for r in rigs() {
            let t = &r.plane;
            t.partition(ServerId(0), ServerId(1));
            let e = t.send(&env(0, 1, SEC)).unwrap_err();
            assert!(matches!(e, WwError::Unreachable(_)), "{}: {e}", r.name);
            // Other links unaffected.
            assert!(t.send(&env(0, 2, SEC)).is_ok());
            assert!(t.send(&env(3, 1, SEC)).is_ok());
            t.heal(ServerId(0), ServerId(1));
            assert!(t.send(&env(0, 1, SEC)).is_ok());
            assert_eq!(r.calls(), 3, "{}", r.name);
            let link = r.link(0, 1);
            assert_eq!((link.sent, link.unreachable), (2, 1), "{}", r.name);
        }
    }

    #[test]
    fn loss_drops_requests_before_the_handler_runs() {
        for r in rigs() {
            r.plane.set_default_profile(LinkProfile {
                loss: 0.5,
                ..LinkProfile::default()
            });
            let mut lost = 0;
            for _ in 0..400 {
                match r.plane.send(&env(0, 1, SEC)) {
                    Err(WwError::Timeout(_)) => lost += 1,
                    Ok(_) => {}
                    Err(e) => panic!("{}: unexpected error: {e}", r.name),
                }
            }
            assert!((100..300).contains(&lost), "loss way off 50%: {lost}/400");
            // Every loss happened before the handler: delivered + lost = sent.
            assert_eq!(r.calls() + lost, 400, "{}", r.name);
            let totals = r.plane.stats().totals();
            assert_eq!((totals.sent, totals.timed_out), (400, lost), "{}", r.name);
        }
    }

    #[test]
    fn response_loss_drops_the_ack_after_the_handler_ran() {
        for r in rigs() {
            r.plane.set_default_profile(LinkProfile {
                response_loss: 1.0,
                ..LinkProfile::default()
            });
            let pending = r.plane.start(&env(0, 1, SEC));
            assert!(!pending.is_ready() || pending.answered_at_start());
            let e = pending.wait().unwrap_err();
            assert!(matches!(e, WwError::Timeout(_)), "{}: {e}", r.name);
            // Unlike request loss, the side effect already happened: the
            // handler ran even though the sender saw a timeout.
            assert_eq!(r.calls(), 1, "{}", r.name);
            let totals = r.plane.stats().totals();
            assert_eq!((totals.sent, totals.timed_out), (1, 1), "{}", r.name);
        }
    }

    #[test]
    fn transit_longer_than_deadline_times_out_without_delivery() {
        for r in rigs() {
            r.plane.set_link_profile(
                ServerId(0),
                ServerId(1),
                LinkProfile {
                    latency: Duration::from_millis(50),
                    ..LinkProfile::default()
                },
            );
            let started = Instant::now();
            let e = r
                .plane
                .send(&env(0, 1, Duration::from_millis(1)))
                .unwrap_err();
            assert!(matches!(e, WwError::Timeout(_)), "{}: {e}", r.name);
            assert_eq!(r.calls(), 0, "{}: handler must not run", r.name);
            // The wait is simulated, not slept.
            assert!(started.elapsed() < Duration::from_millis(40));
            // A generous deadline delivers (and genuinely waits).
            assert!(r.plane.send(&env(0, 1, Duration::from_secs(5))).is_ok());
            assert!(started.elapsed() >= Duration::from_millis(50));
            assert_eq!(r.calls(), 1, "{}", r.name);
            assert_eq!(r.link(0, 1).timed_out, 1, "{}", r.name);
        }
    }

    #[test]
    fn drop_after_cuts_the_link_deterministically() {
        for r in rigs() {
            r.plane.set_link_profile(
                ServerId(0),
                ServerId(1),
                LinkProfile {
                    drop_after: Some(3),
                    ..LinkProfile::default()
                },
            );
            for _ in 0..3 {
                assert!(r.plane.send(&env(0, 1, SEC)).is_ok(), "{}", r.name);
            }
            for _ in 0..5 {
                let e = r.plane.send(&env(0, 1, SEC)).unwrap_err();
                assert!(matches!(e, WwError::Timeout(_)), "{}: {e}", r.name);
            }
            // Other source links keep working.
            assert!(r.plane.send(&env(7, 1, SEC)).is_ok());
            let link = r.link(0, 1);
            assert_eq!((link.sent, link.timed_out), (8, 5), "{}", r.name);
            assert_eq!(r.calls(), 4, "{}", r.name);
        }
    }

    /// The same profile on the same link loses the same message numbers in
    /// every run — and on either plane — while another link carries
    /// concurrent lossy traffic: draws follow the link, not the interleaving.
    #[test]
    fn fault_draws_depend_only_on_the_link_and_its_message_number() {
        let lost = |tcp: bool| -> Vec<u64> {
            let r = rig(tcp);
            r.plane.set_default_profile(LinkProfile {
                loss: 0.3,
                ..LinkProfile::default()
            });
            std::thread::scope(|s| {
                s.spawn(|| {
                    for _ in 0..200 {
                        let _ = r.plane.send(&env(5, 2, SEC));
                    }
                });
                (1..=200u64)
                    .filter(|_| r.plane.send(&env(0, 1, SEC)).is_err())
                    .collect()
            })
        };
        let first = lost(false);
        assert!((20..100).contains(&first.len()), "{first:?}");
        assert_eq!(lost(false), first, "in-proc replays");
        assert_eq!(lost(true), first, "tcp replays the same losses");
    }

    #[test]
    fn dead_cluster_node_makes_its_servers_unreachable() {
        let cluster = Cluster::new(2);
        cluster
            .place_server(ServerId(1), waterwheel_core::NodeId(0))
            .unwrap();
        let t = InProcTransport::with_registry(Some(cluster.clone()), Arc::default());
        t.registry().bind(ServerId(1), |_| Ok(Response::Pong));
        t.registry().bind(ServerId(99), |_| Ok(Response::Pong)); // not placed on a node
        assert!(t.send(&env(0, 1, Duration::from_secs(1))).is_ok());
        cluster.fail_node(waterwheel_core::NodeId(0)).unwrap();
        assert!(matches!(
            t.send(&env(0, 1, Duration::from_secs(1))),
            Err(WwError::Unreachable(_))
        ));
        // Servers not placed on any node (meta, coordinator) are exempt.
        assert!(t.send(&env(0, 99, Duration::from_secs(1))).is_ok());
        cluster.recover_node(waterwheel_core::NodeId(0)).unwrap();
        assert!(t.send(&env(0, 1, Duration::from_secs(1))).is_ok());
    }

    #[test]
    fn clear_faults_restores_a_clean_plane() {
        for r in rigs() {
            r.plane.partition(ServerId(0), ServerId(1));
            r.plane.set_default_profile(LinkProfile {
                loss: 1.0,
                ..LinkProfile::default()
            });
            r.plane.clear_faults();
            for _ in 0..20 {
                assert!(r.plane.send(&env(0, 1, SEC)).is_ok(), "{}", r.name);
            }
        }
    }

    #[test]
    fn bytes_counted_are_exact_encoded_frame_lengths() {
        let t = pong_transport();
        let e = env(0, 1, Duration::from_secs(1));
        let req_len = crate::wire::encode_request(0, &e).len() as u64;
        let resp_len = crate::wire::encode_response_ok(0, &Response::Pong).len() as u64;
        t.send(&e).unwrap();
        assert_eq!(
            t.stats().totals().bytes,
            req_len + resp_len,
            "byte accounting must match what the wire codec would frame"
        );
        // An error answer is a frame on the wire too, charged alike.
        let refusal = || WwError::InvalidState("refused by the handler".into());
        t.registry().bind(ServerId(2), move |_| Err(refusal()));
        let e = env(0, 2, Duration::from_secs(1));
        let req_len = crate::wire::encode_request(0, &e).len() as u64;
        let err_len = crate::wire::encode_response_err(0, &refusal()).len() as u64;
        assert!(t.send(&e).is_err());
        let link = t.stats().link(ServerId(0), ServerId(2));
        assert_eq!(link.bytes.load(Ordering::Relaxed), req_len + err_len);
    }

    #[test]
    fn registry_is_shared_across_transport_frontends() {
        let registry = Arc::new(HandlerRegistry::new());
        registry.bind(ServerId(1), |_| Ok(Response::Pong));
        let t = InProcTransport::with_registry(None, Arc::clone(&registry));
        assert!(t.send(&env(0, 1, Duration::from_secs(1))).is_ok());
        // A handler bound later through either side is visible to both.
        t.registry().bind(ServerId(2), |_| Ok(Response::Ack));
        assert!(registry.get(ServerId(2)).is_some());
        assert!(registry.bound().contains(&ServerId(1)));
    }

    #[test]
    fn registry_dispatch_answers_bound_and_refuses_unbound() {
        let registry = Arc::new(HandlerRegistry::new());
        registry.bind(ServerId(1), |_| Ok(Response::Pong));
        let e = env(0, 1, Duration::from_secs(1));
        assert!(matches!(registry.dispatch(&e), Ok(Response::Pong)));
        let missing = env(0, 5, Duration::from_secs(1));
        assert!(matches!(
            registry.dispatch(&missing),
            Err(WwError::Unreachable(_))
        ));
    }

    #[test]
    fn a_bound_address_answers_stats_from_the_registered_counters() {
        let t = pong_transport();
        let set = Arc::new(RpcStats::default());
        set.retried.fetch_add(3, Ordering::Relaxed);
        t.registry()
            .counters()
            .register("probe", Some(ServerId(7)), set);
        let mut scrape = env(0, 1, Duration::from_secs(1));
        scrape.payload = Request::Stats;
        // The registry answers, not the (pong-only) handler.
        let rows = t.send(&scrape).unwrap().into_stats().unwrap();
        assert_eq!(rows.len(), 5);
        assert_eq!(
            (rows[1].name.as_str(), rows[1].server, rows[1].value),
            ("probe.retried", Some(ServerId(7)), 3)
        );
        // Nothing bound, nothing answers — and the link counts the fault.
        scrape.dst = ServerId(9);
        assert!(matches!(t.send(&scrape), Err(WwError::Unreachable(_))));
        let link = t.stats().link(ServerId(0), ServerId(9));
        assert_eq!(link.unreachable.load(Ordering::Relaxed), 1);
        // Teardown forgets the sets along with the handlers.
        t.registry().clear();
        assert!(t.registry().counters().snapshot().is_empty());
    }

    #[test]
    fn latency_histogram_percentiles_bound_from_above() {
        let h = super::LatencyHistogram::default();
        assert_eq!(h.percentile(0.99), Duration::ZERO, "empty → zero");
        for _ in 0..99 {
            h.record(Duration::from_micros(100)); // bucket ≈ 131µs
        }
        h.record(Duration::from_millis(50)); // bucket ≈ 67ms
        assert_eq!(h.count(), 100);
        let p50 = h.percentile(0.50);
        assert!(p50 >= Duration::from_micros(100) && p50 < Duration::from_micros(300));
        let p99 = h.percentile(0.99);
        assert!(p99 < Duration::from_millis(1), "p99 is the 99th of 100");
        let p100 = h.percentile(1.0);
        assert!(
            p100 >= Duration::from_millis(50),
            "max captures the outlier"
        );
    }

    #[test]
    fn a_duration_lands_in_the_bucket_it_rounds_up_to() {
        let reported = |nanos: u64| {
            let h = super::LatencyHistogram::default();
            h.record(Duration::from_nanos(nanos));
            h.percentile(1.0)
        };
        assert_eq!(reported(1_024), Duration::from_nanos(1_024));
        assert_eq!(reported(1_025), Duration::from_nanos(2_048));
        // Bucket 0 (upper bound 1 ns) holds 0 ns and 1 ns.
        assert_eq!(reported(0), Duration::from_nanos(1));
        assert_eq!(reported(1), Duration::from_nanos(1));
    }

    #[test]
    fn the_registry_visits_link_totals_then_latencies_by_kind() {
        let t = pong_transport();
        t.send(&env(0, 1, Duration::from_secs(1))).unwrap();
        t.send(&env(2, 1, Duration::from_secs(1))).unwrap();
        let stats = t.stats();
        stats.record_latency("ping", Duration::from_micros(10));
        stats.record_latency("ping", Duration::from_micros(20));
        stats.record_latency("ingest", Duration::from_micros(5));
        let mut rows = Vec::new();
        stats.visit(&mut |name, v| rows.push((name.to_owned(), v)));
        assert_eq!(rows[0], ("sent".to_owned(), 2), "summed across links");
        let names: Vec<&str> = rows.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names[5..],
            [
                "latency.ingest.count",
                "latency.ingest.p50_ns",
                "latency.ingest.p95_ns",
                "latency.ingest.p99_ns",
                "latency.ping.count",
                "latency.ping.p50_ns",
                "latency.ping.p95_ns",
                "latency.ping.p99_ns",
            ]
        );
        assert_eq!(rows[9].1, 2);
        assert!(rows[12].1 >= rows[10].1, "p99 >= p50");
    }

    #[test]
    fn per_link_stats_are_directed() {
        let t = pong_transport();
        t.registry().bind(ServerId(2), |_| Ok(Response::Pong));
        t.send(&env(0, 1, Duration::from_secs(1))).unwrap();
        t.send(&env(0, 1, Duration::from_secs(1))).unwrap();
        t.send(&env(1, 2, Duration::from_secs(1))).unwrap();
        let links: HashMap<_, _> = t.stats().per_link().into_iter().collect();
        assert_eq!(links[&(ServerId(0), ServerId(1))].sent, 2);
        assert_eq!(links[&(ServerId(1), ServerId(2))].sent, 1);
        assert!(!links.contains_key(&(ServerId(1), ServerId(0))));
        assert_eq!(t.stats().totals().sent, 3);
    }
}
