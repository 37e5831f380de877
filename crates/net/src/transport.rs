//! The pluggable transport and its in-process production implementation.
//!
//! [`Transport`] is the single seam every cross-server hop goes through:
//! it accepts an [`Envelope`] and returns a [`Pending`] answer — the
//! destination's [`Response`] or a delivery error, already in or still on
//! its way — so a sender may keep working while its request is on the wire
//! (the dispatcher's one in-flight batch per link). [`InProcTransport`] is
//! the embedded deployment's
//! implementation — direct handler invocation dressed with the properties
//! of a real network:
//!
//! * **per-link latency/jitter** from a [`LinkProfile`] (the message-plane
//!   analogue of the SimDfs [`LatencyModel`](waterwheel_cluster::LatencyModel));
//! * **injectable faults**: probabilistic request loss, deterministic
//!   link cut-off after N messages (`drop_after`), and directed partitions;
//! * **cluster liveness**: a destination placed on a dead node (the
//!   cluster's failure-injection hook) is unreachable;
//! * **per-link [`RpcStats`]** (sent/retried/timed-out/unreachable/bytes).
//!
//! Most faults are *request* faults: a lost or late message fails
//! **before** the destination handler runs, so retrying such a failure can
//! never duplicate a side effect. [`LinkProfile::response_loss`] is the
//! exception — it drops the *ack after the handler already ran*, turning a
//! retry into a genuine redelivery. That is exactly the at-least-once
//! hazard real networks have, and it is why the batched ingest path tags
//! every `IngestBatch` with a sequence number the receiver dedups on (the
//! "retries make faults invisible, never duplicated tuples" oracle tests
//! exercise both fault classes). [`TcpTransport`](crate::TcpTransport)
//! implements the same trait over real sockets; both share a
//! [`HandlerRegistry`] so the servers bound behind them are identical, and
//! both charge the per-link byte counters with **real encoded frame
//! lengths** from [`wire`](crate::wire) — the stats of an embedded run and
//! a networked run describe the same traffic.

use crate::envelope::{Envelope, Request, Response};
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use waterwheel_cluster::Cluster;
use waterwheel_core::{CounterRegistry, Counters, Result, ServerId, WwError};

/// A message handler bound at a destination address.
pub type Handler = Arc<dyn Fn(&Envelope) -> Result<Response> + Send + Sync>;

/// RAII admission token: proof that an [`AdmissionControl`] accepted a
/// request. Dropping the permit releases whatever capacity (in-flight
/// slot, queue position) the controller reserved for it.
pub struct AdmissionPermit(Option<Box<dyn FnOnce() + Send>>);

impl AdmissionPermit {
    /// A permit that runs `release` when dropped.
    pub fn new(release: impl FnOnce() + Send + 'static) -> Self {
        Self(Some(Box::new(release)))
    }

    /// A permit with nothing to release (rate-limit-only admission).
    pub fn unguarded() -> Self {
        Self(None)
    }
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        if let Some(release) = self.0.take() {
            release();
        }
    }
}

impl std::fmt::Debug for AdmissionPermit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionPermit")
            .field("guarded", &self.0.is_some())
            .finish()
    }
}

/// Admission decision made before a destination handler runs.
///
/// Implementations (the server crate's token-bucket + bounded-queue
/// controller) decide per envelope; a shed request fails with
/// [`WwError::Overloaded`] *before* the handler runs, so retrying it can
/// never duplicate a side effect. Installed on a [`HandlerRegistry`], it
/// covers every front-end dispatching that registry — in-proc and TCP.
pub trait AdmissionControl: Send + Sync {
    /// Admits or sheds `env`. An `Err` (typically
    /// [`WwError::Overloaded`]) travels back to the sender as an answer;
    /// on `Ok` the returned permit must live for the handler's duration.
    fn admit(&self, env: &Envelope) -> Result<AdmissionPermit>;
}

/// The set of handlers serving a process's addresses, shared by every
/// transport front-end (in-proc delivery and the TCP listener dispatch the
/// same registry, so a server behaves identically however it is reached) —
/// and, beside them, the process's [`CounterRegistry`]: roles register
/// their counter sets when they bind their handlers, and the registry
/// itself answers [`Request::Stats`] from them at every bound address.
#[derive(Default)]
pub struct HandlerRegistry {
    handlers: RwLock<HashMap<ServerId, Handler>>,
    admission: RwLock<Option<Arc<dyn AdmissionControl>>>,
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

    /// Unbinds every handler, the admission controller and every counter
    /// set. Handlers hold their servers, and servers hold the plane that
    /// delivers to this registry; a deployment being torn down calls this
    /// to break that cycle, so its servers — and the threads they own —
    /// are released.
    pub fn clear(&self) {
        let handlers = std::mem::take(&mut *self.handlers.write());
        *self.admission.write() = None;
        self.counters.clear();
        // Dropped outside the lock: releasing the last handle on a server
        // may join its threads.
        drop(handlers);
    }

    /// The addresses currently bound.
    pub fn bound(&self) -> Vec<ServerId> {
        self.handlers.read().keys().copied().collect()
    }

    /// Installs the admission controller consulted by [`dispatch`](Self::dispatch)
    /// before any handler runs.
    pub fn set_admission(&self, admission: Arc<dyn AdmissionControl>) {
        *self.admission.write() = Some(admission);
    }

    /// Full server-side dispatch for one envelope: admission check, then
    /// the bound handler. The TCP server's workers and the in-proc
    /// transport both deliver through this path, so shed semantics are
    /// identical across deployments.
    pub fn dispatch(&self, env: &Envelope) -> Result<Response> {
        self.dispatch_bound(env).unwrap_or_else(|| Err(unbound()))
    }

    /// [`dispatch`](Self::dispatch), with `None` when nothing is bound at
    /// the destination — which a transport counts as a delivery fault,
    /// unlike an `Unreachable` a handler answered with.
    fn dispatch_bound(&self, env: &Envelope) -> Option<Result<Response>> {
        let handler = self.get(env.dst)?;
        // Admission runs only when a handler exists (an unbound destination
        // is unreachable, not overloaded); the permit is held for the
        // handler's duration.
        let run = || {
            let admission = self.admission.read().clone();
            let _permit = admission.map(|a| a.admit(env)).transpose()?;
            match env.payload {
                Request::Stats => Ok(Response::Stats(self.counters.snapshot())),
                _ => handler(env),
            }
        };
        Some(run())
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
        let idx = (64 - nanos.leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Total recorded observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The `q`-quantile (`0.0..=1.0`) as the matched bucket's upper
    /// bound; zero when nothing was recorded.
    pub fn percentile(&self, q: f64) -> Duration {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return Duration::ZERO;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (idx, c) in counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Duration::from_nanos(1u64 << idx);
            }
        }
        Duration::from_nanos(1u64 << (LATENCY_BUCKETS - 1))
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

/// The in-process transport: channels-with-faults over direct handlers.
pub struct InProcTransport {
    handlers: Arc<HandlerRegistry>,
    default_profile: RwLock<LinkProfile>,
    link_profiles: RwLock<HashMap<(ServerId, ServerId), LinkProfile>>,
    /// Directed partitions: `(src, dst)` pairs that cannot communicate.
    partitions: RwLock<HashSet<(ServerId, ServerId)>>,
    /// Node-liveness hook: a destination placed on a dead cluster node is
    /// unreachable.
    cluster: Option<Cluster>,
    stats: Arc<RpcStatsRegistry>,
    rng: AtomicU64,
}

impl InProcTransport {
    /// A fault-free, zero-latency transport; `cluster` enables the
    /// node-liveness hook for servers placed on simulated nodes.
    pub fn new(cluster: Option<Cluster>) -> Self {
        Self::with_registry(cluster, Arc::new(HandlerRegistry::new()))
    }

    /// A transport delivering to an externally owned registry — the same
    /// registry a TCP listener can serve, so one set of bound servers
    /// answers over both planes.
    pub fn with_registry(cluster: Option<Cluster>, handlers: Arc<HandlerRegistry>) -> Self {
        Self {
            handlers,
            default_profile: RwLock::new(LinkProfile::default()),
            link_profiles: RwLock::new(HashMap::new()),
            partitions: RwLock::new(HashSet::new()),
            cluster,
            stats: Arc::default(),
            rng: AtomicU64::new(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// Binds (or replaces) the handler serving `dst`.
    pub fn bind(
        &self,
        dst: ServerId,
        handler: impl Fn(&Envelope) -> Result<Response> + Send + Sync + 'static,
    ) {
        self.handlers.bind(dst, handler);
    }

    /// The handler registry this transport delivers to.
    pub fn registry(&self) -> &Arc<HandlerRegistry> {
        &self.handlers
    }

    /// Installs the profile applied to links without a specific one.
    pub fn set_default_profile(&self, profile: LinkProfile) {
        *self.default_profile.write() = profile;
    }

    /// Installs a profile for one directed link, overriding the default.
    pub fn set_link_profile(&self, src: ServerId, dst: ServerId, profile: LinkProfile) {
        self.link_profiles.write().insert((src, dst), profile);
    }

    /// Cuts the directed link `src → dst` (network partition injection).
    pub fn partition(&self, src: ServerId, dst: ServerId) {
        self.partitions.write().insert((src, dst));
    }

    /// Heals a previously cut link.
    pub fn heal(&self, src: ServerId, dst: ServerId) {
        self.partitions.write().remove(&(src, dst));
    }

    /// Heals every partition and removes every fault profile.
    pub fn clear_faults(&self) {
        self.partitions.write().clear();
        self.link_profiles.write().clear();
        *self.default_profile.write() = LinkProfile::default();
    }

    fn profile_for(&self, src: ServerId, dst: ServerId) -> LinkProfile {
        match self.link_profiles.read().get(&(src, dst)) {
            Some(p) => *p,
            None => *self.default_profile.read(),
        }
    }

    /// Deterministic uniform draw in `[0, 1)` (SplitMix64).
    fn draw(&self) -> f64 {
        let mut z = self
            .rng
            .fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed)
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    fn deliver(&self, env: &Envelope) -> Result<Response> {
        let link = self.stats.link(env.src, env.dst);
        let n_sent = link.sent.fetch_add(1, Ordering::Relaxed) + 1;
        // Charge the byte counter with the real encoded frame length — the
        // exact bytes TcpTransport would put on a socket for this envelope
        // — sized without building the frame.
        link.bytes.fetch_add(
            crate::wire::request_frame_len(env) as u64,
            Ordering::Relaxed,
        );

        if self.partitions.read().contains(&(env.src, env.dst)) {
            link.unreachable.fetch_add(1, Ordering::Relaxed);
            return Err(WwError::Unreachable("link partitioned"));
        }
        if let Some(cluster) = &self.cluster {
            if let Some(node) = cluster.node_of(env.dst) {
                if !cluster.is_alive(node) {
                    link.unreachable.fetch_add(1, Ordering::Relaxed);
                    return Err(WwError::Unreachable("destination node is down"));
                }
            }
        }
        let profile = self.profile_for(env.src, env.dst);
        if profile.drop_after.is_some_and(|n| n_sent > n) {
            link.timed_out.fetch_add(1, Ordering::Relaxed);
            return Err(WwError::Timeout("link stopped delivering (drop_after)"));
        }
        if profile.loss > 0.0 && self.draw() < profile.loss {
            link.timed_out.fetch_add(1, Ordering::Relaxed);
            return Err(WwError::Timeout("request lost in transit"));
        }
        let mut delay = profile.latency;
        if !profile.jitter.is_zero() {
            delay += profile.jitter.mul_f64(self.draw());
        }
        // A message that would arrive past the deadline fails without
        // reaching the destination — the sender has already given up, so
        // delivering it would only risk duplicated side effects. The wait
        // itself is simulated (no sleep), keeping fault tests fast.
        if delay > env.deadline.saturating_duration_since(Instant::now()) {
            link.timed_out.fetch_add(1, Ordering::Relaxed);
            return Err(WwError::Timeout("transit exceeded the deadline"));
        }
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        // A shed, or any error a handler answers with, is an answer from
        // the destination — no fault counters; only an unbound address is
        // a delivery fault.
        let Some(answer) = self.handlers.dispatch_bound(env) else {
            link.unreachable.fetch_add(1, Ordering::Relaxed);
            return Err(unbound());
        };
        let resp = answer?;
        link.bytes.fetch_add(
            crate::wire::response_ok_frame_len(&resp) as u64,
            Ordering::Relaxed,
        );
        // The handler ran — its side effects are real — but the ack
        // never makes it back. The sender sees a timeout and will
        // redeliver, so only idempotent handlers survive this fault.
        if profile.response_loss > 0.0 && self.draw() < profile.response_loss {
            link.timed_out.fetch_add(1, Ordering::Relaxed);
            return Err(WwError::Timeout("response lost in transit"));
        }
        Ok(resp)
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
        let t = InProcTransport::new(None);
        t.bind(ServerId(1), |_| Ok(Response::Pong));
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

    #[test]
    fn partition_cuts_one_direction_only() {
        let t = pong_transport();
        t.bind(ServerId(2), |_| Ok(Response::Pong));
        t.partition(ServerId(0), ServerId(1));
        assert!(matches!(
            t.send(&env(0, 1, Duration::from_secs(1))),
            Err(WwError::Unreachable(_))
        ));
        // Other links unaffected.
        assert!(t.send(&env(0, 2, Duration::from_secs(1))).is_ok());
        assert!(t.send(&env(3, 1, Duration::from_secs(1))).is_ok());
        t.heal(ServerId(0), ServerId(1));
        assert!(t.send(&env(0, 1, Duration::from_secs(1))).is_ok());
    }

    #[test]
    fn loss_drops_requests_before_the_handler_runs() {
        let t = InProcTransport::new(None);
        let calls = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&calls);
        t.bind(ServerId(1), move |_| {
            c.fetch_add(1, Ordering::Relaxed);
            Ok(Response::Pong)
        });
        t.set_default_profile(LinkProfile {
            loss: 0.5,
            ..LinkProfile::default()
        });
        let mut lost = 0;
        for _ in 0..400 {
            match t.send(&env(0, 1, Duration::from_secs(1))) {
                Err(WwError::Timeout(_)) => lost += 1,
                Ok(_) => {}
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!((100..300).contains(&lost), "loss way off 50%: {lost}/400");
        // Every loss happened before the handler: delivered + lost = sent.
        assert_eq!(calls.load(Ordering::Relaxed) + lost, 400);
        assert_eq!(t.stats().totals().timed_out, lost);
    }

    #[test]
    fn response_loss_drops_the_ack_after_the_handler_ran() {
        let t = InProcTransport::new(None);
        let calls = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&calls);
        t.bind(ServerId(1), move |_| {
            c.fetch_add(1, Ordering::Relaxed);
            Ok(Response::Pong)
        });
        t.set_default_profile(LinkProfile {
            response_loss: 1.0,
            ..LinkProfile::default()
        });
        let e = t.send(&env(0, 1, Duration::from_secs(1))).unwrap_err();
        assert!(matches!(e, WwError::Timeout(_)));
        // Unlike request loss, the side effect already happened: the
        // handler ran even though the sender saw a timeout.
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(t.stats().totals().timed_out, 1);
    }

    #[test]
    fn transit_longer_than_deadline_times_out_without_delivery() {
        let t = InProcTransport::new(None);
        let calls = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&calls);
        t.bind(ServerId(1), move |_| {
            c.fetch_add(1, Ordering::Relaxed);
            Ok(Response::Pong)
        });
        t.set_link_profile(
            ServerId(0),
            ServerId(1),
            LinkProfile {
                latency: Duration::from_millis(50),
                ..LinkProfile::default()
            },
        );
        let started = Instant::now();
        let e = t.send(&env(0, 1, Duration::from_millis(1))).unwrap_err();
        assert!(matches!(e, WwError::Timeout(_)));
        assert_eq!(calls.load(Ordering::Relaxed), 0, "handler must not run");
        // The wait is simulated, not slept.
        assert!(started.elapsed() < Duration::from_millis(40));
        // A generous deadline delivers (and genuinely waits).
        assert!(t.send(&env(0, 1, Duration::from_secs(5))).is_ok());
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn drop_after_cuts_the_link_deterministically() {
        let t = pong_transport();
        t.set_link_profile(
            ServerId(0),
            ServerId(1),
            LinkProfile {
                drop_after: Some(3),
                ..LinkProfile::default()
            },
        );
        for _ in 0..3 {
            assert!(t.send(&env(0, 1, Duration::from_secs(1))).is_ok());
        }
        for _ in 0..5 {
            assert!(matches!(
                t.send(&env(0, 1, Duration::from_secs(1))),
                Err(WwError::Timeout(_))
            ));
        }
        // Other source links keep working.
        assert!(t.send(&env(7, 1, Duration::from_secs(1))).is_ok());
    }

    #[test]
    fn dead_cluster_node_makes_its_servers_unreachable() {
        let cluster = Cluster::new(2);
        cluster
            .place_server(ServerId(1), waterwheel_core::NodeId(0))
            .unwrap();
        let t = InProcTransport::new(Some(cluster.clone()));
        t.bind(ServerId(1), |_| Ok(Response::Pong));
        t.bind(ServerId(99), |_| Ok(Response::Pong)); // not placed on a node
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
        let t = pong_transport();
        t.partition(ServerId(0), ServerId(1));
        t.set_default_profile(LinkProfile {
            loss: 1.0,
            ..LinkProfile::default()
        });
        t.clear_faults();
        for _ in 0..20 {
            assert!(t.send(&env(0, 1, Duration::from_secs(1))).is_ok());
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
    }

    #[test]
    fn registry_is_shared_across_transport_frontends() {
        let registry = Arc::new(HandlerRegistry::new());
        registry.bind(ServerId(1), |_| Ok(Response::Pong));
        let t = InProcTransport::with_registry(None, Arc::clone(&registry));
        assert!(t.send(&env(0, 1, Duration::from_secs(1))).is_ok());
        // A handler bound later through either side is visible to both.
        t.bind(ServerId(2), |_| Ok(Response::Ack));
        assert!(registry.get(ServerId(2)).is_some());
        assert!(registry.bound().contains(&ServerId(1)));
    }

    #[test]
    fn admission_sheds_before_the_handler_runs() {
        struct ShedAll {
            released: Arc<AtomicU64>,
        }
        impl super::AdmissionControl for ShedAll {
            fn admit(&self, env: &Envelope) -> Result<super::AdmissionPermit> {
                if matches!(env.payload, Request::Ping) {
                    return Err(WwError::Overloaded {
                        retry_after: Duration::from_millis(7),
                    });
                }
                let released = Arc::clone(&self.released);
                Ok(super::AdmissionPermit::new(move || {
                    released.fetch_add(1, Ordering::Relaxed);
                }))
            }
        }

        let calls = Arc::new(AtomicU64::new(0));
        let released = Arc::new(AtomicU64::new(0));
        let t = InProcTransport::new(None);
        let c = Arc::clone(&calls);
        t.bind(ServerId(1), move |_| {
            c.fetch_add(1, Ordering::Relaxed);
            Ok(Response::Pong)
        });
        t.registry().set_admission(Arc::new(ShedAll {
            released: Arc::clone(&released),
        }));

        // Shed: typed Overloaded, handler never ran, no fault counters.
        let e = t.send(&env(0, 1, Duration::from_secs(1))).unwrap_err();
        assert!(matches!(e, WwError::Overloaded { .. }), "got {e}");
        assert_eq!(e.retry_after(), Some(Duration::from_millis(7)));
        assert!(e.is_retryable());
        assert_eq!(calls.load(Ordering::Relaxed), 0);
        let totals = t.stats().totals();
        assert_eq!(totals.timed_out + totals.unreachable, 0);

        // Admitted: the permit is released after the handler completes.
        let mut admitted = env(0, 1, Duration::from_secs(1));
        admitted.payload = Request::Flush;
        // Flush is unhandled payload-wise but the bound handler accepts
        // any envelope; the permit release must have fired exactly once.
        t.send(&admitted).unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(released.load(Ordering::Relaxed), 1);

        // Unbound destinations shed as Unreachable, not Overloaded.
        let mut unbound = env(0, 9, Duration::from_secs(1));
        unbound.payload = Request::Flush;
        let e = t.send(&unbound).unwrap_err();
        assert!(matches!(e, WwError::Unreachable(_)));
    }

    #[test]
    fn registry_dispatch_applies_admission_and_binding() {
        let registry = Arc::new(HandlerRegistry::new());
        registry.bind(ServerId(1), |_| Ok(Response::Pong));
        let e = env(0, 1, Duration::from_secs(1));
        assert!(matches!(registry.dispatch(&e), Ok(Response::Pong)));
        let missing = env(0, 5, Duration::from_secs(1));
        assert!(matches!(
            registry.dispatch(&missing),
            Err(WwError::Unreachable(_))
        ));

        struct ShedAll;
        impl super::AdmissionControl for ShedAll {
            fn admit(&self, _env: &Envelope) -> Result<super::AdmissionPermit> {
                Err(WwError::Overloaded {
                    retry_after: Duration::from_millis(1),
                })
            }
        }
        registry.set_admission(Arc::new(ShedAll));
        assert!(matches!(
            registry.dispatch(&env(0, 1, Duration::from_secs(1))),
            Err(WwError::Overloaded { .. })
        ));
        // Unbound stays unreachable even under full shed.
        assert!(matches!(
            registry.dispatch(&env(0, 5, Duration::from_secs(1))),
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
        t.bind(ServerId(2), |_| Ok(Response::Pong));
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
