//! Retrying RPC client: deadlines, bounded retry, stats.
//!
//! An [`RpcClient`] is one sender's handle onto the message plane. Each
//! `call` — or `start`, whose [`PendingCall`] is waited for later — stamps
//! a fresh per-attempt deadline from [`SystemConfig::rpc_timeout`], and
//! retries **only** delivery failures
//! ([`WwError::is_retryable`](waterwheel_core::WwError::is_retryable): timeout/unreachable/overloaded) up to
//! [`SystemConfig::rpc_retries`] extra attempts. A lost or late attempt is
//! retried at once; when the destination shed the request with
//! [`WwError::Overloaded`](waterwheel_core::WwError::Overloaded), the client first sleeps the server's retry-after
//! hint — its own estimate of when capacity returns — times a *jitter* (a
//! uniform factor in `[0.5, 1.5)`) that decorrelates the retry storms of
//! many clients shed at the same instant. Errors produced by the
//! destination itself (an injected crash, a missing chunk) are answers, not
//! delivery failures, and propagate immediately.
//!
//! Every completed call (answered or failed) is also recorded in the
//! transport's per-request-kind latency histograms
//! ([`RpcStatsRegistry::record_latency`](crate::RpcStatsRegistry::record_latency)),
//! so `SystemMetrics` can report p50/p95/p99 per RPC kind.
//!
//! A retried attempt is *usually* a fresh delivery: most injected faults
//! (loss, late transit, partitions) fail the attempt before the handler
//! ran. But [`LinkProfile::response_loss`](crate::LinkProfile) loses the
//! ack *after* the handler ran, so a retry can redeliver a request whose
//! side effects already happened — at-least-once delivery. Handlers with
//! side effects must therefore be idempotent; the ingest-batch handler
//! dedups on the batch sequence number carried in
//! [`Request::IngestBatch`] for exactly this
//! reason.

use crate::envelope::{Envelope, Request, Response};
use crate::transport::{Pending, Transport};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use waterwheel_core::{Result, ServerId, SystemConfig};

/// A sender's handle onto the message plane; cheap to clone.
#[derive(Clone)]
pub struct RpcClient {
    transport: Arc<dyn Transport>,
    src: ServerId,
    timeout: Duration,
    retries: u32,
    next_rpc_id: Arc<AtomicU64>,
}

impl RpcClient {
    /// A client sending as `src` with the config's deadline/retry policy.
    pub fn new(transport: Arc<dyn Transport>, src: ServerId, cfg: &SystemConfig) -> Self {
        Self {
            transport,
            src,
            timeout: cfg.rpc_timeout,
            retries: cfg.rpc_retries,
            next_rpc_id: Arc::new(AtomicU64::new(1)),
        }
    }

    /// The address this client sends as.
    pub fn src(&self) -> ServerId {
        self.src
    }

    /// The underlying transport (for stats and fault injection).
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    /// Sends `req` to `dst`, retrying delivery failures per the policy.
    /// The whole call (retries included) is recorded in the transport's
    /// per-kind latency histogram.
    pub fn call(&self, dst: ServerId, req: Request) -> Result<Response> {
        self.start(dst, req).wait()
    }

    /// Puts `req` on its way to `dst` and returns at once; the answer —
    /// retried per the policy — is collected by [`PendingCall::wait`].
    pub fn start(&self, dst: ServerId, req: Request) -> PendingCall {
        let started = Instant::now();
        let env = Envelope {
            src: self.src,
            dst,
            rpc_id: self.next_rpc_id.fetch_add(1, Ordering::Relaxed),
            deadline: Instant::now() + self.timeout,
            payload: req,
        };
        PendingCall {
            attempt: self.transport.start(&env),
            rpc: self.clone(),
            env,
            started,
        }
    }

    /// Whether `dst` currently answers a liveness probe.
    pub fn ping(&self, dst: ServerId) -> bool {
        matches!(self.call(dst, Request::Ping), Ok(Response::Pong))
    }
}

/// One call started by [`RpcClient::start`]. It keeps the envelope, so a
/// retryable failure is resent — same payload and rpc id, fresh deadline —
/// when the answer is collected.
pub struct PendingCall {
    rpc: RpcClient,
    env: Envelope,
    started: Instant,
    attempt: Pending,
}

impl PendingCall {
    /// Whether the transport answered before `start` returned (see
    /// [`Pending::answered_at_start`]).
    pub fn answered_at_start(&self) -> bool {
        self.attempt.answered_at_start()
    }

    /// Whether the current attempt's answer is in ([`wait`](Self::wait)
    /// may still block if it is a retryable failure).
    pub fn is_ready(&self) -> bool {
        self.attempt.is_ready()
    }

    /// The answer, retrying delivery failures per the client's policy.
    pub fn wait(self) -> Result<Response> {
        let Self {
            rpc,
            mut env,
            started,
            mut attempt,
        } = self;
        let mut retries = 0u32;
        let result = loop {
            match attempt.wait() {
                Err(e) if e.is_retryable() && retries < rpc.retries => {
                    retries += 1;
                    rpc.transport
                        .stats()
                        .link(rpc.src, env.dst)
                        .retried
                        .fetch_add(1, Ordering::Relaxed);
                    // An overloaded destination says when to come back.
                    if let Some(hint) = e.retry_after() {
                        let seed =
                            env.rpc_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(retries);
                        std::thread::sleep(hint.mul_f64(jitter_factor(seed)));
                    }
                    env.deadline = Instant::now() + rpc.timeout;
                    attempt = rpc.transport.start(&env);
                }
                answer => break answer,
            }
        };
        rpc.transport
            .stats()
            .record_latency(env.payload.kind(), started.elapsed());
        result
    }
}

/// A uniform backoff multiplier in `[0.5, 1.5)` from a SplitMix64 draw,
/// so simultaneous failures don't retry in lockstep.
fn jitter_factor(seed: u64) -> f64 {
    let z = waterwheel_core::mix64(seed.wrapping_add(0x9E37_79B9_7F4A_7C15));
    0.5 + (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{FaultPlane, InProcTransport, LinkProfile};
    use waterwheel_core::WwError;

    /// A client on a fault layer over an in-process plane; handlers bind
    /// on the plane.
    fn rig(retries: u32) -> (Arc<InProcTransport>, Arc<FaultPlane>, RpcClient) {
        let t = Arc::new(InProcTransport::with_registry(None, Arc::default()));
        let faults = Arc::new(FaultPlane::new(Arc::clone(&t) as Arc<dyn Transport>));
        let cfg = SystemConfig {
            rpc_retries: retries,
            ..SystemConfig::default()
        };
        let client = RpcClient::new(Arc::clone(&faults) as Arc<dyn Transport>, ServerId(0), &cfg);
        (t, faults, client)
    }

    #[test]
    fn retries_mask_transient_loss() {
        let (t, faults, client) = rig(30);
        t.registry().bind(ServerId(1), |_| Ok(Response::Pong));
        faults.set_default_profile(LinkProfile {
            loss: 0.5,
            ..LinkProfile::default()
        });
        // With 30 retries a 50% loss link still answers every call
        // (P(fail) = 0.5^31 per call).
        for _ in 0..50 {
            client.call(ServerId(1), Request::Ping).unwrap();
        }
        let totals = t.stats().totals();
        assert!(totals.retried > 0, "some attempts must have been retried");
        assert_eq!(totals.retried, totals.timed_out);
    }

    #[test]
    fn retry_budget_is_bounded() {
        let (t, faults, client) = rig(2);
        t.registry().bind(ServerId(1), |_| Ok(Response::Pong));
        faults.set_default_profile(LinkProfile {
            loss: 1.0,
            ..LinkProfile::default()
        });
        let e = client.call(ServerId(1), Request::Ping).unwrap_err();
        assert!(matches!(e, WwError::Timeout(_)));
        let totals = t.stats().totals();
        assert_eq!(totals.sent, 3, "1 attempt + 2 retries");
        assert_eq!(totals.retried, 2);
    }

    #[test]
    fn destination_errors_are_not_retried() {
        let (t, _, client) = rig(5);
        t.registry()
            .bind(ServerId(1), |_| Err(WwError::Injected("server down")));
        let e = client.call(ServerId(1), Request::Ping).unwrap_err();
        assert!(matches!(e, WwError::Injected(_)));
        assert_eq!(t.stats().totals().sent, 1, "answers are never retried");
        assert_eq!(t.stats().totals().retried, 0);
    }

    #[test]
    fn ping_reports_liveness() {
        let (t, _, client) = rig(0);
        t.registry().bind(ServerId(1), |_| Ok(Response::Pong));
        t.registry()
            .bind(ServerId(2), |_| Err(WwError::Injected("crashed")));
        assert!(client.ping(ServerId(1)));
        assert!(!client.ping(ServerId(2)), "crashed server fails the probe");
        assert!(!client.ping(ServerId(9)), "unbound address fails the probe");
    }

    #[test]
    fn jittered_backoff_stays_within_half_to_three_halves() {
        for seed in 0..4096u64 {
            let f = jitter_factor(seed);
            assert!((0.5..1.5).contains(&f), "seed {seed} drew {f}");
        }
        // And it actually varies.
        assert_ne!(jitter_factor(1), jitter_factor(2));
    }

    #[test]
    fn overloaded_retries_wait_at_least_half_the_hint() {
        let (t, _, client) = rig(3);
        let calls = Arc::new(AtomicU64::new(0));
        let n = Arc::clone(&calls);
        t.registry().bind(ServerId(1), move |_| {
            if n.fetch_add(1, Ordering::Relaxed) == 0 {
                Err(WwError::Overloaded {
                    retry_after: Duration::from_millis(80),
                })
            } else {
                Ok(Response::Pong)
            }
        });
        let started = Instant::now();
        client.call(ServerId(1), Request::Ping).unwrap();
        // The jittered sleep is at least 0.5 × the 80ms retry-after hint.
        assert!(
            started.elapsed() >= Duration::from_millis(40),
            "retry must respect the shed hint, took {:?}",
            started.elapsed()
        );
        assert_eq!(calls.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn calls_record_latency_per_request_kind() {
        let (t, _, client) = rig(0);
        t.registry().bind(ServerId(1), |_| Ok(Response::Pong));
        client.call(ServerId(1), Request::Ping).unwrap();
        client.call(ServerId(1), Request::Ping).unwrap();
        client.call(ServerId(1), Request::Flush).unwrap();
        let mut rows = std::collections::HashMap::new();
        waterwheel_core::Counters::visit(&**t.stats(), &mut |name, v| {
            rows.insert(name.to_owned(), v);
        });
        assert_eq!(rows["latency.ping.count"], 2);
        assert!(rows["latency.ping.p99_ns"] >= rows["latency.ping.p50_ns"]);
        assert_eq!(rows["latency.flush.count"], 1);
    }

    #[test]
    fn rpc_ids_are_unique_but_stable_across_retries() {
        let (t, _, client) = rig(3);
        let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let s = Arc::clone(&seen);
        t.registry().bind(ServerId(1), move |env| {
            s.lock().push(env.rpc_id);
            Ok(Response::Pong)
        });
        client.call(ServerId(1), Request::Ping).unwrap();
        client.call(ServerId(1), Request::Ping).unwrap();
        let ids = seen.lock().clone();
        assert_eq!(ids.len(), 2);
        assert_ne!(ids[0], ids[1]);
    }
}
