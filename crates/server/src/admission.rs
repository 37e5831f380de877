//! Admission control: decide *before a handler runs* whether a request
//! may enter the system, and shed the rest with typed
//! [`WwError::Overloaded`] answers carrying a retry-after hint.
//!
//! Waterwheel's ingest path must keep absorbing the stream even when
//! query load spikes (the paper's realtime-indexing guarantee), so the
//! controller is class-aware rather than a single global gate:
//!
//! * **Control** traffic (ping, shutdown) is always admitted — liveness
//!   probes must answer precisely when the system is busiest.
//! * **Ingest** may use the full in-flight budget
//!   ([`SystemConfig::admission_max_inflight`]).
//! * **Query** is capped at 75% of the budget, so a query storm cannot
//!   starve ingest of the last quarter.
//! * **Metadata** is capped at 50% — it is the most retryable traffic.
//!
//! On top of the shared in-flight budget, each *source* server can be
//! rate-limited by a token bucket
//! ([`SystemConfig::client_rate_limit`]/[`SystemConfig::client_rate_burst`]):
//! a single runaway client exhausts its own bucket, not the cluster.
//! Rate-limit sheds hint the time until the next token matures; budget
//! sheds hint [`SystemConfig::admission_retry_after`].
//!
//! The controller implements the net layer's
//! [`AdmissionControl`] seam, so it guards the [`HandlerRegistry`]
//! (`registry.dispatch`) identically for the in-proc transport and the
//! TCP server's worker pool — one policy, every deployment shape.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use waterwheel_core::{Result, ServerId, SystemConfig, WwError};
use waterwheel_net::{AdmissionControl, AdmissionPermit, Envelope, Request};

/// Which budget class a request is admitted under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    /// Liveness and lifecycle traffic: always admitted.
    Control,
    /// Tuple ingestion and flushes: full budget.
    Ingest,
    /// Subqueries, aggregates, summary reads: 75% of the budget.
    Query,
    /// Metadata calls: 50% of the budget.
    Metadata,
}

fn classify(req: &Request) -> Class {
    match req {
        Request::Ping
        | Request::Shutdown
        | Request::RegisterPeers { .. }
        | Request::Reassign { .. }
        | Request::MigrateUniform => Class::Control,
        Request::IngestBatch { .. } | Request::Flush => Class::Ingest,
        Request::InMemorySubquery { .. }
        | Request::AggregateInMemory { .. }
        | Request::ChunkSubquery { .. }
        | Request::ReadSummary { .. }
        | Request::ClientQuery { .. }
        | Request::ClientAggregate { .. } => Class::Query,
        Request::Meta(_) => Class::Metadata,
    }
}

/// One source's token bucket: refilled at `client_rate_limit` tokens per
/// second up to `client_rate_burst`.
struct TokenBucket {
    tokens: f64,
    last_refill: Instant,
}

/// Counters the admission layer exposes to `SystemMetrics`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdmissionTotals {
    /// Requests that passed admission.
    pub admitted: u64,
    /// Requests shed with an `Overloaded` answer.
    pub shed: u64,
    /// Requests currently holding a permit.
    pub inflight: u64,
    /// High-water mark of concurrently held permits.
    pub inflight_peak: u64,
}

/// The class-aware, rate-limiting admission controller installed on the
/// system's [`HandlerRegistry`](waterwheel_net::HandlerRegistry).
pub struct AdmissionController {
    max_inflight: u64,
    retry_after: Duration,
    rate_limit: u64,
    rate_burst: u64,
    inflight: std::sync::Arc<AtomicU64>,
    inflight_peak: std::sync::Arc<AtomicU64>,
    admitted: AtomicU64,
    shed: AtomicU64,
    buckets: Mutex<HashMap<ServerId, TokenBucket>>,
}

impl AdmissionController {
    /// A controller with the config's budgets and rate limits.
    pub fn new(cfg: &SystemConfig) -> Self {
        Self {
            max_inflight: cfg.admission_max_inflight as u64,
            retry_after: cfg.admission_retry_after,
            rate_limit: cfg.client_rate_limit,
            rate_burst: cfg.client_rate_burst.max(1),
            inflight: std::sync::Arc::new(AtomicU64::new(0)),
            inflight_peak: std::sync::Arc::new(AtomicU64::new(0)),
            admitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// Snapshot of the admission counters.
    pub fn totals(&self) -> AdmissionTotals {
        AdmissionTotals {
            admitted: self.admitted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            inflight: self.inflight.load(Ordering::Relaxed),
            inflight_peak: self.inflight_peak.load(Ordering::Relaxed),
        }
    }

    /// The in-flight ceiling for `class`, as a share of the global budget.
    fn budget(&self, class: Class) -> u64 {
        match class {
            Class::Control => u64::MAX,
            Class::Ingest => self.max_inflight,
            Class::Query => (self.max_inflight * 3) / 4,
            Class::Metadata => self.max_inflight / 2,
        }
    }

    /// Takes one token from `src`'s bucket, or reports how long until
    /// the next token matures.
    fn take_token(&self, src: ServerId) -> std::result::Result<(), Duration> {
        if self.rate_limit == 0 {
            return Ok(());
        }
        let mut buckets = self.buckets.lock().unwrap();
        let now = Instant::now();
        let bucket = buckets.entry(src).or_insert_with(|| TokenBucket {
            tokens: self.rate_burst as f64,
            last_refill: now,
        });
        let elapsed = now.duration_since(bucket.last_refill).as_secs_f64();
        bucket.tokens =
            (bucket.tokens + elapsed * self.rate_limit as f64).min(self.rate_burst as f64);
        bucket.last_refill = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            Ok(())
        } else {
            let wait = (1.0 - bucket.tokens) / self.rate_limit as f64;
            Err(Duration::from_secs_f64(wait).max(Duration::from_millis(1)))
        }
    }

    fn shed_with(&self, retry_after: Duration) -> WwError {
        self.shed.fetch_add(1, Ordering::Relaxed);
        WwError::Overloaded { retry_after }
    }
}

impl AdmissionControl for AdmissionController {
    fn admit(&self, env: &Envelope) -> Result<AdmissionPermit> {
        let class = classify(&env.payload);
        if class == Class::Control {
            self.admitted.fetch_add(1, Ordering::Relaxed);
            return Ok(AdmissionPermit::unguarded());
        }
        if let Err(wait) = self.take_token(env.src) {
            return Err(self.shed_with(wait));
        }
        // Optimistically claim an in-flight slot, backing out on overrun;
        // the permit's drop releases it when the handler finishes.
        let claimed = self.inflight.fetch_add(1, Ordering::AcqRel) + 1;
        if claimed > self.budget(class) {
            self.inflight.fetch_sub(1, Ordering::AcqRel);
            return Err(self.shed_with(self.retry_after));
        }
        self.inflight_peak.fetch_max(claimed, Ordering::AcqRel);
        self.admitted.fetch_add(1, Ordering::Relaxed);
        let inflight = std::sync::Arc::clone(&self.inflight);
        Ok(AdmissionPermit::new(move || {
            inflight.fetch_sub(1, Ordering::AcqRel);
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;
    use waterwheel_net::Response;

    fn env(src: u32, payload: Request) -> Envelope {
        Envelope {
            src: ServerId(src),
            dst: ServerId(1),
            rpc_id: 0,
            deadline: Instant::now() + Duration::from_secs(5),
            payload,
        }
    }

    fn cfg(max_inflight: usize) -> SystemConfig {
        SystemConfig {
            admission_max_inflight: max_inflight,
            ..SystemConfig::default()
        }
    }

    #[test]
    fn class_budgets_shed_queries_before_ingest() {
        // Budget 4: queries cap at 3, metadata at 2, ingest at 4.
        let ctl = AdmissionController::new(&cfg(4));
        let q: Vec<_> = (0..3)
            .map(|_| ctl.admit(&env(0, Request::Flush)).unwrap())
            .collect();
        // Three slots held: a 4th query is over the 75% cap...
        let e = ctl
            .admit(&env(
                0,
                Request::ClientQuery {
                    keys: waterwheel_core::KeyInterval::full(),
                    times: waterwheel_core::TimeInterval::full(),
                    attr_eq: None,
                },
            ))
            .unwrap_err();
        assert!(matches!(e, WwError::Overloaded { .. }));
        // ...but ingest still fits (full budget), and control always does.
        let _i = ctl.admit(&env(0, Request::Flush)).unwrap();
        ctl.admit(&env(0, Request::Ping)).unwrap();
        drop(q);
        let t = ctl.totals();
        assert_eq!(t.shed, 1);
        assert_eq!(t.inflight, 1, "dropped permits released their slots");
        assert!(t.inflight_peak >= 4);
    }

    #[test]
    fn permits_release_on_drop() {
        let ctl = AdmissionController::new(&cfg(1));
        let p = ctl.admit(&env(0, Request::Flush)).unwrap();
        assert!(ctl.admit(&env(0, Request::Flush)).is_err());
        drop(p);
        assert!(ctl.admit(&env(0, Request::Flush)).is_ok());
    }

    #[test]
    fn per_source_buckets_isolate_a_runaway_client() {
        let ctl = AdmissionController::new(&SystemConfig {
            client_rate_limit: 10,
            client_rate_burst: 3,
            ..SystemConfig::default()
        });
        // Source 7 burns its burst...
        for _ in 0..3 {
            ctl.admit(&env(7, Request::Flush)).unwrap();
        }
        let e = ctl.admit(&env(7, Request::Flush)).unwrap_err();
        let hint = e.retry_after().expect("rate sheds carry a hint");
        assert!(hint > Duration::ZERO && hint <= Duration::from_millis(200));
        // ...while source 8 is untouched.
        assert!(ctl.admit(&env(8, Request::Flush)).is_ok());
    }

    #[test]
    fn guards_a_registry_dispatch() {
        use waterwheel_net::HandlerRegistry;
        let registry = std::sync::Arc::new(HandlerRegistry::new());
        registry.bind(ServerId(1), |_| Ok(Response::Ack));
        registry.set_admission(std::sync::Arc::new(AdmissionController::new(&cfg(4096))));
        assert!(registry.dispatch(&env(0, Request::Flush)).is_ok());
    }
}
