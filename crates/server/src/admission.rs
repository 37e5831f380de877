//! Admission control: decide *before a handler runs* whether a request
//! may enter the system, and shed the rest with typed
//! [`WwError::Overloaded`] answers carrying a retry-after hint.
//!
//! Waterwheel's ingest path must keep absorbing the stream even when
//! query load spikes (the paper's realtime-indexing guarantee), so the
//! controller is class-aware rather than a single global gate:
//!
//! * **Control** traffic (ping, shutdown, `Stats` scrapes) is always
//!   admitted — liveness probes and scrapes must answer precisely when the
//!   system is busiest.
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
//! TCP server's worker pool — one policy, every deployment shape. The
//! classes are [`Request::class`](waterwheel_net::Request::class), the
//! same ones the TCP worker bands follow.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use waterwheel_core::{Result, ServerId, SystemConfig, WwError};
use waterwheel_net::{AdmissionControl, AdmissionPermit, Envelope, HandlerRegistry, RequestClass};

/// One source's token bucket: refilled at `client_rate_limit` tokens per
/// second up to `client_rate_burst`.
struct TokenBucket {
    tokens: f64,
    last_refill: Instant,
}

waterwheel_core::counters! {
    /// The admission layer's counters (`admission.*`).
    pub struct AdmissionStats {
        /// Requests that passed admission.
        admitted,
        /// Requests shed with an `Overloaded` answer.
        shed,
        /// Requests currently holding a permit.
        inflight,
        /// High-water mark of concurrently held permits.
        inflight_peak,
    }
}

/// The class-aware, rate-limiting admission controller installed on the
/// system's [`HandlerRegistry`].
pub struct AdmissionController {
    max_inflight: u64,
    retry_after: Duration,
    rate_limit: u64,
    rate_burst: u64,
    stats: Arc<AdmissionStats>,
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
            stats: Arc::default(),
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// Guards `registry` with a controller built from `cfg` and registers
    /// its counters there: every deployment shape (in-proc, TCP loopback,
    /// multi-process nodes) sheds — and reports sheds — identically.
    pub fn install(registry: &HandlerRegistry, cfg: &SystemConfig) {
        let controller = Self::new(cfg);
        registry
            .counters()
            .register("admission", None, controller.stats.clone());
        registry.set_admission(Arc::new(controller));
    }

    /// The in-flight ceiling for `class`, as a share of the global budget.
    fn budget(&self, class: RequestClass) -> u64 {
        match class {
            RequestClass::Control => u64::MAX,
            RequestClass::Ingest => self.max_inflight,
            RequestClass::Query => (self.max_inflight * 3) / 4,
            RequestClass::Metadata => self.max_inflight / 2,
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
        self.stats.shed.fetch_add(1, Ordering::Relaxed);
        WwError::Overloaded { retry_after }
    }
}

impl AdmissionControl for AdmissionController {
    fn admit(&self, env: &Envelope) -> Result<AdmissionPermit> {
        let class = env.payload.class();
        if class == RequestClass::Control {
            self.stats.admitted.fetch_add(1, Ordering::Relaxed);
            return Ok(AdmissionPermit::unguarded());
        }
        if let Err(wait) = self.take_token(env.src) {
            return Err(self.shed_with(wait));
        }
        // Optimistically claim an in-flight slot, backing out on overrun;
        // the permit's drop releases it when the handler finishes.
        let claimed = self.stats.inflight.fetch_add(1, Ordering::AcqRel) + 1;
        if claimed > self.budget(class) {
            self.stats.inflight.fetch_sub(1, Ordering::AcqRel);
            return Err(self.shed_with(self.retry_after));
        }
        self.stats
            .inflight_peak
            .fetch_max(claimed, Ordering::AcqRel);
        self.stats.admitted.fetch_add(1, Ordering::Relaxed);
        let stats = Arc::clone(&self.stats);
        Ok(AdmissionPermit::new(move || {
            stats.inflight.fetch_sub(1, Ordering::AcqRel);
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;
    use waterwheel_net::{Request, Response};

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
        let load = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
        assert_eq!(load(&ctl.stats.shed), 1);
        assert_eq!(
            load(&ctl.stats.inflight),
            1,
            "dropped permits released their slots"
        );
        assert!(load(&ctl.stats.inflight_peak) >= 4);
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
    fn an_installed_controller_sheds_queries_but_answers_a_scrape() {
        let registry = HandlerRegistry::new();
        registry.bind(ServerId(1), |_| Ok(Response::Ack));
        // Budget 0: nothing but control traffic fits.
        AdmissionController::install(&registry, &cfg(0));
        let shed = registry.dispatch(&env(0, Request::Flush)).unwrap_err();
        assert!(matches!(shed, WwError::Overloaded { .. }));
        // The scrape is admitted while everything else is being shed, and
        // reports the shed.
        let rows = registry
            .dispatch(&env(0, Request::Stats))
            .unwrap()
            .into_stats()
            .unwrap();
        let shed = rows.iter().find(|r| r.name == "admission.shed").unwrap();
        assert_eq!((shed.server, shed.value), (None, 1));
    }
}
