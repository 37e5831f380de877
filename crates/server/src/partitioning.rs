//! Adaptive key partitioning (paper §III-D).
//!
//! "A centralized system process periodically calculates the global key
//! frequencies by accumulating values from all dispatchers. If the workload
//! is skewed, e.g., the workload of any indexing server deviates 20 % from
//! the average workload, the process adjusts the global key partitioning to
//! balance the workload."
//!
//! The balancer collects each dispatcher's sampling window, measures the
//! per-indexing-server load imbalance, and — past the threshold — computes
//! new boundaries that equally divide the sampled keys and the ownership
//! moves they imply. It only plans: the one migration driver
//! ([`crate::migration::run`]) installs a plan, and the temporary region
//! overlap that opens is already handled by the metadata server tracking
//! actual regions (§III-D's correctness argument).

use crate::dispatcher::Dispatcher;
use crate::migration::{self, MigrationPlan};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use waterwheel_core::{Key, Result, ServerId};
use waterwheel_index::skew;
use waterwheel_meta::PartitionSchema;
use waterwheel_net::MetaClient;

waterwheel_core::counters! {
    /// Balancer-side counters (`balancer.*`).
    pub struct BalancerStats {
        /// Rounds whose deviation exceeded the threshold but whose samples
        /// were too duplicate-heavy to act on ([`BalanceOutcome::SkippedDegenerate`]).
        skipped_degenerate,
    }
}

/// The centralized repartitioning process.
pub struct PartitionBalancer {
    meta: MetaClient,
    stats: Arc<BalancerStats>,
}

/// Outcome of one balancing round.
#[derive(Debug, PartialEq)]
pub enum BalanceOutcome {
    /// Not enough samples to judge.
    InsufficientData,
    /// Load within the threshold — no change.
    Balanced {
        /// The measured maximum relative deviation.
        deviation: f64,
    },
    /// A new schema version was installed.
    Repartitioned {
        /// The new schema version.
        version: u64,
        /// The measured deviation that triggered the change.
        deviation: f64,
    },
    /// The deviation exceeded the threshold, but the samples were too
    /// duplicate-heavy to produce distinct boundaries (e.g. one hot key) —
    /// the schema was kept. Distinct from [`BalanceOutcome::Balanced`]:
    /// the system *is* skewed, repartitioning just cannot help it.
    SkippedDegenerate {
        /// The measured deviation that could not be acted on.
        deviation: f64,
    },
}

/// Outcome of one planning pass.
#[derive(Debug)]
pub enum PlanOutcome {
    /// Nothing to migrate, and why (any outcome but
    /// [`BalanceOutcome::Repartitioned`]).
    Keep(BalanceOutcome),
    /// A plan worth executing.
    Plan(MigrationPlan),
}

/// Load-imbalance threshold for adaptive key partitioning: repartition when
/// any indexing server's sampled load deviates this fraction from the mean
/// (paper §III-D: 20 %).
pub const IMBALANCE_THRESHOLD: f64 = 0.2;

impl PartitionBalancer {
    /// Creates a balancer repartitioning past [`IMBALANCE_THRESHOLD`].
    pub fn new(meta: MetaClient) -> Self {
        Self {
            meta,
            stats: Arc::default(),
        }
    }

    /// Balancer counters.
    pub fn stats(&self) -> &Arc<BalancerStats> {
        &self.stats
    }

    /// The relative deviation of the most-loaded server from the mean.
    pub fn deviation(counts: &[u64]) -> f64 {
        if counts.is_empty() {
            return 0.0;
        }
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let mean = total as f64 / counts.len() as f64;
        counts
            .iter()
            .map(|&c| (c as f64 - mean).abs() / mean)
            .fold(0.0, f64::max)
    }

    /// Collects the dispatchers' sampling windows, measures the imbalance
    /// over `servers` (the indexing servers to balance across), and — past
    /// the threshold — computes the new schema plus the ownership moves it
    /// implies, **without installing anything**:
    /// [`Gateway::rebalance`](crate::Gateway::rebalance) hands the plan to
    /// the migration driver.
    pub fn plan_round(
        &self,
        dispatchers: &[Arc<Dispatcher>],
        servers: &[ServerId],
    ) -> Result<PlanOutcome> {
        // Accumulate the global key frequencies from all dispatchers.
        let mut keys: Vec<Key> = Vec::new();
        let mut counts: Vec<u64> = vec![0; servers.len()];
        for d in dispatchers {
            let window = d.take_window();
            keys.extend(window.keys);
            for (server, count) in window.per_server {
                if let Some(pos) = servers.iter().position(|&s| s == server) {
                    counts[pos] += count;
                }
            }
        }
        if keys.len() < servers.len() * 8 {
            return Ok(PlanOutcome::Keep(BalanceOutcome::InsufficientData));
        }
        let deviation = Self::deviation(&counts);
        if deviation <= IMBALANCE_THRESHOLD {
            return Ok(PlanOutcome::Keep(BalanceOutcome::Balanced { deviation }));
        }
        // Equal-depth boundaries over the sampled keys.
        keys.sort_unstable();
        let boundaries = skew::equal_depth_boundaries(&keys, servers.len());
        if boundaries.len() + 1 != servers.len() {
            // Duplicate-heavy samples cannot produce enough distinct
            // boundaries; keep the current schema — but report the skew
            // honestly instead of claiming the load is balanced.
            self.stats
                .skipped_degenerate
                .fetch_add(1, Ordering::Relaxed);
            return Ok(PlanOutcome::Keep(BalanceOutcome::SkippedDegenerate {
                deviation,
            }));
        }
        let old = self
            .meta
            .partition()?
            .unwrap_or_else(|| PartitionSchema::uniform(servers));
        let schema = PartitionSchema::from_boundaries(&boundaries, servers, old.version + 1)?;
        let moves = migration::diff_moves(&old, &schema);
        Ok(PlanOutcome::Plan(MigrationPlan {
            schema,
            moves,
            deviation,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::indexing::IndexingServer;
    use crate::migration::MigrationStats;
    use waterwheel_cluster::{Cluster, LatencyModel};
    use waterwheel_core::{SystemConfig, Tuple};
    use waterwheel_meta::MetadataService;
    use waterwheel_mq::{Consumer, MessageQueue};
    use waterwheel_net::{serve_meta, InProcTransport, Request, Response, RpcClient};
    use waterwheel_storage::SimDfs;

    struct Rig {
        mq: MessageQueue,
        meta: MetadataService,
        balancer: PartitionBalancer,
        control: RpcClient,
        dispatchers: Vec<Arc<Dispatcher>>,
        indexing: Vec<Arc<IndexingServer>>,
    }

    impl Rig {
        fn ids(&self) -> Vec<ServerId> {
            self.indexing.iter().map(|s| s.id()).collect()
        }

        fn plan_round(&self) -> PlanOutcome {
            self.balancer
                .plan_round(&self.dispatchers, &self.ids())
                .unwrap()
        }

        /// Runs a plan through the one migration driver.
        fn migrate(&self, plan: &MigrationPlan) {
            let meta = MetaClient::new(self.control.clone());
            let stats = MigrationStats::default();
            migration::run(plan, &meta, &self.dispatchers, &self.control, &stats).unwrap();
        }
    }

    fn rig(name: &str, servers: u32) -> Rig {
        let root = std::env::temp_dir().join(format!("ww-bal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mq = MessageQueue::new();
        mq.create_topic("ingest", servers as usize).unwrap();
        let dfs = SimDfs::new(root, Cluster::new(3), 3, LatencyModel::default()).unwrap();
        let meta = MetadataService::in_memory();
        let cfg = SystemConfig::default();
        let transport = Arc::new(InProcTransport::with_registry(None, Arc::default()));
        serve_meta(transport.registry(), meta.clone());
        let ids: Vec<ServerId> = (0..servers).map(ServerId).collect();
        let schema = PartitionSchema::uniform(&ids);
        meta.set_partition({
            let mut s = schema.clone();
            s.version = 1;
            s
        })
        .unwrap();
        let rpc = |src: ServerId| {
            RpcClient::new(
                Arc::clone(&transport) as Arc<dyn waterwheel_net::Transport>,
                src,
                &cfg,
            )
        };
        let indexing: Vec<Arc<IndexingServer>> = ids
            .iter()
            .map(|&id| {
                Arc::new(IndexingServer::new(
                    id,
                    schema.interval_of(id).unwrap(),
                    cfg.clone(),
                    Consumer::new(mq.clone(), "ingest", id.raw() as usize, 0),
                    dfs.clone(),
                    MetaClient::new(rpc(id)),
                ))
            })
            .collect();
        // The verbs the dispatchers and the migration driver send, per
        // indexing address, as the role layer serves them.
        for server in &indexing {
            let (mq, server) = (mq.clone(), Arc::clone(server));
            let partition = server.id().raw() as usize;
            transport
                .registry()
                .bind(server.id(), move |env| match &env.payload {
                    Request::IngestBatch { tuples, .. } => {
                        mq.append_batch("ingest", partition, tuples.iter().cloned())?;
                        Ok(Response::AckBatch {
                            tuples: tuples.len() as u32,
                            deduped: false,
                        })
                    }
                    Request::Flush => Ok(Response::Flushed(server.flush()?)),
                    Request::Reassign { interval } => {
                        server.reassign(*interval);
                        Ok(Response::Ack)
                    }
                    _ => Ok(Response::Pong),
                });
        }
        let dispatchers = vec![Arc::new(Dispatcher::new(
            ServerId(100),
            rpc(ServerId(100)),
            schema.clone(),
            &cfg,
        ))];
        let control = rpc(ServerId(101));
        Rig {
            mq,
            meta,
            balancer: PartitionBalancer::new(MetaClient::new(control.clone())),
            control,
            dispatchers,
            indexing,
        }
    }

    #[test]
    fn deviation_math() {
        assert_eq!(PartitionBalancer::deviation(&[10, 10, 10]), 0.0);
        // [30, 0]: mean 15, deviation 1.0.
        assert!((PartitionBalancer::deviation(&[30, 0]) - 1.0).abs() < 1e-9);
        assert_eq!(PartitionBalancer::deviation(&[]), 0.0);
        assert_eq!(PartitionBalancer::deviation(&[0, 0]), 0.0);
    }

    #[test]
    fn balanced_load_keeps_schema() {
        let r = rig("balanced", 2);
        // Uniform keys over the full domain: both halves loaded equally.
        let mut x = 0x9E3779B97F4A7C15u64;
        for i in 0..2_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            r.dispatchers[0].dispatch(Tuple::bare(x, i)).unwrap();
        }
        match r.plan_round() {
            PlanOutcome::Keep(BalanceOutcome::Balanced { deviation }) => assert!(deviation < 0.2),
            other => panic!("expected Balanced, got {other:?}"),
        }
        assert_eq!(r.meta.partition().unwrap().version, 1);
    }

    #[test]
    fn skewed_load_triggers_repartition_and_balances_routing() {
        let r = rig("skewed", 2);
        // All keys in the low half: server 0 takes everything.
        for i in 0..2_000u64 {
            r.dispatchers[0]
                .dispatch(Tuple::bare(i * 1_000, i))
                .unwrap();
        }
        match r.plan_round() {
            PlanOutcome::Plan(plan) => {
                assert_eq!(plan.schema.version, 2);
                assert!(plan.deviation > 0.9);
                r.migrate(&plan);
            }
            other => panic!("expected Plan, got {other:?}"),
        }
        // Dispatcher now routes the same key distribution evenly.
        assert_eq!(r.dispatchers[0].schema_version(), 2);
        for i in 0..2_000u64 {
            r.dispatchers[0]
                .dispatch(Tuple::bare(i * 1_000, i))
                .unwrap();
        }
        let w = r.dispatchers[0].take_window();
        let c0 = *w.per_server.get(&ServerId(0)).unwrap_or(&0);
        let c1 = *w.per_server.get(&ServerId(1)).unwrap_or(&0);
        assert!(
            PartitionBalancer::deviation(&[c0, c1]) < 0.2,
            "still skewed after repartition: {c0} vs {c1}"
        );
        // Indexing servers picked up their new intervals.
        let i0 = r.indexing[0].assigned_interval();
        let i1 = r.indexing[1].assigned_interval();
        assert_eq!(i0.hi().wrapping_add(1), i1.lo());
        assert!(i0.hi() < u64::MAX / 2, "boundary did not move left");
        // Queue kept flowing.
        assert!(r.mq.latest_offset("ingest", 0).unwrap() > 0);
    }

    #[test]
    fn insufficient_samples_do_nothing() {
        let r = rig("sparse", 2);
        for i in 0..5u64 {
            r.dispatchers[0].dispatch(Tuple::bare(i, i)).unwrap();
        }
        assert!(matches!(
            r.plan_round(),
            PlanOutcome::Keep(BalanceOutcome::InsufficientData)
        ));
    }

    #[test]
    fn duplicate_heavy_samples_keep_schema() {
        let r = rig("dups", 4);
        // One single hot key: no boundaries can split it. The system is
        // genuinely skewed, so the no-op must say so — reporting
        // `Balanced` here would hide a hot spot from callers and metrics.
        for i in 0..2_000u64 {
            r.dispatchers[0].dispatch(Tuple::bare(42, i)).unwrap();
        }
        r.dispatchers[0].flush_batches().unwrap();
        match r.plan_round() {
            PlanOutcome::Keep(BalanceOutcome::SkippedDegenerate { deviation }) => {
                assert!(deviation > 0.2, "skew was measured: {deviation}");
            }
            other => panic!("expected SkippedDegenerate, got {other:?}"),
        }
        assert_eq!(r.meta.partition().unwrap().version, 1, "schema kept");
        assert_eq!(
            r.balancer
                .stats()
                .skipped_degenerate
                .load(Ordering::Relaxed),
            1,
            "degenerate skips must be counted"
        );
    }

    #[test]
    fn plan_round_computes_moves_without_installing() {
        let r = rig("plan", 2);
        for i in 0..2_000u64 {
            r.dispatchers[0]
                .dispatch(Tuple::bare(i * 1_000, i))
                .unwrap();
        }
        let plan = match r.plan_round() {
            PlanOutcome::Plan(plan) => plan,
            other => panic!("expected Plan, got {other:?}"),
        };
        assert_eq!(plan.schema.version, 2);
        assert!(!plan.moves.is_empty(), "skewed round must move ranges");
        // All moved keys route to their move's source under the installed
        // schema and to its destination under the planned one.
        let old = r.meta.partition().unwrap();
        for m in &plan.moves {
            assert_eq!(old.route(m.keys.lo()), m.from);
            assert_eq!(plan.schema.route(m.keys.lo()), m.to);
        }
        // Nothing installed: metadata, dispatcher, and assignments are
        // untouched until the migration driver runs.
        assert_eq!(r.meta.partition().unwrap().version, 1);
        assert_eq!(r.dispatchers[0].schema_version(), 0, "rig ships v0");
        r.migrate(&plan);
        assert_eq!(r.meta.partition().unwrap().version, 2);
        assert_eq!(r.dispatchers[0].schema_version(), 2);
        // The driver, unlike the old direct install, leaves the records.
        let migs = r.meta.migrations();
        assert_eq!(migs.len(), plan.moves.len());
        assert!(migs.iter().all(|m| m.completed()), "{migs:?}");
    }
}
