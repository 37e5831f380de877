//! The gateway role: everything clients talk to, written once.
//!
//! The paper has one coordinator clients query (§IV-A) and one
//! "centralized system process" that repartitions keys (§III-D). Here both
//! are the [`Gateway`]: it owns the dispatchers, the (restartable) query
//! coordinator, the ingest dedup table of its dispatcher addresses, the
//! partition balancer and the migration counters. [`Gateway::serve`] binds
//! the client verbs — `IngestBatch`, `Flush`, `Ping` at every
//! dispatcher id; `ClientQuery`, `ClientAggregate`, `MigrateUniform`,
//! `RegisterPeers`, `Ping` at [`COORDINATOR`] — to the same methods the
//! embedded [`Waterwheel`](crate::Waterwheel) calls directly, so a verb
//! answers alike whichever way it arrives.

use crate::coordinator::Coordinator;
use crate::dispatcher::Dispatcher;
use crate::migration::{self, MigrationPlan, MigrationStats};
use crate::partitioning::{BalanceOutcome, PartitionBalancer, PlanOutcome};
use crate::roles::{register_peers, unsupported, Host, IngestDedup};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use waterwheel_core::{ChunkId, Result, Tuple, WwError};
use waterwheel_meta::PartitionSchema;
use waterwheel_net::{HandlerRegistry, MetaClient, Request, Response, RpcClient, COORDINATOR};

/// The client-facing role of one process.
pub struct Gateway {
    host: Host,
    dispatchers: Vec<Arc<Dispatcher>>,
    coordinator: RwLock<Arc<Coordinator>>,
    /// Exactly-once for batches clients address to a dispatcher id.
    dedup: Arc<IngestDedup>,
    balancer: PartitionBalancer,
    migration_stats: Arc<MigrationStats>,
    /// Metadata stub sending as the first dispatcher.
    meta: MetaClient,
    /// Control client sending as [`COORDINATOR`] (`Reassign`).
    control: RpcClient,
    next_dispatcher: AtomicUsize,
}

impl Gateway {
    /// Builds the role over `host`'s plane: dispatchers routing under the
    /// schema the metadata server has published (bootstrapped before any
    /// gateway starts) and a fresh coordinator dispatching by LADA.
    pub fn new(host: Host) -> Result<Arc<Self>> {
        let meta = host.meta(host.topology.dispatchers[0]);
        let schema = meta.partition()?.ok_or_else(|| {
            WwError::InvalidState("the metadata server has no partition schema yet".into())
        })?;
        Ok(Arc::new(Self {
            dispatchers: host.dispatchers(&schema),
            coordinator: RwLock::new(host.coordinator()),
            dedup: Arc::default(),
            balancer: PartitionBalancer::new(meta.clone()),
            migration_stats: Arc::default(),
            meta,
            control: host.rpc(COORDINATOR),
            next_dispatcher: AtomicUsize::new(0),
            host,
        }))
    }

    /// The dispatchers.
    pub fn dispatchers(&self) -> &[Arc<Dispatcher>] {
        &self.dispatchers
    }

    /// The current coordinator instance.
    pub fn coordinator(&self) -> Arc<Coordinator> {
        Arc::clone(&self.coordinator.read())
    }

    /// Replaces the coordinator with a fresh instance (paper §V: all
    /// coordinator state is rebuilt from the metadata server); the policy
    /// carries over, and its counters take the old instance's place on
    /// `registry`.
    pub fn restart_coordinator(&self, registry: &HandlerRegistry) {
        let fresh = self.host.coordinator();
        fresh.set_policy(self.coordinator().policy());
        *self.coordinator.write() = fresh;
        self.register_coordinator(registry);
    }

    fn register_coordinator(&self, registry: &HandlerRegistry) {
        let coordinator = self.coordinator();
        let counters = registry.counters();
        counters.register("coordinator", None, coordinator.stats().clone());
        counters.register("fanout", None, coordinator.fanout_pool().stats().clone());
    }

    /// The partition balancer (stats, planning).
    pub fn balancer(&self) -> &PartitionBalancer {
        &self.balancer
    }

    /// Migration counters (started, completed, ranges reassigned).
    pub fn migration_stats(&self) -> &MigrationStats {
        &self.migration_stats
    }

    /// Ingests one tuple through a dispatcher (round-robin across them).
    pub fn insert(&self, tuple: Tuple) -> Result<()> {
        let d = self.next_dispatcher.fetch_add(1, Ordering::Relaxed) % self.dispatchers.len();
        self.dispatchers[d].dispatch(tuple)
    }

    /// Sends every partially filled ingest batch buffered in the
    /// dispatchers (and retries any batch whose earlier send failed).
    pub fn flush_batches(&self) -> Result<()> {
        self.dispatchers.iter().try_for_each(|d| d.flush_batches())
    }

    /// Tuples accepted but not yet acknowledged by an indexing server.
    pub fn pending(&self) -> u64 {
        self.dispatchers.iter().map(|d| d.pending()).sum()
    }

    /// The client's durability verb: pushes every buffered batch out, then
    /// has every indexing server of the *live membership* — joiners
    /// included — drain its queue partition and seal its memory to chunks.
    /// Failing to read the membership fails the flush; only a crashed
    /// server ([`WwError::Injected`]) is skipped. Returns the sealed chunks.
    pub fn flush_all(&self) -> Result<Vec<ChunkId>> {
        self.flush_batches()?;
        let mut chunks = Vec::new();
        for id in self.meta.membership()?.indexing_ids() {
            chunks.extend(migration::flush_live(&self.dispatchers[0], id)?);
        }
        Ok(chunks)
    }

    /// Runs one adaptive-key-partitioning round (paper §III-D) over the
    /// live indexing membership; a round that produces a plan runs it
    /// through [`Self::migrate`].
    pub fn rebalance(&self) -> Result<BalanceOutcome> {
        let servers = self.meta.membership()?.indexing_ids();
        match self.balancer.plan_round(&self.dispatchers, &servers)? {
            PlanOutcome::Keep(why) => Ok(why),
            PlanOutcome::Plan(plan) => self.migrate(plan),
        }
    }

    /// Runs `plan` through the migration driver ([`migration::run`]);
    /// queries keep answering exactly throughout.
    pub fn migrate(&self, plan: MigrationPlan) -> Result<BalanceOutcome> {
        self.drive(&plan)?;
        Ok(BalanceOutcome::Repartitioned {
            version: plan.schema.version,
            deviation: plan.deviation,
        })
    }

    /// Rebalances key ownership uniformly across the live indexing
    /// membership (how a grown or shrunk fleet takes up its ranges).
    /// Returns `(membership epoch after the cut-over, ranges that moved)`;
    /// already-uniform ownership moves nothing.
    pub fn migrate_uniform(&self) -> Result<(u64, u32)> {
        let view = self.meta.membership()?;
        let servers = view.indexing_ids();
        if servers.is_empty() {
            return Err(WwError::InvalidState(
                "no indexing server is a member".into(),
            ));
        }
        let old = self
            .meta
            .partition()?
            .unwrap_or_else(|| PartitionSchema::uniform(&servers));
        let mut schema = PartitionSchema::uniform(&servers);
        schema.version = old.version + 1;
        let moves = migration::diff_moves(&old, &schema);
        if moves.is_empty() {
            return Ok((view.epoch, 0));
        }
        let plan = MigrationPlan {
            schema,
            moves,
            deviation: 0.0,
        };
        Ok((self.drive(&plan)?, plan.moves.len() as u32))
    }

    fn drive(&self, plan: &MigrationPlan) -> Result<u64> {
        let epoch = migration::run(
            plan,
            &self.meta,
            &self.dispatchers,
            &self.control,
            &self.migration_stats,
        )?;
        // Best effort: the coordinator also refreshes when a plan fails
        // across an epoch change.
        let _ = self.coordinator().refresh_membership();
        Ok(epoch)
    }

    /// Binds the client verbs on `registry`: ingest and flush at every
    /// dispatcher id, the query and control verbs at [`COORDINATOR`] — and
    /// registers the role's counters (`dispatcher.*` per dispatcher,
    /// `coordinator.*`, `fanout.*`, `gateway.*`, `balancer.*`,
    /// `migration.*`).
    pub fn serve(self: &Arc<Self>, registry: &HandlerRegistry) {
        let counters = registry.counters();
        self.register_coordinator(registry);
        counters.register("gateway", None, self.dedup.clone());
        counters.register("balancer", None, self.balancer.stats().clone());
        counters.register("migration", None, self.migration_stats.clone());
        for d in &self.dispatchers {
            counters.register("dispatcher", Some(d.id()), d.clone());
            let (gw, d) = (Arc::clone(self), Arc::clone(d));
            registry.bind(d.id(), move |env| match &env.payload {
                Request::IngestBatch { seq, tuples } => {
                    let deduped = gw.dedup.apply_once(env.src, d.id(), *seq, || {
                        tuples.iter().try_for_each(|t| d.dispatch(t.clone()))
                    })?;
                    Ok(Response::AckBatch {
                        tuples: tuples.len() as u32,
                        deduped,
                    })
                }
                Request::Flush => Ok(Response::Flushed(gw.flush_all()?)),
                Request::Ping => Ok(Response::Pong),
                _ => unsupported("a dispatcher"),
            });
        }
        let gw = Arc::clone(self);
        registry.bind(COORDINATOR, move |env| match &env.payload {
            Request::ClientQuery { query } => Ok(Response::Query(gw.coordinator().execute(query)?)),
            Request::ClientAggregate { query } => Ok(Response::Aggregate(
                gw.coordinator().execute_aggregate(query)?,
            )),
            Request::MigrateUniform => {
                let (epoch, ranges) = gw.migrate_uniform()?;
                Ok(Response::Migrated { epoch, ranges })
            }
            Request::RegisterPeers { peers } => register_peers(gw.host.tcp.as_deref(), peers),
            Request::Ping => Ok(Response::Pong),
            _ => unsupported("the coordinator"),
        });
    }
}
