//! The Waterwheel distributed system: dispatchers, indexing servers, query
//! servers, and the query coordinator (paper §II-B, Figure 3), wired
//! together as an embedded deployment.
//!
//! Start with [`Waterwheel::builder`]:
//!
//! ```no_run
//! use waterwheel_server::Waterwheel;
//! use waterwheel_core::{Query, KeyInterval, TimeInterval, Tuple};
//!
//! let ww = Waterwheel::builder("/tmp/ww-demo").build().unwrap();
//! ww.insert(Tuple::new(42, 1_000, &b"payload"[..])).unwrap();
//! ww.drain().unwrap(); // or ww.start_pumps() for background ingestion
//! let result = ww
//!     .query(&Query::range(KeyInterval::new(0, 100), TimeInterval::full()))
//!     .unwrap();
//! assert_eq!(result.tuples.len(), 1);
//! ```
//!
//! Module map (paper section → module):
//!
//! | Paper | Module |
//! |---|---|
//! | §III-A global partitioning, dispatchers | [`dispatcher`] |
//! | §III-B/C template tree in service       | [`indexing`] (tree itself in `waterwheel-index`) |
//! | §III-D adaptive key partitioning        | [`partitioning`] |
//! | §IV-A decomposition, §V query recovery  | [`coordinator`] |
//! | §IV-B subquery execution, caching       | [`query_server`] |
//! | §IV-C LADA + baseline dispatch          | [`dispatch`] |
//! | §IV-C the threads subqueries fan out on | [`fanout`] |
//! | Figure 3 roles: ids, placement, construction, RPC verbs, loops | [`roles`] |
//! | §IV-A the coordinator clients talk to, §III-D the repartitioning process | [`gateway`] |
//! | Fig. 17 live key-range migration: the one driver | [`migration`] |
//! | Figure 3 topology, embedded             | [`system`] |
//!
//! Every cross-server hop (ingest, flush, subqueries, aggregate
//! subqueries, metadata calls, migration steps) is a typed RPC on the `waterwheel-net`
//! message plane; [`Waterwheel::transport`] exposes it for fault injection
//! and per-link statistics. What a role *is* — how its server is built
//! from durable state, which verbs it answers and how — lives once in
//! [`roles`] and [`gateway`]; the embedded [`Waterwheel`] and the
//! `waterwheel-node` processes both register them, so the deployments
//! cannot disagree. The settled verb semantics, by the address that serves
//! each verb (identical in the in-process, TCP-loopback and multi-process
//! deployments):
//!
//! | Verb | Indexing id | Query id | Dispatcher id | `COORDINATOR` |
//! |---|---|---|---|---|
//! | `IngestBatch` (the one ingest verb; a single insert is a batch of one) | append once per `(src, seq)`; the marker is journalled in the batch's frame and committed before `AckBatch` | — | route every tuple through this dispatcher, once per `(src, seq)` | — |
//! | `Flush` | `Injected` if failed, else pump the partition empty and seal; flushes of one server are serialized, so it returns only once everything sealed so far is in registered chunks | — | [`Gateway::flush_all`]: push buffered batches, then `Flush` every indexing server of the live membership (a metadata error fails the flush; only an `Injected` server is skipped); answers the sealed chunks | — |
//! | `InMemorySubquery` (the trees' tuples that pass the predicate and, under this server's measure, the measure range), `InMemoryAggregate` (this server's share of an aggregate: live wheels over the interior, main and side trees folded over the fringes; a filtered subquery folds its filtered scan), `Reassign` | served | — | — | — |
//! | `ChunkSubquery` (filtered like `InMemorySubquery`), `ChunkAggregate` (one chunk's share: summary, leaf directory, scan of the cut leaves; a filtered subquery folds its filtered scan) | — | served | — | — |
//! | `ClientQuery`, `ClientAggregate` (a whole `Query` / `AggregateQuery`: rectangle, predicate, `attr_eq`, measure range) | — | — | — | [`Coordinator::execute`] / [`Coordinator::execute_aggregate`] on the current coordinator, as an embedded query runs |
//! | `MigrateUniform` | — | — | — | [`Gateway::migrate_uniform`]: uniform plan over the live membership, run by [`migration::run`] |
//! | `Ping` | `Injected` if failed, else `Pong` | same | `Pong` | `Pong` |
//! | `RegisterPeers` | routes installed on the process's TCP transport; `InvalidState` on the in-process plane | same | — | same |
//! | `Stats` | the hosting process's counter rows ([`SystemMetrics`]), answered by the handler registry itself before any role handler — at `META_SERVER` too | same | same | same |
//!
//! `Meta(..)` is served at `META_SERVER` (`waterwheel_net::serve_meta`);
//! `Shutdown` belongs to a node process's listener. Every other pairing
//! answers a typed `InvalidState`.

#![warn(missing_docs)]

pub mod attributes;
pub mod coordinator;
pub mod dispatch;
pub mod dispatcher;
pub mod fanout;
pub mod gateway;
pub mod indexing;
pub mod metrics;
pub mod migration;
pub mod partitioning;
pub mod query_server;
pub mod roles;
pub mod system;

pub use attributes::AttrRegistry;
pub use coordinator::{Coordinator, CoordinatorStats};
pub use dispatch::{build_plan, execute_plan, DispatchPlan, DispatchPolicy, PlanRun};
pub use dispatcher::{incarnation_seq_base, send_batch, Dispatcher, SampleWindow};
pub use fanout::{FanoutPool, FanoutStats};
pub use gateway::Gateway;
pub use indexing::{IndexingServer, IndexingStats};
pub use metrics::SystemMetrics;
pub use migration::{diff_moves, MigrationPlan, MigrationStats, RangeMove};
pub use partitioning::{BalanceOutcome, BalancerStats, PartitionBalancer, PlanOutcome};
pub use query_server::{QueryServer, QueryServerStats};
pub use roles::{Host, IndexingRole, IndexingSlot, IngestDedup, Topology};
pub use system::{Waterwheel, WaterwheelBuilder};
