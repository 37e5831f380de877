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
//! | Figure 3 roles: ids, placement, construction, RPC verbs, loops | [`roles`] |
//! | Figure 3 topology, embedded             | [`system`] |
//!
//! Every cross-server hop (ingest, flush, subqueries, summary reads,
//! metadata calls) is a typed RPC on the `waterwheel-net` message plane;
//! [`Waterwheel::transport`] exposes it for fault injection and per-link
//! statistics. What a role *is* — how its server is built from durable
//! state, which verbs it answers and how — lives once in [`roles`]; the
//! embedded [`Waterwheel`] and the `waterwheel-node` processes both
//! register it, so the deployments cannot disagree. The settled verb
//! semantics:
//!
//! | Verb | Indexing role | Query role |
//! |---|---|---|
//! | `Ingest` | append, then `mq.sync()` before `Ack` | — |
//! | `IngestBatch` | append once per `(src, seq)`; the marker is journalled in the batch's frame and committed before `AckBatch` | — |
//! | `Flush` | `Injected` if failed, else pump the partition empty and seal; flushes of one server are serialized, so it returns only once everything sealed so far is in registered chunks | — |
//! | `InMemorySubquery`, `AggregateInMemory`, `Reassign` | served | — |
//! | `ChunkSubquery`, `ReadSummary` | — | served |
//! | `Ping` | `Injected` if failed, else `Pong` | same |
//! | `RegisterPeers` | routes installed on the process's TCP transport; `InvalidState` on the in-process plane | same |
//!
//! Every other verb answers a typed `InvalidState`.

#![warn(missing_docs)]

pub mod admission;
pub mod attributes;
pub mod coordinator;
pub mod dispatch;
pub mod dispatcher;
pub mod indexing;
pub mod metrics;
pub mod migration;
pub mod partitioning;
pub mod query_server;
pub mod roles;
pub mod system;

pub use admission::{AdmissionController, AdmissionTotals};
pub use attributes::AttrRegistry;
pub use coordinator::{Coordinator, CoordinatorStats};
pub use dispatch::{build_plan, execute_plan, DispatchPlan, DispatchPolicy, PlanRun};
pub use dispatcher::{incarnation_seq_base, send_batch, Dispatcher, SampleWindow};
pub use indexing::{IndexingServer, IndexingStats};
pub use metrics::SystemMetrics;
pub use migration::{diff_moves, MigrationPhase, MigrationPlan, MigrationStats, RangeMove};
pub use partitioning::{BalanceOutcome, BalancerStats, PartitionBalancer, PlanOutcome};
pub use query_server::{QueryServer, QueryServerStats};
pub use roles::{Host, IndexingRole, IndexingSlot, IngestDedup, Topology};
pub use system::{Waterwheel, WaterwheelBuilder};
