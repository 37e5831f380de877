//! Metadata management for Waterwheel (paper §II-B, §III-D, §IV-A, §V).
//!
//! Three pieces live here:
//!
//! * [`RTree`] — the coordinator's spatial index over data regions, used to
//!   find the query-region candidates during query decomposition (§IV-A).
//! * [`PartitionSchema`] — the versioned global key partition that maps
//!   keys to indexing servers (§III-A) and is adjusted by adaptive key
//!   partitioning (§III-D).
//! * [`MetadataService`] — the durable metadata server (the ZooKeeper-backed
//!   component): chunk registry, partition schema, per-server durable read
//!   offsets, and the volatile in-memory regions of the indexing servers.
//! * [`MembershipView`] — epoch-numbered dynamic membership plus durable
//!   key-range [`MigrationRecord`]s (the Fig. 17 scale-out subsystem).

#![warn(missing_docs)]

pub mod membership;
pub mod partition;
pub mod rtree;
pub mod service;

pub use membership::{MemberInfo, MemberRole, MembershipView, MigrationRecord};
pub use partition::{PartitionEntry, PartitionSchema};
pub use rtree::RTree;
pub use service::{ChunkInfo, FlushedChunk, MetadataService, Overlaps, SummaryExtent};
