//! Core data model for Waterwheel (ICDE 2018).
//!
//! This crate defines the vocabulary shared by every other Waterwheel crate:
//!
//! * [`Tuple`] — the unit of ingestion, a `⟨key, timestamp, payload⟩` triplet
//!   (paper §II-A).
//! * [`KeyInterval`] / [`TimeInterval`] — closed intervals over the key domain
//!   `K` and the time domain `T`.
//! * [`Region`] — a rectangle in the two-dimensional space `R = ⟨K, T⟩`;
//!   Waterwheel partitions `R` into data regions (paper §III-A).
//! * [`Query`] / [`SubQuery`] — a temporal/key range query
//!   `q = ⟨K_q, T_q, f_q⟩` and the per-region fragments it decomposes into
//!   (paper §IV-A).
//! * [`zorder`] — the Morton encoding used to linearise two-dimensional keys
//!   such as GPS coordinates (paper §VI evaluates with z-ordered T-Drive
//!   trajectories).
//! * [`config::SystemConfig`] — the settings a deployment varies (chunk size,
//!   late-visibility Δt, server counts, …), declared once with one text form.
//! * [`counters!`] / [`Counters`] / [`CounterRegistry`] — statistics declared
//!   once per component and read by name from any process.
//!
//! The crate is dependency-light by design: everything heavier (trees,
//! chunks, servers) lives in the crates layered on top of it.

#![warn(missing_docs)]

pub mod aggregate;
pub mod codec;
pub mod compress;
pub mod config;
pub mod counters;
pub mod error;
pub mod ids;
pub mod interval;
pub mod query;
pub mod region;
pub mod tuple;
pub mod zorder;

pub use aggregate::{AggregateKind, AggregateQuery, MeasureFn};
pub use config::SystemConfig;
pub use counters::{CounterRegistry, Counters, StatRow};
pub use error::{Result, WwError};
pub use ids::{ChunkId, NodeId, QueryId, ServerId, SubQueryId};
pub use interval::{KeyInterval, TimeInterval};
pub use query::{Predicate, Query, QueryResult, SubQuery, SubQueryTarget};
pub use region::Region;
pub use tuple::{Key, Timestamp, Tuple};

/// The SplitMix64 finalizer: a bijective, avalanching mix of one word — the
/// hash behind HRW placement, bloom bit positions, seeded shuffles, fault
/// draws and every deterministic generator in the workspace. A SplitMix64
/// stream is `mix64(state += 0x9E37_79B9_7F4A_7C15)`.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
