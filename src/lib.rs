//! # Waterwheel
//!
//! A Rust reproduction of **"Waterwheel: Realtime Indexing and Temporal
//! Range Query Processing over Massive Data Streams"** (Wang et al.,
//! ICDE 2018): a distributed stream store that ingests millions of tuples
//! per second while answering ad-hoc queries constrained on *both* a key
//! range and a temporal range in milliseconds.
//!
//! ## Quickstart
//!
//! ```no_run
//! use waterwheel::prelude::*;
//!
//! let ww = Waterwheel::builder("/tmp/waterwheel-data").build().unwrap();
//! ww.insert(Tuple::new(0x0A44_4900, 1_720_000_000_000, &b"packet"[..]))
//!     .unwrap();
//! ww.drain().unwrap();
//! let result = ww
//!     .query(&Query::range(
//!         KeyInterval::new(0x0A44_0000, 0x0A44_FFFF), // 10.68.0.0/16
//!         TimeInterval::new(1_719_999_700_000, 1_720_000_000_000), // last 5 min
//!     ))
//!     .unwrap();
//! println!("{} packets", result.tuples.len());
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`core`] | data model: tuples, intervals, regions, queries, z-order |
//! | [`agg`] | hierarchical aggregate wheel + sealed chunk summaries (§4b) |
//! | [`index`] | template B+ tree (§III-B/C) + baseline trees |
//! | [`mq`] | replayable partitioned log (Kafka substitute, §V) |
//! | [`storage`] | chunk format, simulated DFS, LRU block cache (§III-A, §IV-B) |
//! | [`meta`] | R-tree, partition schema, metadata service (§II-B, §IV-A) |
//! | [`cluster`] | simulated node topology, replica placement (§IV-C) |
//! | [`net`] | typed RPC envelopes, wire codec, in-proc + TCP transports |
//! | [`server`] | dispatchers, indexing/query servers, LADA, coordinator |
//! | [`node`] | multi-process node runner: roles over TCP (`waterwheel-node`) |
//! | [`baselines`] | HBase-like LSM store, Druid-like time store (§VI-D) |
//! | [`workloads`] | deterministic T-Drive / Network / synthetic generators |
//!
//! See `DESIGN.md` for the substitution inventory and `EXPERIMENTS.md` for
//! the paper-vs-measured results of every table and figure.

pub use waterwheel_agg as agg;
pub use waterwheel_baselines as baselines;
pub use waterwheel_cluster as cluster;
pub use waterwheel_core as core;
pub use waterwheel_index as index;
pub use waterwheel_meta as meta;
pub use waterwheel_mq as mq;
pub use waterwheel_net as net;
pub use waterwheel_node as node;
pub use waterwheel_server as server;
pub use waterwheel_storage as storage;
pub use waterwheel_workloads as workloads;

/// The most common imports in one place.
pub mod prelude {
    pub use waterwheel_agg::AggregateAnswer;
    pub use waterwheel_core::{
        AggregateKind, AggregateQuery, Expr, Key, KeyInterval, Query, QueryResult, Region,
        SystemConfig, TimeInterval, Timestamp, Tuple,
    };
    pub use waterwheel_server::{DispatchPolicy, Waterwheel, WaterwheelBuilder};
}
