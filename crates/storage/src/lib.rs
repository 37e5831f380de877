//! Chunk storage for Waterwheel: the immutable on-disk chunk format, a
//! simulated distributed file system (the HDFS substitute), and the query
//! servers' LRU block cache.
//!
//! An indexing server seals its in-memory tree into a [`SealedTree`]
//! (one per chunk-size threshold crossing, paper §III-A) which
//! [`chunk::write_chunk`] serializes into a self-describing immutable blob:
//!
//! ```text
//! ┌─────────┬─────────────────────────┬─────────────────────┬─────────┬────────┐
//! │ header  │ index block:            │ leaf pages:         │ summary │ footer │
//! │ magic   │  separators, per-leaf   │  columnar image of  │ (opt.)  │ bounds │
//! │ version │  directory (offsets,    │  leaf 0, of leaf 1, │         │ length │
//! │ region  │  time and measure       │  …                  │         │ crc    │
//! │ counts  │  bounds, blooms)        │                     │         │        │
//! └─────────┴─────────────────────────┴─────────────────────┴─────────┴────────┘
//! ```
//!
//! The index block is the persisted *template*: loading it alone lets a
//! query server route a subquery to exactly the leaf pages it needs ("the
//! data layout in our data chunks allows the system to read only the needed
//! leaf nodes for the given key range", §VI-B). Templates and leaf pages are
//! the two cache-unit kinds of the paper's LRU cache (§IV-B).
//!
//! [`SealedTree`]: waterwheel_index::SealedTree

#![warn(missing_docs)]

pub mod cache;
pub mod chunk;
pub mod dfs;
pub mod singleflight;

pub use cache::{Block, BlockCache, BlockKey, CacheStats};
pub use chunk::{
    write_chunk, write_chunk_opts, ChunkIndex, ChunkReader, ChunkWriteOptions, LeafBloom,
    LeafMeasure, LeafMeta, RangedRead, VERSION_V2,
};
pub use dfs::{DfsFile, SimDfs};
pub use singleflight::Singleflight;
