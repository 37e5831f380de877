//! Multi-process Waterwheel: the paper's deployment shape (§II-B,
//! Figure 3) with each server role in its own OS process, talking over
//! real TCP sockets via the `waterwheel-net` wire codec.
//!
//! Four roles partition the embedded system's objects:
//!
//! | Role | Binds | Owns |
//! |---|---|---|
//! | `meta` | `META_SERVER` | durable [`MetadataService`](waterwheel_meta::MetadataService), bootstrap partition schema |
//! | `indexing` | indexing ids `0..` | ingestion queue, in-memory trees, pumps, chunk flushing |
//! | `query` | query ids `1000..` | chunk subquery execution over the shared DFS root |
//! | `dispatcher` | dispatcher ids `2000..` + `COORDINATOR` | ingest routing, query decomposition, client gateway |
//!
//! Every process is handed the deployment's whole
//! [`SystemConfig`](waterwheel_core::SystemConfig) (in its text form, as
//! `WW_NODE_CONFIG` or `--set name=value` flags) and rebuilds the same
//! deterministic layout (cluster placement, server ids, uniform partition
//! schema) from its counts, so no process needs the others' in-memory
//! state — only their addresses (a peer map) and the shared filesystem
//! root where chunks and metadata live.
//!
//! [`ClusterSpec::launch`](spec::ClusterSpec::launch) spawns the four
//! roles as children of the calling process and returns a
//! [`ClusterClient`](spec::ClusterClient) speaking the client RPC verbs
//! (`IngestBatch`, `Flush`, `ClientQuery`, `ClientAggregate`, `Shutdown`).
//! The `waterwheel-node` binary wraps the same runtime behind a CLI, and
//! its `smoke` subcommand runs a self-contained loopback cluster check.

#![warn(missing_docs)]

pub mod runtime;
pub mod spec;

pub use runtime::{run_node, NodeConfig, Role, PAYLOAD_BYTE_ATTR};
pub use spec::{ClusterClient, ClusterHandle, ClusterSpec};

/// If this process was spawned as a cluster node (the `WW_NODE_ROLE`
/// environment variable is set), runs the node role to completion and
/// exits — never returns. A no-op otherwise.
///
/// Call this first in `main` of any binary passed to
/// [`ClusterSpec::launch`](spec::ClusterSpec::launch): the launcher
/// re-executes that binary with the role environment set, so examples and
/// tests can self-host a cluster without a separate node executable.
pub fn maybe_run_child() {
    if std::env::var_os("WW_NODE_ROLE").is_none() {
        return;
    }
    let cfg = match NodeConfig::from_env() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("waterwheel-node: bad WW_NODE_* environment: {e}");
            std::process::exit(2);
        }
    };
    match run_node(cfg) {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("waterwheel-node: {e}");
            std::process::exit(1);
        }
    }
}
