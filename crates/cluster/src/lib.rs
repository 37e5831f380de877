//! Simulated cluster topology for the embedded Waterwheel deployment.
//!
//! The paper runs on a 12-node commodity cluster (and up to 128 EC2 nodes,
//! §VI) with HDFS co-located on every node. Three pieces of that physical
//! reality matter to Waterwheel's algorithms and are modelled here:
//!
//! 1. **Replica placement** — HDFS keeps each chunk on (by default) three
//!    nodes; the LADA dispatch algorithm (§IV-C) ranks query servers
//!    *co-located* with a chunk's replicas ahead of the rest. We use
//!    rendezvous hashing so placement is deterministic, uniform, and stable
//!    under node additions.
//! 2. **Server→node mapping** — the paper runs 2 indexing servers, 4 query
//!    servers and 2 dispatchers per node; locality is defined by this map.
//! 3. **Access latency** — HDFS charges 2–50 ms per file open regardless of
//!    read size (§VI-B); the [`LatencyModel`] reproduces that knee plus an
//!    optional bandwidth term, and distinguishes local from remote reads.
//!
//! Failure injection (marking nodes dead) drives the fault-tolerance tests.

#![warn(missing_docs)]

use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Duration;
use waterwheel_core::{ChunkId, NodeId, Result, ServerId, WwError};

/// Latency model for simulated remote storage access (HDFS substitute).
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencyModel {
    /// Fixed cost charged per file open, regardless of bytes read. The
    /// paper measures HDFS at 2–50 ms (§VI-B).
    pub open: Duration,
    /// Read bandwidth in bytes/second; `None` means reads are free after
    /// the open cost.
    pub bandwidth: Option<u64>,
    /// Multiplier applied to `open` for *local* (co-located) reads; HDFS
    /// short-circuit reads skip the network hop. 0.0 makes local reads free.
    pub local_factor: f64,
}

impl LatencyModel {
    /// Cost of reading `bytes` from a replica; `local` selects the
    /// co-located fast path.
    pub fn read_cost(&self, bytes: usize, local: bool) -> Duration {
        let open = if local {
            self.open.mul_f64(self.local_factor.clamp(0.0, 1.0))
        } else {
            self.open
        };
        let transfer = match self.bandwidth {
            Some(bw) if bw > 0 => Duration::from_secs_f64(bytes as f64 / bw as f64),
            _ => Duration::ZERO,
        };
        open + transfer
    }

    /// Sleeps for the modelled cost (no-op when the cost is zero).
    pub fn charge(&self, bytes: usize, local: bool) {
        let cost = self.read_cost(bytes, local);
        if !cost.is_zero() {
            std::thread::sleep(cost);
        }
    }
}

#[derive(Debug)]
struct NodeState {
    alive: bool,
}

#[derive(Debug, Default)]
struct ClusterState {
    nodes: BTreeMap<NodeId, NodeState>,
    servers: BTreeMap<ServerId, NodeId>,
    next_node: u32,
    /// Bumped whenever the *alive node set* changes (add/fail/recover);
    /// replica placement depends on nothing else, so this versions the
    /// memoized replica table.
    membership_epoch: u64,
}

/// Memoized replica placements, valid for one membership epoch. The
/// coordinator asks for the same (chunk, k) placement on every chunk
/// subquery and aggregate subquery, so recomputing the full rendezvous scan per
/// call sat in the hot path.
#[derive(Debug, Default)]
struct ReplicaMemo {
    epoch: u64,
    table: HashMap<(ChunkId, usize), Vec<NodeId>>,
}

/// Safety valve: a memo table larger than this is cleared rather than
/// grown (bounds memory if a workload sprays unique chunk ids).
const REPLICA_MEMO_CAP: usize = 1 << 16;

/// A handle to the shared simulated cluster; clones address the same state.
#[derive(Clone, Default)]
pub struct Cluster {
    state: Arc<RwLock<ClusterState>>,
    memo: Arc<RwLock<ReplicaMemo>>,
}

/// Rendezvous (highest-random-weight) score of `(chunk, node)`.
fn hrw_score(chunk: ChunkId, node: NodeId) -> u64 {
    // SplitMix64 finalizer over the packed pair.
    waterwheel_core::mix64(
        chunk
            .raw()
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(node.raw() as u64),
    )
}

impl Cluster {
    /// Creates a cluster of `nodes` alive nodes (ids `0..nodes`).
    pub fn new(nodes: usize) -> Self {
        let cluster = Self::default();
        for _ in 0..nodes {
            cluster.add_node();
        }
        cluster
    }

    /// Adds a node and returns its id.
    pub fn add_node(&self) -> NodeId {
        let mut state = self.state.write();
        let id = NodeId(state.next_node);
        state.next_node += 1;
        state.nodes.insert(id, NodeState { alive: true });
        state.membership_epoch += 1;
        id
    }

    /// The membership epoch of the alive-node set: bumped on every
    /// add/fail/recover, so equal epochs imply identical replica
    /// placement for every chunk.
    pub fn membership_epoch(&self) -> u64 {
        self.state.read().membership_epoch
    }

    /// Total node count (alive or dead).
    pub fn node_count(&self) -> usize {
        self.state.read().nodes.len()
    }

    /// Ids of all currently alive nodes.
    pub fn alive_nodes(&self) -> Vec<NodeId> {
        self.state
            .read()
            .nodes
            .iter()
            .filter(|(_, s)| s.alive)
            .map(|(id, _)| *id)
            .collect()
    }

    /// Marks a node dead (failure injection).
    pub fn fail_node(&self, node: NodeId) -> Result<()> {
        self.set_alive(node, false)
    }

    /// Marks a node alive again.
    pub fn recover_node(&self, node: NodeId) -> Result<()> {
        self.set_alive(node, true)
    }

    fn set_alive(&self, node: NodeId, alive: bool) -> Result<()> {
        let mut state = self.state.write();
        let s = state
            .nodes
            .get_mut(&node)
            .ok_or_else(|| WwError::not_found("node", node))?;
        if s.alive != alive {
            s.alive = alive;
            state.membership_epoch += 1;
        }
        Ok(())
    }

    /// Whether the node is alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.state.read().nodes.get(&node).is_some_and(|s| s.alive)
    }

    /// Assigns a logical server to a node (the paper co-locates fixed
    /// numbers of servers per node).
    pub fn place_server(&self, server: ServerId, node: NodeId) -> Result<()> {
        let mut state = self.state.write();
        if !state.nodes.contains_key(&node) {
            return Err(WwError::not_found("node", node));
        }
        state.servers.insert(server, node);
        Ok(())
    }

    /// Spreads `servers` round-robin across all nodes; returns their ids.
    pub fn place_servers_round_robin(&self, servers: impl IntoIterator<Item = ServerId>) {
        let nodes: Vec<NodeId> = { self.state.read().nodes.keys().copied().collect() };
        if nodes.is_empty() {
            return;
        }
        let mut state = self.state.write();
        for (i, server) in servers.into_iter().enumerate() {
            state.servers.insert(server, nodes[i % nodes.len()]);
        }
    }

    /// The node hosting a server.
    pub fn node_of(&self, server: ServerId) -> Option<NodeId> {
        self.state.read().servers.get(&server).copied()
    }

    /// The `k` replica nodes for a chunk, chosen by rendezvous hashing over
    /// the *alive* nodes. Deterministic for a given (chunk, membership);
    /// memoized per (membership epoch, chunk, k) because the coordinator
    /// asks for the same placement on every subquery it dispatches.
    pub fn replicas(&self, chunk: ChunkId, k: usize) -> Vec<NodeId> {
        let epoch = {
            let memo = self.memo.read();
            if let Some(hit) = memo.table.get(&(chunk, k)) {
                let current = self.state.read().membership_epoch;
                if memo.epoch == current {
                    return hit.clone();
                }
            }
            self.state.read().membership_epoch
        };
        let placed = self.compute_replicas(chunk, k);
        let mut memo = self.memo.write();
        if memo.epoch != epoch {
            memo.table.clear();
            memo.epoch = epoch;
        } else if memo.table.len() >= REPLICA_MEMO_CAP {
            memo.table.clear();
        }
        // Only cache if the membership did not move while we computed —
        // a racing fail/recover would otherwise pin a stale placement.
        if self.state.read().membership_epoch == epoch {
            memo.table.insert((chunk, k), placed.clone());
        }
        placed
    }

    fn compute_replicas(&self, chunk: ChunkId, k: usize) -> Vec<NodeId> {
        let state = self.state.read();
        let mut scored: Vec<(u64, NodeId)> = state
            .nodes
            .iter()
            .filter(|(_, s)| s.alive)
            .map(|(id, _)| (hrw_score(chunk, *id), *id))
            .collect();
        scored.sort_unstable_by_key(|&(score, _)| std::cmp::Reverse(score));
        scored.truncate(k);
        scored.into_iter().map(|(_, id)| id).collect()
    }

    /// Whether `server` sits on one of the chunk's `k` replica nodes —
    /// LADA's chunk-locality test (§IV-C).
    pub fn is_colocated(&self, server: ServerId, chunk: ChunkId, k: usize) -> bool {
        match self.node_of(server) {
            Some(node) => self.replicas(chunk, k).contains(&node),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_get_dense_ids_and_alive_tracking() {
        let c = Cluster::new(3);
        assert_eq!(c.node_count(), 3);
        assert_eq!(c.alive_nodes(), vec![NodeId(0), NodeId(1), NodeId(2)]);
        c.fail_node(NodeId(1)).unwrap();
        assert!(!c.is_alive(NodeId(1)));
        assert_eq!(c.alive_nodes(), vec![NodeId(0), NodeId(2)]);
        c.recover_node(NodeId(1)).unwrap();
        assert!(c.is_alive(NodeId(1)));
        assert!(c.fail_node(NodeId(99)).is_err());
    }

    #[test]
    fn replicas_are_deterministic_and_distinct() {
        let c = Cluster::new(10);
        for chunk in 0..50u64 {
            let r1 = c.replicas(ChunkId(chunk), 3);
            let r2 = c.replicas(ChunkId(chunk), 3);
            assert_eq!(r1, r2);
            assert_eq!(r1.len(), 3);
            let mut d = r1.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), 3, "replicas not distinct: {r1:?}");
        }
    }

    #[test]
    fn replica_load_is_roughly_uniform() {
        let c = Cluster::new(8);
        let mut counts = [0usize; 8];
        for chunk in 0..4_000u64 {
            for n in c.replicas(ChunkId(chunk), 3) {
                counts[n.raw() as usize] += 1;
            }
        }
        let expected = 4_000 * 3 / 8;
        for (i, &count) in counts.iter().enumerate() {
            assert!(
                count > expected * 7 / 10 && count < expected * 13 / 10,
                "node {i} got {count}, expected ≈{expected}"
            );
        }
    }

    #[test]
    fn dead_nodes_receive_no_replicas() {
        let c = Cluster::new(5);
        c.fail_node(NodeId(2)).unwrap();
        for chunk in 0..100u64 {
            assert!(!c.replicas(ChunkId(chunk), 3).contains(&NodeId(2)));
        }
    }

    #[test]
    fn replicas_mostly_stable_under_membership_change() {
        // Rendezvous property: failing one node only moves replicas that
        // lived on it.
        let c = Cluster::new(10);
        let before: Vec<_> = (0..200u64).map(|i| c.replicas(ChunkId(i), 3)).collect();
        c.fail_node(NodeId(4)).unwrap();
        for (i, old) in before.iter().enumerate() {
            let new = c.replicas(ChunkId(i as u64), 3);
            for n in old {
                if *n != NodeId(4) {
                    assert!(new.contains(n), "chunk {i}: replica {n} moved needlessly");
                }
            }
        }
    }

    #[test]
    fn memoized_replicas_follow_membership_epochs() {
        let c = Cluster::new(6);
        let e0 = c.membership_epoch();
        // A hit must return the identical placement without drift.
        let first = c.replicas(ChunkId(9), 3);
        assert_eq!(c.replicas(ChunkId(9), 3), first);
        assert_eq!(c.membership_epoch(), e0);
        // Failing a node bumps the epoch and invalidates the memo: a
        // placement that contained the dead node must change.
        let victim = first[0];
        c.fail_node(victim).unwrap();
        assert_eq!(c.membership_epoch(), e0 + 1);
        let after = c.replicas(ChunkId(9), 3);
        assert!(!after.contains(&victim));
        assert_eq!(after, c.replicas(ChunkId(9), 3));
        // Failing an already-dead node is not a membership change.
        c.fail_node(victim).unwrap();
        assert_eq!(c.membership_epoch(), e0 + 1);
        // Recovery restores the original placement (rendezvous stability).
        c.recover_node(victim).unwrap();
        assert_eq!(c.replicas(ChunkId(9), 3), first);
    }

    #[test]
    fn server_placement_and_colocation() {
        let c = Cluster::new(4);
        c.place_servers_round_robin((0..8).map(ServerId));
        assert_eq!(c.node_of(ServerId(0)), Some(NodeId(0)));
        assert_eq!(c.node_of(ServerId(5)), Some(NodeId(1)));
        assert_eq!(c.node_of(ServerId(99)), None);
        let chunk = ChunkId(7);
        let reps = c.replicas(chunk, 2);
        // Exactly the servers on replica nodes are co-located.
        for s in 0..8u32 {
            let on_replica = reps.contains(&c.node_of(ServerId(s)).unwrap());
            assert_eq!(c.is_colocated(ServerId(s), chunk, 2), on_replica);
        }
    }

    #[test]
    fn latency_model_costs() {
        let m = LatencyModel {
            open: Duration::from_millis(10),
            bandwidth: Some(1_000_000),
            local_factor: 0.1,
        };
        // Remote: 10 ms open + 1 ms transfer for 1000 bytes.
        assert_eq!(m.read_cost(1_000, false), Duration::from_millis(11));
        // Local: 1 ms open + 1 ms transfer.
        assert_eq!(m.read_cost(1_000, true), Duration::from_millis(2));
        // Zero model is free.
        assert_eq!(
            LatencyModel::default().read_cost(1 << 20, false),
            Duration::ZERO
        );
    }
}
