//! Dynamic cluster membership and migration records (the Fig. 17
//! scale-out subsystem).
//!
//! The metadata server is the single source of truth for *who is in the
//! cluster*: indexing and query servers register through heartbeat-leased
//! `Join` RPCs and are removed either explicitly (`Leave`) or when their
//! lease lapses. Every change to the member set bumps a monotone
//! **membership epoch**; routers (coordinator, dispatchers) cache an
//! epoch-numbered [`MembershipView`] and refresh it when the epoch moves,
//! so a query planned against epoch N can detect that N+1 landed mid-plan
//! and fail with a typed retryable error instead of a wrong answer.
//!
//! Key-range migrations are recorded durably too: a [`MigrationRecord`] is
//! written when a migration begins and again at cut-over, so a crash at
//! any point leaves an unambiguous durable statement of who owns what.

use waterwheel_core::codec::{Decoder, Wire};
use waterwheel_core::{KeyInterval, NodeId, Result, ServerId};

waterwheel_core::wire_enum! {
    /// Which tier a cluster member serves in.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub enum MemberRole as "role" {
        /// Fresh-data tier: consumes the ingest queue, owns a key range.
        0 => Indexing,
        /// Chunk-read tier: executes chunk subqueries against the DFS.
        1 => Query,
    }
}

impl MemberRole {
    /// Wire/log encoding.
    pub fn as_u8(self) -> u8 {
        self.tag()
    }

    /// Decodes the wire/log encoding.
    pub fn from_u8(v: u8) -> Result<Self> {
        Self::decode(&mut Decoder::new(&[v], "member role"))
    }
}

/// Durable facts about one cluster member.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemberInfo {
    /// The tier the member serves in.
    pub role: MemberRole,
    /// The simulated cluster node hosting it (drives chunk locality).
    pub node: NodeId,
}

waterwheel_core::wire_struct!(MemberInfo {
    role: MemberRole,
    node: NodeId,
});

/// An epoch-numbered snapshot of the live member set. Equal epochs imply
/// equal member sets, so routers compare epochs instead of diffing lists.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct MembershipView {
    /// Monotone epoch; bumped on every join, leave, lease lapse, and
    /// migration begin/cut-over.
    pub epoch: u64,
    /// Indexing-tier members in ascending id order.
    pub indexing: Vec<(ServerId, NodeId)>,
    /// Query-tier members in ascending id order.
    pub query: Vec<(ServerId, NodeId)>,
}

impl MembershipView {
    /// The indexing-tier server ids, in ascending order.
    pub fn indexing_ids(&self) -> Vec<ServerId> {
        self.indexing.iter().map(|(s, _)| *s).collect()
    }

    /// The query-tier server ids, in ascending order.
    pub fn query_ids(&self) -> Vec<ServerId> {
        self.query.iter().map(|(s, _)| *s).collect()
    }
}

waterwheel_core::wire_struct!(MembershipView {
    epoch: u64,
    indexing: Vec<(ServerId, NodeId)>,
    query: Vec<(ServerId, NodeId)>,
});

/// A durable record of one key-range migration. Written at `begin` (with
/// `cutover_epoch = None`) and overwritten at cut-over; a crash in between
/// leaves the in-flight record visible so operators and recovery can tell
/// a half-done migration from a completed one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MigrationRecord {
    /// Dense migration id allocated by the metadata server.
    pub id: u64,
    /// The key range changing owners.
    pub keys: KeyInterval,
    /// The old owner (source).
    pub from: ServerId,
    /// The new owner (target).
    pub to: ServerId,
    /// The membership epoch recorded at cut-over; `None` while the
    /// migration is still in its overlap window.
    pub cutover_epoch: Option<u64>,
}

impl MigrationRecord {
    /// Whether the migration has cut over.
    pub fn completed(&self) -> bool {
        self.cutover_epoch.is_some()
    }
}

waterwheel_core::wire_struct!(MigrationRecord {
    id: u64,
    keys: KeyInterval,
    from: ServerId,
    to: ServerId,
    cutover_epoch: Option<u64>,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn member_role_round_trips() {
        for role in [MemberRole::Indexing, MemberRole::Query] {
            assert_eq!(MemberRole::from_u8(role.as_u8()).unwrap(), role);
        }
        assert!(MemberRole::from_u8(7).is_err());
    }

    #[test]
    fn membership_view_round_trips() {
        let view = MembershipView {
            epoch: 42,
            indexing: vec![(ServerId(0), NodeId(1)), (ServerId(3), NodeId(0))],
            query: vec![(ServerId(1_000), NodeId(2))],
        };
        let mut buf = Vec::new();
        view.encode(&mut buf);
        let got = MembershipView::decode(&mut Decoder::new(&buf, "test")).unwrap();
        assert_eq!(got, view);
        assert_eq!(got.indexing_ids(), vec![ServerId(0), ServerId(3)]);
        assert_eq!(got.query_ids(), vec![ServerId(1_000)]);
    }
}
