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

use waterwheel_core::codec::{Decoder, Encoder};
use waterwheel_core::{KeyInterval, NodeId, Result, ServerId, WwError};

/// Which tier a cluster member serves in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemberRole {
    /// Fresh-data tier: consumes the ingest queue, owns a key range.
    Indexing,
    /// Chunk-read tier: executes chunk subqueries against the DFS.
    Query,
}

impl MemberRole {
    /// Wire/log encoding.
    pub fn as_u8(self) -> u8 {
        match self {
            MemberRole::Indexing => 0,
            MemberRole::Query => 1,
        }
    }

    /// Decodes the wire/log encoding.
    pub fn from_u8(v: u8) -> Result<Self> {
        match v {
            0 => Ok(MemberRole::Indexing),
            1 => Ok(MemberRole::Query),
            other => Err(WwError::corrupt(
                "member role",
                format!("unknown role tag {other}"),
            )),
        }
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

impl MemberInfo {
    /// Serializes the member facts (metadata log and snapshots).
    pub fn encode(&self, out: &mut impl Encoder) {
        out.put_u8(self.role.as_u8());
        out.put_u32(self.node.raw());
    }

    /// Reads member facts written by [`encode`](Self::encode).
    pub fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(Self {
            role: MemberRole::from_u8(dec.get_u8()?)?,
            node: NodeId(dec.get_u32()?),
        })
    }
}

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

    /// Serializes the view (wire codec, metadata snapshots).
    pub fn encode(&self, out: &mut impl Encoder) {
        out.put_u64(self.epoch);
        for list in [&self.indexing, &self.query] {
            out.put_u32(list.len() as u32);
            for (server, node) in list {
                out.put_u32(server.raw());
                out.put_u32(node.raw());
            }
        }
    }

    /// Reads a view written by [`encode`](Self::encode).
    pub fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let epoch = dec.get_u64()?;
        let mut lists: [Vec<(ServerId, NodeId)>; 2] = [Vec::new(), Vec::new()];
        for list in &mut lists {
            let n = dec.get_u32()? as usize;
            list.reserve(n.min(1 << 16));
            for _ in 0..n {
                let server = ServerId(dec.get_u32()?);
                let node = NodeId(dec.get_u32()?);
                list.push((server, node));
            }
        }
        let [indexing, query] = lists;
        Ok(Self {
            epoch,
            indexing,
            query,
        })
    }
}

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

    /// Serializes the record (metadata log and snapshots).
    pub fn encode(&self, out: &mut impl Encoder) {
        out.put_u64(self.id);
        out.put_u64(self.keys.lo());
        out.put_u64(self.keys.hi());
        out.put_u32(self.from.raw());
        out.put_u32(self.to.raw());
        match self.cutover_epoch {
            Some(epoch) => {
                out.put_u8(1);
                out.put_u64(epoch);
            }
            None => out.put_u8(0),
        }
    }

    /// Reads a record written by [`encode`](Self::encode).
    pub fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let id = dec.get_u64()?;
        let keys = KeyInterval::checked(dec.get_u64()?, dec.get_u64()?)
            .ok_or_else(|| WwError::corrupt("migration record", "inverted key range"))?;
        let from = ServerId(dec.get_u32()?);
        let to = ServerId(dec.get_u32()?);
        let cutover_epoch = match dec.get_u8()? {
            0 => None,
            1 => Some(dec.get_u64()?),
            other => {
                return Err(WwError::corrupt(
                    "migration record",
                    format!("unknown cut-over flag {other}"),
                ))
            }
        };
        Ok(Self {
            id,
            keys,
            from,
            to,
            cutover_epoch,
        })
    }
}

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
