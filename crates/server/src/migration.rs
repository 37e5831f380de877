//! Live key-range migration between indexing servers (the paper's Fig. 17
//! scale-out path, built on the §III-D overlap-correctness argument).
//!
//! A migration moves ownership of one or more key ranges from source
//! indexing servers to destination servers while the system keeps
//! ingesting and answering queries, with byte-exact answers throughout.
//! [`run`] is the one driver, in every deployment; every step is an RPC on
//! the message plane, so each can be lost, retried or cut off like any
//! other hop:
//!
//! 1. **Snapshot flush** — the gateway's dispatchers push their buffered
//!    batches out, then every source drains its queue partition and seals
//!    its in-memory tree to chunks (`Flush`). Sealed chunks are globally
//!    reachable through the DFS, so the moved ranges' history needs no
//!    peer-to-peer copy.
//! 2. **Begin** — one durable record per move at the metadata server
//!    (`BeginMigration`), before anything routes differently. A driver that
//!    dies from here on leaves typed in-flight records, never a
//!    half-forgotten move; a driver re-running the same moves adopts them.
//! 3. **Install** — the new schema is published (`SetPartition`), swapped
//!    into the dispatchers, and every server it names is told its interval
//!    (`Reassign`). Fresh tuples for a moved range now land on the new
//!    owner while tuples the old owner still holds stay queryable: the
//!    metadata server tracks *actual* memory regions, not assignments, so
//!    the coordinator plans against both during the overlap (§III-D).
//! 4. **Straggler flush** — anything a source absorbed between steps 1
//!    and 3 (queued tuples routed under the old schema) is drained and
//!    sealed, closing the overlap.
//! 5. **Complete** — `CompleteMigration` stamps the cut-over membership
//!    epoch on each record.
//!
//! Every step is repeatable, so after a failure the same plan can simply
//! be run again. Beside the driver this module holds the plan
//! representation, the old→new schema diff, and the counters.

use crate::dispatcher::Dispatcher;
use std::collections::BTreeSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use waterwheel_core::{ChunkId, Key, KeyInterval, Result, ServerId, WwError};
use waterwheel_meta::PartitionSchema;
use waterwheel_net::{MetaClient, Request, RpcClient};

/// One planned ownership move: `keys` leaves `from` for `to`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RangeMove {
    /// The key range changing owners.
    pub keys: KeyInterval,
    /// The current owner (source).
    pub from: ServerId,
    /// The new owner (destination).
    pub to: ServerId,
}

/// A repartitioning plan: the schema to install plus the ownership moves
/// it implies relative to the schema it replaces.
#[derive(Clone, Debug)]
pub struct MigrationPlan {
    /// The new partition schema (version already bumped).
    pub schema: PartitionSchema,
    /// Every contiguous range that changes owners, ascending by key.
    pub moves: Vec<RangeMove>,
    /// The measured load deviation that triggered the plan.
    pub deviation: f64,
}

waterwheel_core::counters! {
    /// Counters for the migration engine (`migration.*`).
    pub struct MigrationStats {
        /// Migrations recorded at the metadata server (begin).
        started,
        /// Migrations cut over (complete).
        completed,
        /// Key ranges whose owner changed across all migrations.
        reassigned_ranges,
    }
}

impl MigrationStats {
    /// Records `moves` ranges entering the state machine.
    pub fn record_started(&self, moves: u64) {
        self.started.fetch_add(1, Ordering::Relaxed);
        self.reassigned_ranges.fetch_add(moves, Ordering::Relaxed);
    }

    /// Records a completed cut-over.
    pub fn record_completed(&self) {
        self.completed.fetch_add(1, Ordering::Relaxed);
    }
}

/// Drains and seals indexing server `id` through a dispatcher's control
/// hop. A server answering [`WwError::Injected`] — the embedded crash
/// switch — is skipped: its memory is gone and replays on recovery.
pub(crate) fn flush_live(via: &Dispatcher, id: ServerId) -> Result<Vec<ChunkId>> {
    match via.flush(id) {
        Err(WwError::Injected(_)) => Ok(Vec::new()),
        flushed => flushed,
    }
}

/// Runs `plan` through the five steps of the module docs and returns the
/// membership epoch of the last cut-over. Written only against what exists
/// on the wire — the metadata stub, the gateway's dispatchers, and one
/// control client for `Reassign` — so the embedded system and a node
/// process drive a migration identically.
pub fn run(
    plan: &MigrationPlan,
    meta: &MetaClient,
    dispatchers: &[Arc<Dispatcher>],
    control: &RpcClient,
    stats: &MigrationStats,
) -> Result<u64> {
    let sources: BTreeSet<ServerId> = plan.moves.iter().map(|m| m.from).collect();
    let flush_sources = || {
        sources
            .iter()
            .try_for_each(|&src| flush_live(&dispatchers[0], src).map(drop))
    };

    for d in dispatchers {
        d.flush_batches()?;
    }
    flush_sources()?;

    let mut records = Vec::with_capacity(plan.moves.len());
    for m in &plan.moves {
        records.push(meta.begin_migration(m.keys, m.from, m.to)?);
    }
    stats.record_started(plan.moves.len() as u64);

    meta.set_partition(plan.schema.clone())?;
    for d in dispatchers {
        d.update_schema(plan.schema.clone());
    }
    for e in &plan.schema.entries {
        // Only the *assigned* interval changes; what a server already holds
        // outside it stays queryable until the straggler flush.
        let interval = e.interval;
        control
            .call(e.server, Request::Reassign { interval })?
            .into_ack()?;
    }

    flush_sources()?;

    let mut epoch = 0;
    for id in records {
        epoch = meta.complete_migration(id)?;
    }
    stats.record_completed();
    Ok(epoch)
}

/// Computes the ownership moves implied by replacing `old` with `new`:
/// every maximal contiguous key range whose owner differs between the two
/// schemas, ascending. Both schemas must cover the full domain (which
/// [`PartitionSchema::validate`] guarantees for installed schemas).
pub fn diff_moves(old: &PartitionSchema, new: &PartitionSchema) -> Vec<RangeMove> {
    // Walk the merged boundary set: within one elementary interval both
    // schemas have a single owner, so comparing owners at the interval's
    // start key decides the whole interval.
    let mut starts: Vec<Key> = old
        .entries
        .iter()
        .chain(new.entries.iter())
        .map(|e| e.interval.lo())
        .collect();
    starts.sort_unstable();
    starts.dedup();
    let mut moves: Vec<RangeMove> = Vec::new();
    for (i, &lo) in starts.iter().enumerate() {
        let hi = match starts.get(i + 1) {
            Some(&next) => next - 1,
            None => Key::MAX,
        };
        let (from, to) = (old.route(lo), new.route(lo));
        if from == to {
            continue;
        }
        // Merge with the previous move when it is key-adjacent and has the
        // same endpoints — boundary points from the *other* schema must
        // not split one logical move in two.
        if let Some(last) = moves.last_mut() {
            if last.from == from && last.to == to && last.keys.hi().wrapping_add(1) == lo {
                *last = RangeMove {
                    keys: KeyInterval::new(last.keys.lo(), hi),
                    from,
                    to,
                };
                continue;
            }
        }
        moves.push(RangeMove {
            keys: KeyInterval::new(lo, hi),
            from,
            to,
        });
    }
    moves
}

#[cfg(test)]
mod tests {
    use super::*;

    fn servers(n: u32) -> Vec<ServerId> {
        (0..n).map(ServerId).collect()
    }

    #[test]
    fn identical_schemas_move_nothing() {
        let s = PartitionSchema::from_boundaries(&[100, 200], &servers(3), 1).unwrap();
        assert!(diff_moves(&s, &s).is_empty());
    }

    #[test]
    fn boundary_shift_moves_exactly_the_gap() {
        let old = PartitionSchema::from_boundaries(&[100], &servers(2), 1).unwrap();
        let new = PartitionSchema::from_boundaries(&[250], &servers(2), 2).unwrap();
        // Server 0's interval grew from [0,99] to [0,249]: keys 100..=249
        // move from server 1 to server 0.
        assert_eq!(
            diff_moves(&old, &new),
            vec![RangeMove {
                keys: KeyInterval::new(100, 249),
                from: ServerId(1),
                to: ServerId(0),
            }]
        );
    }

    #[test]
    fn added_server_takes_a_contiguous_slice() {
        let old = PartitionSchema::uniform(&servers(2));
        // A third server takes the top third of the domain.
        let third = Key::MAX / 3;
        let new = PartitionSchema::from_boundaries(&[third, 2 * third], &servers(3), 2).unwrap();
        let moves = diff_moves(&old, &new);
        // Every move lands on a real new owner and the moves are disjoint
        // and ascending.
        assert!(!moves.is_empty());
        for w in moves.windows(2) {
            assert!(w[0].keys.hi() < w[1].keys.lo());
        }
        assert!(moves.iter().any(|m| m.to == ServerId(2)));
        // Moves agree with routing on both schemas, sampled across each
        // moved range.
        for m in &moves {
            for key in [m.keys.lo(), m.keys.hi()] {
                assert_eq!(old.route(key), m.from);
                assert_eq!(new.route(key), m.to);
            }
        }
    }

    #[test]
    fn adjacent_same_endpoint_fragments_merge() {
        // Old splits at 100 and 200; new gives everything under 300 to
        // server 0. The moved span 100..=299 crosses old's boundary at 200
        // but has one (from=varies) — check fragments merge only when the
        // endpoints match.
        let old = PartitionSchema::from_boundaries(&[100, 200], &servers(3), 1).unwrap();
        let new = PartitionSchema::from_boundaries(&[300, 400], &servers(3), 2).unwrap();
        let moves = diff_moves(&old, &new);
        // 100..=199 moves 1→0, 200..=299 moves 2→0 (different sources: no
        // merge), 300..=399 moves 2→1.
        assert_eq!(
            moves,
            vec![
                RangeMove {
                    keys: KeyInterval::new(100, 199),
                    from: ServerId(1),
                    to: ServerId(0),
                },
                RangeMove {
                    keys: KeyInterval::new(200, 299),
                    from: ServerId(2),
                    to: ServerId(0),
                },
                RangeMove {
                    keys: KeyInterval::new(300, 399),
                    from: ServerId(2),
                    to: ServerId(1),
                },
            ]
        );
    }

    #[test]
    fn stats_count_rounds_and_ranges() {
        let s = MigrationStats::default();
        s.record_started(3);
        s.record_started(1);
        s.record_completed();
        assert_eq!(s.started.load(Ordering::Relaxed), 2);
        assert_eq!(s.reassigned_ranges.load(Ordering::Relaxed), 4);
        assert_eq!(s.completed.load(Ordering::Relaxed), 1);
    }
}
