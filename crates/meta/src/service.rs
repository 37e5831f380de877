//! The metadata server (paper §II-B) — the ZooKeeper-backed component.
//!
//! It durably holds everything the system must not lose across failures:
//!
//! * the chunk registry (region, tuple count, size per chunk) plus an R-tree
//!   over chunk regions for query decomposition (§IV-A);
//! * the versioned key-partitioning schema (§III-D), together with the
//!   *actual* key interval per indexing server used to answer queries
//!   correctly during repartition overlap windows;
//! * the per-indexing-server durable read offsets into the message queue —
//!   persisted atomically with each chunk registration so recovery replays
//!   from exactly the right point (§V);
//! * the *volatile* in-memory data regions of the indexing servers (widened
//!   by the late-visibility Δt, §IV-D). These are rebuilt on restart, so
//!   they are not persisted.
//!
//! Persistence is a checksummed whole-state **snapshot** plus an
//! **incremental mutation log** on the shared WAL layer: each durable
//! mutation appends one typed, idempotent record (committed per the fsync
//! policy), and once the log outgrows its budget the state is re-
//! snapshotted atomically and the log reset. Recovery loads the snapshot
//! and re-applies the log; because every record is idempotent, a crash
//! anywhere in the compaction sequence (snapshot rename → segment
//! deletion) replays harmlessly. Damage at any layer — bad snapshot
//! checksum, torn non-final log segment, unknown record tag — surfaces as
//! a typed [`WwError::Corrupt`], never a panic.

use crate::membership::{MemberInfo, MemberRole, MembershipView, MigrationRecord};
use crate::partition::PartitionSchema;
use crate::rtree::RTree;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use waterwheel_core::codec::{self, Decoder, Encoder};
use waterwheel_core::{
    ChunkId, CounterRegistry, Counters, KeyInterval, NodeId, Region, Result, ServerId, WwError,
};
use waterwheel_index::secondary::{AttrId, AttrProbe, ChunkAttrIndex};
use waterwheel_wal::{write_atomic, FsyncPolicy, Log, WalStats};

const SNAPSHOT_MAGIC: u64 = u64::from_le_bytes(*b"WWMETA01");

/// Default log-compaction threshold when none is configured.
const DEFAULT_SEGMENT_BYTES: usize = 8 << 20;

/// Mutation-log record tags. Every record is idempotent: re-applying a
/// suffix of the log over a newer snapshot must be harmless (that is what
/// makes crash-interrupted compaction safe).
const REC_ENSURE_NEXT_CHUNK: u8 = 0;
const REC_REGISTER_CHUNK: u8 = 1;
const REC_SET_PARTITION: u8 = 2;
const REC_ATTR_INDEX: u8 = 3;
const REC_SUMMARY: u8 = 4;
const REC_MEMBER_JOIN: u8 = 5;
const REC_MEMBER_LEAVE: u8 = 6;
const REC_MIGRATION: u8 = 7;

/// Durable facts about one chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkInfo {
    /// The key–time rectangle the chunk covers.
    pub region: Region,
    /// Tuples inside.
    pub count: u64,
    /// Serialized size in bytes.
    pub bytes: u64,
    /// The indexing server that produced it.
    pub producer: ServerId,
}

/// Durable facts about the aggregate summary sealed into a chunk's footer
/// — enough for the coordinator to decide, without opening the chunk,
/// whether a subquery can be answered from the summary alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SummaryExtent {
    /// Total cells across surviving granularity rings.
    pub cells: u64,
    /// Encoded summary size in bytes (footer body).
    pub bytes: u64,
    /// Bitmask of surviving rings (bit 0 = second … bit 3 = day).
    pub levels: u8,
    /// Key-slice width exponent the summary was built with.
    pub slice_bits: u8,
    /// MIN/MAX of the registered measure over every tuple in the chunk;
    /// lets the coordinator skip whole chunks whose bounds cannot satisfy
    /// a query's `measure_range` filter. `None` when the chunk was written
    /// without measure bounds (v1 chunks, or no measure registered).
    pub measure_range: Option<(u64, u64)>,
}

/// Encodes an optional MIN/MAX measure range as `flag u16 + min/max u64`.
fn put_measure_range(out: &mut Vec<u8>, mr: Option<(u64, u64)>) {
    match mr {
        Some((lo, hi)) => {
            out.put_u16(1);
            out.put_u64(lo);
            out.put_u64(hi);
        }
        None => {
            out.put_u16(0);
            out.put_u64(0);
            out.put_u64(0);
        }
    }
}

/// Encodes one migration record as a `REC_MIGRATION` mutation, carrying the
/// membership epoch observed when the mutation was made (for idempotent
/// max-epoch replay).
fn encode_migration_record(rec: &MigrationRecord, epoch: u64) -> Vec<u8> {
    let mut out = Vec::new();
    out.put_u8(REC_MIGRATION);
    out.put_u64(rec.id);
    out.put_u64(rec.keys.lo());
    out.put_u64(rec.keys.hi());
    out.put_u32(rec.from.raw());
    out.put_u32(rec.to.raw());
    match rec.cutover_epoch {
        Some(e) => {
            out.put_u16(1);
            out.put_u64(e);
        }
        None => {
            out.put_u16(0);
            out.put_u64(0);
        }
    }
    out.put_u64(epoch);
    out
}

fn decode_migration_record(dec: &mut Decoder<'_>) -> Result<(MigrationRecord, u64)> {
    let id = dec.get_u64()?;
    let lo = dec.get_u64()?;
    let hi = dec.get_u64()?;
    if lo > hi {
        return Err(WwError::corrupt("migration record", "inverted key range"));
    }
    let from = ServerId(dec.get_u32()?);
    let to = ServerId(dec.get_u32()?);
    let flag = dec.get_u16()?;
    let cut = dec.get_u64()?;
    let cutover_epoch = match flag {
        0 => None,
        1 => Some(cut),
        _ => return Err(WwError::corrupt("migration record", "bad cut-over flag")),
    };
    let epoch = dec.get_u64()?;
    Ok((
        MigrationRecord {
            id,
            keys: KeyInterval::new(lo, hi),
            from,
            to,
            cutover_epoch,
        },
        epoch,
    ))
}

fn get_measure_range(dec: &mut Decoder<'_>) -> Result<Option<(u64, u64)>> {
    let flag = dec.get_u16()?;
    let lo = dec.get_u64()?;
    let hi = dec.get_u64()?;
    match flag {
        0 => Ok(None),
        1 if lo <= hi => Ok(Some((lo, hi))),
        _ => Err(WwError::corrupt("meta summary extent", "bad measure range")),
    }
}

struct MetaState {
    next_chunk: u64,
    chunks: BTreeMap<ChunkId, ChunkInfo>,
    chunk_rtree: RTree<ChunkId>,
    partition: Option<PartitionSchema>,
    offsets: BTreeMap<ServerId, u64>,
    /// Secondary attribute indexes per (chunk, attribute) — the bitmap +
    /// bloom structures of the paper's §VIII future-work design.
    attr_indexes: BTreeMap<(ChunkId, AttrId), ChunkAttrIndex>,
    /// Aggregate summary extents per chunk (DESIGN.md §4b).
    summaries: BTreeMap<ChunkId, SummaryExtent>,
    /// Volatile: current in-memory region per indexing server (already
    /// widened by Δt by the reporting server).
    memory_regions: BTreeMap<ServerId, Region>,
    /// Durable: the registered cluster members (indexing/query tiers).
    members: BTreeMap<ServerId, MemberInfo>,
    /// Durable: monotone membership epoch; bumped on every join, leave,
    /// lease lapse, and migration begin/cut-over.
    membership_epoch: u64,
    /// Durable: key-range migration records by id (begin + cut-over).
    migrations: BTreeMap<u64, MigrationRecord>,
    next_migration: u64,
    /// Volatile: per-member lease deadlines. Heartbeats renew them; a
    /// restart clears them, so members re-join (idempotently) on their
    /// next heartbeat cycle rather than inheriting stale deadlines.
    leases: BTreeMap<ServerId, Instant>,
}

impl MetaState {
    fn empty() -> Self {
        Self {
            next_chunk: 0,
            chunks: BTreeMap::new(),
            chunk_rtree: RTree::new(),
            partition: None,
            offsets: BTreeMap::new(),
            attr_indexes: BTreeMap::new(),
            summaries: BTreeMap::new(),
            memory_regions: BTreeMap::new(),
            members: BTreeMap::new(),
            membership_epoch: 0,
            migrations: BTreeMap::new(),
            next_migration: 0,
            leases: BTreeMap::new(),
        }
    }

    fn membership_view(&self) -> MembershipView {
        let mut view = MembershipView {
            epoch: self.membership_epoch,
            indexing: Vec::new(),
            query: Vec::new(),
        };
        for (&server, info) in &self.members {
            match info.role {
                MemberRole::Indexing => view.indexing.push((server, info.node)),
                MemberRole::Query => view.query.push((server, info.node)),
            }
        }
        view
    }
}

/// Durable backing for the service: the snapshot file plus the mutation
/// log appended between snapshots.
struct Durable {
    snapshot_path: PathBuf,
    log: Log,
    policy: FsyncPolicy,
    /// Log size that triggers compaction into a fresh snapshot.
    compact_bytes: usize,
    /// Approximate bytes appended to the log since the last snapshot.
    log_bytes: AtomicU64,
    stats: Arc<WalStats>,
}

/// Handle to the metadata service; clones share state.
#[derive(Clone)]
pub struct MetadataService {
    state: std::sync::Arc<RwLock<MetaState>>,
    /// Snapshot + mutation log; `None` runs the service in-memory
    /// (tests, benches).
    durable: Option<std::sync::Arc<Durable>>,
}

impl MetadataService {
    /// An in-memory service with no persistence.
    pub fn in_memory() -> Self {
        Self {
            state: std::sync::Arc::new(RwLock::new(MetaState::empty())),
            durable: None,
        }
    }

    /// Opens (or creates) a durable service backed by the snapshot at
    /// `path` (and a `<name>.log.*.wal` mutation log beside it). Commits
    /// reach the page cache only; use [`MetadataService::open_with`] for
    /// fsync control.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self> {
        Self::open_with(path, FsyncPolicy::Never, DEFAULT_SEGMENT_BYTES)
    }

    /// Opens (or creates) a durable service with an explicit fsync policy
    /// and log segment/compaction size. Recovery loads the snapshot, then
    /// re-applies the mutation log — this is the coordinator/metadata
    /// recovery path (§V).
    pub fn open_with(
        path: impl Into<PathBuf>,
        policy: FsyncPolicy,
        segment_bytes: usize,
    ) -> Result<Self> {
        let path = path.into();
        let had_snapshot = path.exists();
        let mut state = if had_snapshot {
            let bytes = fs::read(&path)?;
            Self::decode_state(&bytes)?
        } else {
            if let Some(parent) = path.parent() {
                fs::create_dir_all(parent)?;
            }
            MetaState::empty()
        };
        let dir = path
            .parent()
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("."));
        let log_name = format!(
            "{}.log",
            path.file_name().and_then(|n| n.to_str()).unwrap_or("meta")
        );
        let stats = WalStats::shared();
        let (log, replay) = Log::open(&dir, &log_name, policy, segment_bytes, Arc::clone(&stats))?;
        let mut log_bytes = 0u64;
        for record in &replay.records {
            apply_record(&mut state, record)?;
            log_bytes += record.len() as u64;
        }
        stats
            .replayed
            .fetch_add(replay.records.len() as u64, Ordering::Relaxed);
        let durable = std::sync::Arc::new(Durable {
            snapshot_path: path,
            log,
            policy,
            compact_bytes: segment_bytes,
            log_bytes: AtomicU64::new(log_bytes),
            stats,
        });
        if !had_snapshot {
            // Seed the snapshot so recovery always has a base to replay
            // onto (and so snapshot corruption is detectable from day 1).
            write_atomic(
                &durable.snapshot_path,
                &Self::encode_state(&state),
                policy,
                &durable.stats,
            )?;
        }
        Ok(Self {
            state: std::sync::Arc::new(RwLock::new(state)),
            durable: Some(durable),
        })
    }

    /// Durability counters (log bytes/fsyncs, torn tails, replayed
    /// mutation records).
    pub fn wal_stats(&self) -> Option<Arc<WalStats>> {
        self.durable.as_ref().map(|d| Arc::clone(&d.stats))
    }

    /// Registers this service's readouts (`meta.*`, and `wal.meta.*` when
    /// durable) with a process's counter registry.
    pub fn register_counters(&self, counters: &CounterRegistry) {
        counters.register("meta", None, Arc::new(self.clone()));
        if let Some(wal) = self.wal_stats() {
            counters.register("wal.meta", None, wal);
        }
    }

    /// Allocates a fresh durable chunk id.
    pub fn allocate_chunk_id(&self) -> Result<ChunkId> {
        let mut state = self.state.write();
        let id = ChunkId(state.next_chunk);
        state.next_chunk += 1;
        let mut rec = Vec::with_capacity(9);
        rec.put_u8(REC_ENSURE_NEXT_CHUNK);
        rec.put_u64(state.next_chunk);
        self.log_mutation(&state, rec)?;
        Ok(id)
    }

    /// Registers a flushed chunk and, atomically with it, advances the
    /// producer's durable read offset (paper §V: the offset is stored "when
    /// an indexing server flushes the in-memory B+ tree").
    pub fn register_chunk(&self, id: ChunkId, info: ChunkInfo, durable_offset: u64) -> Result<()> {
        let mut state = self.state.write();
        if state.chunks.contains_key(&id) {
            return Err(WwError::InvalidState(format!(
                "chunk {id} already registered"
            )));
        }
        state.chunks.insert(id, info);
        state.chunk_rtree.insert(info.region, id);
        state.offsets.insert(info.producer, durable_offset);
        let mut rec = Vec::new();
        rec.put_u8(REC_REGISTER_CHUNK);
        rec.put_u64(id.raw());
        codec::encode_region(&mut rec, &info.region);
        rec.put_u64(info.count);
        rec.put_u64(info.bytes);
        rec.put_u32(info.producer.raw());
        rec.put_u64(durable_offset);
        self.log_mutation(&state, rec)
    }

    /// Durable facts about a chunk.
    pub fn chunk_info(&self, id: ChunkId) -> Option<ChunkInfo> {
        self.state.read().chunks.get(&id).copied()
    }

    /// Number of registered chunks.
    pub fn chunk_count(&self) -> usize {
        self.state.read().chunks.len()
    }

    /// All chunks whose regions overlap `query` — the R-tree lookup behind
    /// query decomposition (§IV-A).
    pub fn chunks_overlapping(&self, query: &Region) -> Vec<(ChunkId, Region)> {
        let state = self.state.read();
        let mut out: Vec<(ChunkId, Region)> = state
            .chunk_rtree
            .search_entries(query)
            .into_iter()
            .map(|(r, id)| (*id, r))
            .collect();
        out.sort_unstable_by_key(|(id, _)| *id);
        out
    }

    /// Reports (or clears, with `None`) an indexing server's current
    /// in-memory region. Volatile — cleared state is rebuilt on recovery.
    pub fn update_memory_region(&self, server: ServerId, region: Option<Region>) {
        let mut state = self.state.write();
        match region {
            Some(r) => {
                state.memory_regions.insert(server, r);
            }
            None => {
                state.memory_regions.remove(&server);
            }
        }
    }

    /// Indexing servers whose in-memory regions overlap `query`.
    pub fn memory_regions_overlapping(&self, query: &Region) -> Vec<(ServerId, Region)> {
        self.state
            .read()
            .memory_regions
            .iter()
            .filter(|(_, r)| r.overlaps(query))
            .map(|(s, r)| (*s, *r))
            .collect()
    }

    /// Installs a new key-partitioning schema (must be valid and newer than
    /// the current version).
    pub fn set_partition(&self, schema: PartitionSchema) -> Result<()> {
        schema.validate().map_err(|e| match e {
            WwError::Config(m) => WwError::Config(m),
            other => other,
        })?;
        let mut state = self.state.write();
        if let Some(current) = &state.partition {
            // Re-publishing the installed schema is a no-op, so a retried
            // (or re-driven) install is safe; anything else at or below
            // the current version is a stale publisher.
            if schema == *current {
                return Ok(());
            }
            if schema.version <= current.version {
                return Err(WwError::InvalidState(format!(
                    "stale partition version {} (current {})",
                    schema.version, current.version
                )));
            }
        }
        let mut rec = Vec::new();
        rec.put_u8(REC_SET_PARTITION);
        schema.encode(&mut rec);
        state.partition = Some(schema);
        self.log_mutation(&state, rec)
    }

    /// The current partitioning schema.
    pub fn partition(&self) -> Option<PartitionSchema> {
        self.state.read().partition.clone()
    }

    /// The durable read offset of an indexing server (0 when none stored) —
    /// the replay point for recovery.
    pub fn durable_offset(&self, server: ServerId) -> u64 {
        self.state.read().offsets.get(&server).copied().unwrap_or(0)
    }

    /// Registers a secondary attribute index for a chunk (built by the
    /// producing indexing server at flush time).
    pub fn register_attr_index(
        &self,
        chunk: ChunkId,
        attr: AttrId,
        index: ChunkAttrIndex,
    ) -> Result<()> {
        let mut state = self.state.write();
        if !state.chunks.contains_key(&chunk) {
            return Err(WwError::not_found("chunk", chunk));
        }
        let mut rec = Vec::new();
        rec.put_u8(REC_ATTR_INDEX);
        rec.put_u64(chunk.raw());
        rec.put_u32(attr as u32);
        index.encode(&mut rec);
        state.attr_indexes.insert((chunk, attr), index);
        self.log_mutation(&state, rec)
    }

    /// Probes a chunk's attribute index for an equality constraint.
    /// Chunks with no registered index answer [`AttrProbe::Unknown`] —
    /// pruning never risks correctness.
    pub fn attr_probe(&self, chunk: ChunkId, attr: AttrId, value: u64) -> AttrProbe {
        self.state
            .read()
            .attr_indexes
            .get(&(chunk, attr))
            .map(|idx| idx.probe(value))
            .unwrap_or(AttrProbe::Unknown)
    }

    /// Number of registered attribute indexes (diagnostics).
    pub fn attr_index_count(&self) -> usize {
        self.state.read().attr_indexes.len()
    }

    /// Registers the aggregate summary extent of a chunk (recorded by the
    /// producing indexing server at flush time, DESIGN.md §4b).
    pub fn register_summary(&self, chunk: ChunkId, extent: SummaryExtent) -> Result<()> {
        let mut state = self.state.write();
        if !state.chunks.contains_key(&chunk) {
            return Err(WwError::not_found("chunk", chunk));
        }
        state.summaries.insert(chunk, extent);
        let mut rec = Vec::new();
        rec.put_u8(REC_SUMMARY);
        rec.put_u64(chunk.raw());
        rec.put_u64(extent.cells);
        rec.put_u64(extent.bytes);
        rec.put_u16(extent.levels as u16);
        rec.put_u16(extent.slice_bits as u16);
        put_measure_range(&mut rec, extent.measure_range);
        self.log_mutation(&state, rec)
    }

    /// The summary extent of a chunk, when one was sealed into it.
    pub fn summary_extent(&self, chunk: ChunkId) -> Option<SummaryExtent> {
        self.state.read().summaries.get(&chunk).copied()
    }

    /// Number of chunks carrying an aggregate summary (diagnostics).
    pub fn summary_count(&self) -> usize {
        self.state.read().summaries.len()
    }

    /// Registers (or refreshes) a cluster member under a heartbeat lease of
    /// `ttl` and returns the membership epoch after the join. Idempotent: a
    /// re-join with identical role/node only renews the lease; a changed
    /// role or node placement counts as a membership change and bumps the
    /// epoch.
    pub fn join(
        &self,
        server: ServerId,
        role: MemberRole,
        node: NodeId,
        ttl: Duration,
    ) -> Result<u64> {
        let mut state = self.state.write();
        let info = MemberInfo { role, node };
        let changed = state.members.insert(server, info) != Some(info);
        state.leases.insert(server, Instant::now() + ttl);
        if changed {
            state.membership_epoch += 1;
            let epoch = state.membership_epoch;
            let mut rec = Vec::new();
            rec.put_u8(REC_MEMBER_JOIN);
            rec.put_u32(server.raw());
            rec.put_u16(u16::from(role.as_u8()));
            rec.put_u32(node.raw());
            rec.put_u64(epoch);
            self.log_mutation(&state, rec)?;
        }
        Ok(state.membership_epoch)
    }

    /// Renews a member's lease and returns the current membership epoch.
    /// A server whose membership lapsed (or that never joined) gets a
    /// non-retryable [`WwError::NotFound`] — retrying the heartbeat
    /// cannot help; the caller must re-`join`.
    pub fn heartbeat(&self, server: ServerId, ttl: Duration) -> Result<u64> {
        let mut state = self.state.write();
        if !state.members.contains_key(&server) {
            return Err(WwError::not_found("membership lease", server));
        }
        state.leases.insert(server, Instant::now() + ttl);
        Ok(state.membership_epoch)
    }

    /// Removes a member (graceful leave) and returns the epoch after the
    /// removal. Idempotent: leaving twice does not bump the epoch again.
    pub fn leave(&self, server: ServerId) -> Result<u64> {
        let mut state = self.state.write();
        if state.members.remove(&server).is_some() {
            state.leases.remove(&server);
            state.membership_epoch += 1;
            let epoch = state.membership_epoch;
            let mut rec = Vec::new();
            rec.put_u8(REC_MEMBER_LEAVE);
            rec.put_u32(server.raw());
            rec.put_u64(epoch);
            self.log_mutation(&state, rec)?;
        }
        Ok(state.membership_epoch)
    }

    /// Removes every member whose lease deadline has passed and returns
    /// the evicted `(server, node)` pairs — the hook that drives chunk
    /// re-replication when a node silently dies. Members without a lease
    /// deadline (recovered from a snapshot before any heartbeat) are
    /// given one full `grace` period instead of being evicted blindly.
    pub fn expire_lapsed_leases(&self, grace: Duration) -> Result<Vec<(ServerId, NodeId)>> {
        let now = Instant::now();
        let mut state = self.state.write();
        let mut expired = Vec::new();
        let members: Vec<ServerId> = state.members.keys().copied().collect();
        for server in members {
            match state.leases.get(&server) {
                Some(deadline) if *deadline <= now => {
                    let info = state.members.remove(&server).expect("member present");
                    state.leases.remove(&server);
                    expired.push((server, info.node));
                }
                Some(_) => {}
                None => {
                    state.leases.insert(server, now + grace);
                }
            }
        }
        if !expired.is_empty() {
            for &(server, _) in &expired {
                state.membership_epoch += 1;
                let epoch = state.membership_epoch;
                let mut rec = Vec::new();
                rec.put_u8(REC_MEMBER_LEAVE);
                rec.put_u32(server.raw());
                rec.put_u64(epoch);
                self.log_mutation(&state, rec)?;
            }
        }
        Ok(expired)
    }

    /// The current epoch-numbered membership view.
    pub fn membership(&self) -> MembershipView {
        self.state.read().membership_view()
    }

    /// The current membership epoch (cheap polling handle).
    pub fn membership_epoch(&self) -> u64 {
        self.state.read().membership_epoch
    }

    /// Durably records the start of a key-range migration and bumps the
    /// membership epoch (routers holding the old epoch re-plan). Returns
    /// the in-flight record. A repeat of an identical in-flight
    /// `(keys, from, to)` is answered with the existing record: a retried
    /// request, or a driver re-running a move whose first driver died,
    /// adopts the record instead of writing a second one.
    pub fn begin_migration(
        &self,
        keys: KeyInterval,
        from: ServerId,
        to: ServerId,
    ) -> Result<MigrationRecord> {
        let mut state = self.state.write();
        let same =
            |r: &&MigrationRecord| !r.completed() && (r.keys, r.from, r.to) == (keys, from, to);
        if let Some(rec) = state.migrations.values().find(same) {
            return Ok(*rec);
        }
        let id = state.next_migration;
        state.next_migration += 1;
        state.membership_epoch += 1;
        let rec = MigrationRecord {
            id,
            keys,
            from,
            to,
            cutover_epoch: None,
        };
        state.migrations.insert(id, rec);
        let epoch = state.membership_epoch;
        self.log_mutation(&state, encode_migration_record(&rec, epoch))?;
        Ok(rec)
    }

    /// Durably records a migration's cut-over: the membership epoch is
    /// bumped and stamped into the record, after which the target owns the
    /// range exclusively. Idempotent per id; errors on unknown migrations.
    pub fn complete_migration(&self, id: u64) -> Result<u64> {
        let mut state = self.state.write();
        let Some(rec) = state.migrations.get(&id).copied() else {
            return Err(WwError::not_found("migration", ChunkId(id)));
        };
        if let Some(epoch) = rec.cutover_epoch {
            return Ok(epoch);
        }
        state.membership_epoch += 1;
        let epoch = state.membership_epoch;
        let done = MigrationRecord {
            cutover_epoch: Some(epoch),
            ..rec
        };
        state.migrations.insert(id, done);
        self.log_mutation(&state, encode_migration_record(&done, epoch))?;
        Ok(epoch)
    }

    /// Every recorded migration (in-flight and completed), by id.
    pub fn migrations(&self) -> Vec<MigrationRecord> {
        self.state.read().migrations.values().copied().collect()
    }

    /// Appends one mutation record to the log (committed per the fsync
    /// policy) and compacts into a fresh snapshot once the log outgrows
    /// its budget. Called with the state write lock held, so the log
    /// order matches the in-memory mutation order.
    fn log_mutation(&self, state: &MetaState, record: Vec<u8>) -> Result<()> {
        let Some(d) = &self.durable else {
            return Ok(());
        };
        d.log.append(&record)?;
        d.log.commit()?;
        let total = d
            .log_bytes
            .fetch_add(record.len() as u64, Ordering::Relaxed)
            + record.len() as u64;
        if total as usize > d.compact_bytes {
            // Compaction: durably publish the snapshot first, then drop
            // the log. A crash in between replays the (idempotent) log
            // over the new snapshot — harmless by construction.
            write_atomic(
                &d.snapshot_path,
                &Self::encode_state(state),
                d.policy,
                &d.stats,
            )?;
            d.log.reset()?;
            d.log_bytes.store(0, Ordering::Relaxed);
        }
        Ok(())
    }

    fn encode_state(state: &MetaState) -> Vec<u8> {
        let mut body = Vec::new();
        body.put_u64(state.next_chunk);
        body.put_u32(state.chunks.len() as u32);
        for (id, info) in &state.chunks {
            body.put_u64(id.raw());
            codec::encode_region(&mut body, &info.region);
            body.put_u64(info.count);
            body.put_u64(info.bytes);
            body.put_u32(info.producer.raw());
        }
        match &state.partition {
            Some(p) => {
                body.put_u32(1);
                p.encode(&mut body);
            }
            None => body.put_u32(0),
        }
        body.put_u32(state.offsets.len() as u32);
        for (server, offset) in &state.offsets {
            body.put_u32(server.raw());
            body.put_u64(*offset);
        }
        body.put_u32(state.attr_indexes.len() as u32);
        for ((chunk, attr), index) in &state.attr_indexes {
            body.put_u64(chunk.raw());
            body.put_u32(*attr as u32);
            index.encode(&mut body);
        }
        body.put_u32(state.summaries.len() as u32);
        for (chunk, extent) in &state.summaries {
            body.put_u64(chunk.raw());
            body.put_u64(extent.cells);
            body.put_u64(extent.bytes);
            body.put_u16(extent.levels as u16);
            body.put_u16(extent.slice_bits as u16);
            put_measure_range(&mut body, extent.measure_range);
        }
        // Membership + migration section (trailing-optional, like the two
        // sections above, so pre-elasticity snapshots still decode).
        body.put_u64(state.membership_epoch);
        body.put_u64(state.next_migration);
        body.put_u32(state.members.len() as u32);
        for (server, info) in &state.members {
            body.put_u32(server.raw());
            body.put_u16(u16::from(info.role.as_u8()));
            body.put_u32(info.node.raw());
        }
        body.put_u32(state.migrations.len() as u32);
        for rec in state.migrations.values() {
            body.put_u64(rec.id);
            body.put_u64(rec.keys.lo());
            body.put_u64(rec.keys.hi());
            body.put_u32(rec.from.raw());
            body.put_u32(rec.to.raw());
            match rec.cutover_epoch {
                Some(e) => {
                    body.put_u16(1);
                    body.put_u64(e);
                }
                None => {
                    body.put_u16(0);
                    body.put_u64(0);
                }
            }
        }
        let mut out = Vec::with_capacity(body.len() + 24);
        out.put_u64(SNAPSHOT_MAGIC);
        out.put_u64(codec::fnv1a(&body));
        out.extend_from_slice(&body);
        out
    }

    fn decode_state(bytes: &[u8]) -> Result<MetaState> {
        let mut dec = Decoder::new(bytes, "meta snapshot");
        if dec.get_u64()? != SNAPSHOT_MAGIC {
            return Err(WwError::corrupt("meta snapshot", "bad magic"));
        }
        let checksum = dec.get_u64()?;
        let body = &bytes[16..];
        if codec::fnv1a(body) != checksum {
            return Err(WwError::corrupt("meta snapshot", "checksum mismatch"));
        }
        let mut dec = Decoder::new(body, "meta snapshot");
        let next_chunk = dec.get_u64()?;
        let n_chunks = dec.get_u32()? as usize;
        let mut chunks = BTreeMap::new();
        let mut chunk_rtree = RTree::new();
        for _ in 0..n_chunks {
            let id = ChunkId(dec.get_u64()?);
            let region = codec::decode_region(&mut dec)?;
            let count = dec.get_u64()?;
            let bytes_ = dec.get_u64()?;
            let producer = ServerId(dec.get_u32()?);
            chunks.insert(
                id,
                ChunkInfo {
                    region,
                    count,
                    bytes: bytes_,
                    producer,
                },
            );
            chunk_rtree.insert(region, id);
        }
        let partition = if dec.get_u32()? == 1 {
            Some(PartitionSchema::decode(&mut dec)?)
        } else {
            None
        };
        let n_offsets = dec.get_u32()? as usize;
        let mut offsets = BTreeMap::new();
        for _ in 0..n_offsets {
            let server = ServerId(dec.get_u32()?);
            let offset = dec.get_u64()?;
            offsets.insert(server, offset);
        }
        let mut attr_indexes = BTreeMap::new();
        // Older snapshots end here; the attr-index section is optional.
        if dec.remaining() > 0 {
            let n_attr = dec.get_u32()? as usize;
            for _ in 0..n_attr {
                let chunk = ChunkId(dec.get_u64()?);
                let attr = dec.get_u32()? as AttrId;
                attr_indexes.insert((chunk, attr), ChunkAttrIndex::decode(&mut dec)?);
            }
        }
        let mut summaries = BTreeMap::new();
        // The summary-extent section is likewise optional (trailing).
        if dec.remaining() > 0 {
            let n_summaries = dec.get_u32()? as usize;
            for _ in 0..n_summaries {
                let chunk = ChunkId(dec.get_u64()?);
                let cells = dec.get_u64()?;
                let bytes_ = dec.get_u64()?;
                let levels = dec.get_u16()? as u8;
                let slice_bits = dec.get_u16()? as u8;
                let measure_range = get_measure_range(&mut dec)?;
                summaries.insert(
                    chunk,
                    SummaryExtent {
                        cells,
                        bytes: bytes_,
                        levels,
                        slice_bits,
                        measure_range,
                    },
                );
            }
        }
        let mut membership_epoch = 0;
        let mut next_migration = 0;
        let mut members = BTreeMap::new();
        let mut migrations = BTreeMap::new();
        // Membership + migration section (trailing-optional).
        if dec.remaining() > 0 {
            membership_epoch = dec.get_u64()?;
            next_migration = dec.get_u64()?;
            let n_members = dec.get_u32()? as usize;
            for _ in 0..n_members {
                let server = ServerId(dec.get_u32()?);
                let role = MemberRole::from_u8(dec.get_u16()? as u8)?;
                let node = NodeId(dec.get_u32()?);
                members.insert(server, MemberInfo { role, node });
            }
            let n_migrations = dec.get_u32()? as usize;
            for _ in 0..n_migrations {
                let id = dec.get_u64()?;
                let lo = dec.get_u64()?;
                let hi = dec.get_u64()?;
                if lo > hi {
                    return Err(WwError::corrupt(
                        "meta snapshot",
                        "inverted migration range",
                    ));
                }
                let from = ServerId(dec.get_u32()?);
                let to = ServerId(dec.get_u32()?);
                let flag = dec.get_u16()?;
                let cut = dec.get_u64()?;
                let cutover_epoch = match flag {
                    0 => None,
                    1 => Some(cut),
                    _ => return Err(WwError::corrupt("meta snapshot", "bad cut-over flag")),
                };
                migrations.insert(
                    id,
                    MigrationRecord {
                        id,
                        keys: KeyInterval::new(lo, hi),
                        from,
                        to,
                        cutover_epoch,
                    },
                );
            }
        }
        Ok(MetaState {
            next_chunk,
            chunks,
            chunk_rtree,
            partition,
            offsets,
            attr_indexes,
            summaries,
            memory_regions: BTreeMap::new(),
            members,
            membership_epoch,
            migrations,
            next_migration,
            // Leases are volatile: a restarted meta server grants every
            // recovered member a fresh grace window on the first expiry
            // sweep instead of inheriting pre-crash deadlines.
            leases: BTreeMap::new(),
        })
    }
}

/// Re-applies one mutation-log record during recovery. Records are
/// idempotent (inserts overwrite-or-keep, counters and versions only move
/// forward) so a suffix of the log may legally replay over a snapshot
/// that already contains its effects.
fn apply_record(state: &mut MetaState, record: &[u8]) -> Result<()> {
    let mut dec = Decoder::new(record, "meta log record");
    let tag = dec.get_u8()?;
    match tag {
        REC_ENSURE_NEXT_CHUNK => {
            let next = dec.get_u64()?;
            state.next_chunk = state.next_chunk.max(next);
        }
        REC_REGISTER_CHUNK => {
            let id = ChunkId(dec.get_u64()?);
            let region = codec::decode_region(&mut dec)?;
            let count = dec.get_u64()?;
            let bytes = dec.get_u64()?;
            let producer = ServerId(dec.get_u32()?);
            let durable_offset = dec.get_u64()?;
            if state
                .chunks
                .insert(
                    id,
                    ChunkInfo {
                        region,
                        count,
                        bytes,
                        producer,
                    },
                )
                .is_none()
            {
                state.chunk_rtree.insert(region, id);
            }
            let e = state.offsets.entry(producer).or_insert(durable_offset);
            *e = (*e).max(durable_offset);
            state.next_chunk = state.next_chunk.max(id.raw() + 1);
        }
        REC_SET_PARTITION => {
            let schema = PartitionSchema::decode(&mut dec)?;
            let newer = state
                .partition
                .as_ref()
                .is_none_or(|cur| schema.version > cur.version);
            if newer {
                state.partition = Some(schema);
            }
        }
        REC_ATTR_INDEX => {
            let chunk = ChunkId(dec.get_u64()?);
            let attr = dec.get_u32()? as AttrId;
            let index = ChunkAttrIndex::decode(&mut dec)?;
            state.attr_indexes.insert((chunk, attr), index);
        }
        REC_SUMMARY => {
            let chunk = ChunkId(dec.get_u64()?);
            let cells = dec.get_u64()?;
            let bytes = dec.get_u64()?;
            let levels = dec.get_u16()? as u8;
            let slice_bits = dec.get_u16()? as u8;
            let measure_range = get_measure_range(&mut dec)?;
            state.summaries.insert(
                chunk,
                SummaryExtent {
                    cells,
                    bytes,
                    levels,
                    slice_bits,
                    measure_range,
                },
            );
        }
        REC_MEMBER_JOIN => {
            let server = ServerId(dec.get_u32()?);
            let role = MemberRole::from_u8(dec.get_u16()? as u8)?;
            let node = NodeId(dec.get_u32()?);
            let epoch = dec.get_u64()?;
            state.members.insert(server, MemberInfo { role, node });
            state.membership_epoch = state.membership_epoch.max(epoch);
        }
        REC_MEMBER_LEAVE => {
            let server = ServerId(dec.get_u32()?);
            let epoch = dec.get_u64()?;
            state.members.remove(&server);
            state.membership_epoch = state.membership_epoch.max(epoch);
        }
        REC_MIGRATION => {
            let (rec, epoch) = decode_migration_record(&mut dec)?;
            // A completed record never regresses to in-flight on replay.
            let stale = state
                .migrations
                .get(&rec.id)
                .is_some_and(|cur| cur.completed() && !rec.completed());
            if !stale {
                state.migrations.insert(rec.id, rec);
            }
            state.next_migration = state.next_migration.max(rec.id + 1);
            state.membership_epoch = state.membership_epoch.max(epoch);
        }
        other => {
            return Err(WwError::corrupt(
                "meta log record",
                format!("unknown record tag {other}"),
            ))
        }
    }
    if dec.remaining() != 0 {
        return Err(WwError::corrupt(
            "meta log record",
            format!("{} trailing bytes after record", dec.remaining()),
        ));
    }
    Ok(())
}

impl Counters for MetadataService {
    fn visit(&self, f: &mut dyn FnMut(&str, u64)) {
        let state = self.state.read();
        f("chunks_registered", state.chunks.len() as u64);
        f("attr_indexes", state.attr_indexes.len() as u64);
        f("membership_epoch", state.membership_epoch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waterwheel_core::{KeyInterval, TimeInterval};

    fn region(k0: u64, k1: u64, t0: u64, t1: u64) -> Region {
        Region::new(KeyInterval::new(k0, k1), TimeInterval::new(t0, t1))
    }

    fn info(k0: u64, k1: u64, t0: u64, t1: u64, producer: u32) -> ChunkInfo {
        ChunkInfo {
            region: region(k0, k1, t0, t1),
            count: 10,
            bytes: 100,
            producer: ServerId(producer),
        }
    }

    fn tmp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ww-meta-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir.join("meta.snapshot")
    }

    #[test]
    fn chunk_ids_are_unique_and_monotone() {
        let meta = MetadataService::in_memory();
        let a = meta.allocate_chunk_id().unwrap();
        let b = meta.allocate_chunk_id().unwrap();
        assert!(a < b);
    }

    #[test]
    fn register_and_search_chunks() {
        let meta = MetadataService::in_memory();
        let a = meta.allocate_chunk_id().unwrap();
        let b = meta.allocate_chunk_id().unwrap();
        meta.register_chunk(a, info(0, 100, 0, 50, 1), 10).unwrap();
        meta.register_chunk(b, info(101, 200, 0, 50, 2), 20)
            .unwrap();
        assert_eq!(meta.chunk_count(), 2);
        let hits = meta.chunks_overlapping(&region(50, 150, 0, 10));
        assert_eq!(hits.len(), 2);
        let hits = meta.chunks_overlapping(&region(0, 50, 60, 90));
        assert!(hits.is_empty());
        // Duplicate registration rejected.
        assert!(meta.register_chunk(a, info(0, 1, 0, 1, 1), 0).is_err());
    }

    #[test]
    fn offsets_advance_with_registration() {
        let meta = MetadataService::in_memory();
        assert_eq!(meta.durable_offset(ServerId(1)), 0);
        let a = meta.allocate_chunk_id().unwrap();
        meta.register_chunk(a, info(0, 10, 0, 10, 1), 555).unwrap();
        assert_eq!(meta.durable_offset(ServerId(1)), 555);
    }

    #[test]
    fn memory_regions_are_tracked_and_cleared() {
        let meta = MetadataService::in_memory();
        meta.update_memory_region(ServerId(3), Some(region(0, 10, 100, 200)));
        assert_eq!(
            meta.memory_regions_overlapping(&region(5, 6, 150, 160))
                .len(),
            1
        );
        meta.update_memory_region(ServerId(3), None);
        assert!(meta.memory_regions_overlapping(&Region::full()).is_empty());
    }

    #[test]
    fn partition_versions_must_increase() {
        let meta = MetadataService::in_memory();
        let servers: Vec<ServerId> = (0..2).map(ServerId).collect();
        let mut schema = PartitionSchema::uniform(&servers);
        schema.version = 1;
        meta.set_partition(schema.clone()).unwrap();
        // Re-publishing the installed schema is a no-op (a retried install);
        // a different schema at the same version is a stale publisher.
        meta.set_partition(schema.clone()).unwrap();
        let mut other = PartitionSchema::from_boundaries(&[7], &servers, 1).unwrap();
        assert!(meta.set_partition(other.clone()).is_err());
        other.version = 0;
        assert!(meta.set_partition(other).is_err());
        schema.version = 2;
        meta.set_partition(schema).unwrap();
        assert_eq!(meta.partition().unwrap().version, 2);
    }

    #[test]
    fn snapshot_survives_restart() {
        let path = tmp_path("restart");
        {
            let meta = MetadataService::open(&path).unwrap();
            let a = meta.allocate_chunk_id().unwrap();
            meta.register_chunk(a, info(0, 100, 0, 50, 1), 42).unwrap();
            let servers: Vec<ServerId> = (0..2).map(ServerId).collect();
            let mut schema = PartitionSchema::uniform(&servers);
            schema.version = 5;
            meta.set_partition(schema).unwrap();
            meta.update_memory_region(ServerId(1), Some(region(0, 10, 0, 10)));
        }
        let meta = MetadataService::open(&path).unwrap();
        assert_eq!(meta.chunk_count(), 1);
        assert_eq!(meta.durable_offset(ServerId(1)), 42);
        assert_eq!(meta.partition().unwrap().version, 5);
        // Chunk ids continue past the recovered counter.
        assert_eq!(meta.allocate_chunk_id().unwrap(), ChunkId(1));
        // Volatile memory regions do NOT survive.
        assert!(meta.memory_regions_overlapping(&Region::full()).is_empty());
        // R-tree rebuilt from the snapshot.
        assert_eq!(meta.chunks_overlapping(&region(0, 10, 0, 10)).len(), 1);
    }

    #[test]
    fn summary_extents_survive_restart() {
        let path = tmp_path("summary");
        let extent = SummaryExtent {
            cells: 1_234,
            bytes: 56_789,
            levels: 0b1111,
            slice_bits: 4,
            measure_range: Some((3, 907)),
        };
        {
            let meta = MetadataService::open(&path).unwrap();
            let a = meta.allocate_chunk_id().unwrap();
            meta.register_chunk(a, info(0, 100, 0, 50, 1), 42).unwrap();
            // Unregistered chunks are rejected.
            assert!(meta.register_summary(ChunkId(99), extent).is_err());
            meta.register_summary(a, extent).unwrap();
            assert_eq!(meta.summary_count(), 1);
        }
        let meta = MetadataService::open(&path).unwrap();
        assert_eq!(meta.summary_extent(ChunkId(0)), Some(extent));
        assert_eq!(meta.summary_extent(ChunkId(1)), None);
        assert_eq!(meta.summary_count(), 1);
    }

    #[test]
    fn compaction_folds_log_into_snapshot() {
        let path = tmp_path("compact");
        {
            // A tiny compaction budget so a handful of mutations trigger
            // several snapshot+reset cycles.
            let meta = MetadataService::open_with(&path, FsyncPolicy::Always, 4096).unwrap();
            for i in 0..50u64 {
                let id = meta.allocate_chunk_id().unwrap();
                meta.register_chunk(id, info(i * 10, i * 10 + 9, 0, 50, 1), i)
                    .unwrap();
            }
            let stats = meta.wal_stats().unwrap();
            assert!(stats.fsyncs.load(std::sync::atomic::Ordering::Relaxed) > 0);
        }
        let meta = MetadataService::open_with(&path, FsyncPolicy::Always, 4096).unwrap();
        assert_eq!(meta.chunk_count(), 50);
        assert_eq!(meta.durable_offset(ServerId(1)), 49);
        assert_eq!(meta.allocate_chunk_id().unwrap(), ChunkId(50));
    }

    #[test]
    fn torn_log_tail_is_tolerated_but_corruption_is_not() {
        let path = tmp_path("torn-log");
        {
            let meta = MetadataService::open(&path).unwrap();
            let a = meta.allocate_chunk_id().unwrap();
            meta.register_chunk(a, info(0, 100, 0, 50, 1), 7).unwrap();
        }
        // Find the mutation-log segment and tear its tail: the last
        // record (whatever it was) is dropped, earlier ones survive.
        let dir = path.parent().unwrap();
        let seg = fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| {
                let p = e.unwrap().path();
                let n = p.file_name()?.to_str()?.to_string();
                (n.starts_with("meta.snapshot.log.") && n.ends_with(".wal")).then_some(p)
            })
            .min()
            .unwrap();
        let bytes = fs::read(&seg).unwrap();
        fs::write(&seg, &bytes[..bytes.len() - 3]).unwrap();
        let meta = MetadataService::open(&path).unwrap();
        // The torn record was register_chunk; allocate still replayed.
        assert_eq!(meta.chunk_count(), 0);
        assert_eq!(meta.allocate_chunk_id().unwrap(), ChunkId(1));
        drop(meta);
        // A flipped bit inside a complete record is corruption.
        let seg_bytes = fs::read(&seg).unwrap();
        if seg_bytes.len() > 20 {
            let mut b = seg_bytes;
            b[16] ^= 0xff;
            fs::write(&seg, &b).unwrap();
            assert!(MetadataService::open(&path).is_err());
        }
    }

    #[test]
    fn membership_epochs_bump_on_change_and_survive_restart() {
        let path = tmp_path("members");
        let ttl = Duration::from_secs(60);
        {
            let meta = MetadataService::open(&path).unwrap();
            assert_eq!(meta.membership_epoch(), 0);
            let e1 = meta
                .join(ServerId(0), MemberRole::Indexing, NodeId(0), ttl)
                .unwrap();
            assert_eq!(e1, 1);
            // Identical re-join only renews the lease — no epoch bump.
            let e2 = meta
                .join(ServerId(0), MemberRole::Indexing, NodeId(0), ttl)
                .unwrap();
            assert_eq!(e2, 1);
            // A node move is a membership change.
            let e3 = meta
                .join(ServerId(0), MemberRole::Indexing, NodeId(2), ttl)
                .unwrap();
            assert_eq!(e3, 2);
            meta.join(ServerId(1_000), MemberRole::Query, NodeId(1), ttl)
                .unwrap();
            let e5 = meta.leave(ServerId(0)).unwrap();
            assert_eq!(e5, 4);
            // Double-leave is idempotent.
            assert_eq!(meta.leave(ServerId(0)).unwrap(), 4);
            assert_eq!(meta.heartbeat(ServerId(1_000), ttl).unwrap(), 4);
            assert!(meta.heartbeat(ServerId(0), ttl).is_err());
        }
        let meta = MetadataService::open(&path).unwrap();
        assert_eq!(meta.membership_epoch(), 4);
        let view = meta.membership();
        assert_eq!(view.epoch, 4);
        assert!(view.indexing.is_empty());
        assert_eq!(view.query, vec![(ServerId(1_000), NodeId(1))]);
        // Recovered members have no lease yet; the first sweep grants a
        // grace window instead of evicting them.
        assert!(meta
            .expire_lapsed_leases(Duration::from_secs(60))
            .unwrap()
            .is_empty());
        assert_eq!(meta.membership_epoch(), 4);
    }

    #[test]
    fn lapsed_leases_evict_members() {
        let meta = MetadataService::in_memory();
        meta.join(
            ServerId(0),
            MemberRole::Indexing,
            NodeId(0),
            Duration::from_secs(0),
        )
        .unwrap();
        meta.join(
            ServerId(1),
            MemberRole::Indexing,
            NodeId(1),
            Duration::from_secs(60),
        )
        .unwrap();
        let expired = meta.expire_lapsed_leases(Duration::from_secs(60)).unwrap();
        assert_eq!(expired, vec![(ServerId(0), NodeId(0))]);
        assert_eq!(meta.membership().indexing_ids(), vec![ServerId(1)]);
        assert_eq!(meta.membership_epoch(), 3);
        // The evicted server must re-join, not heartbeat.
        assert!(meta.heartbeat(ServerId(0), Duration::from_secs(1)).is_err());
    }

    #[test]
    fn migrations_are_durable_and_idempotent() {
        let path = tmp_path("migrations");
        {
            let meta = MetadataService::open(&path).unwrap();
            let rec = meta
                .begin_migration(KeyInterval::new(100, 199), ServerId(0), ServerId(2))
                .unwrap();
            assert_eq!(rec.id, 0);
            assert!(!rec.completed());
            assert_eq!(meta.membership_epoch(), 1);
            let cut = meta.complete_migration(rec.id).unwrap();
            assert_eq!(cut, 2);
            // Completing twice returns the recorded cut-over epoch.
            assert_eq!(meta.complete_migration(rec.id).unwrap(), 2);
            assert_eq!(meta.membership_epoch(), 2);
            // A second migration left in flight across the restart.
            meta.begin_migration(KeyInterval::new(200, 299), ServerId(1), ServerId(2))
                .unwrap();
            assert!(meta.complete_migration(99).is_err());
        }
        let meta = MetadataService::open(&path).unwrap();
        let migrations = meta.migrations();
        assert_eq!(migrations.len(), 2);
        assert_eq!(migrations[0].cutover_epoch, Some(2));
        assert_eq!(migrations[1].keys, KeyInterval::new(200, 299));
        assert!(!migrations[1].completed());
        assert_eq!(meta.membership_epoch(), 3);
        // Ids continue past the recovered counter.
        let rec = meta
            .begin_migration(KeyInterval::new(0, 9), ServerId(0), ServerId(1))
            .unwrap();
        assert_eq!(rec.id, 2);
    }

    #[test]
    fn begin_migration_adopts_an_identical_in_flight_record() {
        let path = tmp_path("migrations-idem");
        let (keys, from, to) = (KeyInterval::new(100, 199), ServerId(0), ServerId(2));
        {
            let meta = MetadataService::open(&path).unwrap();
            let first = meta.begin_migration(keys, from, to).unwrap();
            // The repeat writes nothing: same record, same epoch.
            assert_eq!(meta.begin_migration(keys, from, to).unwrap(), first);
            assert_eq!(meta.membership_epoch(), 1);
            // Any differing field is a different move.
            let other = meta.begin_migration(keys, from, ServerId(3)).unwrap();
            assert_eq!(other.id, first.id + 1);
        }
        // The in-flight record is adopted across a restart too; once it is
        // completed, the same move begins a fresh record.
        let meta = MetadataService::open(&path).unwrap();
        let adopted = meta.begin_migration(keys, from, to).unwrap();
        assert_eq!(adopted.id, 0);
        assert_eq!(meta.migrations().len(), 2);
        meta.complete_migration(adopted.id).unwrap();
        assert_eq!(meta.begin_migration(keys, from, to).unwrap().id, 2);
        assert_eq!(meta.migrations().len(), 3);
    }

    #[test]
    fn corrupt_snapshot_is_rejected() {
        let path = tmp_path("corrupt");
        {
            let meta = MetadataService::open(&path).unwrap();
            meta.allocate_chunk_id().unwrap();
        }
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert!(MetadataService::open(&path).is_err());
    }
}
