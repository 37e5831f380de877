//! The metadata server (paper §II-B) — the ZooKeeper-backed component.
//!
//! It durably holds everything the system must not lose across failures:
//!
//! * the chunk registry — region, tuple count and size per chunk, with its
//!   aggregate summary extent — plus an
//!   R-tree over chunk regions for query decomposition (§IV-A);
//! * the versioned key-partitioning schema (§III-D), together with the
//!   *actual* key interval per indexing server used to answer queries
//!   correctly during repartition overlap windows;
//! * the per-indexing-server durable read offsets into the message queue —
//!   persisted atomically with each flush so recovery replays from exactly
//!   the right point (§V);
//! * the *volatile* in-memory data regions of the indexing servers (widened
//!   by the late-visibility Δt, §IV-D). These are rebuilt on restart, so
//!   they are not persisted.
//!
//! A flush registers in one call, [`MetadataService::register_flush`]: its
//! chunks, their extents and its offset are one
//! `MetaRecord`, and its memory region is set under the same lock, so no
//! reader sees part of a flush. Chunk ids come from
//! [`MetadataService::allocate_chunk_ids`], a block per flush; an id whose
//! flush never registers is a gap, and its file, if one was written, is
//! never read.
//!
//! The durable state is a fold over one record type. A mutator validates
//! under the write lock, appends and commits one typed, idempotent record
//! to the **mutation log** (shared WAL layer, fsync per policy), and only
//! then applies it — through the same `apply` recovery uses, so an `Err`
//! always means "not applied" and live and replayed state cannot differ.
//! Once the log outgrows its budget the state is rewritten as a
//! **snapshot** — the compacted record stream that rebuilds it, under a
//! magic + checksum envelope, renamed into place atomically — and the log
//! reset. Recovery applies the snapshot's records, then the log's; because
//! every record is idempotent, a crash anywhere in the compaction sequence
//! (snapshot rename → segment deletion) replays harmlessly. Damage at any
//! layer — bad snapshot checksum, another format version, torn non-final
//! log segment, unknown record tag — surfaces as a typed
//! [`WwError::Corrupt`], never a panic.

use crate::membership::{MemberInfo, MemberRole, MembershipView, MigrationRecord};
use crate::partition::PartitionSchema;
use crate::rtree::RTree;
use parking_lot::RwLock;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use waterwheel_core::codec::{self, Decoder, Encoder, Wire};
use waterwheel_core::{
    ChunkId, CounterRegistry, Counters, KeyInterval, NodeId, Region, Result, ServerId, WwError,
};
use waterwheel_wal::{sweep_tmp_of, write_atomic, FsyncPolicy, Log, WalStats};

const SNAPSHOT_MAGIC: &[u8; 8] = b"WWMETA03";

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

waterwheel_core::wire_struct!(ChunkInfo {
    region: Region,
    count: u64,
    bytes: u64,
    producer: ServerId,
});

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

// Field by field; a measure range is never inverted.
waterwheel_core::wire_struct!(SummaryExtent {
    cells: u64,
    bytes: u64,
    levels: u8,
    slice_bits: u8,
    measure_range: Option<(u64, u64)> => codec::decode_measure_range,
});

/// Everything a flush registers about one of its chunks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlushedChunk {
    /// The chunk id, from [`MetadataService::allocate_chunk_ids`].
    pub id: ChunkId,
    /// Region, count, size, producer.
    pub info: ChunkInfo,
    /// The aggregate summary sealed into its footer, if any.
    pub summary: Option<SummaryExtent>,
}

waterwheel_core::wire_struct!(FlushedChunk {
    id: ChunkId,
    info: ChunkInfo,
    summary: Option<SummaryExtent>,
});

/// Everything a query plans from, read under one lock: the chunks it
/// overlaps by id, each as its flush registered it (the summary extent
/// carries the measure bounds), then the memory regions it overlaps by
/// server, each with that server's registered durable offset. Read together
/// with the chunk list, the offset tells the server whether the plan counts
/// its latest flush among the chunks.
pub type Overlaps = (Vec<FlushedChunk>, Vec<(ServerId, (Region, u64))>);

waterwheel_core::wire_enum! {
    /// One durable state transition: a frame of the mutation log, and —
    /// many of them back to back — the body of a snapshot. Applying a
    /// record is idempotent (inserts keep-or-overwrite, counters, offsets
    /// and versions only move forward), so any suffix of the log may replay
    /// over a snapshot that already holds its effects; that is what makes a
    /// crash anywhere in compaction harmless. Tags 1, 3 and 4 (one chunk,
    /// one attribute index, one summary extent) are retired, never reused:
    /// a flush is one `Flush` record. Tag 8 was that record while each
    /// chunk carried attribute indexes; retired by tag 9, never reused.
    #[derive(Debug)]
    enum MetaRecord as "record" {
        /// The three monotone counters, max-merged.
        0 => Counters {
            next_chunk: u64,
            next_migration: u64,
            membership_epoch: u64,
        },
        2 => SetPartition(PartitionSchema),
        /// A member (re)registration at membership epoch `epoch`.
        5 => MemberJoin {
            server: ServerId,
            info: MemberInfo,
            epoch: u64,
        },
        /// A member removal (leave or lease lapse) at membership epoch `epoch`.
        6 => MemberLeave {
            server: ServerId,
            epoch: u64,
        },
        /// A migration's begin or cut-over at membership epoch `epoch`.
        7 => Migration {
            rec: MigrationRecord,
            epoch: u64,
        },
        /// A flush: its chunks, each with its summary extent, and its
        /// producer's durable read offset (§V).
        9 => Flush {
            producer: ServerId,
            chunks: Vec<FlushedChunk>,
            durable_offset: u64,
        },
    }
}

impl MetaRecord {
    /// Reads a log frame: exactly one record, nothing after it.
    fn decode_frame(frame: &[u8]) -> Result<Self> {
        let mut dec = Decoder::new(frame, "meta log record");
        let rec = Self::decode(&mut dec)?;
        dec.finish()?;
        Ok(rec)
    }
}

#[derive(Default)]
struct MetaState {
    next_chunk: u64,
    /// Every registered chunk with its summary extent (DESIGN.md §4b).
    chunks: BTreeMap<ChunkId, FlushedChunk>,
    chunk_rtree: RTree<ChunkId>,
    partition: Option<PartitionSchema>,
    offsets: BTreeMap<ServerId, u64>,
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
    /// The one place a durable field changes — live mutators (after the
    /// record is committed) and recovery both come through here, so they
    /// cannot disagree. Infallible: validation happens before a record is
    /// built (live) or while it is decoded (replay).
    fn apply(&mut self, rec: MetaRecord) {
        match rec {
            MetaRecord::Counters {
                next_chunk,
                next_migration,
                membership_epoch,
            } => {
                self.next_chunk = self.next_chunk.max(next_chunk);
                self.next_migration = self.next_migration.max(next_migration);
                self.membership_epoch = self.membership_epoch.max(membership_epoch);
            }
            MetaRecord::Flush {
                producer,
                chunks,
                durable_offset,
            } => {
                for chunk in chunks {
                    self.next_chunk = self.next_chunk.max(chunk.id.raw().saturating_add(1));
                    if let Entry::Vacant(slot) = self.chunks.entry(chunk.id) {
                        self.chunk_rtree.insert(chunk.info.region, chunk.id);
                        slot.insert(chunk);
                    }
                }
                let offset = self.offsets.entry(producer).or_default();
                *offset = (*offset).max(durable_offset);
            }
            MetaRecord::SetPartition(schema) => {
                let newer = self
                    .partition
                    .as_ref()
                    .is_none_or(|cur| schema.version > cur.version);
                if newer {
                    self.partition = Some(schema);
                }
            }
            MetaRecord::MemberJoin {
                server,
                info,
                epoch,
            } => {
                self.members.insert(server, info);
                self.membership_epoch = self.membership_epoch.max(epoch);
            }
            MetaRecord::MemberLeave { server, epoch } => {
                self.members.remove(&server);
                self.leases.remove(&server);
                self.membership_epoch = self.membership_epoch.max(epoch);
            }
            MetaRecord::Migration { rec, epoch } => {
                // A completed record never regresses to in-flight.
                let stale = self
                    .migrations
                    .get(&rec.id)
                    .is_some_and(|cur| cur.completed() && !rec.completed());
                if !stale {
                    self.migrations.insert(rec.id, rec);
                }
                self.next_migration = self.next_migration.max(rec.id.saturating_add(1));
                self.membership_epoch = self.membership_epoch.max(epoch);
            }
        }
    }

    /// The compacted record stream: feeds `f` the records that rebuild the
    /// durable state from empty, in a deterministic order. Every chunk is a
    /// flush of its own carrying its producer's current offset (offsets
    /// max-merge), members and migrations the current epoch.
    fn for_each_record(&self, mut f: impl FnMut(MetaRecord)) {
        let epoch = self.membership_epoch;
        f(MetaRecord::Counters {
            next_chunk: self.next_chunk,
            next_migration: self.next_migration,
            membership_epoch: epoch,
        });
        if let Some(schema) = &self.partition {
            f(MetaRecord::SetPartition(schema.clone()));
        }
        for chunk in self.chunks.values() {
            let producer = chunk.info.producer;
            f(MetaRecord::Flush {
                producer,
                chunks: vec![chunk.clone()],
                durable_offset: self.offsets.get(&producer).copied().unwrap_or(0),
            });
        }
        for (&server, &info) in &self.members {
            f(MetaRecord::MemberJoin {
                server,
                info,
                epoch,
            });
        }
        for &rec in self.migrations.values() {
            f(MetaRecord::Migration { rec, epoch });
        }
    }

    /// The snapshot file: magic, FNV-1a of the body, then
    /// [`for_each_record`](Self::for_each_record)'s records back to back.
    fn encode_snapshot(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(SNAPSHOT_MAGIC);
        out.put_u64(0);
        self.for_each_record(|rec| rec.encode(&mut out));
        let checksum = codec::fnv1a(&out[16..]);
        out[8..16].copy_from_slice(&checksum.to_le_bytes());
        out
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

    /// Sets (or clears, with `None`) a server's volatile memory region.
    fn set_memory_region(&mut self, server: ServerId, region: Option<Region>) {
        match region {
            Some(r) => self.memory_regions.insert(server, r),
            None => self.memory_regions.remove(&server),
        };
    }
}

/// Checks a snapshot's envelope and decodes its record stream.
fn decode_snapshot(bytes: &[u8]) -> Result<Vec<MetaRecord>> {
    let mut dec = Decoder::new(bytes, "meta snapshot");
    let magic = dec.get_raw(8)?;
    if magic != SNAPSHOT_MAGIC {
        return Err(WwError::corrupt(
            "meta snapshot",
            format!("unsupported format {:?}", String::from_utf8_lossy(magic)),
        ));
    }
    let checksum = dec.get_u64()?;
    let body = &bytes[16..];
    if codec::fnv1a(body) != checksum {
        return Err(WwError::corrupt("meta snapshot", "checksum mismatch"));
    }
    let mut dec = Decoder::new(body, "meta snapshot");
    let mut records = Vec::new();
    while dec.remaining() > 0 {
        records.push(MetaRecord::decode(&mut dec)?);
    }
    Ok(records)
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

impl Durable {
    /// Compaction: durably publish the snapshot first, then drop the log.
    /// A crash in between replays the (idempotent) log over the new
    /// snapshot — harmless by construction.
    fn compact(&self, state: &MetaState) -> Result<()> {
        write_atomic(
            &self.snapshot_path,
            &[&state.encode_snapshot()],
            self.policy,
            &self.stats,
        )?;
        self.log.reset()?;
        self.log_bytes.store(0, Ordering::Relaxed);
        Ok(())
    }
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
            state: std::sync::Arc::new(RwLock::new(MetaState::default())),
            durable: None,
        }
    }

    /// Opens (or creates) a durable service backed by the snapshot at
    /// `path` (and a `<name>.log.*.wal` mutation log beside it) with an
    /// explicit fsync policy and log segment/compaction size. Recovery
    /// folds the snapshot's records, then the log's, into an empty state —
    /// this is the coordinator/metadata recovery path (§V).
    pub fn open_with(
        path: impl Into<PathBuf>,
        policy: FsyncPolicy,
        segment_bytes: usize,
    ) -> Result<Self> {
        let path = path.into();
        let snapshot = match fs::read(&path) {
            Ok(bytes) => Some(decode_snapshot(&bytes)?),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(e.into()),
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
        // Temps of a writer killed inside `write_atomic`. Only this
        // snapshot's own: the directory is the deployment root, which the
        // node's other roles write into too.
        sweep_tmp_of(&path)?;
        let had_snapshot = snapshot.is_some();
        let logged = replay.records.iter().map(|r| MetaRecord::decode_frame(r));
        let mut state = MetaState::default();
        for rec in snapshot.into_iter().flatten().map(Ok).chain(logged) {
            state.apply(rec?);
        }
        stats
            .replayed
            .fetch_add(replay.records.len() as u64, Ordering::Relaxed);
        let log_bytes = replay.records.iter().map(|r| r.len() as u64).sum();
        let durable = Durable {
            snapshot_path: path,
            log,
            policy,
            compact_bytes: segment_bytes,
            log_bytes: AtomicU64::new(log_bytes),
            stats,
        };
        if !had_snapshot {
            // Seed the snapshot so recovery always has a base to replay
            // onto (and so snapshot corruption is detectable from day 1).
            write_atomic(
                &durable.snapshot_path,
                &[&state.encode_snapshot()],
                policy,
                &durable.stats,
            )?;
        }
        Ok(Self {
            state: std::sync::Arc::new(RwLock::new(state)),
            durable: Some(std::sync::Arc::new(durable)),
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

    /// The second half of every durable mutator, called under the state
    /// write lock once the request is validated (so log order is apply
    /// order): append and commit the record, then apply it. `Err` means
    /// the record is not applied. A service without a log builds no bytes.
    ///
    /// Once the log outgrows its budget it is compacted into a fresh
    /// snapshot. The record is committed by then, so it stays applied and
    /// acknowledged even when compaction fails; the byte count stays over
    /// budget and the next mutation tries again.
    fn commit(&self, state: &mut MetaState, rec: MetaRecord) -> Result<()> {
        let Some(d) = &self.durable else {
            state.apply(rec);
            return Ok(());
        };
        let mut frame = Vec::new();
        rec.encode(&mut frame);
        d.log.append(&frame)?;
        d.log.commit()?;
        state.apply(rec);
        let len = frame.len() as u64;
        if d.log_bytes.fetch_add(len, Ordering::Relaxed) + len > d.compact_bytes as u64 {
            let _ = d.compact(state);
        }
        Ok(())
    }

    /// Allocates `n` consecutive fresh chunk ids in one durable step and
    /// returns the first. Ids whose flush never registers are gaps.
    pub fn allocate_chunk_ids(&self, n: u64) -> Result<ChunkId> {
        let mut state = self.state.write();
        let first = ChunkId(state.next_chunk);
        let rec = MetaRecord::Counters {
            next_chunk: first.raw().saturating_add(n),
            next_migration: state.next_migration,
            membership_epoch: state.membership_epoch,
        };
        self.commit(&mut state, rec)?;
        Ok(first)
    }

    /// Registers a flush in one step: its chunks, each with its summary
    /// extent, and the producer's durable read offset
    /// (paper §V: the offset is stored "when an indexing server flushes the
    /// in-memory B+ tree") are one record, and the producer's volatile
    /// memory region is set under the same lock. A reader sees all of a
    /// flush or none of it.
    ///
    /// A flush none of whose chunks is registered is new. An identical
    /// repeat of a registered flush (a retry whose first attempt landed:
    /// every chunk registered with exactly these facts, the offset covered)
    /// is answered `Ok` and writes nothing. Anything else — a registered
    /// chunk with other facts, a flush registered in part, no chunks,
    /// another producer's chunk or one id twice — is refused with
    /// [`WwError::InvalidState`].
    pub fn register_flush(
        &self,
        producer: ServerId,
        chunks: Vec<FlushedChunk>,
        durable_offset: u64,
        region: Option<Region>,
    ) -> Result<()> {
        let mut state = self.state.write();
        let own = |(i, c): (usize, &FlushedChunk)| {
            c.info.producer == producer && chunks[..i].iter().all(|d| d.id != c.id)
        };
        let own = !chunks.is_empty() && chunks.iter().enumerate().all(own);
        let fresh = chunks.iter().all(|c| !state.chunks.contains_key(&c.id));
        let repeat = chunks.iter().all(|c| state.chunks.get(&c.id) == Some(c))
            && state.offsets.get(&producer) >= Some(&durable_offset);
        if own && fresh {
            let rec = MetaRecord::Flush {
                producer,
                chunks,
                durable_offset,
            };
            self.commit(&mut state, rec)?;
        } else if !(own && repeat) {
            return Err(WwError::InvalidState(format!(
                "flush of {producer} conflicts with the chunks registered"
            )));
        }
        state.set_memory_region(producer, region);
        Ok(())
    }

    /// Durable facts about a chunk.
    pub fn chunk_info(&self, id: ChunkId) -> Option<ChunkInfo> {
        self.state.read().chunks.get(&id).map(|c| c.info)
    }

    /// Number of registered chunks.
    pub fn chunk_count(&self) -> usize {
        self.state.read().chunks.len()
    }

    /// All chunks whose regions overlap `query` — the R-tree lookup behind
    /// query decomposition (§IV-A).
    pub fn chunks_overlapping(&self, query: &Region) -> Vec<(ChunkId, Region)> {
        let chunks = self.overlaps(query).0.into_iter();
        chunks.map(|c| (c.id, c.info.region)).collect()
    }

    /// The chunks and memory regions overlapping `query`, each region with
    /// its server's registered offset, all under one read lock: a query
    /// plans from this one snapshot, so no flush registers between its
    /// chunk list and its regions.
    pub fn overlaps(&self, query: &Region) -> Overlaps {
        let state = self.state.read();
        let mut ids = state.chunk_rtree.search(query);
        ids.sort_unstable();
        let chunks = ids.into_iter().map(|id| state.chunks[id].clone()).collect();
        let memory = state.memory_regions.iter();
        let memory = memory.filter(|(_, r)| r.overlaps(query));
        let offset = |server| state.offsets.get(server).copied().unwrap_or(0);
        (chunks, memory.map(|(s, &r)| (*s, (r, offset(s)))).collect())
    }

    /// Reports (or clears, with `None`) an indexing server's current
    /// in-memory region. Volatile — cleared state is rebuilt on recovery.
    pub fn update_memory_region(&self, server: ServerId, region: Option<Region>) {
        self.state.write().set_memory_region(server, region);
    }

    /// Indexing servers whose in-memory regions overlap `query`.
    pub fn memory_regions_overlapping(&self, query: &Region) -> Vec<(ServerId, Region)> {
        let memory = self.overlaps(query).1.into_iter();
        memory
            .map(|(server, (region, _))| (server, region))
            .collect()
    }

    /// Installs a new key-partitioning schema (must be valid and newer than
    /// the current version).
    pub fn set_partition(&self, schema: PartitionSchema) -> Result<()> {
        schema.validate()?;
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
        self.commit(&mut state, MetaRecord::SetPartition(schema))
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

    /// The summary extent of a chunk, when one was sealed into it.
    pub fn summary_extent(&self, chunk: ChunkId) -> Option<SummaryExtent> {
        self.state.read().chunks.get(&chunk)?.summary
    }

    /// Number of chunks carrying an aggregate summary (diagnostics).
    pub fn summary_count(&self) -> usize {
        let state = self.state.read();
        state
            .chunks
            .values()
            .filter(|c| c.summary.is_some())
            .count()
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
        if state.members.get(&server) != Some(&info) {
            let epoch = state.membership_epoch + 1;
            let rec = MetaRecord::MemberJoin {
                server,
                info,
                epoch,
            };
            self.commit(&mut state, rec)?;
        }
        state.leases.insert(server, Instant::now() + ttl);
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
        if state.members.contains_key(&server) {
            let epoch = state.membership_epoch + 1;
            self.commit(&mut state, MetaRecord::MemberLeave { server, epoch })?;
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
        let members: Vec<(ServerId, NodeId)> =
            state.members.iter().map(|(&s, i)| (s, i.node)).collect();
        for (server, node) in members {
            match state.leases.get(&server) {
                Some(deadline) if *deadline <= now => {
                    let epoch = state.membership_epoch + 1;
                    match self.commit(&mut state, MetaRecord::MemberLeave { server, epoch }) {
                        Ok(()) => expired.push((server, node)),
                        // The evictions already committed must reach the
                        // caller; the rest keep their lapsed lease for the
                        // next sweep.
                        Err(_) if !expired.is_empty() => break,
                        Err(e) => return Err(e),
                    }
                }
                Some(_) => {}
                None => {
                    state.leases.insert(server, now + grace);
                }
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
        let rec = MigrationRecord {
            id: state.next_migration,
            keys,
            from,
            to,
            cutover_epoch: None,
        };
        let epoch = state.membership_epoch + 1;
        self.commit(&mut state, MetaRecord::Migration { rec, epoch })?;
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
        let epoch = state.membership_epoch + 1;
        let rec = MigrationRecord {
            cutover_epoch: Some(epoch),
            ..rec
        };
        self.commit(&mut state, MetaRecord::Migration { rec, epoch })?;
        Ok(epoch)
    }

    /// Every recorded migration (in-flight and completed), by id.
    pub fn migrations(&self) -> Vec<MigrationRecord> {
        self.state.read().migrations.values().copied().collect()
    }
}

impl Counters for MetadataService {
    fn visit(&self, f: &mut dyn FnMut(&str, u64)) {
        f("chunks_registered", self.chunk_count() as u64);
        f("membership_epoch", self.membership_epoch());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::path::Path;
    use waterwheel_core::{KeyInterval, TimeInterval};

    const TTL: Duration = Duration::from_secs(60);

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

    /// A flush of one bare chunk.
    fn register(meta: &MetadataService, id: ChunkId, info: ChunkInfo, offset: u64) -> Result<()> {
        let chunk = FlushedChunk {
            id,
            info,
            summary: None,
        };
        meta.register_flush(info.producer, vec![chunk], offset, None)
    }

    fn tmp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ww-meta-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir.join("meta.snapshot")
    }

    /// A durable service under a log budget no test reaches.
    fn open(path: &Path) -> Result<MetadataService> {
        MetadataService::open_with(path, FsyncPolicy::Never, 1 << 20)
    }

    /// One mutation of every durable kind, varied by `step`: odd steps
    /// flush a second, bare chunk beside the first.
    fn mutate(meta: &MetadataService, step: u64) {
        let n = 1 + step % 2;
        let first = meta.allocate_chunk_ids(n).unwrap();
        let k = step * 10;
        let producer = (step % 3) as u32;
        let extent = SummaryExtent {
            cells: step,
            bytes: k,
            levels: 0b1111,
            slice_bits: 4,
            measure_range: step.is_multiple_of(2).then_some((step, k)),
        };
        let mut chunks = vec![FlushedChunk {
            id: first,
            info: info(k, k + 9, 0, 50, producer),
            summary: Some(extent),
        }];
        if n == 2 {
            chunks.push(FlushedChunk {
                id: ChunkId(first.raw() + 1),
                info: info(k, k + 9, 60, 90, producer),
                summary: None,
            });
        }
        meta.register_flush(ServerId(producer), chunks, step, None)
            .unwrap();
        let servers = [ServerId(0), ServerId(1)];
        meta.set_partition(PartitionSchema::from_boundaries(&[k + 1], &servers, step + 1).unwrap())
            .unwrap();
        let member = step as u32 % 5;
        meta.join(
            ServerId(member),
            MemberRole::Indexing,
            NodeId(step as u32 % 2),
            TTL,
        )
        .unwrap();
        if step % 4 == 3 {
            meta.leave(ServerId((member + 1) % 5)).unwrap();
        }
        let keys = KeyInterval::new(k, k + 9);
        let migration = meta
            .begin_migration(keys, ServerId(0), ServerId(1))
            .unwrap();
        if step.is_multiple_of(2) {
            meta.complete_migration(migration.id).unwrap();
        }
    }

    /// An in-memory service that ran `mutate` for `steps` — what any
    /// durable service that ran the same steps must read back as, however
    /// often it was reopened in between.
    fn twin(steps: std::ops::Range<u64>) -> MetadataService {
        let meta = MetadataService::in_memory();
        steps.for_each(|step| mutate(&meta, step));
        meta
    }

    /// Every durable fact, through the public read surface.
    fn observe(meta: &MetadataService) -> impl PartialEq + std::fmt::Debug {
        let chunks = meta.chunks_overlapping(&Region::full());
        let per_chunk: Vec<_> = chunks
            .iter()
            .map(|&(id, _)| (meta.chunk_info(id), meta.summary_extent(id)))
            .collect();
        let offsets: Vec<u64> = (0..4).map(|s| meta.durable_offset(ServerId(s))).collect();
        (
            chunks,
            per_chunk,
            offsets,
            meta.partition(),
            meta.membership(),
            meta.migrations(),
        )
    }

    /// The files in `dir` named `<prefix>…<suffix>`, in name order.
    fn files(dir: &Path, prefix: &str, suffix: &str) -> Vec<PathBuf> {
        let mut files: Vec<PathBuf> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| {
                let name = p.file_name().unwrap().to_str().unwrap();
                name.starts_with(prefix) && name.ends_with(suffix)
            })
            .collect();
        files.sort();
        files
    }

    fn log_segments(dir: &Path) -> Vec<PathBuf> {
        files(dir, "meta.snapshot.log.", ".wal")
    }

    fn snapshot_temps(dir: &Path) -> Vec<PathBuf> {
        files(dir, ".meta.snapshot.", ".tmp")
    }

    /// Bytes the service counts in its log since the last compaction.
    fn log_bytes(meta: &MetadataService) -> u64 {
        let durable = meta.durable.as_ref().unwrap();
        durable.log_bytes.load(Ordering::Relaxed)
    }

    #[test]
    fn chunk_ids_are_unique_and_monotone() {
        let meta = MetadataService::in_memory();
        assert_eq!(meta.allocate_chunk_ids(1).unwrap(), ChunkId(0));
        assert_eq!(meta.allocate_chunk_ids(3).unwrap(), ChunkId(1));
        assert_eq!(meta.allocate_chunk_ids(1).unwrap(), ChunkId(4));
    }

    #[test]
    fn register_and_search_chunks() {
        let meta = MetadataService::in_memory();
        let a = meta.allocate_chunk_ids(2).unwrap();
        let b = ChunkId(a.raw() + 1);
        register(&meta, a, info(0, 100, 0, 50, 1), 10).unwrap();
        register(&meta, b, info(101, 200, 0, 50, 2), 20).unwrap();
        assert_eq!(meta.chunk_count(), 2);
        let hits = meta.chunks_overlapping(&region(50, 150, 0, 10));
        assert_eq!(hits.len(), 2);
        let hits = meta.chunks_overlapping(&region(0, 50, 60, 90));
        assert!(hits.is_empty());
    }

    #[test]
    fn offsets_advance_with_registration() {
        let meta = MetadataService::in_memory();
        assert_eq!(meta.durable_offset(ServerId(1)), 0);
        let a = meta.allocate_chunk_ids(1).unwrap();
        register(&meta, a, info(0, 10, 0, 10, 1), 555).unwrap();
        assert_eq!(meta.durable_offset(ServerId(1)), 555);
    }

    /// A flush lands whole: chunks, extents, offset and region in
    /// one call. An identical repeat is answered `Ok` and changes nothing;
    /// a conflicting one is refused and changes nothing either.
    #[test]
    fn a_flush_registers_whole_and_only_once() {
        let meta = MetadataService::in_memory();
        let extent = SummaryExtent {
            cells: 3,
            bytes: 48,
            levels: 1,
            slice_bits: 4,
            measure_range: None,
        };
        let chunks = vec![
            FlushedChunk {
                id: ChunkId(0),
                info: info(0, 9, 100, 200, 1),
                summary: Some(extent),
            },
            FlushedChunk {
                id: ChunkId(1),
                info: info(0, 9, 10, 20, 1),
                summary: None,
            },
        ];
        let flush = |chunks: Vec<FlushedChunk>, offset, r| {
            meta.register_flush(ServerId(1), chunks, offset, Some(r))
        };
        let all = || {
            let regions = meta.memory_regions_overlapping(&Region::full());
            (
                meta.chunk_count(),
                meta.durable_offset(ServerId(1)),
                regions,
            )
        };
        flush(chunks.clone(), 40, region(0, 9, 200, 210)).unwrap();
        let landed = all();
        assert_eq!(landed.0, 2);
        assert_eq!(landed.1, 40);
        assert_eq!(meta.summary_extent(ChunkId(0)), Some(extent));
        assert_eq!(meta.allocate_chunk_ids(1).unwrap(), ChunkId(2));
        flush(chunks.clone(), 40, region(0, 9, 200, 210)).unwrap();
        assert_eq!(all(), landed, "an identical repeat changes nothing");

        let mut other = chunks.clone();
        other[1].info.count += 1;
        let mut part = chunks.clone();
        part[1].id = ChunkId(7);
        let mut foreign = chunks.clone();
        foreign[0].info.producer = ServerId(2);
        for (label, chunks, offset) in [
            ("other facts", other, 40),
            ("a later offset", chunks.clone(), 41),
            ("registered in part", part, 40),
            ("another producer's chunk", foreign, 40),
            ("no chunks", Vec::new(), 40),
        ] {
            let err = flush(chunks, offset, Region::full()).unwrap_err();
            assert!(matches!(err, WwError::InvalidState(_)), "{label}: {err:?}");
            assert_eq!(all(), landed, "{label}");
        }
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
            let meta = open(&path).unwrap();
            let a = meta.allocate_chunk_ids(1).unwrap();
            register(&meta, a, info(0, 100, 0, 50, 1), 42).unwrap();
            let servers: Vec<ServerId> = (0..2).map(ServerId).collect();
            let mut schema = PartitionSchema::uniform(&servers);
            schema.version = 5;
            meta.set_partition(schema).unwrap();
            meta.update_memory_region(ServerId(1), Some(region(0, 10, 0, 10)));
        }
        let meta = open(&path).unwrap();
        assert_eq!(meta.chunk_count(), 1);
        assert_eq!(meta.durable_offset(ServerId(1)), 42);
        assert_eq!(meta.partition().unwrap().version, 5);
        // Chunk ids continue past the recovered counter.
        assert_eq!(meta.allocate_chunk_ids(1).unwrap(), ChunkId(1));
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
            let meta = open(&path).unwrap();
            let a = meta.allocate_chunk_ids(2).unwrap();
            let chunk = |id, summary| FlushedChunk {
                id,
                info: info(0, 100, 0, 50, 1),
                summary,
            };
            let chunks = vec![chunk(a, Some(extent)), chunk(ChunkId(1), None)];
            meta.register_flush(ServerId(1), chunks, 42, None).unwrap();
            assert_eq!(meta.summary_count(), 1);
        }
        let meta = open(&path).unwrap();
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
                let id = meta.allocate_chunk_ids(1).unwrap();
                register(&meta, id, info(i * 10, i * 10 + 9, 0, 50, 1), i).unwrap();
            }
            let stats = meta.wal_stats().unwrap();
            assert!(stats.fsyncs.load(std::sync::atomic::Ordering::Relaxed) > 0);
        }
        let meta = MetadataService::open_with(&path, FsyncPolicy::Always, 4096).unwrap();
        assert_eq!(meta.chunk_count(), 50);
        assert_eq!(meta.durable_offset(ServerId(1)), 49);
        assert_eq!(meta.allocate_chunk_ids(1).unwrap(), ChunkId(50));

        // Every point a kill can land on inside `write_atomic` →
        // `Log::reset`, built by hand. The state just before a compaction:
        // an older snapshot (a tiny budget compacts the first steps live)
        // under a log of several segments (each reopen starts one; the
        // budget is out of reach now).
        let before = tmp_path("compact-before");
        let dir = before.parent().unwrap();
        {
            let meta = MetadataService::open_with(&before, FsyncPolicy::Never, 512).unwrap();
            (0..4).for_each(|step| mutate(&meta, step));
        }
        assert!(fs::read(&before).unwrap().len() > 200, "no live compaction");
        for session in 0..3 {
            let meta = open(&before).unwrap();
            (0..2).for_each(|i| mutate(&meta, 4 + session * 2 + i));
        }
        const STEPS: u64 = 10;
        let segments = log_segments(dir).len();
        assert!(segments >= 4, "{segments} segments");
        let copy_of_before = |name: &str| {
            let copy = tmp_path(name);
            fs::create_dir_all(copy.parent().unwrap()).unwrap();
            for entry in fs::read_dir(dir).unwrap() {
                let src = entry.unwrap().path();
                fs::copy(&src, copy.with_file_name(src.file_name().unwrap())).unwrap();
            }
            copy
        };
        // What the compaction writes: the snapshot of the state so far.
        let compacted = open(&copy_of_before("compact-after"))
            .unwrap()
            .state
            .read()
            .encode_snapshot();

        // (label, temp file left behind, new snapshot renamed in, oldest
        // segments already deleted)
        let mut crash_points = vec![
            ("temp written, not renamed", Some(&compacted[..]), false, 0),
            ("temp half written", Some(&compacted[..99]), false, 0),
            ("renamed, log untouched", None, true, 0),
        ];
        crash_points.extend((1..=segments).map(|n| ("reset under way", None, true, n)));
        for (i, (label, temp, renamed, deleted)) in crash_points.into_iter().enumerate() {
            let label = format!("{label}, {deleted} of {segments} segments deleted");
            let path = copy_of_before(&format!("compact-crash-{i}"));
            let dir = path.parent().unwrap();
            // A temp of another role of the node, which is not ours to sweep.
            let foreign = dir.join(".chunk-7.1.0.tmp");
            fs::write(&foreign, b"not the snapshot's").unwrap();
            if let Some(bytes) = temp {
                fs::write(dir.join(".meta.snapshot.4242.7.tmp"), bytes).unwrap();
            }
            if renamed {
                fs::write(&path, &compacted).unwrap();
            }
            for segment in log_segments(dir).iter().take(deleted) {
                fs::remove_file(segment).unwrap();
            }
            let twin = twin(0..STEPS);
            for round in 0..2 {
                let meta = open(&path).unwrap();
                assert_eq!(observe(&meta), observe(&twin), "{label}, reopen {round}");
                assert_eq!(snapshot_temps(dir), Vec::<PathBuf>::new(), "{label}");
                assert!(foreign.exists(), "{label}");
                // The recovered service carries on exactly like the twin.
                mutate(&meta, STEPS + round);
                mutate(&twin, STEPS + round);
                assert_eq!(observe(&meta), observe(&twin), "{label}, after {round}");
            }
        }
    }

    #[test]
    fn a_failed_log_write_applies_nothing() {
        let path = tmp_path("log-fails");
        // Three records: the reopened service is one record short of its
        // compaction budget, with room left in its fresh segment.
        {
            let meta = MetadataService::open_with(&path, FsyncPolicy::Never, 256).unwrap();
            for i in 0..3 {
                register(&meta, ChunkId(i), info(i, i, 0, 1, 1), i).unwrap();
            }
        }
        let meta = MetadataService::open_with(&path, FsyncPolicy::Never, 256).unwrap();
        // The open segment keeps taking appends; creating a file — the
        // snapshot's temp, the next segment — fails from here on.
        fs::remove_dir_all(path.parent().unwrap()).unwrap();
        let (mut acked, mut refused) = (0, 0);
        for i in 3..20u64 {
            let (id, server) = (ChunkId(i), ServerId(i as u32));
            match register(&meta, id, info(i, i, 0, 1, 1), i) {
                Ok(()) => {
                    acked += 1;
                    assert_eq!(meta.chunk_info(id), Some(info(i, i, 0, 1, 1)));
                    assert_eq!(meta.durable_offset(ServerId(1)), i);
                    // Committed, so acknowledged — although the compaction
                    // it set off cannot have worked.
                    assert!(log_bytes(&meta) > 256);
                }
                Err(_) => {
                    refused += 1;
                    assert_eq!(meta.chunk_info(id), None);
                    assert!(meta.durable_offset(ServerId(1)) < i);
                    // The flush's retry meets the same refusal, not a
                    // conflict with a half-applied first attempt.
                    let again = register(&meta, id, info(i, i, 0, 1, 1), i);
                    assert!(!matches!(again, Ok(()) | Err(WwError::InvalidState(_))));
                }
            }
            let epoch = meta.membership_epoch();
            let joined = meta.join(server, MemberRole::Indexing, NodeId(0), TTL);
            let is_member = meta.membership().indexing_ids().contains(&server);
            match joined {
                Ok(after) => assert!(after == epoch + 1 && is_member),
                Err(_) => assert!(meta.membership_epoch() == epoch && !is_member),
            }
            let epoch = meta.membership_epoch();
            let begun = meta.begin_migration(KeyInterval::new(i, i), ServerId(0), ServerId(1));
            let recorded = meta.migrations().iter().any(|m| m.keys.lo() == i);
            match begun {
                Ok(_) => assert!(meta.membership_epoch() == epoch + 1 && recorded),
                Err(_) => assert!(meta.membership_epoch() == epoch && !recorded),
            }
        }
        assert!(acked > 0 && refused > 0, "{acked} acked, {refused} refused");
    }

    #[test]
    fn a_failed_compaction_is_retried_by_the_next_mutation() {
        let path = tmp_path("compact-retry");
        let meta = MetadataService::open_with(&path, FsyncPolicy::Never, 256).unwrap();
        // A non-empty directory where the snapshot goes: the rename inside
        // `write_atomic` fails, the log works.
        fs::remove_file(&path).unwrap();
        fs::create_dir(&path).unwrap();
        fs::write(path.join("in-the-way"), b"").unwrap();
        for i in 0..8 {
            register(&meta, ChunkId(i), info(i, i, 0, 1, 1), i).unwrap();
        }
        assert!(log_bytes(&meta) > 256);
        fs::remove_dir_all(&path).unwrap();
        register(&meta, ChunkId(8), info(8, 8, 0, 1, 1), 8).unwrap();
        assert_eq!(log_bytes(&meta), 0);
        drop(meta);
        assert_eq!(log_segments(path.parent().unwrap()).len(), 1);
        assert_eq!(
            snapshot_temps(path.parent().unwrap()),
            Vec::<PathBuf>::new()
        );
        assert_eq!(open(&path).unwrap().chunk_count(), 9);
    }

    #[test]
    fn membership_epochs_bump_on_change_and_survive_restart() {
        let path = tmp_path("members");
        let ttl = Duration::from_secs(60);
        {
            let meta = open(&path).unwrap();
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
        let meta = open(&path).unwrap();
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
            let meta = open(&path).unwrap();
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
        let meta = open(&path).unwrap();
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
            let meta = open(&path).unwrap();
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
        let meta = open(&path).unwrap();
        let adopted = meta.begin_migration(keys, from, to).unwrap();
        assert_eq!(adopted.id, 0);
        assert_eq!(meta.migrations().len(), 2);
        meta.complete_migration(adopted.id).unwrap();
        assert_eq!(meta.begin_migration(keys, from, to).unwrap().id, 2);
        assert_eq!(meta.migrations().len(), 3);
    }

    /// The log and snapshot bytes of a scripted run that writes every
    /// record tag (`mutate` covers all six by step 3), pinned: a codec
    /// change that moves any byte of either file fails here.
    #[test]
    fn meta_log_bytes_are_pinned() {
        let path = tmp_path("pinned");
        let meta = open(&path).unwrap();
        (0..4).for_each(|step| mutate(&meta, step));
        let dir = path.parent().unwrap();
        let log: Vec<u8> = log_segments(dir)
            .iter()
            .flat_map(|seg| fs::read(seg).unwrap())
            .collect();
        let durable = meta.durable.as_ref().unwrap();
        durable.compact(&meta.state.read()).unwrap();
        let snapshot = fs::read(&path).unwrap();
        let got = [
            (log.len(), codec::fnv1a(&log)),
            (snapshot.len(), codec::fnv1a(&snapshot)),
        ];
        assert_eq!(
            got,
            [(1_470, 0xbb36_f0d8_4e49_434d), (926, 0x59ea_e183_09e3_8198)]
        );
        drop(meta);
        let _ = fs::remove_dir_all(dir);
    }

    /// A record of the variant with log tag `tag`, filled from the seeds.
    fn record(tag: u8, [a, b, c, d]: [u64; 4]) -> MetaRecord {
        let (server, other) = (ServerId(a as u32), ServerId((a >> 32) as u32));
        let (lo, hi) = (b.min(c), b.max(c));
        match tag {
            0 => MetaRecord::Counters {
                next_chunk: a,
                next_migration: b,
                membership_epoch: c,
            },
            2 => MetaRecord::SetPartition(
                PartitionSchema::from_boundaries(
                    &[lo / 2 + 1, hi / 2 + 2],
                    &[server, other, server],
                    d,
                )
                .unwrap(),
            ),
            5 => MetaRecord::MemberJoin {
                server,
                info: MemberInfo {
                    role: [MemberRole::Indexing, MemberRole::Query][(b % 2) as usize],
                    node: NodeId(c as u32),
                },
                epoch: d,
            },
            6 => MetaRecord::MemberLeave { server, epoch: d },
            7 => MetaRecord::Migration {
                rec: MigrationRecord {
                    id: a,
                    keys: KeyInterval::new(lo, hi),
                    from: server,
                    to: other,
                    cutover_epoch: d.is_multiple_of(2).then_some(d),
                },
                epoch: d,
            },
            _ => MetaRecord::Flush {
                producer: server,
                chunks: vec![
                    FlushedChunk {
                        id: ChunkId(d),
                        info: ChunkInfo {
                            region: region(lo, hi, c.min(d), c.max(d)),
                            count: b,
                            bytes: c,
                            producer: server,
                        },
                        summary: Some(SummaryExtent {
                            cells: b,
                            bytes: c,
                            levels: d as u8,
                            slice_bits: (d >> 8) as u8,
                            measure_range: a.is_multiple_of(2).then_some((lo, hi)),
                        }),
                    },
                    FlushedChunk {
                        id: ChunkId(d ^ 1),
                        info: ChunkInfo {
                            region: region(lo, hi, 0, c),
                            count: a,
                            bytes: d,
                            producer: other,
                        },
                        summary: None,
                    },
                ],
                durable_offset: a,
            },
        }
    }

    fn frame(rec: &MetaRecord) -> Vec<u8> {
        let mut out = Vec::new();
        rec.encode(&mut out);
        out
    }

    /// Folds a snapshot file's bytes the way `open_with` does; the state is
    /// returned as its own (deterministic) snapshot, which compares.
    fn fold(snapshot: &[u8]) -> Result<Vec<u8>> {
        let mut state = MetaState::default();
        decode_snapshot(snapshot)?
            .into_iter()
            .for_each(|rec| state.apply(rec));
        Ok(state.encode_snapshot())
    }

    fn is_corrupt<T>(result: &Result<T>) -> bool {
        matches!(result, Err(WwError::Corrupt { .. }))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// No checksum stands between `decode_frame` and these bytes, so a
        /// mutated record may well decode — to something `apply` takes
        /// without panicking. (A count mutated upward must not size an
        /// allocation: the process would abort here.)
        #[test]
        fn records_round_trip_and_damage_is_typed(
            seeds in (0..u64::MAX, 0..u64::MAX, 0..u64::MAX, 0..u64::MAX),
            mask in 1u16..256,
        ) {
            for &tag in MetaRecord::TAGS {
                let bytes = frame(&record(tag, seeds.into()));
                prop_assert_eq!(bytes[0], tag);
                let decoded = MetaRecord::decode_frame(&bytes);
                prop_assert!(decoded.is_ok(), "tag {tag}: {:?}", decoded.err());
                prop_assert_eq!(frame(&decoded.unwrap()), bytes.clone());
                for cut in 0..bytes.len() {
                    prop_assert!(is_corrupt(&MetaRecord::decode_frame(&bytes[..cut])), "tag {tag} cut at {cut}");
                }
                let mut long = bytes.clone();
                long.push(0);
                prop_assert!(is_corrupt(&MetaRecord::decode_frame(&long)), "tag {tag} with a trailing byte");
                for at in 0..bytes.len() {
                    let mut bad = bytes.clone();
                    bad[at] ^= mask as u8;
                    match MetaRecord::decode_frame(&bad) {
                        Ok(rec) => {
                            let mut state = MetaState::default();
                            state.apply(rec);
                            state.encode_snapshot();
                        }
                        Err(e) => prop_assert!(matches!(e, WwError::Corrupt { .. }), "tag {tag} byte {at}: {e:?}"),
                    }
                }
            }
            let unknown: Vec<u8> = (0..=u8::MAX).filter(|t| !MetaRecord::TAGS.contains(t)).collect();
            let tag = unknown[mask as usize % unknown.len()];
            prop_assert!(is_corrupt(&MetaRecord::decode_frame(&[tag])), "unknown tag {tag}");
        }

        /// The snapshot is checksummed: any cut or flipped byte is refused,
        /// or (a cut that lands on the empty body) reads as the same state.
        #[test]
        fn a_damaged_snapshot_is_refused(steps in 1u64..4, mask in 1u16..256) {
            let snapshot = twin(0..steps).state.read().encode_snapshot();
            let state = fold(&snapshot);
            prop_assert_eq!(state.as_ref().ok(), Some(&snapshot));
            for cut in 0..snapshot.len() {
                let got = fold(&snapshot[..cut]);
                prop_assert!(is_corrupt(&got), "cut at {cut}: {:?}", got.err());
            }
            for at in 0..snapshot.len() {
                let mut bad = snapshot.clone();
                bad[at] ^= mask as u8;
                let got = fold(&bad);
                prop_assert!(is_corrupt(&got), "byte {at}: {:?}", got.err());
            }
        }
    }

    /// The same refusals through `open_with`, and the one piece of damage
    /// that is a crash's and not corruption: a torn log tail.
    #[test]
    fn damaged_files_fail_the_open_typed() {
        let path = tmp_path("damaged");
        {
            let meta = open(&path).unwrap();
            let a = meta.allocate_chunk_ids(1).unwrap();
            register(&meta, a, info(0, 100, 0, 50, 1), 7).unwrap();
        }
        let snapshot = fs::read(&path).unwrap();
        let mut flipped = snapshot.clone();
        *flipped.last_mut().unwrap() ^= 0xFF;
        fs::write(&path, &flipped).unwrap();
        assert!(is_corrupt(&open(&path)));
        // The formats before this one are refused by name, whatever
        // follows the magic — never half-read.
        for magic in [b"WWMETA01", b"WWMETA02"] {
            let mut old = snapshot.clone();
            old[..8].copy_from_slice(magic);
            fs::write(&path, &old).unwrap();
            let name = String::from_utf8_lossy(magic);
            let err = open(&path).err().expect("an old snapshot must not open");
            assert!(matches!(err, WwError::Corrupt { .. }), "{err:?}");
            assert!(err.to_string().contains(&*name), "{err}");
        }
        fs::write(&path, &snapshot).unwrap();
        let seg = log_segments(path.parent().unwrap()).remove(0);
        let log = fs::read(&seg).unwrap();

        // A log frame of a retired record kind is refused by its tag: one
        // chunk's registration as the layout before flush records wrote it
        // (tags 1, 3, 4), and a flush as it was written while each chunk
        // carried a list of attribute indexes (tag 8, here an empty list).
        let mut frames: Vec<(u8, Vec<u8>)> = [1u8, 3, 4]
            .map(|tag| {
                let mut frame = vec![tag];
                ChunkId(1).encode(&mut frame);
                info(0, 100, 0, 50, 1).encode(&mut frame);
                7u64.encode(&mut frame);
                (tag, frame)
            })
            .into();
        let mut old_flush = vec![8u8];
        ServerId(1).encode(&mut old_flush);
        1u32.encode(&mut old_flush);
        ChunkId(1).encode(&mut old_flush);
        info(0, 100, 0, 50, 1).encode(&mut old_flush);
        None::<SummaryExtent>.encode(&mut old_flush);
        0u32.encode(&mut old_flush);
        7u64.encode(&mut old_flush);
        frames.push((8, old_flush));
        for (tag, frame) in frames {
            {
                let meta = open(&path).unwrap();
                let log = &meta.durable.as_ref().unwrap().log;
                log.append(&frame).unwrap();
                log.commit().unwrap();
            }
            let err = open(&path).err().expect("a retired record must not open");
            assert!(matches!(err, WwError::Corrupt { .. }), "{err:?}");
            assert!(err.to_string().contains(&format!("tag {tag}")), "{err}");
            for stray in log_segments(path.parent().unwrap()) {
                fs::remove_file(stray).unwrap();
            }
            fs::write(&seg, &log).unwrap();
        }

        // Tear the log's tail: the last record (the flush) is dropped, the
        // one before it (the id allocation) survives.
        let bytes = fs::read(&seg).unwrap();
        fs::write(&seg, &bytes[..bytes.len() - 3]).unwrap();
        let meta = open(&path).unwrap();
        assert_eq!(meta.chunk_count(), 0);
        assert_eq!(meta.allocate_chunk_ids(1).unwrap(), ChunkId(1));
        drop(meta);
        // A flipped bit inside a complete record is corruption.
        let mut bytes = fs::read(&seg).unwrap();
        assert!(bytes.len() > 20);
        bytes[16] ^= 0xff;
        fs::write(&seg, &bytes).unwrap();
        assert!(is_corrupt(&open(&path)));
    }
}
