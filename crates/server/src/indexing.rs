//! Indexing servers: realtime ingestion, chunk flushing, late-arrival
//! handling, and recovery (paper §III, §IV-D, §V).
//!
//! Each indexing server owns one key interval of the global partition. It
//! consumes its partition of the input queue, inserts tuples into an
//! in-memory [`TemplateBTree`], and — once the accumulated bytes reach the
//! chunk-size threshold — seals the tree into an immutable chunk on the
//! simulated DFS, registering the chunk region *and* the durable read
//! offset with the metadata server in one step (§V).
//!
//! Late arrivals (§IV-D): the server keeps a high-water timestamp. Tuples
//! no more than Δt behind it enter the main tree, whose reported region is
//! widened by Δt so the coordinator never misses them. Tuples later than Δt
//! go to a *side store* flushed as its own chunk, keeping the main chunks'
//! temporal bounds tight.
//!
//! Recovery: an indexing server is reconstructed by replaying its queue
//! partition from the durable offset; the rebuilt tree is identical because
//! inserts are deterministic.
//!
//! Retention: once every chunk of a flush is registered, the server — its
//! partition's one reader — trims the queue below the offset the flush
//! made durable, so the queue holds the unflushed tail, not the history.
//!
//! All metadata interactions (region reports, chunk/summary/attr-index
//! registration, id allocation) go through a [`MetaClient`] — typed RPCs on
//! the message plane, subject to its deadlines, retries, and faults.

use crate::attributes::AttrRegistry;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use waterwheel_agg::{AggWheel, FoldOutcome, WheelSummary, MAX_CELLS_PER_RING, SLICE_BITS};
use waterwheel_core::aggregate::{default_measure, MeasureFn};
use waterwheel_core::{
    ChunkId, Counters, KeyInterval, Region, Result, ServerId, SubQuery, SystemConfig, TimeInterval,
    Tuple,
};
use waterwheel_index::secondary::ChunkAttrIndex;
use waterwheel_index::{BloomConfig, IndexConfig, SealedTree, TemplateBTree, TupleIndex};
use waterwheel_meta::{ChunkInfo, SummaryExtent};
use waterwheel_mq::{Backlog, Consumer};
use waterwheel_net::MetaClient;
use waterwheel_storage::{write_chunk_opts, ChunkWriteOptions, SimDfs, VERSION_V2};

waterwheel_core::counters! {
    /// Ingest-side counters (`indexing.*`, one set per server).
    pub struct IndexingStats {
        /// Tuples ingested into the main tree.
        ingested,
        /// Tuples diverted to the side store (later than Δt).
        side_stored,
        /// Chunks flushed.
        chunks_flushed,
        /// Encoded aggregate-summary bytes sealed into chunk footers.
        summary_bytes_flushed,
    }
}

/// `indexing.*` of one server: its [`IndexingStats`] plus two rows read
/// from the queue at visit time — `queue_lag`, the records of its
/// partition the pump has not reached, and `queue_retained`, the records
/// the queue still holds for it (the unflushed tail, once trims run).
pub struct IndexingCounters {
    stats: Arc<IndexingStats>,
    backlog: Backlog,
}

impl Counters for IndexingCounters {
    fn visit(&self, f: &mut dyn FnMut(&str, u64)) {
        self.stats.visit(f);
        f("queue_lag", self.backlog.lag().unwrap_or(0));
        f("queue_retained", self.backlog.retained().unwrap_or(0));
    }
}

/// One indexing server.
pub struct IndexingServer {
    id: ServerId,
    cfg: SystemConfig,
    tree: TemplateBTree,
    /// Assigned key interval under the current partition schema; updated by
    /// adaptive key partitioning (§III-D).
    assigned: Mutex<KeyInterval>,
    /// Very-late tuples, flushed as separate chunks (§IV-D).
    side_store: Mutex<Vec<Tuple>>,
    /// Bytes pending in the side store.
    side_bytes: AtomicU64,
    /// Highest event timestamp seen.
    high_water: AtomicU64,
    consumer: Mutex<Consumer>,
    /// The consumer's partition, trimmed after each registered flush.
    backlog: Backlog,
    /// The offset the last registered flush made durable (the consumer's
    /// start position before any).
    registered_offset: AtomicU64,
    /// Whether a trim may delete journal segments too (see
    /// [`Self::set_journal_trim`]).
    journal_trim: AtomicBool,
    dfs: SimDfs,
    meta: MetaClient,
    stats: Arc<IndexingStats>,
    /// Failure injection.
    failed: AtomicBool,
    /// Secondary attributes to index at flush time (paper §VIII).
    attrs: parking_lot::RwLock<Arc<AttrRegistry>>,
    /// Live aggregate wheel mirroring every in-memory tuple (main tree +
    /// side store); cleared on flush, when the data moves into chunk
    /// summaries (DESIGN.md §4b).
    wheel: Mutex<AggWheel>,
    /// Measure extractor feeding the wheel; shared with the coordinator so
    /// summary cells and scan folds agree. Install before ingesting.
    measure: parking_lot::RwLock<MeasureFn>,
    /// Held for a whole `flush`, seal through chunk registration.
    flushing: Mutex<()>,
}

impl IndexingServer {
    /// Creates a server over `assigned`, reading its queue partition from
    /// `consumer`'s position (pass the durable offset when recovering).
    pub fn new(
        id: ServerId,
        assigned: KeyInterval,
        cfg: SystemConfig,
        consumer: Consumer,
        dfs: SimDfs,
        meta: MetaClient,
    ) -> Self {
        let index_cfg = IndexConfig::from_system(&cfg);
        Self {
            id,
            tree: TemplateBTree::new(assigned, index_cfg),
            assigned: Mutex::new(assigned),
            side_store: Mutex::new(Vec::new()),
            side_bytes: AtomicU64::new(0),
            high_water: AtomicU64::new(0),
            backlog: consumer.backlog(),
            registered_offset: AtomicU64::new(consumer.position()),
            journal_trim: AtomicBool::new(false),
            consumer: Mutex::new(consumer),
            dfs,
            meta,
            stats: Arc::default(),
            failed: AtomicBool::new(false),
            attrs: parking_lot::RwLock::new(Arc::new(AttrRegistry::new())),
            wheel: Mutex::new(AggWheel::new(SLICE_BITS)),
            measure: parking_lot::RwLock::new(default_measure()),
            flushing: Mutex::new(()),
            cfg,
        }
    }

    /// Installs the shared secondary-attribute registry; chunks flushed
    /// afterwards carry attribute indexes for every registered attribute.
    pub fn set_attr_registry(&self, attrs: Arc<AttrRegistry>) {
        *self.attrs.write() = attrs;
    }

    /// Lets the trim after each flush delete journal segments, not just
    /// in-memory records. Only safe when the metadata service holding the
    /// registered offsets is durable: a restart replays the queue from the
    /// offset it reports, and an offset that died with the process cannot
    /// vouch for journal bytes already deleted.
    pub fn set_journal_trim(&self, on: bool) {
        self.journal_trim.store(on, Ordering::Relaxed);
    }

    /// Installs the measure extractor feeding the aggregate wheel. Must be
    /// installed before ingestion (like secondary attributes) — wheel cells
    /// hold measured values, so a mid-stream swap would make summaries
    /// disagree with tuple scans.
    pub fn set_measure(&self, measure: MeasureFn) {
        *self.measure.write() = measure;
    }

    /// Builds and registers the secondary attribute indexes for a freshly
    /// written chunk (paper §VIII: bloom + bitmap secondary indexes).
    fn register_attr_indexes(&self, chunk: ChunkId, sealed: &SealedTree) -> Result<()> {
        let attrs = self.attrs.read().clone();
        for attr in attrs.ids() {
            let Some(extract) = attrs.get(attr) else {
                continue;
            };
            let leaf_values: Vec<Vec<u64>> = sealed
                .leaves
                .iter()
                .map(|leaf| leaf.entries.iter().filter_map(|t| extract(t)).collect())
                .collect();
            let index = ChunkAttrIndex::build(&leaf_values, BloomConfig::default().bits_per_entry);
            self.meta.register_attr_index(chunk, attr, index)?;
        }
        Ok(())
    }

    /// This server's id.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// Ingest counters.
    pub fn stats(&self) -> &Arc<IndexingStats> {
        &self.stats
    }

    /// The `indexing.*` set to register: the ingest counters plus the
    /// queue rows. Holds no plane client, so a registry may keep it.
    pub fn counters(&self) -> Arc<IndexingCounters> {
        Arc::new(IndexingCounters {
            stats: Arc::clone(&self.stats),
            backlog: self.backlog.clone(),
        })
    }

    /// Tuples currently in memory (main tree + side store).
    pub fn in_memory(&self) -> usize {
        self.tree.len() + self.side_store.lock().len()
    }

    /// The currently assigned key interval.
    pub fn assigned_interval(&self) -> KeyInterval {
        *self.assigned.lock()
    }

    /// Installs a new assigned interval (adaptive key partitioning). The
    /// in-memory tuples outside the new interval stay until the next flush;
    /// the *actual* region reported to the metadata server keeps queries
    /// correct during the overlap window (§III-D).
    pub fn reassign(&self, interval: KeyInterval) {
        *self.assigned.lock() = interval;
    }

    /// Injects (or clears) a failure: a failed server ignores pumps and
    /// errors on subqueries.
    pub fn set_failed(&self, failed: bool) {
        self.failed.store(failed, Ordering::SeqCst);
    }

    /// Whether failure injection is active.
    pub fn is_failed(&self) -> bool {
        self.failed.load(Ordering::SeqCst)
    }

    fn late_limit_ms(&self) -> u64 {
        self.cfg.late_visibility.as_millis() as u64
    }

    /// Consumes up to `max` queued tuples; returns how many were processed.
    /// Flushes automatically when the chunk-size threshold is crossed.
    pub fn pump(&self, max: usize) -> Result<usize> {
        if self.is_failed() {
            return Err(waterwheel_core::WwError::Injected("indexing server down"));
        }
        // The consumer lock spans poll AND insert: `flush` reads the
        // consumer position under this lock as the chunk's durable offset,
        // so a record must never exist in the polled-but-not-yet-inserted
        // state while a flush seals. Otherwise the seal misses the record,
        // the chunk registers an offset *past* it, and a later kill -9
        // replay resumes beyond a tuple that was never made durable.
        let n = {
            let mut consumer = self.consumer.lock();
            let records = consumer.poll(max)?;
            let n = records.len();
            if n > 0 {
                self.ingest_batch(records.into_iter().map(|r| r.tuple).collect());
            }
            n
        };
        if n > 0 {
            self.report_memory_region()?;
        }
        // The side store counts toward the threshold: a stream of very-late
        // tuples never grows the tree, and every query walks the store.
        let in_memory = self.tree.byte_size() as u64 + self.side_bytes.load(Ordering::Relaxed);
        if in_memory >= self.cfg.chunk_size_bytes as u64 {
            self.flush()?;
        }
        Ok(n)
    }

    /// Ingests one polled batch, doing per batch what the per-record path
    /// did per tuple: the wheel is locked and folded once, the high-water
    /// mark published once, and the on-time tuples reach the tree in one
    /// `insert_batch` call.
    fn ingest_batch(&self, tuples: Vec<Tuple>) {
        // Held to the end: `flush` drains tree, side store, and wheel in
        // one wheel-locked critical section, so a batch must become visible
        // to all three atomically or a flush sliding in between would wipe
        // its wheel contributions while the tuples stay behind as fresh
        // data.
        let mut wheel = self.wheel.lock();
        if self.cfg.agg_summaries_enabled {
            let measure = self.measure.read().clone();
            wheel.insert_batch(tuples.iter().map(|t| (t.key, t.ts, measure(t))));
        }
        // `pump` holds the consumer lock, so one batch runs at a time and
        // a local high-water mark sees every earlier tuple.
        let late_limit = self.late_limit_ms();
        let mut high_water = self.high_water.load(Ordering::Acquire);
        let mut side_bytes = 0u64;
        let mut on_time = tuples;
        let side: Vec<Tuple> = on_time
            .extract_if(.., |t| {
                high_water = high_water.max(t.ts);
                let late = high_water - t.ts > late_limit;
                if late {
                    side_bytes += t.encoded_len() as u64;
                }
                late
            })
            .collect();
        self.high_water.fetch_max(high_water, Ordering::AcqRel);
        if !side.is_empty() {
            self.side_bytes.fetch_add(side_bytes, Ordering::Relaxed);
            self.stats
                .side_stored
                .fetch_add(side.len() as u64, Ordering::Relaxed);
            self.side_store.lock().extend(side);
        }
        let ingested = on_time.len() as u64;
        if ingested > 0 {
            self.tree.insert_batch(on_time);
            self.stats.ingested.fetch_add(ingested, Ordering::Relaxed);
        }
    }

    /// Folds the live aggregate wheel over `slices × covered` — the
    /// fresh-data half of an aggregate query's summary path. The live wheel
    /// keeps every ring, so the outcome never carries residues.
    pub fn aggregate_in_memory(
        &self,
        slices: (u16, u16),
        covered: &TimeInterval,
    ) -> Result<FoldOutcome> {
        if self.is_failed() {
            return Err(waterwheel_core::WwError::Injected("indexing server down"));
        }
        let out = self.wheel.lock().fold(slices, covered);
        debug_assert!(out.residues.is_empty(), "live wheel folds have no residues");
        Ok(out)
    }

    /// The region the coordinator should consider for fresh data: the
    /// tree's actual hull with its lower time bound widened by Δt (§IV-D),
    /// extended by the side store's hull when present.
    pub fn memory_region(&self) -> Option<Region> {
        let mut region = self
            .tree
            .region()
            .map(|r| Region::new(r.keys, r.times.widen_lo(self.late_limit_ms())));
        let side = self.side_store.lock();
        for t in side.iter() {
            region = Some(match region {
                None => Region::new(KeyInterval::point(t.key), TimeInterval::point(t.ts)),
                Some(mut r) => {
                    r.keys.extend_to(t.key);
                    r.times.extend_to(t.ts);
                    r
                }
            });
        }
        region
    }

    fn report_memory_region(&self) -> Result<()> {
        self.meta
            .update_memory_region(self.id, self.memory_region())
    }

    /// Executes a subquery against the in-memory state (main tree + side
    /// store) — the fresh-data path of §IV-A.
    pub fn query_in_memory(&self, sq: &SubQuery) -> Result<Vec<Tuple>> {
        if self.is_failed() {
            return Err(waterwheel_core::WwError::Injected("indexing server down"));
        }
        let pred = sq.predicate.clone();
        let mut out = match &pred {
            Some(p) => {
                let p = Arc::clone(p);
                let f = move |t: &Tuple| p(t);
                self.tree.query(&sq.keys, &sq.times, Some(&f))
            }
            None => self.tree.query(&sq.keys, &sq.times, None),
        };
        let side = self.side_store.lock();
        out.extend(side.iter().filter(|t| sq.matches(t)).cloned());
        Ok(out)
    }

    /// Writes one sealed tree to the DFS as a chunk — with its aggregate
    /// summary sealed into the footer when enabled — and registers the
    /// chunk, summary extent, and attribute indexes with metadata.
    fn write_and_register(&self, sealed: &SealedTree, durable_offset: u64) -> Result<ChunkId> {
        let measure = self.measure.read().clone();
        let summary = if self.cfg.agg_summaries_enabled {
            let summary = WheelSummary::build(
                sealed
                    .leaves
                    .iter()
                    .flat_map(|l| l.entries.iter())
                    .map(|t| (t.key, t.ts, measure(t))),
                SLICE_BITS,
                MAX_CELLS_PER_RING,
            );
            (!summary.is_empty()).then_some(summary)
        } else {
            None
        };
        let id = self.meta.allocate_chunk_id()?;
        // The same measure feeds the summary cells and the MIN/MAX bounds,
        // so footer pruning and summary folds agree.
        let bytes = write_chunk_opts(
            sealed,
            summary.as_ref(),
            &ChunkWriteOptions {
                format_version: VERSION_V2,
                compression: self.cfg.chunk_compression,
                measure: Some(&*measure),
            },
        );
        self.dfs.write_chunk(id, &bytes)?;
        self.meta.register_chunk(
            id,
            ChunkInfo {
                region: sealed.region,
                count: sealed.count as u64,
                bytes: bytes.len() as u64,
                producer: self.id,
            },
            durable_offset,
        )?;
        if let Some(summary) = &summary {
            let encoded_len = summary.encode().len() as u64;
            self.meta.register_summary(
                id,
                SummaryExtent {
                    cells: summary.cell_count() as u64,
                    bytes: encoded_len,
                    levels: summary.levels(),
                    slice_bits: summary.slice_bits(),
                    measure_range: summary.measure_bounds(),
                },
            )?;
            self.stats
                .summary_bytes_flushed
                .fetch_add(encoded_len, Ordering::Relaxed);
        }
        self.register_attr_indexes(id, sealed)?;
        Ok(id)
    }

    /// Seals the in-memory state into chunk(s), writes them to the DFS,
    /// registers them (plus the durable offset) with the metadata server,
    /// and trims the queue below that offset. Returns the flushed chunk
    /// ids. No-op on an empty server.
    pub fn flush(&self) -> Result<Vec<ChunkId>> {
        // Whole flushes are serialized. The seal empties memory long before
        // the chunk is written and registered; a second caller (the `Flush`
        // RPC racing the pump's own threshold flush) that found nothing to
        // seal would otherwise return while the first caller's tuples are
        // in no registered chunk, and a client querying right after its
        // `flush()` would miss them.
        let _whole_flush = self.flushing.lock();
        // Read the durable offset, seal the tree, take the side store, and
        // drain the wheel in ONE critical section, ordered consumer lock →
        // wheel lock like `pump`. Two races lived in the old
        // read-offset / seal / write-chunks / clear-wheel sequence:
        //
        // * a pump batch sliding in between the seal and the wheel clear
        //   stayed queryable as fresh data while `clear()` erased its
        //   aggregate contributions (range queries and aggregates
        //   disagreed until the next flush);
        // * a pump that had *polled* (advancing the consumer position) but
        //   not yet *inserted* let the seal miss those records while the
        //   chunk registered an offset past them — a kill -9 replay then
        //   resumed beyond tuples that were never made durable: data loss.
        //
        // Holding both locks makes a concurrent batch land wholly before
        // the seal (sealed into this flush's chunks, wiped from the wheel,
        // below the offset) or wholly after (fresh in the new tree AND the
        // wheel, at or above the offset).
        let (durable_offset, sealed, side) = {
            let consumer = self.consumer.lock();
            let durable_offset = consumer.position();
            let mut wheel = self.wheel.lock();
            let sealed = self.tree.seal();
            let side: Vec<Tuple> = std::mem::take(&mut *self.side_store.lock());
            self.side_bytes.store(0, Ordering::Relaxed);
            if sealed.is_some() || !side.is_empty() {
                // Everything drained here flushes below, so the wheel's
                // contents are now covered by chunk summaries. (A failed
                // chunk write loses the sealed tuples from memory either
                // way; WAL replay from `durable_offset` restores both.)
                wheel.clear();
            }
            drop(consumer);
            (durable_offset, sealed, side)
        };
        // Side store flushes as its own chunk so main chunks keep tight
        // temporal bounds (§IV-D).
        let side = (!side.is_empty()).then(|| {
            let tmp = TemplateBTree::new(
                self.assigned_interval(),
                IndexConfig::from_system(&self.cfg),
            );
            tmp.insert_batch(side);
            tmp.seal().expect("side store non-empty")
        });
        let chunks: Vec<SealedTree> = sealed.into_iter().chain(side).collect();
        // Only the last registration advances the durable offset. The
        // metadata service keeps the highest offset it was given, so an
        // earlier chunk carrying the new one would vouch for tuples still
        // waiting for a later chunk: a crash or failed write in between
        // would leave them in no chunk and below the replay point. The
        // earlier chunks repeat the previous offset instead, and such a
        // failure replays them again rather than losing the rest.
        let previous = self.registered_offset.load(Ordering::Acquire);
        let mut flushed = Vec::with_capacity(chunks.len());
        for (i, sealed) in chunks.iter().enumerate() {
            let offset = if i + 1 == chunks.len() {
                durable_offset
            } else {
                previous
            };
            flushed.push(self.write_and_register(sealed, offset)?);
        }
        if !flushed.is_empty() {
            self.stats
                .chunks_flushed
                .fetch_add(flushed.len() as u64, Ordering::Relaxed);
            self.registered_offset
                .store(durable_offset, Ordering::Release);
            // Everything below the offset is in registered chunks now: the
            // queue lets it go (Kafka's retention, paper §V). A crashed
            // server leaves its partition to the replacement replaying it.
            if !self.is_failed() {
                let journal = self.journal_trim.load(Ordering::Relaxed);
                self.backlog.trim(durable_offset, journal)?;
            }
            self.report_memory_region()?;
        }
        Ok(flushed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waterwheel_cluster::{Cluster, LatencyModel};
    use waterwheel_core::{QueryId, SubQueryId, SubQueryTarget};
    use waterwheel_meta::MetadataService;
    use waterwheel_mq::MessageQueue;
    use waterwheel_net::{serve_meta, InProcTransport, RpcClient, Transport};

    struct Rig {
        mq: MessageQueue,
        dfs: SimDfs,
        /// Direct service handle for assertions; servers go through the
        /// message plane.
        meta: MetadataService,
        transport: Arc<InProcTransport>,
        cfg: SystemConfig,
    }

    impl Rig {
        fn new(name: &str) -> Self {
            let root =
                std::env::temp_dir().join(format!("ww-ix-test-{name}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&root);
            let mq = MessageQueue::new();
            mq.create_topic("ingest", 2).unwrap();
            let dfs = SimDfs::new(root, Cluster::new(3), 3, LatencyModel::default()).unwrap();
            let meta = MetadataService::in_memory();
            let transport = Arc::new(InProcTransport::with_registry(None, Arc::default()));
            serve_meta(transport.registry(), meta.clone());
            let mut cfg = SystemConfig::default();
            cfg.chunk_size_bytes = 4 * 1024;
            cfg.late_visibility = std::time::Duration::from_secs(5);
            Self {
                mq,
                dfs,
                meta,
                transport,
                cfg,
            }
        }

        fn server(&self, partition: usize, offset: u64) -> IndexingServer {
            let id = ServerId(partition as u32);
            let rpc = RpcClient::new(
                Arc::clone(&self.transport) as Arc<dyn Transport>,
                id,
                &self.cfg,
            );
            IndexingServer::new(
                id,
                KeyInterval::full(),
                self.cfg.clone(),
                Consumer::new(self.mq.clone(), "ingest", partition, offset),
                self.dfs.clone(),
                MetaClient::new(rpc),
            )
        }
    }

    fn sq(keys: KeyInterval, times: TimeInterval) -> SubQuery {
        SubQuery {
            id: SubQueryId {
                query: QueryId(0),
                index: 0,
            },
            keys,
            times,
            predicate: None,
            measure_range: None,
            target: SubQueryTarget::InMemory(ServerId(0)),
        }
    }

    #[test]
    fn pump_ingests_and_data_is_immediately_visible() {
        let rig = Rig::new("visible");
        let server = rig.server(0, 0);
        for i in 0..100u64 {
            rig.mq
                .append("ingest", 0, Tuple::bare(i, 1_000 + i))
                .unwrap();
        }
        assert_eq!(server.pump(1_000).unwrap(), 100);
        let hits = server
            .query_in_memory(&sq(KeyInterval::new(10, 20), TimeInterval::full()))
            .unwrap();
        assert_eq!(hits.len(), 11);
    }

    #[test]
    fn flush_writes_chunk_and_registers_metadata() {
        let rig = Rig::new("flush");
        let server = rig.server(0, 0);
        // ~4 KB threshold: 300 tuples × 20 bytes = 6 KB → at least 1 flush.
        for i in 0..300u64 {
            rig.mq
                .append("ingest", 0, Tuple::bare(i * 7, 1_000 + i))
                .unwrap();
        }
        server.pump(1_000).unwrap();
        assert!(server.stats().chunks_flushed.load(Ordering::Relaxed) >= 1);
        assert!(rig.meta.chunk_count() >= 1);
        // Flushed data no longer in memory; offsets persisted.
        assert!(server.in_memory() < 300);
        assert!(rig.meta.durable_offset(ServerId(0)) > 0);
        // The chunk exists on the DFS.
        let chunks = rig.meta.chunks_overlapping(&Region::full());
        assert!(rig.dfs.exists(chunks[0].0));
    }

    #[test]
    fn late_tuples_within_delta_t_stay_visible_in_main_tree() {
        let rig = Rig::new("late-ok");
        let server = rig.server(0, 0);
        rig.mq.append("ingest", 0, Tuple::bare(1, 100_000)).unwrap();
        // 3 s late — within the 5 s Δt.
        rig.mq.append("ingest", 0, Tuple::bare(2, 97_000)).unwrap();
        server.pump(10).unwrap();
        assert_eq!(server.stats().side_stored.load(Ordering::Relaxed), 0);
        let region = server.memory_region().unwrap();
        // Region lower bound is widened by Δt.
        assert!(region.times.lo() <= 97_000);
        assert!(region.times.lo() <= 100_000 - 5_000);
    }

    #[test]
    fn very_late_tuples_go_to_side_store_but_remain_queryable() {
        let rig = Rig::new("side");
        let server = rig.server(0, 0);
        rig.mq.append("ingest", 0, Tuple::bare(1, 100_000)).unwrap();
        // 60 s late — far beyond Δt = 5 s.
        rig.mq.append("ingest", 0, Tuple::bare(2, 40_000)).unwrap();
        server.pump(10).unwrap();
        assert_eq!(server.stats().side_stored.load(Ordering::Relaxed), 1);
        let hits = server
            .query_in_memory(&sq(KeyInterval::full(), TimeInterval::new(39_000, 41_000)))
            .unwrap();
        assert_eq!(hits.len(), 1);
        // Flush produces two chunks: main + side.
        let flushed = server.flush().unwrap();
        assert_eq!(flushed.len(), 2);
        // The main chunk's temporal bounds stay tight (exclude the side
        // tuple).
        let main = rig.meta.chunk_info(flushed[0]).unwrap();
        assert!(main.region.times.lo() >= 100_000);
        let side = rig.meta.chunk_info(flushed[1]).unwrap();
        assert!(side.region.times.contains(40_000));
    }

    /// A stream of nothing but very-late tuples never grows the tree, so
    /// the side store has to count toward the flush threshold itself.
    #[test]
    fn an_all_late_stream_flushes_the_side_store_at_the_chunk_threshold() {
        let rig = Rig::new("side-flush");
        let server = rig.server(0, 0);
        rig.mq
            .append("ingest", 0, Tuple::bare(0, 1_000_000))
            .unwrap();
        // Every one far more than Δt = 5 s behind the first: 1 000 × 20 B
        // against a 4 KiB threshold.
        for i in 0..1_000u64 {
            rig.mq.append("ingest", 0, Tuple::bare(i, i)).unwrap();
        }
        while server.pump(100).unwrap() > 0 {}
        assert_eq!(server.stats().side_stored.load(Ordering::Relaxed), 1_000);
        assert!(
            server.stats().chunks_flushed.load(Ordering::Relaxed) >= 4,
            "the side store never flushed on its own"
        );
        assert!(
            server.in_memory() * 20 < rig.cfg.chunk_size_bytes + 100 * 20,
            "{} late tuples still in memory",
            server.in_memory()
        );
        // Nothing was lost on the way out.
        let in_chunks: u64 = rig
            .meta
            .chunks_overlapping(&Region::full())
            .iter()
            .map(|(id, _)| rig.meta.chunk_info(*id).unwrap().count)
            .sum();
        assert_eq!(in_chunks + server.in_memory() as u64, 1_001);
    }

    /// Kill-9 replay polls the same queue in different batches than the
    /// first run did. Sealed chunks must not notice: the same records
    /// pumped 1 024 and 7 at a time give byte-identical chunk files.
    ///
    /// Where a flush happens is checked per pump, so the threshold is set
    /// to a common multiple of both batch sizes (7 168 records of 24 B) and
    /// both servers seal at the same stream positions; what the test pins
    /// is that the batch cuts in between leave no trace in the bytes —
    /// through template updates, duplicate `(key, ts)` pairs and a side
    /// store that flushes beside the tree.
    #[test]
    fn chunk_files_do_not_depend_on_pump_batch_size() {
        use waterwheel_storage::RangedRead;
        const PER_CHUNK: u64 = 7 * 1_024;
        let run = |name: &str, batch: usize| {
            let mut rig = Rig::new(name);
            rig.cfg.chunk_size_bytes = (PER_CHUNK * 24) as usize;
            let server = rig.server(0, 0);
            for i in 0..3 * PER_CHUNK + 500 {
                // Keys collide often, timestamps in pairs; one record in
                // 50 arrives a minute late; the payload tells twins apart.
                let key = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 54;
                let ts = if i % 50 == 49 { i / 2 } else { 100_000 + i / 2 };
                let t = Tuple::new(key, ts, (i as u32).to_le_bytes().to_vec());
                rig.mq.append("ingest", 0, t).unwrap();
            }
            while server.pump(batch).unwrap() > 0 {}
            server.flush().unwrap();
            let mut files: Vec<(ChunkId, Vec<u8>)> = rig
                .meta
                .chunks_overlapping(&Region::full())
                .into_iter()
                .map(|(id, _)| {
                    let file = rig.dfs.open(id, None).unwrap();
                    (id, file.read_range(0, file.len().unwrap()).unwrap())
                })
                .collect();
            files.sort();
            (
                files,
                server.stats().chunks_flushed.load(Ordering::Relaxed),
                server.stats().side_stored.load(Ordering::Relaxed),
            )
        };
        let (big, big_flushed, big_side) = run("batch-1024", 1_024);
        let (small, small_flushed, small_side) = run("batch-7", 7);
        assert_eq!(
            big_flushed, 8,
            "three threshold flushes and the last, tree + side store each"
        );
        assert_eq!(big_flushed, small_flushed);
        assert!(big_side > 0 && big_side == small_side);
        assert_eq!(big.len(), small.len());
        for (a, b) in big.iter().zip(&small) {
            assert!(a == b, "{:?} differs between pump(1024) and pump(7)", a.0);
        }
    }

    #[test]
    fn recovery_replays_from_durable_offset() {
        let rig = Rig::new("recover");
        let server = rig.server(0, 0);
        for i in 0..300u64 {
            rig.mq
                .append("ingest", 0, Tuple::bare(i, 1_000 + i))
                .unwrap();
        }
        server.pump(1_000).unwrap(); // will flush at least once
        let visible_before: usize = rig
            .meta
            .chunks_overlapping(&Region::full())
            .iter()
            .map(|(id, _)| rig.meta.chunk_info(*id).unwrap().count as usize)
            .sum::<usize>()
            + server.in_memory();
        assert_eq!(visible_before, 300);

        // Crash: drop the server (in-memory tree lost).
        server.set_failed(true);
        drop(server);

        // Recover: new server reads from the durable offset.
        let offset = rig.meta.durable_offset(ServerId(0));
        let recovered = rig.server(0, offset);
        recovered.pump(1_000).unwrap();
        let visible_after: usize = rig
            .meta
            .chunks_overlapping(&Region::full())
            .iter()
            .map(|(id, _)| rig.meta.chunk_info(*id).unwrap().count as usize)
            .sum::<usize>()
            + recovered.in_memory();
        assert_eq!(visible_after, 300, "tuples lost or duplicated by recovery");
    }

    #[test]
    fn failed_server_rejects_operations() {
        let rig = Rig::new("failstate");
        let server = rig.server(0, 0);
        server.set_failed(true);
        assert!(server.pump(10).is_err());
        assert!(server
            .query_in_memory(&sq(KeyInterval::full(), TimeInterval::full()))
            .is_err());
        server.set_failed(false);
        assert!(server.pump(10).is_ok());
    }

    #[test]
    fn reassign_changes_interval_without_losing_data() {
        let rig = Rig::new("reassign");
        let server = rig.server(0, 0);
        rig.mq.append("ingest", 0, Tuple::bare(500, 1_000)).unwrap();
        server.pump(10).unwrap();
        server.reassign(KeyInterval::new(0, 100));
        assert_eq!(server.assigned_interval(), KeyInterval::new(0, 100));
        // The out-of-interval tuple is still queryable (overlap window).
        let hits = server
            .query_in_memory(&sq(KeyInterval::point(500), TimeInterval::full()))
            .unwrap();
        assert_eq!(hits.len(), 1);
    }

    /// Regression for two flush-vs-pump races with the same shape:
    ///
    /// * `flush` used to seal the tree, write chunks, and only then clear
    ///   the wheel — a pump batch sliding into that window landed in the
    ///   *new* tree (still queryable as fresh data) while `clear()` erased
    ///   its wheel contributions, so range queries and aggregates
    ///   disagreed until the next flush;
    /// * `flush` also used to read the consumer position while a pump sat
    ///   between poll and insert — the seal missed those records but the
    ///   chunk registered an offset past them, so a kill -9 replay resumed
    ///   beyond tuples that were never made durable.
    ///
    /// Offset read + seal + side-store take + wheel drain now form one
    /// consumer-then-wheel-locked critical section, and `pump` holds the
    /// consumer lock across poll AND insert. The invariants sampled after
    /// every flush (the sole flusher is this thread): the wheel never
    /// knows fewer tuples than the fresh tree, and the registered durable
    /// offset never exceeds the tuples sealed into chunks.
    #[test]
    fn flush_never_wipes_concurrent_batches_from_the_wheel() {
        let rig = Rig::new("flush-wheel-race");
        // A fsync-ing DFS makes the flushing thread genuinely block inside
        // the chunk write, reliably yielding the (single) CPU to the pump
        // thread right inside the old code's seal -> clear window.
        let dfs_root = std::env::temp_dir().join(format!(
            "ww-ix-test-flush-wheel-race-dfs-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dfs_root);
        let dfs = SimDfs::new(dfs_root, Cluster::new(3), 3, LatencyModel::default())
            .unwrap()
            .with_fsync(waterwheel_wal::FsyncPolicy::from_flag(true));
        // No auto-flush: the main loop below is the only flusher, so the
        // wheel-vs-tree ordering invariant can be sampled between flushes.
        let mut cfg = rig.cfg.clone();
        cfg.chunk_size_bytes = 1 << 40;
        let id = ServerId(0);
        let rpc = RpcClient::new(Arc::clone(&rig.transport) as Arc<dyn Transport>, id, &cfg);
        let server = Arc::new(IndexingServer::new(
            id,
            KeyInterval::full(),
            cfg,
            Consumer::new(rig.mq.clone(), "ingest", 0, 0),
            dfs,
            MetaClient::new(rpc),
        ));
        const N: u64 = 5_000;
        let consumed = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let pumper = {
            let server = Arc::clone(&server);
            let consumed = Arc::clone(&consumed);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    let n = server.pump(7).unwrap();
                    consumed.fetch_add(n as u64, Ordering::SeqCst);
                    if n == 0 {
                        std::thread::yield_now();
                    }
                }
            })
        };
        let appender = {
            let mq = rig.mq.clone();
            std::thread::spawn(move || {
                for i in 0..N {
                    mq.append("ingest", 0, Tuple::bare(i, 1_000 + i)).unwrap();
                }
            })
        };
        while consumed.load(Ordering::SeqCst) < N {
            server.flush().unwrap();
            // Every tuple enters the wheel before the tree (both under the
            // wheel lock), and only this thread flushes, so the live wheel
            // can never know FEWER tuples than the fresh tree does.
            let in_mem = server.in_memory() as u64;
            let wheel = server
                .aggregate_in_memory((0, 15), &TimeInterval::full())
                .unwrap()
                .agg
                .count;
            assert!(
                wheel >= in_mem,
                "flush wiped concurrent batches from the wheel: \
                 {in_mem} fresh tuples but only {wheel} in the wheel"
            );
            // And the durability twin: the offset a chunk registers must
            // never run past the records actually sealed into chunks, or
            // a kill -9 replay would resume beyond tuples that were never
            // made durable. (Reading the position while a pump sat between
            // poll and insert used to do exactly that.)
            let offset = rig.meta.durable_offset(id);
            let chunks: u64 = rig
                .meta
                .chunks_overlapping(&Region::full())
                .iter()
                .map(|(cid, _)| rig.meta.chunk_info(*cid).unwrap().count)
                .sum();
            assert!(
                offset <= chunks,
                "durable offset ran past the sealed data: \
                 offset {offset} but only {chunks} tuples in chunks"
            );
        }
        appender.join().unwrap();
        stop.store(true, Ordering::SeqCst);
        pumper.join().unwrap();
        let flushed: u64 = rig
            .meta
            .chunks_overlapping(&Region::full())
            .iter()
            .map(|(id, _)| rig.meta.chunk_info(*id).unwrap().count)
            .sum();
        let fresh = server
            .aggregate_in_memory((0, 15), &TimeInterval::full())
            .unwrap()
            .agg
            .count;
        assert_eq!(
            flushed + fresh,
            N,
            "aggregate state lost tuples to a flush/ingest race"
        );
    }

    #[test]
    fn memory_region_is_cleared_after_full_flush() {
        let rig = Rig::new("clear");
        let server = rig.server(0, 0);
        rig.mq.append("ingest", 0, Tuple::bare(1, 1_000)).unwrap();
        server.pump(10).unwrap();
        assert!(rig.meta.memory_regions_overlapping(&Region::full()).len() == 1);
        server.flush().unwrap();
        assert!(rig
            .meta
            .memory_regions_overlapping(&Region::full())
            .is_empty());
    }
}
