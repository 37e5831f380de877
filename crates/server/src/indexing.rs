//! Indexing servers: realtime ingestion, chunk flushing, late-arrival
//! handling, and recovery (paper §III, §IV-D, §V).
//!
//! Each indexing server owns one key interval of the global partition. It
//! consumes its partition of the input queue, inserts tuples into an
//! in-memory [`TemplateBTree`], and — once the accumulated bytes reach the
//! chunk-size threshold — seals the tree into an immutable chunk on the
//! simulated DFS and registers the flush with the metadata server in one
//! step (§V): every chunk it wrote, with its summary extent, the durable
//! read offset and the memory region left behind.
//!
//! Late arrivals (§IV-D): the server keeps a high-water timestamp and two
//! fresh stores of one kind, each a template tree with the live aggregate
//! wheel mirroring it. Tuples no more than Δt behind the mark enter *main*,
//! whose reported region is widened by Δt so the coordinator never misses
//! them. Tuples later than Δt enter *side*, which flushes as its own chunk,
//! keeping the main chunks' temporal bounds tight. Nothing else tells the
//! two apart: scans, aggregates, the flush threshold and the seal treat
//! both alike.
//!
//! Recovery: an indexing server is reconstructed by replaying its queue
//! partition from the durable offset; the rebuilt tree is identical because
//! inserts are deterministic.
//!
//! Retention: once a flush is registered, the server — its partition's one
//! reader — trims the queue below the offset the flush made durable, so the
//! queue holds the unflushed tail, not the history.
//!
//! All metadata interactions go through a [`MetaClient`] — typed RPCs on
//! the message plane, subject to its deadlines, retries, and faults. A
//! flush makes two, whatever its number of chunks: one for its block of
//! chunk ids, one to register it. It moves only forward. It first seals
//! both stores, tree and wheel, into the *sealing slot* in the step that
//! empties them, so every tuple is in exactly one place: a fresh store, the
//! slot, or a registered chunk. The slot is served beside the fresh stores
//! until its registration is answered. A flush cut anywhere leaves it in
//! place, and the next flush — or the next pump — retries the same
//! registration, with the same chunks once all of them were written, which
//! the metadata service answers as a repeat if it had landed. A restart
//! replays the queue from the registered offset.
//!
//! Which side of the hand-off answers a subquery is its plan's call: the
//! subquery carries the durable offset its plan read beside the chunk list.
//! The offset this server last saw registered means the plan counts none
//! of the slot's chunks, so the slot answers beside the fresh stores; the
//! slot's own offset means the registration landed first, so the fresh
//! stores answer alone; any other is a stale plan
//! ([`WwError::StalePlan`]), which the coordinator plans again.
//!
//! The memory region the coordinator routes fresh-data subqueries by is
//! reported, not polled: with an open upper time bound, since timestamps
//! only grow, and again only when a tree's hull leaves what was last
//! reported — after a flush empties memory, on a side-store tuple below the
//! reported lower bound, or on a key outside it. That is about one metadata
//! call per flush cycle, however many batches the pump takes.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use waterwheel_agg::{plan, AggShare, AggWheel, WheelSummary, MAX_CELLS_PER_RING, SLICE_BITS};
use waterwheel_core::aggregate::{default_measure, MeasureFn};
use waterwheel_core::{
    ChunkId, Counters, KeyInterval, Region, Result, ServerId, SubQuery, SystemConfig, TimeInterval,
    Tuple, WwError,
};
use waterwheel_index::{IndexConfig, SealedTree, TemplateBTree, TupleIndex};
use waterwheel_meta::{ChunkInfo, FlushedChunk, SummaryExtent};
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
        /// A gauge, not a count: the tuples in the sealing slot, waiting on
        /// a registration (0 when the slot is empty, so a registration that
        /// never lands shows).
        sealing_tuples,
    }
}

/// `indexing.*` of one server: its [`IndexingStats`] plus two rows read
/// from the queue at visit time — `queue_lag`, the tuples of its
/// partition the pump has not reached, and `queue_retained`, the tuples
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

/// One fresh store: a template tree, whose template outlives each seal
/// (§III-B), and the live wheel mirroring its tuples, so the chunk it seals
/// into carries the wheel sealed as its summary, never one rebuilt from the
/// chunk's tuples (DESIGN.md §4b).
struct Store {
    tree: TemplateBTree,
    wheel: Mutex<AggWheel>,
}

impl Store {
    fn new(assigned: KeyInterval, cfg: IndexConfig) -> Self {
        Self {
            tree: TemplateBTree::new(assigned, cfg),
            wheel: Mutex::new(AggWheel::new(SLICE_BITS)),
        }
    }

    /// Adds a batch, to the wheel first (when `measure` feeds one), so the
    /// wheel never knows fewer tuples than the tree.
    fn insert(&self, tuples: Vec<Tuple>, measure: Option<&MeasureFn>) {
        if let Some(measure) = measure {
            let measured = tuples.iter().map(|t| (t.key, t.ts, measure(t)));
            self.wheel.lock().insert_batch(measured);
        }
        self.tree.insert_batch(tuples);
    }

    /// Seals the tree and the wheel with it — into a summary, unless the
    /// pump fed it nothing — leaving both empty; `None` when the store
    /// holds no tuple.
    fn seal(&self) -> Option<SealedStore> {
        let wheel = std::mem::replace(&mut *self.wheel.lock(), AggWheel::new(SLICE_BITS));
        let summary = (!wheel.is_empty()).then(|| WheelSummary::seal(wheel, MAX_CELLS_PER_RING));
        Some((self.tree.seal()?, summary))
    }
}

/// A sealed store: its tree, with the summary sealed from its wheel.
type SealedStore = (SealedTree, Option<WheelSummary>);

/// What one flush sealed, shared with the readers it serves until its
/// registration is answered: each non-empty store's tree with its summary,
/// main first, and their hull; the queue position at the seal, which is
/// the offset the registration makes durable; and the chunks, once all of
/// them are written.
struct Sealed {
    stores: Vec<SealedStore>,
    region: Region,
    offset: u64,
    written: OnceLock<Vec<FlushedChunk>>,
}

/// The hand-off from the fresh stores to the registered chunks.
#[derive(Default)]
struct Handoff {
    /// The offset of the last registration this server saw answered.
    registered: u64,
    /// Seals so far: a reader that sees it move during a scan reads again.
    seals: u64,
    /// The sealing slot: sealed stores whose registration is not answered.
    slot: Option<Arc<Sealed>>,
    /// Whether the slot's registration is on its way to the metadata
    /// service, and so may have moved its tuples to chunks already.
    registering: bool,
}

impl Handoff {
    /// The sealed stores a subquery planned at `planned` reads beside the
    /// fresh ones (module docs): the slot when the plan saw the offset last
    /// registered; nothing when it saw the slot's own. A subquery no plan
    /// read an offset for sees the slot as memory holds it: until its
    /// registration is sent, and again once one failed.
    fn serves(&self, planned: Option<u64>) -> Result<Option<Arc<Sealed>>> {
        match planned {
            None if !self.registering => Ok(self.slot.clone()),
            Some(offset) if offset == self.registered => Ok(self.slot.clone()),
            None => Ok(None),
            Some(offset) if self.slot.as_ref().is_some_and(|s| s.offset == offset) => Ok(None),
            Some(_) => Err(WwError::StalePlan),
        }
    }
}

/// One indexing server.
pub struct IndexingServer {
    id: ServerId,
    cfg: SystemConfig,
    /// Tuples at most Δt behind the high-water mark.
    main: Store,
    /// Tuples later than Δt, flushed as separate chunks (§IV-D).
    side: Store,
    /// Assigned key interval under the current partition schema; updated by
    /// adaptive key partitioning (§III-D).
    assigned: Mutex<KeyInterval>,
    /// Highest event timestamp seen.
    high_water: AtomicU64,
    consumer: Mutex<Consumer>,
    /// The consumer's partition, trimmed after each registered flush.
    backlog: Backlog,
    /// Whether a trim may delete journal segments too (see
    /// [`Self::set_journal_trim`]).
    journal_trim: AtomicBool,
    dfs: SimDfs,
    meta: MetaClient,
    stats: Arc<IndexingStats>,
    /// Failure injection.
    failed: AtomicBool,
    /// Measure extractor feeding the wheel and filtering measure ranges;
    /// shared with the query servers so summary cells and scan folds agree.
    /// Install before ingesting.
    measure: parking_lot::RwLock<MeasureFn>,
    /// Held for a whole `flush`, seal through registration, and while a
    /// pump retries a registration: `handoff` is held only for moments, so
    /// no reader waits on a chunk write.
    flushing: Mutex<()>,
    /// The sealing slot and the offsets a subquery's plan is checked by.
    handoff: Mutex<Handoff>,
    /// The region last sent to the metadata service (`None`: none, or
    /// unknown after a failed call). Held across each report, the pump's
    /// and the flush's alike, so an older region never lands after a newer.
    reported: Mutex<Option<Region>>,
}

impl IndexingServer {
    /// Creates a server over `assigned`, reading its queue partition from
    /// `consumer`'s position: the offset registered for it, which is also
    /// the offset it checks the first plans against (0 for a new server).
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
            main: Store::new(assigned, index_cfg),
            side: Store::new(assigned, index_cfg),
            assigned: Mutex::new(assigned),
            high_water: AtomicU64::new(0),
            backlog: consumer.backlog(),
            journal_trim: AtomicBool::new(false),
            handoff: Mutex::new(Handoff {
                registered: consumer.position(),
                ..Handoff::default()
            }),
            consumer: Mutex::new(consumer),
            dfs,
            meta,
            stats: Arc::default(),
            failed: AtomicBool::new(false),
            measure: parking_lot::RwLock::new(default_measure()),
            flushing: Mutex::new(()),
            reported: Mutex::new(None),
            cfg,
        }
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
    /// installed before ingestion — wheel cells
    /// hold measured values, so a mid-stream swap would make summaries
    /// disagree with tuple scans.
    pub fn set_measure(&self, measure: MeasureFn) {
        *self.measure.write() = measure;
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

    /// The two fresh stores, main first.
    fn stores(&self) -> [&Store; 2] {
        [&self.main, &self.side]
    }

    /// Tuples currently in memory: main, side and the sealing slot, unless
    /// the slot's registration is on its way — the tuples a subquery with no
    /// planned offset reads.
    pub fn in_memory(&self) -> usize {
        let sealed = self.handoff.lock().serves(None).ok().flatten();
        let fresh: usize = self.stores().iter().map(|s| s.tree.len()).sum();
        fresh + sealed.map_or(0, |s| s.stores.iter().map(|(t, _)| t.count).sum())
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
    /// errors on subqueries. Whoever fails it may clear its region in the
    /// metadata service, so the next batch reports it again.
    pub fn set_failed(&self, failed: bool) {
        self.failed.store(failed, Ordering::SeqCst);
        *self.reported.lock() = None;
    }

    /// Whether failure injection is active.
    pub fn is_failed(&self) -> bool {
        self.failed.load(Ordering::SeqCst)
    }

    fn late_limit_ms(&self) -> u64 {
        self.cfg.late_visibility.as_millis() as u64
    }

    /// Bytes in both trees, the measure the chunk threshold applies to.
    fn bytes_in_memory(&self) -> usize {
        self.stores().iter().map(|s| s.tree.byte_size()).sum()
    }

    /// Consumes up to `max` queued tuples; returns how many were processed.
    /// Flushes automatically when the chunk-size threshold is crossed: each
    /// poll takes no more than the threshold has room for, so a chunk seals
    /// at the first record that crosses it, however the stream was cut
    /// into pumps. A slot a failed flush left behind is registered first,
    /// unless a flush is under way to do it.
    pub fn pump(&self, max: usize) -> Result<usize> {
        if self.is_failed() {
            return Err(WwError::Injected("indexing server down"));
        }
        if let Some(_whole_flush) = self.flushing.try_lock() {
            self.register_slot()?;
        }
        let mut total = 0;
        while total < max {
            let n = self.poll_and_ingest(max - total)?;
            total += n;
            if n > 0 {
                self.report_region()?;
            }
            if self.bytes_in_memory() < self.cfg.chunk_size_bytes {
                // The poll ended at `max` or at the queue's end, not at
                // the threshold.
                break;
            }
            self.flush()?;
        }
        Ok(total)
    }

    /// Polls up to `max` tuples, at most as many bytes as the chunk
    /// threshold has room for (and at least one tuple), and ingests them.
    fn poll_and_ingest(&self, max: usize) -> Result<usize> {
        // The consumer lock spans poll AND insert: the seal reads the
        // consumer position under this lock as the chunk's durable offset,
        // so a record must never exist in the polled-but-not-yet-inserted
        // state while a flush seals. Otherwise the seal misses the record,
        // the chunk registers an offset *past* it, and a later kill -9
        // replay resumes beyond a tuple that was never made durable.
        let mut consumer = self.consumer.lock();
        let room = self
            .cfg
            .chunk_size_bytes
            .saturating_sub(self.bytes_in_memory());
        let tuples = consumer.poll_bytes(max, room.max(1))?;
        let n = tuples.len();
        if n > 0 {
            let (ingested, late) = self.ingest_batch(tuples);
            self.stats.ingested.fetch_add(ingested, Ordering::Relaxed);
            self.stats.side_stored.fetch_add(late, Ordering::Relaxed);
        }
        Ok(n)
    }

    /// Parks the calling thread until this server's queue partition holds
    /// records its pump has not taken, or `until()` holds, for at most
    /// `timeout`: the wait of an idle pump. `false` when the timeout passed
    /// first (or the partition is gone).
    pub fn wait_for_records(&self, timeout: Duration, until: impl Fn() -> bool) -> bool {
        self.backlog.wait(timeout, until).unwrap_or(false)
    }

    /// Makes every thread parked in [`Self::wait_for_records`] on this
    /// server's partition re-check its condition — a replacement server's
    /// pump, say, which has a replay to do before anything new arrives.
    pub fn wake_pump(&self) {
        let _ = self.backlog.wake();
    }

    /// Ingests one polled batch: routes it by the high-water mark (§IV-D)
    /// into main and side, each taking its share in one `insert_batch`.
    /// `pump` holds the consumer lock throughout, so one batch runs at a
    /// time, a local high-water mark sees every earlier tuple, and no flush
    /// seals between the two stores' shares. Returns how many entered main
    /// and side.
    fn ingest_batch(&self, tuples: Vec<Tuple>) -> (u64, u64) {
        let late_limit = self.late_limit_ms();
        let mut high_water = self.high_water.load(Ordering::Acquire);
        let mut main = tuples;
        let side: Vec<Tuple> = main
            .extract_if(.., |t| {
                high_water = high_water.max(t.ts);
                high_water - t.ts > late_limit
            })
            .collect();
        self.high_water.fetch_max(high_water, Ordering::AcqRel);
        let counts = (main.len() as u64, side.len() as u64);
        let measure = self
            .cfg
            .agg_summaries_enabled
            .then(|| self.measure.read().clone());
        for (store, tuples) in self.stores().into_iter().zip([main, side]) {
            store.insert(tuples, measure.as_ref());
        }
        counts
    }

    /// Answers this server's share of an aggregate over `sq`'s rectangle —
    /// the query's own, not clipped to the memory region. Each store splits
    /// it against the wheel ([`plan::split`]): a fresh store's live wheel
    /// answers the interior, a sealed store's summary the interior less its
    /// residues, and each tree is folded over what is left. Each part takes
    /// its own lock, a wheel's as the pump does and a tree's leaf latches,
    /// never one across the other. A filtered subquery
    /// ([`SubQuery::filters`]) folds its filtered scan instead: wheel cells
    /// cannot see a filter.
    pub fn aggregate_in_memory(&self, sq: &SubQuery) -> Result<AggShare> {
        if self.is_failed() {
            return Err(WwError::Injected("indexing server down"));
        }
        let measure = self.measure.read().clone();
        if sq.filters() {
            let mut share = AggShare::default();
            share.fold(&self.query_in_memory(sq)?, &*measure);
            return Ok(share);
        }
        let split = plan::split(&sq.keys, &sq.times, SLICE_BITS);
        let wheels = split.interior.filter(|_| self.cfg.agg_summaries_enabled);
        self.read(sq.offset, |sealed| {
            let mut share = AggShare::default();
            for store in self.stores() {
                let out = wheels.map(|i| store.wheel.lock().fold(i.slices, &i.covered));
                for f in share.fold_interior(&split, out) {
                    share.fold(&store.tree.query(&f.keys, &f.times, None), &*measure);
                }
            }
            for (tree, summary) in sealed.into_iter().flat_map(|s| &s.stores) {
                let out = split.interior.zip(summary.as_ref());
                let out = out.map(|(i, summary)| summary.fold(i.slices, &i.covered));
                for f in share.fold_interior(&split, out) {
                    share.fold(&tree.query(&f.keys, &f.times, None), &*measure);
                }
            }
            share
        })
    }

    /// The hull of the fresh stores, and of the slot's trees too when
    /// `slot`: main's with its lower time bound widened by Δt (§IV-D),
    /// since a tuple up to Δt late may still join it.
    fn hull(&self, slot: bool) -> Option<Region> {
        let main = self.main.tree.region();
        let main = main.map(|r| Region::new(r.keys, r.times.widen_lo(self.late_limit_ms())));
        let sealed = slot.then(|| self.handoff.lock().slot.as_ref().map(|s| s.region));
        [main, self.side.tree.region(), sealed.flatten()]
            .into_iter()
            .flatten()
            .reduce(|a, b| a.hull(&b))
    }

    /// The region the coordinator should consider for fresh data: the hull
    /// of main's, side's and the sealing slot's trees, main's widened by Δt.
    pub fn memory_region(&self) -> Option<Region> {
        self.hull(true)
    }

    /// What this server reports as its memory region: [`Self::hull`] over
    /// the assigned interval's keys too, and open above, since the fresh
    /// trees only ever take timestamps above a lower bound that a flush
    /// resets.
    fn to_report(&self, slot: bool) -> Option<Region> {
        let region = self.hull(slot)?;
        let keys = region.keys.hull(&self.assigned_interval());
        let times = TimeInterval::new(region.times.lo(), u64::MAX);
        Some(Region::new(keys, times))
    }

    /// Sends the memory region to the metadata service if a tree's hull —
    /// a fresh store's or the slot's — has left the one last reported.
    fn report_region(&self) -> Result<()> {
        let mut reported = self.reported.lock();
        let [main, side] = self.stores().map(|s| s.tree.region());
        let sealed = self.handoff.lock().slot.as_ref().map(|s| s.region);
        let covers = |hull: Region| reported.is_some_and(|r| r.covers(&hull));
        if [main, side, sealed].into_iter().flatten().all(covers) {
            return Ok(());
        }
        let region = self.to_report(true);
        // Unknown until the call is answered: a lost answer must not leave a
        // stale region counted as sent.
        *reported = None;
        self.meta.update_memory_region(self.id, region)?;
        *reported = region;
        Ok(())
    }

    /// Executes a subquery against the in-memory state — the fresh-data
    /// path of §IV-A: main, side and, when the subquery's plan leaves it to
    /// memory, the sealing slot — keeping what passes its predicate and,
    /// under this server's measure, its measure range.
    pub fn query_in_memory(&self, sq: &SubQuery) -> Result<Vec<Tuple>> {
        if self.is_failed() {
            return Err(WwError::Injected("indexing server down"));
        }
        let measure = self.measure.read().clone();
        let keep = |t: &Tuple| sq.keeps(t, &*measure);
        let keep: Option<&(dyn Fn(&Tuple) -> bool + Sync)> = sq.filters().then_some(&keep);
        let (keys, times) = (&sq.keys, &sq.times);
        self.read(sq.offset, |sealed| {
            let fresh = self.stores().map(|s| s.tree.query(keys, times, keep));
            let sealed = sealed.into_iter().flat_map(|s| &s.stores);
            let sealed = sealed.map(|(tree, _)| tree.query(keys, times, keep));
            fresh.into_iter().chain(sealed).flatten().collect()
        })
    }

    /// Runs `read` over what a subquery planned at `planned` reads beside
    /// the fresh stores ([`Handoff::serves`]), and again whenever a seal
    /// lands meanwhile: a read that straddles one may have met a tuple in
    /// neither place, or in both.
    fn read<T>(&self, planned: Option<u64>, read: impl Fn(Option<&Sealed>) -> T) -> Result<T> {
        loop {
            let handoff = self.handoff.lock();
            let (seals, sealed) = (handoff.seals, handoff.serves(planned)?);
            drop(handoff);
            let out = read(sealed.as_deref());
            if self.handoff.lock().seals == seals {
                return Ok(out);
            }
        }
    }

    /// Writes one sealed tree to the DFS as chunk `id` — with its
    /// aggregate summary, if any, sealed into the footer — and returns what
    /// the flush registers about it.
    fn write_chunk(&self, id: u64, (sealed, summary): &SealedStore) -> Result<FlushedChunk> {
        let id = ChunkId(id);
        let measure = self.measure.read().clone();
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
        let extent = summary.as_ref().map(|summary| SummaryExtent {
            cells: summary.cell_count() as u64,
            bytes: summary.encoded_len() as u64,
            levels: summary.levels(),
            slice_bits: summary.slice_bits(),
            measure_range: summary.measure_bounds(),
        });
        self.stats
            .summary_bytes_flushed
            .fetch_add(extent.map_or(0, |e| e.bytes), Ordering::Relaxed);
        Ok(FlushedChunk {
            id,
            info: ChunkInfo {
                region: sealed.region,
                count: sealed.count as u64,
                bytes: bytes.len() as u64,
                producer: self.id,
            },
            summary: extent,
        })
    }

    /// Seals the in-memory state into the sealing slot, writes it to the
    /// DFS as chunk(s), registers them, the durable offset and the memory
    /// region with the metadata server in one call, and trims the queue
    /// below that offset. A slot an earlier flush left is registered first.
    /// Returns the registered chunk ids. No-op on an empty server.
    pub fn flush(&self) -> Result<Vec<ChunkId>> {
        // Whole flushes are serialized: a second caller (the `Flush` RPC
        // racing the pump's own threshold flush) returns only once the
        // first caller's tuples are registered, so a client querying right
        // after its `flush()` plans with them in chunks.
        let _whole_flush = self.flushing.lock();
        let mut ids = self.register_slot()?;
        if self.seal() {
            ids.extend(self.register_slot()?);
        }
        Ok(ids)
    }

    /// Moves both stores, tree and wheel, into the sealing slot at the
    /// queue position, in one step for readers; `false` when they hold no
    /// tuple. `pump` holds the consumer lock from poll through insert, so
    /// taking the position and the stores under that lock sees each batch
    /// wholly or not at all: every polled record is below the offset and in
    /// the slot, or at or above it and fresh in the emptied stores.
    fn seal(&self) -> bool {
        let consumer = self.consumer.lock();
        let mut handoff = self.handoff.lock();
        // One chunk per non-empty store, main first: side flushes apart so
        // main chunks keep tight temporal bounds (§IV-D).
        let stores: Vec<_> = self.stores().iter().filter_map(|s| s.seal()).collect();
        let hulls = stores.iter().map(|(tree, _)| tree.region);
        let Some(region) = hulls.reduce(|a, b| a.hull(&b)) else {
            return false;
        };
        let count = stores.iter().map(|(tree, _)| tree.count as u64).sum();
        self.stats.sealing_tuples.store(count, Ordering::Relaxed);
        let (offset, written) = (consumer.position(), OnceLock::new());
        handoff.slot = Some(Arc::new(Sealed {
            stores,
            region,
            offset,
            written,
        }));
        handoff.seals += 1;
        true
    }

    /// Registers the sealing slot's flush — writing its chunks first, unless
    /// an earlier attempt wrote them all — releases the slot once the
    /// registration is answered, and trims the queue below its offset.
    /// Returns the registered ids; none without a slot. The caller holds
    /// `flushing`.
    fn register_slot(&self) -> Result<Vec<ChunkId>> {
        let Some(sealed) = self.handoff.lock().slot.clone() else {
            return Ok(Vec::new());
        };
        let chunks = match sealed.written.get() {
            Some(chunks) => chunks.clone(),
            None => {
                // Ids a failed write leaves unregistered are gaps; their
                // files, if any, are never read.
                let first = self.meta.allocate_chunk_ids(sealed.stores.len() as u64)?;
                let chunks = (first.raw()..).zip(&sealed.stores);
                let chunks = chunks.map(|(id, s)| self.write_chunk(id, s));
                let chunks = chunks.collect::<Result<Vec<_>>>()?;
                sealed.written.get_or_init(|| chunks).clone()
            }
        };
        let ids: Vec<ChunkId> = chunks.iter().map(|c| c.id).collect();
        // The chunks, their extents and the offset become visible together,
        // with the region of the fresh stores left beside them.
        let (mut reported, offset) = (self.reported.lock(), sealed.offset);
        let region = self.to_report(false);
        *reported = None;
        self.handoff.lock().registering = true;
        let answer = self.meta.register_flush(self.id, chunks, offset, region);
        let mut handoff = self.handoff.lock();
        handoff.registering = false;
        answer?;
        (*reported, handoff.registered, handoff.slot) = (region, offset, None);
        drop((handoff, reported));
        self.stats.sealing_tuples.store(0, Ordering::Relaxed);
        self.stats
            .chunks_flushed
            .fetch_add(ids.len() as u64, Ordering::Relaxed);
        self.trim_below(offset)?;
        Ok(ids)
    }

    /// Lets the queue drop the records below `offset`, which a registered
    /// flush holds in chunks now (Kafka's retention, paper §V). A crashed
    /// server leaves its partition to the replacement replaying it.
    fn trim_below(&self, offset: u64) -> Result<()> {
        if self.is_failed() {
            return Ok(());
        }
        let journal = self.journal_trim.load(Ordering::Relaxed);
        self.backlog.trim(offset, journal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waterwheel_cluster::{Cluster, LatencyModel};
    use waterwheel_core::{QueryId, SubQueryId, SubQueryTarget};
    use waterwheel_meta::MetadataService;
    use waterwheel_mq::MessageQueue;
    use waterwheel_net::{serve_meta, InProcTransport, RpcClient, Transport, META_SERVER};

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
            offset: None,
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
        use waterwheel_storage::{ChunkReader, RangedRead};
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
        // Main chunks hold no late tuple (ts ≥ 100 000) and their bytes are
        // pinned. The side chunks hold exactly the late tuples; their leaf
        // cuts follow the side tree's template, retained across flushes.
        let (mut main, mut side) = (Vec::new(), Vec::new());
        for (id, bytes) in &big {
            let reader = ChunkReader::new(&bytes[..]);
            let index = reader.load_index().unwrap();
            if index.region.times.lo() >= 100_000 {
                main.extend_from_slice(bytes);
            } else {
                let leaves = reader.read_leaves(&index, 0, index.leaves.len() - 1);
                side.extend(leaves.unwrap().into_iter().flatten());
                assert!(
                    index.region.times.hi() < 100_000,
                    "{id:?} mixes main and side"
                );
            }
        }
        let sum = waterwheel_core::codec::checksum(&main);
        assert_eq!(
            (main.len(), sum),
            (176_632, 0xbc20_dcb5_52be_e687),
            "main chunks: {sum:#x}"
        );
        let mut late: Vec<Tuple> = (49..3 * PER_CHUNK + 500)
            .step_by(50)
            .map(|i| {
                let key = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 54;
                Tuple::new(key, i / 2, (i as u32).to_le_bytes().to_vec())
            })
            .collect();
        let order = |t: &Tuple| (t.key, t.ts, t.payload.to_vec());
        late.sort_by_key(order);
        side.sort_by_key(order);
        assert!(
            side == late,
            "side chunks hold {} tuples, not the {} late ones",
            side.len(),
            late.len()
        );
    }

    /// The sibling of the test above with a threshold that is a multiple
    /// of neither batch size (5 003 records of 24 B). Each poll takes only
    /// what the threshold has room for, so both pumps seal at exactly every
    /// 5 003rd record, main and side chunk together, and leave the same
    /// 500-record tail in memory; the chunk files are byte-identical.
    #[test]
    fn chunks_seal_at_the_threshold_record_whatever_the_pump_batch() {
        const PER_CHUNK: u64 = 5_003;
        let run = |name: &str, batch: usize| {
            let mut rig = Rig::new(name);
            rig.cfg.chunk_size_bytes = (PER_CHUNK * 24) as usize;
            let server = rig.server(0, 0);
            for i in 0..3 * PER_CHUNK + 500 {
                let key = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 54;
                let ts = if i % 50 == 49 { i / 2 } else { 100_000 + i / 2 };
                let t = Tuple::new(key, ts, (i as u32).to_le_bytes().to_vec());
                rig.mq.append("ingest", 0, t).unwrap();
            }
            while server.pump(batch).unwrap() > 0 {}
            let tail = server.in_memory();
            let sealed = server.stats().chunks_flushed.load(Ordering::Relaxed);
            server.flush().unwrap();
            let mut files: Vec<(ChunkId, u64, Vec<u8>)> = rig
                .meta
                .chunks_overlapping(&Region::full())
                .into_iter()
                .map(|(id, _)| {
                    let file = rig.dfs.open(id, None).unwrap();
                    let count = rig.meta.chunk_info(id).unwrap().count;
                    (id, count, file.read_range(0, file.len().unwrap()).unwrap())
                })
                .collect();
            files.sort();
            (files, sealed, tail)
        };
        use waterwheel_storage::RangedRead;
        let (big, big_sealed, big_tail) = run("odd-1024", 1_024);
        let (small, small_sealed, small_tail) = run("odd-7", 7);
        assert_eq!((big_tail, small_tail), (500, 500), "a threshold overshot");
        assert_eq!(
            (big_sealed, small_sealed),
            (6, 6),
            "three flushes, main + side"
        );
        // Chunk ids come in one block per flush, main first: each of the
        // three threshold flushes holds exactly the threshold's records.
        for flush in big[..6].chunks(2) {
            assert_eq!(flush[0].1 + flush[1].1, PER_CHUNK);
        }
        assert_eq!(big.len(), small.len());
        for (a, b) in big.iter().zip(&small) {
            assert!(a == b, "{:?} differs between pump(1024) and pump(7)", a.0);
        }
    }

    /// The flush seals the live wheels instead of rebuilding a summary
    /// from the sealed tuples. The bytes must not notice: every chunk's
    /// summary — the side store's too — encodes exactly as
    /// `WheelSummary::build` over that chunk's tuples does, through
    /// threshold flushes, explicit ones, and late tuples in every batch.
    #[test]
    fn chunk_summaries_equal_a_rebuild_over_the_chunk_tuples() {
        use waterwheel_storage::{ChunkReader, RangedRead};
        let mut rig = Rig::new("summary-from-wheel");
        rig.cfg.chunk_size_bytes = 16 * 1024;
        let server = rig.server(0, 0);
        let measure: MeasureFn = Arc::new(|t: &Tuple| t.ts % 977 + t.payload[0] as u64);
        server.set_measure(Arc::clone(&measure));
        let mut next = 0u64;
        for (round, batch) in [(0u64, 13usize), (1, 256), (2, 1)] {
            for _ in 0..2_000 {
                let i = next;
                next += 1;
                let key = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                // One in 9 arrives minutes late, below Δt = 5 s.
                let ts = if i % 9 == 4 { i * 3 } else { 600_000 + i * 7 };
                let t = Tuple::new(key, ts, vec![(i % 251) as u8, 0, 0]);
                rig.mq.append("ingest", 0, t).unwrap();
            }
            while server.pump(batch).unwrap() > 0 {}
            if round < 2 {
                server.flush().unwrap();
            }
        }
        server.flush().unwrap();
        let chunks = rig.meta.chunks_overlapping(&Region::full());
        assert!(chunks.len() >= 6, "only {} chunks", chunks.len());
        let mut side_chunks = 0;
        for (id, _) in chunks {
            let file = rig.dfs.open(id, None).unwrap();
            let bytes = file.read_range(0, file.len().unwrap()).unwrap();
            let reader = ChunkReader::new(&bytes[..]);
            let index = reader.load_index().unwrap();
            let leaves = reader
                .read_leaves(&index, 0, index.leaves.len() - 1)
                .unwrap();
            let rebuilt = WheelSummary::build(
                leaves.iter().flatten().map(|t| (t.key, t.ts, measure(t))),
                SLICE_BITS,
                MAX_CELLS_PER_RING,
            );
            let sealed = reader.read_summary().unwrap().expect("chunk has a summary");
            assert_eq!(sealed.encode(), rebuilt.encode(), "{id:?}");
            let extent = rig.meta.summary_extent(id).unwrap();
            assert_eq!(extent.bytes, rebuilt.encode().len() as u64, "{id:?}");
            if index.region.times.lo() < 600_000 {
                side_chunks += 1;
            }
        }
        assert!(side_chunks >= 3, "only {side_chunks} side-store chunks");
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
                .aggregate_in_memory(&sq(KeyInterval::full(), TimeInterval::full()))
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
            .aggregate_in_memory(&sq(KeyInterval::full(), TimeInterval::full()))
            .unwrap()
            .agg
            .count;
        assert_eq!(
            flushed + fresh,
            N,
            "aggregate state lost tuples to a flush/ingest race"
        );
    }

    /// A flush whose registration fails keeps its tuples in memory: cut
    /// before the registration, and with the registration applied but its
    /// answer lost. The next pump settles which it was, and the next flush
    /// seals each tuple exactly once.
    #[test]
    fn a_failed_flush_keeps_its_tuples_and_the_next_seals_them_once() {
        use waterwheel_net::{MetaRequest, Request};
        for lost_answer in [false, true] {
            let rig = Rig::new(&format!("failed-flush-{lost_answer}"));
            let serve = rig.transport.registry().get(META_SERVER).unwrap();
            let failing = Arc::new(AtomicBool::new(false));
            let fail = Arc::clone(&failing);
            rig.transport.registry().bind(META_SERVER, move |env| {
                let register = matches!(
                    &env.payload,
                    Request::Meta(MetaRequest::RegisterFlush { .. })
                );
                if !fail.load(Ordering::SeqCst) || !register {
                    return serve(env);
                }
                if lost_answer {
                    serve(env)?;
                }
                Err(waterwheel_core::WwError::Timeout("answer lost"))
            });
            let mut cfg = rig.cfg.clone();
            cfg.rpc_retries = 0;
            let server = IndexingServer::new(
                ServerId(0),
                KeyInterval::full(),
                cfg,
                Consumer::new(rig.mq.clone(), "ingest", 0, 0),
                rig.dfs.clone(),
                MetaClient::new(RpcClient::new(
                    Arc::clone(&rig.transport) as Arc<dyn Transport>,
                    ServerId(0),
                    &rig.cfg,
                )),
            );
            let all = || {
                let mut t = server
                    .query_in_memory(&sq(KeyInterval::full(), TimeInterval::full()))
                    .unwrap();
                let in_chunks: u64 = rig
                    .meta
                    .chunks_overlapping(&Region::full())
                    .iter()
                    .map(|(id, _)| rig.meta.chunk_info(*id).unwrap().count)
                    .sum();
                t.sort_by_key(|t| (t.key, t.ts));
                (t, in_chunks)
            };
            for i in 0..100u64 {
                rig.mq
                    .append("ingest", 0, Tuple::bare(i, 1_000 + i))
                    .unwrap();
            }
            server.pump(1_000).unwrap();
            failing.store(true, Ordering::SeqCst);
            assert!(server.flush().is_err());
            // The tuples are in memory again. Registered or not, the region
            // the coordinator plans by covers them exactly once: the old
            // one if the registration never landed, none if it did.
            let (fresh, in_chunks) = all();
            let landed = if lost_answer { 100 } else { 0 };
            assert_eq!((fresh.len(), in_chunks), (100, landed), "{lost_answer}");
            let regions = rig.meta.memory_regions_overlapping(&Region::full());
            assert_eq!(regions.is_empty(), lost_answer, "{regions:?}");
            if let [(_, region)] = regions[..] {
                assert!(fresh.iter().all(|t| region.contains_tuple(t)));
            }
            failing.store(false, Ordering::SeqCst);
            for i in 100..150u64 {
                rig.mq
                    .append("ingest", 0, Tuple::bare(i, 1_000 + i))
                    .unwrap();
            }
            // The next pump settles the doubt before it reports: memory
            // holds each tuple no chunk holds, once.
            server.pump(1_000).unwrap();
            let (fresh, in_chunks) = all();
            assert_eq!(fresh.len() as u64 + in_chunks, 150, "{lost_answer}");
            server.flush().unwrap();
            let (fresh, in_chunks) = all();
            assert_eq!((fresh.len(), in_chunks), (0, 150), "{lost_answer}");
            assert_eq!(rig.meta.durable_offset(ServerId(0)), 150);
        }
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
