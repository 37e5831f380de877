//! A replayable, partitioned message log — the Kafka substitute.
//!
//! Waterwheel's fault-tolerance story (paper §V) needs exactly three
//! properties from its input queue:
//!
//! 1. records in a partition carry **monotonically increasing offsets**,
//! 2. records **from a given offset can be replayed** on request, and
//! 3. appends are durable independently of the consumer's lifetime.
//!
//! When an indexing server flushes its in-memory B+ tree, it persists the
//! current read offset alongside the chunk's metadata; after a crash the
//! server replays its partition from that offset and the in-memory tree is
//! reconstructed exactly (§V, "Insertion workflow").
//!
//! This crate provides those properties in-process: a [`MessageQueue`]
//! broker hosting named topics, each with a fixed set of offset-addressed
//! partitions. Records are retained until trimmed past the durability
//! point, mirroring Kafka's log-retention contract: each partition has one
//! reader, and once the chunk that reader registered carries an offset,
//! the reader's [`Backlog::trim`] drops the records below it. In memory a
//! partition holds its records in fixed-size runs, so a trim frees whole
//! runs and never moves the records it keeps; on a durable broker the
//! trim can also release whole journal segments ([`persist`]), so memory,
//! disk and restart time follow the unflushed tail, not the history.

#![warn(missing_docs)]

pub mod persist;

use parking_lot::RwLock;
use persist::PartitionPersist;
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use waterwheel_core::{Result, Tuple, WwError};
use waterwheel_wal::{FsyncPolicy, WalStats};

/// A record stored in a partition: a tuple plus its log offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// The record's offset within its partition; dense and increasing.
    pub offset: u64,
    /// The payload tuple.
    pub tuple: Tuple,
}

/// Records per in-memory run: a trim frees whole runs.
const RUN_LEN: usize = 4_096;

/// One partition's log.
#[derive(Default)]
struct PartitionLog {
    /// Offset of the first retained record; everything below has been
    /// trimmed.
    base_offset: u64,
    /// Offset of `runs[0][0]`: the run holding `base_offset` may still hold
    /// up to `RUN_LEN - 1` trimmed records, freed with that run.
    run_base: u64,
    /// Records with dense offsets from `run_base`, in runs of `RUN_LEN`
    /// (every run but the last is full).
    runs: VecDeque<Vec<Record>>,
    /// Disk persistence, when the broker is durable.
    persist: Option<PartitionPersist>,
    /// Highest marked-batch sequence number per producer, recovered from
    /// disk and maintained across appends (exactly-once replay state).
    last_seqs: HashMap<u32, u64>,
}

impl PartitionLog {
    fn next_offset(&self) -> u64 {
        let full = self.runs.len().saturating_sub(1) * RUN_LEN;
        self.run_base + (full + self.runs.back().map_or(0, Vec::len)) as u64
    }

    /// Records at or above the trim point.
    fn retained(&self) -> u64 {
        self.next_offset() - self.base_offset
    }

    /// Appends `tuples` at offsets `next_offset()..`, a run at a time.
    fn extend(&mut self, tuples: Vec<Tuple>) {
        let first = self.next_offset();
        let mut records = (first..)
            .zip(tuples)
            .map(|(offset, tuple)| Record { offset, tuple })
            .peekable();
        while records.peek().is_some() {
            if self.runs.back().is_none_or(|run| run.len() == RUN_LEN) {
                self.runs.push_back(Vec::with_capacity(RUN_LEN));
            }
            let run = self.runs.back_mut().expect("a run with room");
            let room = RUN_LEN - run.len();
            run.extend(records.by_ref().take(room));
        }
    }

    /// Up to `max` records from `offset` (at or above the trim point).
    fn read(&self, offset: u64, max: usize) -> Vec<Record> {
        let rel = (offset - self.run_base) as usize;
        let (mut run, mut at) = (rel / RUN_LEN, rel % RUN_LEN);
        let mut out = Vec::with_capacity(max.min(self.retained() as usize));
        while out.len() < max {
            let Some(records) = self.runs.get(run) else {
                break;
            };
            let take = (records.len().saturating_sub(at)).min(max - out.len());
            if take == 0 {
                break;
            }
            out.extend_from_slice(&records[at..at + take]);
            (run, at) = (run + 1, 0);
        }
        out
    }

    /// Moves the trim point up to `upto` (between it and the next offset)
    /// and hands back the runs now wholly below it, for the caller to drop
    /// outside the partition lock.
    fn trim_memory(&mut self, upto: u64) -> Vec<Vec<Record>> {
        self.base_offset = upto;
        let mut freed = Vec::new();
        while self.runs.front().is_some_and(|run| {
            run.len() == RUN_LEN && self.run_base + RUN_LEN as u64 <= self.base_offset
        }) {
            freed.extend(self.runs.pop_front());
            self.run_base += RUN_LEN as u64;
        }
        freed
    }
}

/// A topic: a fixed number of partitions.
struct Topic {
    partitions: Vec<RwLock<PartitionLog>>,
}

/// The in-process broker.
///
/// Cloning the handle is cheap; all clones address the same broker state,
/// which outlives any individual producer or consumer — that is what makes
/// replay-based recovery meaningful in the embedded deployment.
#[derive(Clone)]
pub struct MessageQueue {
    topics: Arc<RwLock<HashMap<String, Arc<Topic>>>>,
    /// Directory for durable partition logs; `None` keeps the broker
    /// memory-only.
    root: Option<PathBuf>,
    /// Fsync policy for durable partitions.
    policy: FsyncPolicy,
    /// WAL segment rotation threshold.
    segment_bytes: usize,
    /// Shared durability counters across all partitions.
    stats: Arc<WalStats>,
}

impl Default for MessageQueue {
    fn default() -> Self {
        Self {
            topics: Arc::default(),
            root: None,
            policy: FsyncPolicy::Never,
            // Read only by durable partitions, which `root: None` has none of.
            segment_bytes: 0,
            stats: WalStats::shared(),
        }
    }
}

impl MessageQueue {
    /// Creates an empty in-memory broker (records die with the process).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates (or reopens) a **durable** broker rooted at `root`: every
    /// append is journalled, and `create_topic` reloads retained records
    /// with identical offsets — Kafka's durability contract (paper §V).
    /// `policy` and `segment_bytes` are the `durability_fsync` /
    /// `wal_segment_bytes` knobs: under [`FsyncPolicy::Never`] commits
    /// reach the OS page cache (they survive `kill -9`, not power loss).
    pub fn durable_with(
        root: impl Into<PathBuf>,
        policy: FsyncPolicy,
        segment_bytes: usize,
    ) -> Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(Self {
            topics: Arc::default(),
            root: Some(root),
            policy,
            segment_bytes,
            stats: WalStats::shared(),
        })
    }

    /// Shared durability counters (bytes journalled, fsyncs, torn tails
    /// dropped, tuples replayed at open).
    pub fn wal_stats(&self) -> Arc<WalStats> {
        Arc::clone(&self.stats)
    }

    /// Forces buffered appends of every partition to the durability point
    /// of the configured policy (call before a planned shutdown;
    /// crash-safety of plain appends is bounded by the group-commit size).
    pub fn sync(&self) -> Result<()> {
        if self.root.is_none() {
            return Ok(());
        }
        let topics: Vec<Arc<Topic>> = self.topics.read().values().cloned().collect();
        for topic in topics {
            for log in &topic.partitions {
                if let Some(p) = &mut log.write().persist {
                    p.flush()?;
                }
            }
        }
        Ok(())
    }

    /// Creates a topic with `partitions` partitions. Idempotent when the
    /// partition count matches; errors when it conflicts.
    pub fn create_topic(&self, name: &str, partitions: usize) -> Result<()> {
        if partitions == 0 {
            return Err(WwError::Config("topic needs at least one partition".into()));
        }
        let mut topics = self.topics.write();
        if let Some(existing) = topics.get(name) {
            if existing.partitions.len() == partitions {
                return Ok(());
            }
            return Err(WwError::InvalidState(format!(
                "topic {name} already exists with {} partitions",
                existing.partitions.len()
            )));
        }
        let mut logs = Vec::with_capacity(partitions);
        for partition in 0..partitions {
            let mut log = PartitionLog::default();
            if let Some(root) = &self.root {
                let (persist, loaded) = PartitionPersist::open(
                    root,
                    name,
                    partition,
                    self.policy,
                    self.segment_bytes,
                    Arc::clone(&self.stats),
                )?;
                log.base_offset = loaded.base_offset;
                log.run_base = loaded.base_offset;
                log.extend(loaded.tuples);
                log.last_seqs = loaded.last_seqs;
                log.persist = Some(persist);
            }
            logs.push(RwLock::new(log));
        }
        topics.insert(name.to_string(), Arc::new(Topic { partitions: logs }));
        Ok(())
    }

    fn topic(&self, name: &str) -> Result<Arc<Topic>> {
        self.topics
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| WwError::not_found("topic", name))
    }

    fn partition<'t>(
        topic: &'t Topic,
        name: &str,
        partition: usize,
    ) -> Result<&'t RwLock<PartitionLog>> {
        topic
            .partitions
            .get(partition)
            .ok_or_else(|| WwError::not_found("partition", format!("{name}/{partition}")))
    }

    /// Number of partitions in `name`.
    pub fn partition_count(&self, name: &str) -> Result<usize> {
        Ok(self.topic(name)?.partitions.len())
    }

    /// Appends a tuple, returning its offset.
    pub fn append(&self, name: &str, partition: usize, tuple: Tuple) -> Result<u64> {
        let topic = self.topic(name)?;
        let log = Self::partition(&topic, name, partition)?;
        let mut log = log.write();
        let offset = log.next_offset();
        if let Some(p) = &mut log.persist {
            p.append_batch(None, std::slice::from_ref(&tuple))?;
        }
        log.extend(vec![tuple]);
        Ok(offset)
    }

    /// Appends a batch, returning the offset of the first record. On a
    /// durable broker the whole batch lands as one atomic journal frame.
    pub fn append_batch(
        &self,
        name: &str,
        partition: usize,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<u64> {
        self.append_batch_inner(name, partition, None, tuples.into_iter().collect())
    }

    /// Appends a batch carrying its exactly-once identity: the producer's
    /// server id and per-destination sequence number are journalled in the
    /// same atomic frame as the tuples, so after a `kill -9` the replayed
    /// log also rebuilds the duplicate-suppression state
    /// ([`MessageQueue::last_seq`]). This is the ack durability point —
    /// the frame is committed (fsynced under
    /// [`FsyncPolicy::Always`]) before this returns.
    pub fn append_batch_from(
        &self,
        name: &str,
        partition: usize,
        src: u32,
        seq: u64,
        tuples: Vec<Tuple>,
    ) -> Result<u64> {
        self.append_batch_inner(name, partition, Some((src, seq)), tuples)
    }

    fn append_batch_inner(
        &self,
        name: &str,
        partition: usize,
        marker: Option<(u32, u64)>,
        tuples: Vec<Tuple>,
    ) -> Result<u64> {
        let topic = self.topic(name)?;
        let log = Self::partition(&topic, name, partition)?;
        let mut log = log.write();
        let first = log.next_offset();
        if let Some(p) = &mut log.persist {
            p.append_batch(marker, &tuples)?;
        }
        log.extend(tuples);
        if let Some((src, seq)) = marker {
            let e = log.last_seqs.entry(src).or_insert(seq);
            *e = (*e).max(seq);
        }
        Ok(first)
    }

    /// The highest marked-batch sequence number this partition has seen
    /// from producer `src` (recovered from the journal on a durable
    /// broker). `None` means no marked batch from that producer.
    pub fn last_seq(&self, name: &str, partition: usize, src: u32) -> Result<Option<u64>> {
        let topic = self.topic(name)?;
        let log = Self::partition(&topic, name, partition)?;
        let seq = log.read().last_seqs.get(&src).copied();
        Ok(seq)
    }

    /// All recovered/maintained `(producer, last sequence)` pairs of a
    /// partition — seeds a restarted consumer's dedup map.
    pub fn recovered_seqs(&self, name: &str, partition: usize) -> Result<Vec<(u32, u64)>> {
        let topic = self.topic(name)?;
        let log = Self::partition(&topic, name, partition)?;
        let mut seqs: Vec<(u32, u64)> =
            log.read().last_seqs.iter().map(|(s, q)| (*s, *q)).collect();
        seqs.sort_unstable();
        Ok(seqs)
    }

    /// Reads up to `max` records starting at `offset` (inclusive).
    ///
    /// Reading below the trim point is an error — the data is gone, which a
    /// recovering consumer must treat as unrecoverable rather than silently
    /// skipping tuples. Reading at or past the end returns an empty vec.
    pub fn read_from(
        &self,
        name: &str,
        partition: usize,
        offset: u64,
        max: usize,
    ) -> Result<Vec<Record>> {
        let topic = self.topic(name)?;
        let log = Self::partition(&topic, name, partition)?;
        let log = log.read();
        if offset < log.base_offset {
            return Err(WwError::InvalidState(format!(
                "offset {offset} below trim point {} of {name}/{partition}",
                log.base_offset
            )));
        }
        Ok(log.read(offset, max))
    }

    /// The next offset that will be assigned in this partition (i.e. one
    /// past the last record).
    pub fn latest_offset(&self, name: &str, partition: usize) -> Result<u64> {
        let topic = self.topic(name)?;
        let log = Self::partition(&topic, name, partition)?;
        let next = log.read().next_offset();
        Ok(next)
    }

    /// The lowest retained offset of this partition.
    pub fn trim_point(&self, name: &str, partition: usize) -> Result<u64> {
        let topic = self.topic(name)?;
        let log = Self::partition(&topic, name, partition)?;
        let base = log.read().base_offset;
        Ok(base)
    }

    /// Discards all records with offsets strictly below `upto` (clamped to
    /// the next offset), and on a durable broker releases the journal
    /// segments wholly below it ([`persist`]).
    ///
    /// Called once the consumer's durability point (the offset persisted
    /// with the last flushed chunk) has advanced past them.
    pub fn trim(&self, name: &str, partition: usize, upto: u64) -> Result<()> {
        self.trim_to(name, partition, upto, true)
    }

    fn trim_to(&self, name: &str, partition: usize, upto: u64, journal: bool) -> Result<()> {
        let topic = self.topic(name)?;
        let log = Self::partition(&topic, name, partition)?;
        let freed = {
            let mut log = log.write();
            let upto = upto.min(log.next_offset());
            if upto <= log.base_offset {
                return Ok(());
            }
            let freed = log.trim_memory(upto);
            let PartitionLog {
                base_offset,
                persist,
                last_seqs,
                ..
            } = &mut *log;
            if let Some(p) = persist.as_mut().filter(|_| journal) {
                p.record_trim(*base_offset, last_seqs)?;
            }
            freed
        };
        // Freeing a run's records touches every payload: outside the lock
        // the producers append under.
        drop(freed);
        Ok(())
    }

    /// Total retained records across all partitions of a topic.
    pub fn retained(&self, name: &str) -> Result<usize> {
        let topic = self.topic(name)?;
        Ok(topic
            .partitions
            .iter()
            .map(|p| p.read().retained() as usize)
            .sum())
    }
}

/// A polling consumer cursor over one partition.
///
/// Keeps its position client-side, like a Kafka consumer without group
/// coordination — the indexing server persists the position itself at each
/// flush (paper §V).
pub struct Consumer {
    mq: MessageQueue,
    topic: String,
    partition: usize,
    /// Shared with this consumer's [`Backlog`]s.
    position: Arc<AtomicU64>,
}

impl Consumer {
    /// Opens a cursor at `position` (use the recovered durable offset, or 0).
    pub fn new(
        mq: MessageQueue,
        topic: impl Into<String>,
        partition: usize,
        position: u64,
    ) -> Self {
        Self {
            mq,
            topic: topic.into(),
            partition,
            position: Arc::new(AtomicU64::new(position)),
        }
    }

    /// The next offset this consumer will read.
    pub fn position(&self) -> u64 {
        self.position.load(Ordering::Acquire)
    }

    /// Polls up to `max` records, advancing the cursor.
    pub fn poll(&mut self, max: usize) -> Result<Vec<Record>> {
        let records = self
            .mq
            .read_from(&self.topic, self.partition, self.position(), max)?;
        if let Some(last) = records.last() {
            self.position.store(last.offset + 1, Ordering::Release);
        }
        Ok(records)
    }

    /// Rewinds (or fast-forwards) the cursor — used by recovery replay.
    pub fn seek(&mut self, offset: u64) {
        self.position.store(offset, Ordering::Release);
    }

    /// A handle on this consumer's partition that reads and trims it
    /// without the consumer itself (which its poller keeps locked).
    pub fn backlog(&self) -> Backlog {
        Backlog {
            mq: self.mq.clone(),
            topic: self.topic.clone(),
            partition: self.partition,
            position: Arc::clone(&self.position),
        }
    }
}

/// What the queue holds for one [`Consumer`]: how far the consumer trails
/// the partition's head, how many records are still retained for it, and
/// the trim that lets them go.
///
/// A partition has exactly one reader (DESIGN.md §5), so that reader's
/// durable offset alone decides what may be trimmed.
#[derive(Clone)]
pub struct Backlog {
    mq: MessageQueue,
    topic: String,
    partition: usize,
    position: Arc<AtomicU64>,
}

impl Backlog {
    /// Records appended to the partition that the consumer has not polled.
    pub fn lag(&self) -> Result<u64> {
        let latest = self.mq.latest_offset(&self.topic, self.partition)?;
        Ok(latest.saturating_sub(self.position.load(Ordering::Acquire)))
    }

    /// Records of the partition at or above its trim point, still held in
    /// memory.
    pub fn retained(&self) -> Result<u64> {
        let topic = self.mq.topic(&self.topic)?;
        let log = MessageQueue::partition(&topic, &self.topic, self.partition)?;
        let retained = log.read().retained();
        Ok(retained)
    }

    /// Discards the partition's records below `upto` — never past the
    /// consumer's position. With `journal`, a durable broker also releases
    /// the journal segments wholly below it; pass that only when `upto`
    /// itself survives a restart (it was registered with a durable
    /// metadata service), since a restart replays from there.
    pub fn trim(&self, upto: u64, journal: bool) -> Result<()> {
        let upto = upto.min(self.position.load(Ordering::Acquire));
        self.mq.trim_to(&self.topic, self.partition, upto, journal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mq_with_topic() -> MessageQueue {
        let mq = MessageQueue::new();
        mq.create_topic("ingest", 2).unwrap();
        mq
    }

    #[test]
    fn offsets_are_dense_and_per_partition() {
        let mq = mq_with_topic();
        assert_eq!(mq.append("ingest", 0, Tuple::bare(1, 1)).unwrap(), 0);
        assert_eq!(mq.append("ingest", 0, Tuple::bare(2, 2)).unwrap(), 1);
        assert_eq!(mq.append("ingest", 1, Tuple::bare(3, 3)).unwrap(), 0);
        assert_eq!(mq.latest_offset("ingest", 0).unwrap(), 2);
        assert_eq!(mq.latest_offset("ingest", 1).unwrap(), 1);
        assert_eq!(mq.partition_count("ingest").unwrap(), 2);
    }

    #[test]
    fn read_from_replays_exactly() {
        let mq = mq_with_topic();
        for i in 0..10u64 {
            mq.append("ingest", 0, Tuple::bare(i, i)).unwrap();
        }
        let records = mq.read_from("ingest", 0, 4, 3).unwrap();
        let offsets: Vec<_> = records.iter().map(|r| r.offset).collect();
        assert_eq!(offsets, vec![4, 5, 6]);
        assert!(mq.read_from("ingest", 0, 10, 5).unwrap().is_empty());
    }

    #[test]
    fn unknown_topic_and_partition_error() {
        let mq = mq_with_topic();
        assert!(mq.append("nope", 0, Tuple::bare(0, 0)).is_err());
        assert!(mq.append("ingest", 7, Tuple::bare(0, 0)).is_err());
    }

    #[test]
    fn create_topic_is_idempotent_but_conflict_checked() {
        let mq = mq_with_topic();
        mq.create_topic("ingest", 2).unwrap();
        assert!(mq.create_topic("ingest", 3).is_err());
        assert!(mq.create_topic("zero", 0).is_err());
    }

    #[test]
    fn trim_discards_below_and_blocks_stale_reads() {
        let mq = mq_with_topic();
        for i in 0..10u64 {
            mq.append("ingest", 0, Tuple::bare(i, i)).unwrap();
        }
        mq.trim("ingest", 0, 6).unwrap();
        assert_eq!(mq.trim_point("ingest", 0).unwrap(), 6);
        assert_eq!(mq.retained("ingest").unwrap(), 4);
        assert!(mq.read_from("ingest", 0, 3, 10).is_err());
        let records = mq.read_from("ingest", 0, 6, 10).unwrap();
        assert_eq!(records.len(), 4);
        // Offsets keep increasing after a trim.
        assert_eq!(mq.append("ingest", 0, Tuple::bare(99, 99)).unwrap(), 10);
        // Trimming an already-trimmed range is a no-op.
        mq.trim("ingest", 0, 2).unwrap();
        assert_eq!(mq.trim_point("ingest", 0).unwrap(), 6);
    }

    #[test]
    fn append_batch_assigns_consecutive_offsets() {
        let mq = mq_with_topic();
        let first = mq
            .append_batch("ingest", 1, (0..5u64).map(|i| Tuple::bare(i, i)))
            .unwrap();
        assert_eq!(first, 0);
        assert_eq!(mq.latest_offset("ingest", 1).unwrap(), 5);
    }

    #[test]
    fn consumer_polls_and_recovers_from_seek() {
        let mq = mq_with_topic();
        for i in 0..8u64 {
            mq.append("ingest", 0, Tuple::bare(i, i)).unwrap();
        }
        let mut c = Consumer::new(mq.clone(), "ingest", 0, 0);
        let batch = c.poll(5).unwrap();
        assert_eq!(batch.len(), 5);
        assert_eq!(c.position(), 5);
        // Simulate a crash that had durably flushed only offset 3: replay.
        c.seek(3);
        let replay = c.poll(100).unwrap();
        let offsets: Vec<_> = replay.iter().map(|r| r.offset).collect();
        assert_eq!(offsets, vec![3, 4, 5, 6, 7]);
        assert!(c.poll(10).unwrap().is_empty());
    }

    #[test]
    fn durable_broker_recovers_records_and_dedup_state() {
        let root = std::env::temp_dir().join(format!("ww-mq-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        {
            let mq = MessageQueue::durable_with(&root, FsyncPolicy::Always, 1 << 20).unwrap();
            mq.create_topic("ingest", 2).unwrap();
            mq.append_batch_from(
                "ingest",
                0,
                2000,
                1,
                vec![Tuple::bare(1, 1), Tuple::bare(2, 2)],
            )
            .unwrap();
            mq.append_batch_from("ingest", 0, 2000, 2, vec![Tuple::bare(3, 3)])
                .unwrap();
            mq.append_batch_from("ingest", 1, 2001, 7, vec![Tuple::bare(4, 4)])
                .unwrap();
            assert!(
                mq.wal_stats()
                    .fsyncs
                    .load(std::sync::atomic::Ordering::Relaxed)
                    >= 3
            );
        }
        // A fresh broker over the same root replays everything, offsets
        // and exactly-once markers intact.
        let mq = MessageQueue::durable_with(&root, FsyncPolicy::Never, 1 << 20).unwrap();
        mq.create_topic("ingest", 2).unwrap();
        assert_eq!(mq.latest_offset("ingest", 0).unwrap(), 3);
        assert_eq!(mq.last_seq("ingest", 0, 2000).unwrap(), Some(2));
        assert_eq!(mq.last_seq("ingest", 0, 2001).unwrap(), None);
        assert_eq!(mq.recovered_seqs("ingest", 1).unwrap(), vec![(2001, 7)]);
        let records = mq.read_from("ingest", 0, 0, 10).unwrap();
        let keys: Vec<u64> = records.iter().map(|r| r.tuple.key).collect();
        assert_eq!(keys, vec![1, 2, 3]);
        assert_eq!(
            mq.wal_stats()
                .replayed
                .load(std::sync::atomic::Ordering::Relaxed),
            4
        );
    }

    #[test]
    fn clones_share_state_across_threads() {
        use std::thread;
        let mq = mq_with_topic();
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let mq = mq.clone();
                thread::spawn(move || {
                    for i in 0..250u64 {
                        mq.append("ingest", (p % 2) as usize, Tuple::bare(i, i))
                            .unwrap();
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let total = mq.latest_offset("ingest", 0).unwrap() + mq.latest_offset("ingest", 1).unwrap();
        assert_eq!(total, 1_000);
    }
}
