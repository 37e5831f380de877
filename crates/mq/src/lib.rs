//! A replayable, partitioned message log — the Kafka substitute.
//!
//! Waterwheel's fault-tolerance story (paper §V) needs exactly three
//! properties from its input queue:
//!
//! 1. offsets are positional: the n-th retained tuple is at `base + n`,
//! 2. tuples **from a given offset can be replayed** on request, and
//! 3. appends are durable independently of the consumer's lifetime.
//!
//! When an indexing server flushes its in-memory B+ tree, it persists the
//! current read offset alongside the chunk's metadata; after a crash the
//! server replays its partition from that offset and the in-memory tree is
//! reconstructed exactly (§V, "Insertion workflow").
//!
//! This crate provides those properties in-process: a [`MessageQueue`]
//! broker hosting named topics, each with a fixed set of offset-addressed
//! partitions. Tuples are retained until trimmed past the durability
//! point, mirroring Kafka's log-retention contract: each partition has one
//! reader, and once the chunk that reader registered carries an offset,
//! the reader's [`Backlog::trim`] drops the tuples below it. In memory a
//! partition holds its tuples in fixed-size runs, so a trim frees whole
//! runs and never moves the tuples it keeps; on a durable broker the
//! trim can also release whole journal segments ([`persist`]), so memory,
//! disk and restart time follow the unflushed tail, not the history.
//!
//! A partition is also the one exactly-once table of what was appended to
//! it: [`MessageQueue::append_batch_from`] keeps the highest batch sequence
//! number per producer beside the tuples, journals it in the batch's frame,
//! and drops a batch at or below it as a redelivery.

#![warn(missing_docs)]

pub mod persist;

use parking_lot::{Mutex, RwLock};
use persist::PartitionPersist;
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::Thread;
use std::time::{Duration, Instant};
use waterwheel_core::{Result, Tuple, WwError};
use waterwheel_wal::{FsyncPolicy, WalStats};

/// Tuples per in-memory run: a trim frees whole runs.
const RUN_LEN: usize = 4_096;

waterwheel_core::counters! {
    /// The exactly-once counters of a broker's marked appends (`ingest.*`
    /// in a metrics snapshot).
    pub struct DedupStats {
        /// Marked batches dropped as redeliveries: their sequence number
        /// was at or below the partition's marker for their producer.
        dedup_drops,
    }
}

/// One partition's log.
#[derive(Default)]
struct PartitionLog {
    /// Offset of the first retained tuple; everything below has been
    /// trimmed.
    base_offset: u64,
    /// Offset of `runs[0][0]`: the run holding `base_offset` may still hold
    /// up to `RUN_LEN - 1` trimmed tuples, freed with that run.
    run_base: u64,
    /// Tuples at offsets from `run_base`, in runs of `RUN_LEN` (every run
    /// but the last is full).
    runs: VecDeque<Vec<Tuple>>,
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

    /// Tuples at or above the trim point.
    fn retained(&self) -> u64 {
        self.next_offset() - self.base_offset
    }

    /// Appends `tuples` at offsets `next_offset()..`, a run at a time.
    fn extend(&mut self, tuples: Vec<Tuple>) {
        let mut tuples = tuples.into_iter().peekable();
        while tuples.peek().is_some() {
            if self.runs.back().is_none_or(|run| run.len() == RUN_LEN) {
                self.runs.push_back(Vec::with_capacity(RUN_LEN));
            }
            let run = self.runs.back_mut().expect("a run with room");
            let room = RUN_LEN - run.len();
            run.extend(tuples.by_ref().take(room));
        }
    }

    /// Up to `max` tuples from `offset` (at or above the trim point),
    /// ending with the one that brings their [`Tuple::encoded_len`] sum to
    /// `max_bytes`.
    fn read(&self, offset: u64, max: usize, max_bytes: usize) -> Vec<Tuple> {
        let rel = (offset - self.run_base) as usize;
        let (mut run, mut at) = (rel / RUN_LEN, rel % RUN_LEN);
        let mut out = Vec::with_capacity(max.min(self.retained() as usize));
        let mut bytes = 0;
        while out.len() < max && bytes < max_bytes {
            let Some(tuples) = self.runs.get(run) else {
                break;
            };
            let mut take = (tuples.len().saturating_sub(at)).min(max - out.len());
            if take == 0 {
                break;
            }
            if max_bytes != usize::MAX {
                let within = tuples[at..at + take].iter().position(|t| {
                    bytes += t.encoded_len();
                    bytes >= max_bytes
                });
                take = within.map_or(take, |i| i + 1);
            }
            out.extend_from_slice(&tuples[at..at + take]);
            (run, at) = (run + 1, 0);
        }
        out
    }

    /// Moves the trim point up to `upto` (between it and the next offset)
    /// and hands back the runs now wholly below it, for the caller to drop
    /// outside the partition lock.
    fn trim_memory(&mut self, upto: u64) -> Vec<Vec<Tuple>> {
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

/// One partition: its log, and the doorbell its reader parks on.
struct Partition {
    log: RwLock<PartitionLog>,
    arrivals: Doorbell,
}

/// Where a partition's reader parks until a record arrives. An append
/// rings it after releasing the log lock, and a ring with nobody parked is
/// one atomic load: no lock, no syscall.
///
/// A parker registers before it looks at the log, and an append writes the
/// log before it looks for parkers, both under the log lock: whichever
/// comes second sees the other, so no arrival goes unnoticed.
#[derive(Default)]
struct Doorbell {
    parked: AtomicUsize,
    waiters: Mutex<Vec<Thread>>,
}

impl Doorbell {
    /// Unparks every thread parked here, if any.
    fn ring(&self) {
        if self.parked.load(Ordering::SeqCst) > 0 {
            self.waiters.lock().iter().for_each(Thread::unpark);
        }
    }

    /// Parks the calling thread until `ready()` holds, re-checking it at
    /// every unpark; `false` when `timeout` passed first.
    fn park(&self, timeout: Duration, ready: impl Fn() -> bool) -> bool {
        let me = std::thread::current();
        {
            let mut waiters = self.waiters.lock();
            waiters.push(me.clone());
            self.parked.fetch_add(1, Ordering::SeqCst);
        }
        let deadline = Instant::now() + timeout;
        let ready = loop {
            if ready() {
                break true;
            }
            let now = Instant::now();
            if now >= deadline {
                break false;
            }
            std::thread::park_timeout(deadline - now);
        };
        let mut waiters = self.waiters.lock();
        if let Some(i) = waiters.iter().position(|t| t.id() == me.id()) {
            waiters.swap_remove(i);
        }
        self.parked.fetch_sub(1, Ordering::SeqCst);
        ready
    }
}

/// A topic: a fixed number of partitions.
struct Topic {
    partitions: Vec<Partition>,
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
    /// Shared exactly-once counters across all partitions.
    dedup: Arc<DedupStats>,
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
            dedup: Arc::default(),
        }
    }
}

impl MessageQueue {
    /// Creates an empty in-memory broker (tuples die with the process).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates (or reopens) a **durable** broker rooted at `root`: every
    /// append is journalled, and `create_topic` reloads retained tuples
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
            dedup: Arc::default(),
        })
    }

    /// Shared durability counters (bytes journalled, fsyncs, torn tails
    /// dropped, tuples replayed at open).
    pub fn wal_stats(&self) -> Arc<WalStats> {
        Arc::clone(&self.stats)
    }

    /// Shared exactly-once counters (redeliveries dropped).
    pub fn dedup_stats(&self) -> Arc<DedupStats> {
        Arc::clone(&self.dedup)
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
            for part in &topic.partitions {
                if let Some(p) = &mut part.log.write().persist {
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
            logs.push(Partition {
                log: RwLock::new(log),
                arrivals: Doorbell::default(),
            });
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

    /// Runs `f` on partition `partition` of topic `name`.
    fn with_partition<R>(
        &self,
        name: &str,
        partition: usize,
        f: impl FnOnce(&Partition) -> R,
    ) -> Result<R> {
        let topic = self.topic(name)?;
        let part = topic
            .partitions
            .get(partition)
            .ok_or_else(|| WwError::not_found("partition", format!("{name}/{partition}")))?;
        Ok(f(part))
    }

    /// Appends a tuple, returning its offset.
    pub fn append(&self, name: &str, partition: usize, tuple: Tuple) -> Result<u64> {
        self.append_batch(name, partition, [tuple])
    }

    /// Appends a batch, returning the offset of its first tuple. On a
    /// durable broker the whole batch lands as one atomic journal frame.
    pub fn append_batch(
        &self,
        name: &str,
        partition: usize,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<u64> {
        let first = self.append_marked(name, partition, None, tuples.into_iter().collect())?;
        Ok(first.expect("only a marked batch is ever a redelivery"))
    }

    /// Appends a batch carrying its exactly-once identity — the producer's
    /// server id and per-destination sequence number — unless the
    /// partition already holds `seq` or a younger batch from `src`: that is
    /// a redelivery whose first attempt landed with only the ack lost, so
    /// nothing is appended, it is counted (`dedup_drops`) and `None` is
    /// returned. Otherwise returns the offset of the first tuple.
    ///
    /// The marker is journalled in the same atomic frame as the tuples and
    /// recorded only once that frame committed (fsynced under
    /// [`FsyncPolicy::Always`]) — the ack durability point. A failed append
    /// records nothing and stays retryable; after a `kill -9` the replayed
    /// journal (and a trim's sidecar) rebuild the markers.
    pub fn append_batch_from(
        &self,
        name: &str,
        partition: usize,
        src: u32,
        seq: u64,
        tuples: Vec<Tuple>,
    ) -> Result<Option<u64>> {
        self.append_marked(name, partition, Some((src, seq)), tuples)
    }

    fn append_marked(
        &self,
        name: &str,
        partition: usize,
        marker: Option<(u32, u64)>,
        tuples: Vec<Tuple>,
    ) -> Result<Option<u64>> {
        self.with_partition(name, partition, |part| {
            let first = {
                let mut log = part.log.write();
                let known = |(src, seq)| log.last_seqs.get(&src).is_some_and(|&last| seq <= last);
                if marker.is_some_and(known) {
                    self.dedup.dedup_drops.fetch_add(1, Ordering::Relaxed);
                    return Ok(None);
                }
                let first = log.next_offset();
                if let Some(p) = &mut log.persist {
                    p.append_batch(marker, &tuples)?;
                }
                log.extend(tuples);
                if let Some((src, seq)) = marker {
                    log.last_seqs.insert(src, seq);
                }
                first
            };
            part.arrivals.ring();
            Ok(Some(first))
        })?
    }

    /// Every `(producer, highest marked-batch sequence number)` pair of a
    /// partition (recovered from the journal on a durable broker).
    pub fn recovered_seqs(&self, name: &str, partition: usize) -> Result<Vec<(u32, u64)>> {
        let mut seqs: Vec<(u32, u64)> = self.with_partition(name, partition, |part| {
            part.log
                .read()
                .last_seqs
                .iter()
                .map(|(s, q)| (*s, *q))
                .collect()
        })?;
        seqs.sort_unstable();
        Ok(seqs)
    }

    /// The next offset that will be assigned in this partition (i.e. one
    /// past the last tuple).
    pub fn latest_offset(&self, name: &str, partition: usize) -> Result<u64> {
        self.with_partition(name, partition, |part| part.log.read().next_offset())
    }

    /// The lowest retained offset of this partition.
    pub fn trim_point(&self, name: &str, partition: usize) -> Result<u64> {
        self.with_partition(name, partition, |part| part.log.read().base_offset)
    }

    /// Total retained tuples across all partitions of a topic.
    pub fn retained(&self, name: &str) -> Result<usize> {
        let topic = self.topic(name)?;
        Ok(topic
            .partitions
            .iter()
            .map(|p| p.log.read().retained() as usize)
            .sum())
    }
}

/// A polling consumer cursor over one partition.
///
/// Keeps its position client-side, like a Kafka consumer without group
/// coordination — the indexing server persists the position itself at each
/// flush (paper §V).
pub struct Consumer {
    /// The partition and the position, shared with this consumer's
    /// [`Backlog`]s.
    cursor: Backlog,
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
            cursor: Backlog {
                mq,
                topic: topic.into(),
                partition,
                position: Arc::new(AtomicU64::new(position)),
            },
        }
    }

    /// The next offset this consumer will read.
    pub fn position(&self) -> u64 {
        self.cursor.position()
    }

    /// Polls up to `max` tuples, advancing the cursor past them.
    pub fn poll(&mut self, max: usize) -> Result<Vec<Tuple>> {
        self.poll_bytes(max, usize::MAX)
    }

    /// Polls up to `max` tuples, stopping after the one that brings their
    /// [`Tuple::encoded_len`] sum to `max_bytes` (so any budget reads at
    /// least one), and advances the cursor past them.
    ///
    /// Polling below the trim point is an error — those tuples are gone,
    /// which a recovering consumer must treat as unrecoverable rather than
    /// silently skipping them. At the end of the partition it reads nothing.
    pub fn poll_bytes(&mut self, max: usize, max_bytes: usize) -> Result<Vec<Tuple>> {
        let c = &self.cursor;
        c.with_partition(|part| {
            let log = part.log.read();
            let position = c.position();
            if position < log.base_offset {
                return Err(WwError::InvalidState(format!(
                    "offset {position} below trim point {} of {}/{}",
                    log.base_offset, c.topic, c.partition
                )));
            }
            let tuples = log.read(position, max, max_bytes);
            c.position
                .store(position + tuples.len() as u64, Ordering::Release);
            Ok(tuples)
        })?
    }

    /// A handle on this consumer's partition that reads and trims it
    /// without the consumer itself (which its poller keeps locked).
    pub fn backlog(&self) -> Backlog {
        self.cursor.clone()
    }
}

/// What the queue holds for one [`Consumer`]: how far the consumer trails
/// the partition's head, how many tuples are still retained for it, and
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
    fn position(&self) -> u64 {
        self.position.load(Ordering::Acquire)
    }

    fn with_partition<R>(&self, f: impl FnOnce(&Partition) -> R) -> Result<R> {
        self.mq.with_partition(&self.topic, self.partition, f)
    }

    /// Tuples appended to the partition that the consumer has not polled.
    pub fn lag(&self) -> Result<u64> {
        let latest = self.with_partition(|part| part.log.read().next_offset())?;
        Ok(latest.saturating_sub(self.position()))
    }

    /// Tuples of the partition at or above its trim point, still held in
    /// memory.
    pub fn retained(&self) -> Result<u64> {
        self.with_partition(|part| part.log.read().retained())
    }

    /// Parks the calling thread until the consumer has tuples to poll or
    /// `until()` holds, for at most `timeout`; `false` when the timeout
    /// passed first. An append to the partition, or [`Self::wake`], makes
    /// it look again; whoever changes what `until` reads calls one of
    /// those (or unparks the thread) after the change.
    pub fn wait(&self, timeout: Duration, until: impl Fn() -> bool) -> Result<bool> {
        self.with_partition(|part| {
            part.arrivals.park(timeout, || {
                until() || part.log.read().next_offset() > self.position()
            })
        })
    }

    /// Unparks every thread waiting on this partition in [`Self::wait`],
    /// so each re-checks its condition.
    pub fn wake(&self) -> Result<()> {
        self.with_partition(|part| part.arrivals.ring())
    }

    /// Discards the partition's tuples below `upto` — never past the
    /// consumer's position. With `journal`, a durable broker also releases
    /// the journal segments wholly below it ([`persist`]); pass that only
    /// when `upto` itself survives a restart (it was registered with a
    /// durable metadata service), since a restart replays from there.
    pub fn trim(&self, upto: u64, journal: bool) -> Result<()> {
        let freed = self.with_partition(|part| -> Result<_> {
            let mut log = part.log.write();
            let upto = upto.min(self.position()).min(log.next_offset());
            if upto <= log.base_offset {
                return Ok(Vec::new());
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
            Ok(freed)
        })??;
        // Freeing a run's tuples touches every payload: outside the lock
        // the producers append under.
        drop(freed);
        Ok(())
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

    fn keys(tuples: &[Tuple]) -> Vec<u64> {
        tuples.iter().map(|t| t.key).collect()
    }

    fn fresh_root(name: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!("ww-mq-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    fn drops(mq: &MessageQueue) -> u64 {
        mq.dedup_stats().dedup_drops.load(Ordering::Relaxed)
    }

    #[test]
    fn offsets_are_dense_and_per_partition() {
        let mq = mq_with_topic();
        assert_eq!(mq.append("ingest", 0, Tuple::bare(1, 1)).unwrap(), 0);
        assert_eq!(mq.append("ingest", 0, Tuple::bare(2, 2)).unwrap(), 1);
        assert_eq!(mq.append("ingest", 1, Tuple::bare(3, 3)).unwrap(), 0);
        assert_eq!(mq.latest_offset("ingest", 0).unwrap(), 2);
        assert_eq!(mq.latest_offset("ingest", 1).unwrap(), 1);
    }

    #[test]
    fn read_from_replays_exactly() {
        let mq = mq_with_topic();
        for i in 0..10u64 {
            mq.append("ingest", 0, Tuple::bare(i, i)).unwrap();
        }
        let mut c = Consumer::new(mq.clone(), "ingest", 0, 4);
        assert_eq!(keys(&c.poll(3).unwrap()), vec![4, 5, 6]);
        assert_eq!(c.position(), 7);
        let mut at_end = Consumer::new(mq, "ingest", 0, 10);
        assert!(at_end.poll(5).unwrap().is_empty());
        assert_eq!(at_end.position(), 10);
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
        let mut c = Consumer::new(mq.clone(), "ingest", 0, 0);
        let backlog = c.backlog();
        c.poll(6).unwrap();
        // Never past the consumer's position.
        backlog.trim(8, true).unwrap();
        assert_eq!(mq.trim_point("ingest", 0).unwrap(), 6);
        assert_eq!(mq.retained("ingest").unwrap(), 4);
        assert_eq!(backlog.retained().unwrap(), 4);
        assert!(Consumer::new(mq.clone(), "ingest", 0, 3).poll(10).is_err());
        assert_eq!(keys(&c.poll(10).unwrap()), vec![6, 7, 8, 9]);
        // Offsets keep increasing after a trim.
        assert_eq!(mq.append("ingest", 0, Tuple::bare(99, 99)).unwrap(), 10);
        // Trimming an already-trimmed range is a no-op.
        backlog.trim(2, true).unwrap();
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
        // Simulate a crash that had durably flushed only offset 3: a new
        // consumer replays from there.
        let mut c = Consumer::new(mq.clone(), "ingest", 0, 3);
        assert_eq!(keys(&c.poll(100).unwrap()), vec![3, 4, 5, 6, 7]);
        assert!(c.poll(10).unwrap().is_empty());
    }

    #[test]
    fn durable_broker_recovers_records_and_dedup_state() {
        let root = fresh_root("durable");
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
            assert!(mq.wal_stats().fsyncs.load(Ordering::Relaxed) >= 3);
        }
        // A fresh broker over the same root replays everything, offsets
        // and exactly-once markers intact.
        let mq = MessageQueue::durable_with(&root, FsyncPolicy::Never, 1 << 20).unwrap();
        mq.create_topic("ingest", 2).unwrap();
        assert_eq!(mq.latest_offset("ingest", 0).unwrap(), 3);
        assert_eq!(mq.recovered_seqs("ingest", 0).unwrap(), vec![(2000, 2)]);
        assert_eq!(mq.recovered_seqs("ingest", 1).unwrap(), vec![(2001, 7)]);
        let mut c = Consumer::new(mq.clone(), "ingest", 0, 0);
        assert_eq!(keys(&c.poll(10).unwrap()), vec![1, 2, 3]);
        assert_eq!(mq.wal_stats().replayed.load(Ordering::Relaxed), 4);
    }

    /// Appends marked batches `(7, 1..=3)` to partition 0 of `mq`, one tuple
    /// each, then redelivers 2 and 3 and sends 4: the redeliveries append
    /// nothing and are counted, 4 lands.
    fn redeliveries_drop_and_the_next_seq_lands(mq: &MessageQueue, first_delivery: bool) {
        let (src, start) = (7, mq.latest_offset("ingest", 0).unwrap());
        if first_delivery {
            for seq in 1..=3u64 {
                let at = mq
                    .append_batch_from("ingest", 0, src, seq, vec![Tuple::bare(seq, seq)])
                    .unwrap();
                assert_eq!(at, Some(start + seq - 1));
            }
        }
        let (end, dropped) = (mq.latest_offset("ingest", 0).unwrap(), drops(mq));
        for seq in [2, 3] {
            let tuples = vec![Tuple::bare(seq, seq)];
            assert_eq!(
                mq.append_batch_from("ingest", 0, src, seq, tuples).unwrap(),
                None
            );
        }
        assert_eq!(drops(mq), dropped + 2);
        assert_eq!(mq.latest_offset("ingest", 0).unwrap(), end);
        // Other producers and other partitions keep their own markers.
        assert!(mq
            .append_batch_from("ingest", 1, src, 2, Vec::new())
            .unwrap()
            .is_some());
        let tuples = vec![Tuple::bare(4, 4)];
        let at = mq.append_batch_from("ingest", 0, src, 4, tuples).unwrap();
        assert_eq!(at, Some(end));
        assert_eq!(mq.recovered_seqs("ingest", 0).unwrap(), vec![(src, 4)]);
    }

    #[test]
    fn a_volatile_queue_drops_a_redelivery() {
        redeliveries_drop_and_the_next_seq_lands(&mq_with_topic(), true);
    }

    #[test]
    fn a_reopened_durable_queue_drops_redeliveries_of_its_journaled_markers() {
        let root = fresh_root("reopen-markers");
        {
            let mq = MessageQueue::durable_with(&root, FsyncPolicy::Never, 1 << 20).unwrap();
            mq.create_topic("ingest", 2).unwrap();
            for seq in 1..=3u64 {
                mq.append_batch_from("ingest", 0, 7, seq, vec![Tuple::bare(seq, seq)])
                    .unwrap();
            }
        }
        let mq = MessageQueue::durable_with(&root, FsyncPolicy::Never, 1 << 20).unwrap();
        mq.create_topic("ingest", 2).unwrap();
        assert_eq!(mq.latest_offset("ingest", 0).unwrap(), 3);
        redeliveries_drop_and_the_next_seq_lands(&mq, false);
    }

    #[test]
    fn markers_in_released_segments_still_drop_redeliveries_after_a_reopen() {
        let root = fresh_root("released-markers");
        let segments = || {
            std::fs::read_dir(&root)
                .unwrap()
                .filter(|e| {
                    let name = e.as_ref().unwrap().file_name();
                    let name = name.to_string_lossy().into_owned();
                    name.starts_with("ingest.0.") && name.ends_with(".wal")
                })
                .count()
        };
        {
            // A one-byte rotation threshold: every frame is its own segment.
            let mq = MessageQueue::durable_with(&root, FsyncPolicy::Never, 1).unwrap();
            mq.create_topic("ingest", 2).unwrap();
            for seq in 1..=3u64 {
                mq.append_batch_from("ingest", 0, 7, seq, vec![Tuple::bare(seq, seq)])
                    .unwrap();
            }
            mq.append("ingest", 0, Tuple::bare(0, 0)).unwrap();
            assert!(segments() >= 4, "{} segments", segments());
            let mut c = Consumer::new(mq.clone(), "ingest", 0, 0);
            c.poll(usize::MAX).unwrap();
            c.backlog().trim(4, true).unwrap();
            // Only the plain batch's segment is kept: the markers live on
            // in the trim sidecar alone.
            assert_eq!(segments(), 1);
        }
        let mq = MessageQueue::durable_with(&root, FsyncPolicy::Never, 1).unwrap();
        mq.create_topic("ingest", 2).unwrap();
        assert_eq!(mq.trim_point("ingest", 0).unwrap(), 4);
        assert_eq!(mq.retained("ingest").unwrap(), 0);
        redeliveries_drop_and_the_next_seq_lands(&mq, false);
    }

    #[test]
    fn a_byte_budget_ends_the_poll_at_the_record_that_reaches_it() {
        let mq = mq_with_topic();
        // 20-byte headers plus 0..10-byte payloads, across a run boundary.
        let tuples: Vec<Tuple> = (0..RUN_LEN as u64 + 1_000)
            .map(|i| Tuple::new(i, i, vec![0; (i % 11) as usize]))
            .collect();
        mq.append_batch("ingest", 0, tuples.clone()).unwrap();
        let mut c = Consumer::new(mq.clone(), "ingest", 0, RUN_LEN as u64 - 30);
        for budget in [1, 20, 21, 333, 5_000] {
            let from = c.position() as usize;
            let got = c.poll_bytes(1_000, budget).unwrap();
            let sizes: Vec<usize> = got.iter().map(Tuple::encoded_len).collect();
            let total: usize = sizes.iter().sum();
            assert!(total >= budget, "budget {budget}");
            assert!(total - sizes.last().unwrap() < budget, "budget {budget}");
            assert_eq!(got, tuples[from..from + got.len()]);
        }
        // `max` still caps the count, and a drained partition reads nothing.
        assert_eq!(c.poll_bytes(3, usize::MAX).unwrap().len(), 3);
        c.poll(usize::MAX).unwrap();
        assert!(c.poll_bytes(10, 1).unwrap().is_empty());
    }

    /// Two threads pass a token back and forth through two partitions, each
    /// parking until the other's append lands. A lost wakeup would leave a
    /// side parked until its 30 s backstop; every park must instead end
    /// because the record arrived.
    #[test]
    fn a_parked_reader_wakes_on_every_append() {
        const ROUNDS: u64 = 10_000;
        const BACKSTOP: Duration = Duration::from_secs(30);
        let mq = mq_with_topic();
        let side = |inbox: usize, outbox: usize, serve_first: bool| {
            let mq = mq.clone();
            std::thread::spawn(move || {
                let mut c = Consumer::new(mq.clone(), "ingest", inbox, 0);
                let backlog = c.backlog();
                let mut backstops = 0;
                for i in 0..ROUNDS {
                    if serve_first {
                        mq.append("ingest", outbox, Tuple::bare(i, i)).unwrap();
                    }
                    if !backlog.wait(BACKSTOP, || false).unwrap() {
                        backstops += 1;
                    }
                    assert_eq!(c.poll(10).unwrap().len(), 1);
                    if !serve_first {
                        mq.append("ingest", outbox, Tuple::bare(i, i)).unwrap();
                    }
                }
                backstops
            })
        };
        let a = side(1, 0, true);
        let b = side(0, 1, false);
        assert_eq!(a.join().unwrap(), 0, "a park outlived its wakeup");
        assert_eq!(b.join().unwrap(), 0, "a park outlived its wakeup");
        assert_eq!(mq.latest_offset("ingest", 0).unwrap(), ROUNDS);
    }

    #[test]
    fn wake_makes_a_parked_reader_recheck_its_condition() {
        let mq = mq_with_topic();
        let c = Consumer::new(mq.clone(), "ingest", 0, 0);
        let (backlog, waker) = (c.backlog(), c.backlog());
        let flag = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let parked = {
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || {
                let t0 = Instant::now();
                let woke = backlog
                    .wait(Duration::from_secs(30), || flag.load(Ordering::SeqCst))
                    .unwrap();
                (woke, t0.elapsed())
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        flag.store(true, Ordering::SeqCst);
        waker.wake().unwrap();
        let (woke, took) = parked.join().unwrap();
        assert!(woke && took < Duration::from_secs(10), "{took:?}");
        // Nothing arrived and nobody wakes it: the timeout ends the wait.
        let idle = Consumer::new(mq, "ingest", 1, 0).backlog();
        assert!(!idle.wait(Duration::from_millis(5), || false).unwrap());
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
