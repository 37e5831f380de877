//! Disk persistence for the message queue, on the shared WAL layer.
//!
//! Kafka's durability is part of Waterwheel's §V recovery contract: tuples
//! acknowledged by the queue survive *process* restarts, not just server
//! crashes. Each partition owns a segmented [`waterwheel_wal::Log`]; every
//! appended batch becomes **one checksummed frame**, so a batch and its
//! exactly-once marker land atomically — after a `kill -9` either the
//! whole acked batch is replayed or none of it is (and an unacked torn
//! batch is safe for the dispatcher to retry).
//!
//! Frame body layout (inside the WAL frame, after its `[len][crc]`
//! header):
//!
//! ```text
//! tag 0 (plain batch):   [0u8][count u32][tuple]*count
//! tag 1 (marked batch):  [1u8][src u32][seq u64][count u32][tuple]*count
//! ```
//!
//! A marked batch records the producer (`src`, a dispatcher server id) and
//! its per-destination sequence number, so a restarted indexing server can
//! rebuild its duplicate-suppression state from the log itself.
//!
//! **Retention.** [`PartitionPersist::record_trim`] releases the journal
//! below a trim offset `T` in two steps. First an atomic sidecar
//! (`topic.partition.trim`, written by [`write_atomic`]) records `T`, the
//! *kept segment* (the newest one whose first record is at or below `T`)
//! with the offset of that first record, and every producer's last batch
//! sequence number — so the exactly-once markers outlive the segments that
//! held them. Then every segment below the kept one is unlinked. `open`
//! reads the sidecar first and replays only from the kept segment on, so a
//! restart decodes the unflushed tail plus at most one segment, not the
//! partition's history. A crash before the sidecar's rename leaves the old
//! sidecar, and more is replayed; a crash after it leaves stray segments
//! below the kept one, which `open` removes.
//!
//! Sidecar layout (little-endian):
//!
//! ```text
//! [trim u64][kept segment u64][kept first offset u64][n u32]
//! [src u32][seq u64]*n  [codec::checksum u64 of everything before it]
//! ```

use std::collections::{HashMap, VecDeque};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use waterwheel_core::codec::{self, checksum, Decoder, Encoder};
use waterwheel_core::{Result, Tuple, WwError};
use waterwheel_wal::{sweep_tmp_of, write_atomic, FsyncPolicy, Log, WalStats};

/// Plain batches buffered between group commits (only meaningful under
/// [`FsyncPolicy::Never`]; `Always` commits every append).
const FLUSH_EVERY: usize = 128;

const TAG_BATCH: u8 = 0;
const TAG_MARKED_BATCH: u8 = 1;

/// What [`PartitionPersist::open`] recovered for one partition.
#[derive(Debug, Default)]
pub struct LoadedPartition {
    /// Offset of the first retained tuple (the persisted trim point).
    pub base_offset: u64,
    /// Retained tuples; `tuples[0]` has offset `base_offset`.
    pub tuples: Vec<Tuple>,
    /// Highest batch sequence number seen per producer (`src` server id) —
    /// seeds exactly-once duplicate suppression after a restart.
    pub last_seqs: HashMap<u32, u64>,
    /// Whether a torn tail frame was dropped during replay.
    pub torn_tail: bool,
}

/// Append-side persistence state for one partition.
pub struct PartitionPersist {
    log: Log,
    policy: FsyncPolicy,
    pending: usize,
    trim_path: PathBuf,
    stats: Arc<WalStats>,
    /// `(segment, offset of its first record)` of every live segment that
    /// holds a frame, oldest first.
    segments: VecDeque<(u64, u64)>,
    /// Offset of the next appended tuple.
    next_offset: u64,
}

impl PartitionPersist {
    fn wal_name(topic: &str, partition: usize) -> String {
        format!("{topic}.{partition}")
    }

    fn trim_path(dir: &Path, topic: &str, partition: usize) -> PathBuf {
        dir.join(format!("{topic}.{partition}.trim"))
    }

    /// Opens a partition's log, replaying what survives on disk from the
    /// kept segment its trim sidecar names. A torn tail frame (crash
    /// mid-append) is dropped — it was never acked — while checksum
    /// mismatches, damaged headers and a sidecar the log contradicts are
    /// typed [`WwError::Corrupt`] errors. `stats.replayed` counts the tuples
    /// handed back, not the ones decoded on the way to the trim point.
    pub fn open(
        dir: &Path,
        topic: &str,
        partition: usize,
        policy: FsyncPolicy,
        segment_bytes: usize,
        stats: Arc<WalStats>,
    ) -> Result<(Self, LoadedPartition)> {
        fs::create_dir_all(dir)?;
        let trim_path = Self::trim_path(dir, topic, partition);
        // A temp left by a crash mid-`write_atomic` never became the sidecar.
        sweep_tmp_of(&trim_path)?;
        let sidecar = match fs::read(&trim_path) {
            Ok(bytes) => Some(TrimSidecar::decode(&bytes)?),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(e.into()),
        };
        let kept_seq = sidecar.as_ref().map_or(0, |s| s.kept_seq);
        let (log, replay) = Log::open_from(
            dir,
            &Self::wal_name(topic, partition),
            policy,
            segment_bytes,
            Arc::clone(&stats),
            kept_seq,
        )?;
        if sidecar.is_some() && replay.segments.first().map(|s| s.0) != Some(kept_seq) {
            return Err(WwError::corrupt(
                "mq log",
                format!("kept segment {kept_seq} of {topic}.{partition} is missing"),
            ));
        }
        let sidecar = sidecar.unwrap_or_default();
        let mut loaded = LoadedPartition {
            base_offset: sidecar.trim,
            last_seqs: sidecar.last_seqs,
            torn_tail: replay.torn_tail,
            ..Default::default()
        };
        let mut segments = VecDeque::with_capacity(replay.segments.len());
        let mut next = sidecar.kept_first;
        for (i, &(seq, start)) in replay.segments.iter().enumerate() {
            let end = replay
                .segments
                .get(i + 1)
                .map_or(replay.records.len(), |s| s.1);
            if start < end {
                segments.push_back((seq, next));
            }
            for frame in &replay.records[start..end] {
                next = decode_frame(frame, next, &mut loaded)?;
            }
        }
        if sidecar.trim > next {
            return Err(WwError::corrupt(
                "mq log",
                format!("trim {} beyond {next} records", sidecar.trim),
            ));
        }
        stats.replayed.fetch_add(
            loaded.tuples.len() as u64,
            std::sync::atomic::Ordering::Relaxed,
        );
        Ok((
            Self {
                log,
                policy,
                pending: 0,
                trim_path,
                stats,
                segments,
                next_offset: next,
            },
            loaded,
        ))
    }

    /// Appends one batch as a single atomic frame. A marked batch
    /// (`marker = Some((src, seq))`) carries its exactly-once identity and
    /// is committed immediately — it is the ack durability point. Plain
    /// appends group-commit under [`FsyncPolicy::Never`].
    pub fn append_batch(&mut self, marker: Option<(u32, u64)>, tuples: &[Tuple]) -> Result<()> {
        let mut body =
            Vec::with_capacity(16 + tuples.iter().map(Tuple::encoded_len).sum::<usize>());
        match marker {
            Some((src, seq)) => {
                body.put_u8(TAG_MARKED_BATCH);
                body.put_u32(src);
                body.put_u64(seq);
            }
            None => body.put_u8(TAG_BATCH),
        }
        body.put_u32(tuples.len() as u32);
        for t in tuples {
            codec::encode_tuple(&mut body, t);
        }
        let segment = self.log.append(&body)?;
        if self.segments.back().is_none_or(|&(s, _)| s != segment) {
            self.segments.push_back((segment, self.next_offset));
        }
        self.next_offset += tuples.len() as u64;
        self.pending += 1;
        if marker.is_some() || self.policy.is_always() || self.pending >= FLUSH_EVERY {
            self.flush()?;
        }
        Ok(())
    }

    /// Commits buffered frames (to the OS, plus an fsync under
    /// [`FsyncPolicy::Always`]).
    pub fn flush(&mut self) -> Result<()> {
        self.log.commit()?;
        self.pending = 0;
        Ok(())
    }

    /// Releases the journal below `trim`: commits what is buffered, writes
    /// the trim sidecar (with `last_seqs`, the partition's exactly-once
    /// markers), then unlinks every segment wholly below the one holding
    /// `trim`. The caller vouches that records below `trim` are durable
    /// elsewhere.
    pub fn record_trim(&mut self, trim: u64, last_seqs: &HashMap<u32, u64>) -> Result<()> {
        // The sidecar must never name records that are not on disk yet.
        self.flush()?;
        let Some(&(kept_seq, kept_first)) = self.segments.iter().rev().find(|s| s.1 <= trim) else {
            // Nothing journalled at or below `trim` since the last release.
            return Ok(());
        };
        let sidecar = TrimSidecar {
            trim,
            kept_seq,
            kept_first,
            last_seqs: last_seqs.clone(),
        };
        write_atomic(
            &self.trim_path,
            &[&sidecar.encode()],
            self.policy,
            &self.stats,
        )?;
        while self.segments.front().is_some_and(|s| s.0 < kept_seq) {
            self.segments.pop_front();
        }
        self.log.delete_below(kept_seq)?;
        Ok(())
    }
}

/// The trim sidecar: where replay starts and what it cannot re-derive.
#[derive(Debug, Default)]
struct TrimSidecar {
    /// Offset of the first record a restart hands back.
    trim: u64,
    /// The oldest segment kept: the newest one starting at or below `trim`.
    kept_seq: u64,
    /// Offset of the first record in `kept_seq`.
    kept_first: u64,
    /// Every producer's last batch sequence number at the trim.
    last_seqs: HashMap<u32, u64>,
}

impl TrimSidecar {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(36 + 12 * self.last_seqs.len());
        out.put_u64(self.trim);
        out.put_u64(self.kept_seq);
        out.put_u64(self.kept_first);
        let mut seqs: Vec<_> = self.last_seqs.iter().collect();
        seqs.sort_unstable();
        out.put_u32(seqs.len() as u32);
        for (&src, &seq) in seqs {
            out.put_u32(src);
            out.put_u64(seq);
        }
        out.put_u64(checksum(&out));
        out
    }

    fn decode(bytes: &[u8]) -> Result<Self> {
        let what = "mq trim sidecar";
        let Some(body_len) = bytes.len().checked_sub(8) else {
            return Err(WwError::corrupt(what, "shorter than its checksum"));
        };
        let (body, sum) = bytes.split_at(body_len);
        if checksum(body) != u64::from_le_bytes(sum.try_into().expect("8 bytes")) {
            return Err(WwError::corrupt(what, "checksum mismatch"));
        }
        let mut dec = Decoder::new(body, what);
        let (trim, kept_seq, kept_first) = (dec.get_u64()?, dec.get_u64()?, dec.get_u64()?);
        let n = dec.get_u32()? as usize;
        let mut last_seqs = HashMap::with_capacity(n.min(dec.remaining() / 12));
        for _ in 0..n {
            last_seqs.insert(dec.get_u32()?, dec.get_u64()?);
        }
        if dec.remaining() != 0 || kept_first > trim {
            return Err(WwError::corrupt(what, "inconsistent fields"));
        }
        Ok(Self {
            trim,
            kept_seq,
            kept_first,
            last_seqs,
        })
    }
}

/// Decodes one replayed frame whose first tuple has offset `offset` into
/// `loaded`, keeping the tuples at or above `loaded.base_offset`, and
/// returns the offset after it. A frame wholly below that point has only
/// its header read. The frame already passed its WAL checksum, so internal
/// inconsistencies are corruption, not torn writes.
fn decode_frame(frame: &[u8], offset: u64, loaded: &mut LoadedPartition) -> Result<u64> {
    let mut dec = Decoder::new(frame, "mq batch frame");
    let tag = dec.get_u8()?;
    let marker = match tag {
        TAG_BATCH => None,
        TAG_MARKED_BATCH => {
            let src = dec.get_u32()?;
            let seq = dec.get_u64()?;
            Some((src, seq))
        }
        other => {
            return Err(WwError::corrupt(
                "mq batch frame",
                format!("unknown batch tag {other}"),
            ))
        }
    };
    let count = dec.get_u32()? as u64;
    if let Some((src, seq)) = marker {
        let e = loaded.last_seqs.entry(src).or_insert(seq);
        *e = (*e).max(seq);
    }
    let end = offset + count;
    if end <= loaded.base_offset {
        return Ok(end);
    }
    // The count is bounded by the checksummed frame itself; decode_tuple
    // bounds-checks every field, so a lying count is a typed error.
    for at in offset..end {
        let tuple = codec::decode_tuple(&mut dec)?;
        if at >= loaded.base_offset {
            loaded.tuples.push(tuple);
        }
    }
    if dec.remaining() != 0 {
        return Err(WwError::corrupt(
            "mq batch frame",
            format!("{} trailing bytes after batch", dec.remaining()),
        ));
    }
    Ok(end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ww-mq-persist-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn open(dir: &Path, topic: &str, partition: usize) -> (PartitionPersist, LoadedPartition) {
        PartitionPersist::open(
            dir,
            topic,
            partition,
            FsyncPolicy::Never,
            1 << 20,
            WalStats::shared(),
        )
        .unwrap()
    }

    #[test]
    fn append_flush_load_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let (mut p, _) = open(&dir, "ingest", 0);
        for i in 0..300u64 {
            p.append_batch(None, &[Tuple::new(i, i * 2, vec![i as u8])])
                .unwrap();
        }
        p.flush().unwrap();
        drop(p);
        let (_, loaded) = open(&dir, "ingest", 0);
        assert_eq!(loaded.base_offset, 0);
        assert_eq!(loaded.tuples.len(), 300);
        assert_eq!(loaded.tuples[299], Tuple::new(299, 598, vec![299u64 as u8]));
        assert!(!loaded.torn_tail);
    }

    #[test]
    fn markers_rebuild_dedup_state() {
        let dir = tmp_dir("markers");
        let (mut p, _) = open(&dir, "t", 0);
        p.append_batch(Some((2000, 1)), &[Tuple::bare(1, 1), Tuple::bare(2, 2)])
            .unwrap();
        p.append_batch(Some((2001, 5)), &[Tuple::bare(3, 3)])
            .unwrap();
        p.append_batch(Some((2000, 2)), &[Tuple::bare(4, 4)])
            .unwrap();
        drop(p);
        let (_, loaded) = open(&dir, "t", 0);
        assert_eq!(loaded.tuples.len(), 4);
        assert_eq!(loaded.last_seqs.get(&2000), Some(&2));
        assert_eq!(loaded.last_seqs.get(&2001), Some(&5));
    }

    #[test]
    fn trim_point_survives_reload() {
        let dir = tmp_dir("trim");
        let (mut p, _) = open(&dir, "t", 1);
        for i in 0..50u64 {
            p.append_batch(None, &[Tuple::bare(i, i)]).unwrap();
        }
        p.flush().unwrap();
        p.record_trim(20, &HashMap::new()).unwrap();
        drop(p);
        let (_, loaded) = open(&dir, "t", 1);
        assert_eq!(loaded.base_offset, 20);
        assert_eq!(loaded.tuples.len(), 30);
        assert_eq!(loaded.tuples[0].key, 20);
    }

    /// `replayed` counts what a restart hands back, not what it decoded
    /// on the way to the trim point (which still sits in the kept segment).
    #[test]
    fn replayed_counts_only_tuples_at_or_above_the_trim_point() {
        let dir = tmp_dir("replayed");
        let (mut p, _) = open(&dir, "t", 0);
        for i in 0..50u64 {
            p.append_batch(None, &[Tuple::bare(i, i)]).unwrap();
        }
        p.record_trim(37, &HashMap::new()).unwrap();
        drop(p);
        let stats = WalStats::shared();
        let (_, loaded) = PartitionPersist::open(
            &dir,
            "t",
            0,
            FsyncPolicy::Never,
            1 << 20,
            Arc::clone(&stats),
        )
        .unwrap();
        assert_eq!(loaded.tuples.len(), 13);
        assert_eq!(loaded.tuples[0].key, 37);
        assert_eq!(stats.replayed.load(Ordering::Relaxed), 13);
    }

    /// A trim unlinks every segment wholly below the one holding the trim
    /// point; the exactly-once markers those segments held survive in the
    /// sidecar, and a reopen reads from the kept segment on.
    #[test]
    fn a_trim_releases_whole_segments_and_keeps_their_markers() {
        let dir = tmp_dir("release");
        // Tiny segments: every few batches rotate.
        let open_small = |dir: &Path| {
            PartitionPersist::open(dir, "t", 0, FsyncPolicy::Never, 256, WalStats::shared())
                .unwrap()
        };
        let (mut p, _) = open_small(&dir);
        for seq in 1..=60u64 {
            let src = 2_000 + (seq % 3) as u32;
            p.append_batch(
                Some((src, seq)),
                &[Tuple::new(seq, seq, vec![seq as u8; 8])],
            )
            .unwrap();
        }
        let segments = |dir: &Path| {
            fs::read_dir(dir)
                .unwrap()
                .filter(|e| e.as_ref().unwrap().path().extension() == Some("wal".as_ref()))
                .count()
        };
        let before = segments(&dir);
        assert!(before > 10, "{before} segments");
        let last_seqs: HashMap<u32, u64> = [(2_000, 60), (2_001, 58), (2_002, 59)].into();
        p.record_trim(55, &last_seqs).unwrap();
        let after = segments(&dir);
        assert!(after <= 3, "{before} -> {after} segments");
        // Later appends still land and number on.
        p.append_batch(Some((2_000, 61)), &[Tuple::bare(61, 61)])
            .unwrap();
        drop(p);
        let (_, loaded) = open_small(&dir);
        assert_eq!(loaded.base_offset, 55);
        let keys: Vec<u64> = loaded.tuples.iter().map(|t| t.key).collect();
        assert_eq!(keys, vec![56, 57, 58, 59, 60, 61]);
        assert_eq!(
            loaded.last_seqs,
            [(2_000, 61), (2_001, 58), (2_002, 59)].into()
        );
    }

    #[test]
    fn missing_files_mean_empty() {
        let dir = tmp_dir("missing");
        let (_, loaded) = open(&dir, "none", 0);
        assert_eq!(loaded.base_offset, 0);
        assert!(loaded.tuples.is_empty());
    }

    #[test]
    fn torn_tail_batch_is_dropped_whole() {
        let dir = tmp_dir("torn");
        let (mut p, _) = open(&dir, "t", 0);
        p.append_batch(Some((7, 1)), &[Tuple::bare(1, 1), Tuple::bare(2, 2)])
            .unwrap();
        p.append_batch(Some((7, 2)), &[Tuple::bare(3, 3), Tuple::bare(4, 4)])
            .unwrap();
        drop(p);
        // Chop into the second batch's frame: the whole batch (and its
        // marker) must vanish together — it was never acked.
        let log = segment_file(&dir);
        let bytes = fs::read(&log).unwrap();
        fs::write(&log, &bytes[..bytes.len() - 5]).unwrap();
        let stats = WalStats::shared();
        let (_, loaded) = PartitionPersist::open(
            &dir,
            "t",
            0,
            FsyncPolicy::Never,
            1 << 20,
            Arc::clone(&stats),
        )
        .unwrap();
        assert!(loaded.torn_tail);
        assert_eq!(loaded.tuples.len(), 2);
        assert_eq!(loaded.last_seqs.get(&7), Some(&1));
        assert_eq!(stats.replayed.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn corrupt_trim_is_detected() {
        let dir = tmp_dir("badtrim");
        let (mut p, _) = open(&dir, "t", 0);
        p.append_batch(None, &[Tuple::bare(1, 1)]).unwrap();
        p.flush().unwrap();
        drop(p);
        fs::write(dir.join("t.0.trim"), [1, 2, 3]).unwrap();
        assert!(PartitionPersist::open(
            &dir,
            "t",
            0,
            FsyncPolicy::Never,
            1 << 20,
            WalStats::shared()
        )
        .is_err());
        // Trim beyond record count is also rejected.
        fs::write(dir.join("t.0.trim"), 99u64.to_le_bytes()).unwrap();
        assert!(PartitionPersist::open(
            &dir,
            "t",
            0,
            FsyncPolicy::Never,
            1 << 20,
            WalStats::shared()
        )
        .is_err());
    }

    /// The sidecar has no marker: one summed with FNV-1a, the kernel it
    /// used to carry, fails its checksum, and the same body summed with
    /// `codec::checksum` opens.
    #[test]
    fn an_fnv_summed_sidecar_fails_its_checksum() {
        let dir = tmp_dir("fnv-trim");
        let (mut p, _) = open(&dir, "t", 0);
        p.append_batch(Some((7, 3)), &[Tuple::bare(1, 1), Tuple::bare(2, 2)])
            .unwrap();
        p.flush().unwrap();
        drop(p);
        // trim 1, kept segment 0 from offset 0, one marker (src 7, seq 3).
        let mut body = Vec::new();
        for field in [1u64, 0, 0] {
            body.put_u64(field);
        }
        body.put_u32(1);
        body.put_u32(7);
        body.put_u64(3);
        let reopen = |sum: u64| {
            let mut sidecar = body.clone();
            sidecar.put_u64(sum);
            fs::write(dir.join("t.0.trim"), sidecar).unwrap();
            PartitionPersist::open(
                &dir,
                "t",
                0,
                FsyncPolicy::Never,
                1 << 20,
                WalStats::shared(),
            )
        };
        // FNV-1a of `body`, as the build before the one kernel summed it.
        let err = reopen(0xf273_5920_75de_e5b1).err().expect("refused");
        assert!(matches!(err, WwError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        let (_, loaded) = reopen(checksum(&body)).unwrap();
        assert_eq!((loaded.base_offset, loaded.tuples.len()), (1, 1));
        assert_eq!(loaded.last_seqs.get(&7), Some(&3));
    }

    #[test]
    fn corrupt_frame_interior_is_a_typed_error() {
        let dir = tmp_dir("badframe");
        let (mut p, _) = open(&dir, "t", 0);
        p.append_batch(None, &[Tuple::new(1, 1, vec![9u8; 32])])
            .unwrap();
        p.flush().unwrap();
        drop(p);
        let log = segment_file(&dir);
        let mut bytes = fs::read(&log).unwrap();
        let mid = bytes.len() - 10;
        bytes[mid] ^= 0x55;
        fs::write(&log, &bytes).unwrap();
        let err = PartitionPersist::open(
            &dir,
            "t",
            0,
            FsyncPolicy::Never,
            1 << 20,
            WalStats::shared(),
        )
        .err()
        .expect("flipped bit must fail the WAL checksum");
        assert!(matches!(err, WwError::Corrupt { .. }), "{err}");
    }

    /// The first (lowest-sequence) WAL segment of partition `t.0`.
    fn segment_file(dir: &Path) -> PathBuf {
        let mut segs: Vec<_> = fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| {
                let p = e.unwrap().path();
                let name = p.file_name()?.to_str()?.to_string();
                (name.starts_with("t.0.") && name.ends_with(".wal")).then_some(p)
            })
            .collect();
        segs.sort();
        segs.into_iter().next().unwrap()
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Satellite property (ISSUE 6): truncating the partition log
            /// at ANY byte boundary — not just mid-final-record — drops
            /// exactly the batches that were not fully on disk, and every
            /// earlier batch survives with identical offsets. This is the
            /// kill-9 contract: the torn suffix was never acked, so losing
            /// it is safe; losing or reordering anything before it is not.
            #[test]
            fn truncated_tail_drops_only_torn_batches(
                sizes in prop::collection::vec(1usize..6, 1..8),
                cut_frac in 0u64..1001,
            ) {
                let dir = std::env::temp_dir().join(format!(
                    "ww-mq-prop-{}-{}",
                    std::process::id(),
                    scratch_tag(&sizes, cut_frac),
                ));
                let _ = fs::remove_dir_all(&dir);
                let (mut p, _) = PartitionPersist::open(
                    &dir, "t", 0, FsyncPolicy::Never, 1 << 20, WalStats::shared(),
                ).unwrap();
                // Append batch k with `sizes[k]` tuples, flushing each so
                // the file length after every batch is a real commit
                // boundary we can record.
                let mut boundaries = Vec::new();
                let mut all = Vec::new();
                let mut next_key = 0u64;
                for (k, &n) in sizes.iter().enumerate() {
                    let batch: Vec<Tuple> = (0..n)
                        .map(|_| {
                            let t = Tuple::new(next_key, 10 + next_key, vec![next_key as u8; 4]);
                            next_key += 1;
                            t
                        })
                        .collect();
                    p.append_batch(Some((42, k as u64 + 1)), &batch).unwrap();
                    all.extend(batch);
                    boundaries.push(fs::metadata(segment_file(&dir)).unwrap().len());
                }
                drop(p);
                let log = segment_file(&dir);
                let full = fs::metadata(&log).unwrap().len();
                // Cut anywhere in the file, scaled into [0, full].
                let cut = cut_frac * full / 1000;
                let bytes = fs::read(&log).unwrap();
                fs::write(&log, &bytes[..cut as usize]).unwrap();
                let (_, loaded) = PartitionPersist::open(
                    &dir, "t", 0, FsyncPolicy::Never, 1 << 20, WalStats::shared(),
                ).unwrap();
                // Batches wholly within the cut survive byte-exactly.
                let survivors = boundaries.iter().filter(|&&b| b <= cut).count();
                let expect_tuples: usize = sizes[..survivors].iter().sum();
                prop_assert_eq!(loaded.base_offset, 0);
                prop_assert_eq!(&loaded.tuples[..], &all[..expect_tuples]);
                let expect_seq = (survivors > 0).then_some(survivors as u64);
                prop_assert_eq!(loaded.last_seqs.get(&42).copied(), expect_seq);
                let _ = fs::remove_dir_all(&dir);
            }
        }

        /// Unique-ish scratch-dir discriminator (Date/Math free).
        fn scratch_tag(sizes: &[usize], cut: u64) -> u64 {
            sizes.iter().fold(waterwheel_core::mix64(cut), |h, &s| {
                waterwheel_core::mix64(h ^ s as u64)
            })
        }
    }
}
