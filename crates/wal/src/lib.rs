//! Write-ahead/commit layer shared by the durable components (paper §V).
//!
//! Waterwheel's fault-tolerance story rests on *replayable* state: every
//! acked ingest batch sits in a durable queue partition, every meta-service
//! mutation is logged, and chunk files are sealed atomically. This crate
//! provides the two on-disk primitives those components share:
//!
//! * [`Log`] — a segmented, checksummed append log. Each segment starts
//!   with a magic/version header and holds `[len u32][crc u64][body]`
//!   frames: the segment version names the checksum kernel over the body
//!   ([`checksum`] in version 2, FNV-1a in the version-1 segments written
//!   before it; a log appends to a fresh segment at every open, so one
//!   segment never mixes the two). Replay distinguishes a **torn tail**
//!   (the physical truncation a `kill -9` or power cut leaves at the end
//!   of the *last* segment — tolerated: the torn frame is dropped and the
//!   file truncated back to its last good frame) from **corruption** (a
//!   bad checksum on a complete frame, a damaged header, or a torn frame
//!   in a non-final segment — surfaced as [`WwError::Corrupt`], never a
//!   panic, never a silently short read). A log whose head is no longer
//!   needed releases it whole segments at a time ([`Log::delete_below`])
//!   and reopens from the first segment it kept ([`Log::open_from`]).
//! * [`write_atomic`] — unique-temp-file + `rename` commit for
//!   whole-file artifacts (meta snapshots, DFS chunk files), so a crash
//!   mid-write can never leave a partially visible file.
//!
//! Both honour a [`FsyncPolicy`]: under [`FsyncPolicy::Always`] every
//! commit point is `fsync`ed (and renames are followed by a parent-
//! directory fsync) so acked data survives power loss; under
//! [`FsyncPolicy::Never`] data is flushed to the OS page cache only,
//! which still survives process death (`kill -9`) but not machine crash.
//!
//! Decoding follows the `wire.rs` no-panic discipline: all reads are
//! bounds-checked, frame lengths are validated against the bytes actually
//! present before any allocation, and unknown versions are typed errors.

use parking_lot::Mutex;
use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use waterwheel_core::codec::{checksum, fnv1a, Encoder};
use waterwheel_core::{Result, WwError};

/// Magic prefix of every log segment file (`WWWAL001`, little-endian).
pub const SEGMENT_MAGIC: u64 = u64::from_le_bytes(*b"WWWAL001");
/// On-disk format version stamped after the magic: 2, frames summed with
/// [`checksum`]. Version 1 segments (FNV-1a sums) are still replayed.
pub const SEGMENT_VERSION: u32 = 2;
/// The segment version whose frames are summed with FNV-1a.
pub const FNV_SEGMENT_VERSION: u32 = 1;
/// Segment header: magic (8) + version (4).
pub const SEGMENT_HEADER_LEN: usize = 12;
/// Frame header: body length (4) + checksum of the body (8).
pub const FRAME_HEADER_LEN: usize = 12;
/// Upper bound on a single frame body; larger lengths are rejected as
/// corrupt before any allocation is attempted.
pub const MAX_FRAME_LEN: u32 = 256 << 20;

/// When durable writes are pushed past the OS page cache to the device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` at every commit point — acked data survives power loss.
    Always,
    /// Flush to the page cache only — survives `kill -9`, not power loss.
    Never,
}

impl FsyncPolicy {
    /// Maps the `durability_fsync` config flag onto a policy.
    pub fn from_flag(fsync: bool) -> Self {
        if fsync {
            Self::Always
        } else {
            Self::Never
        }
    }

    /// Whether commits fsync.
    pub fn is_always(self) -> bool {
        matches!(self, Self::Always)
    }
}

waterwheel_core::counters! {
    /// Durability counters of one durable surface (`wal.queue.*`,
    /// `wal.chunks.*`, `wal.meta.*` in a metrics snapshot).
    pub struct WalStats {
        /// Bytes appended to logs (frame headers included).
        bytes,
        /// `fsync`/`fdatasync` calls issued (logs, atomic writes, directories).
        fsyncs,
        /// Torn tails dropped during replay plus torn/damaged whole-file
        /// artifacts detected by footer or checksum verification.
        torn,
        /// Records replayed from disk at recovery, in caller-defined units
        /// (the message queue counts tuples; the meta service counts
        /// mutation records).
        replayed,
    }
}

impl WalStats {
    /// A fresh zeroed counter set behind an `Arc`.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::default())
    }
}

/// What [`Log::open`] recovered from disk.
pub struct Replay {
    /// Frame bodies in append order, checksum-verified.
    pub records: Vec<Vec<u8>>,
    /// Every replayed segment, oldest first: its sequence number and the
    /// index in `records` of its first frame (equal to the next segment's
    /// for an empty one).
    pub segments: Vec<(u64, usize)>,
    /// Whether a torn tail was dropped (and the segment truncated back to
    /// its last complete frame).
    pub torn_tail: bool,
}

struct LogInner {
    dir: PathBuf,
    name: String,
    policy: FsyncPolicy,
    segment_bytes: usize,
    stats: Arc<WalStats>,
    writer: BufWriter<File>,
    /// Sequence number of the segment `writer` appends to.
    seq: u64,
    /// Bytes written to the current segment (header included).
    cur_bytes: usize,
    /// Appends since the last `commit` (so `commit` can skip the fsync
    /// when nothing new was written).
    dirty: bool,
}

/// A segmented, checksummed append log.
///
/// Writes are buffered; [`Log::commit`] makes everything appended so far
/// durable per the [`FsyncPolicy`]. Thread-safe behind an internal mutex —
/// an `append` + `commit` pair from one thread may interleave with other
/// appenders, so callers needing atomic multi-record commits should encode
/// them as a single frame.
pub struct Log {
    inner: Mutex<LogInner>,
}

impl Log {
    /// Opens (or creates) the log `dir/name.NNNNNNNN.wal`, replaying every
    /// existing segment in sequence order. A torn tail on the final
    /// segment is dropped and truncated away; any other damage is a typed
    /// [`WwError::Corrupt`]. Appends go to a fresh segment after the last
    /// recovered one.
    pub fn open(
        dir: impl Into<PathBuf>,
        name: &str,
        policy: FsyncPolicy,
        segment_bytes: usize,
        stats: Arc<WalStats>,
    ) -> Result<(Self, Replay)> {
        Self::open_from(dir, name, policy, segment_bytes, stats, 0)
    }

    /// [`Log::open`] for a log whose segments below `first_seq` were
    /// released ([`Log::delete_below`]): only segments from `first_seq` on
    /// are read, and strays below it — left by a crash between the release
    /// being recorded and its unlinks — are removed.
    pub fn open_from(
        dir: impl Into<PathBuf>,
        name: &str,
        policy: FsyncPolicy,
        segment_bytes: usize,
        stats: Arc<WalStats>,
        first_seq: u64,
    ) -> Result<(Self, Replay)> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut segments = list_segments(&dir, name)?;
        segments.sort_by_key(|(seq, _)| *seq);
        let kept = segments.partition_point(|(seq, _)| *seq < first_seq);
        for (_, stray) in segments.drain(..kept) {
            remove_if_present(&stray)?;
        }
        let mut records = Vec::new();
        let mut replayed = Vec::with_capacity(segments.len());
        let mut torn_tail = false;
        let last = segments.len().wrapping_sub(1);
        for (i, (seq, path)) in segments.iter().enumerate() {
            replayed.push((*seq, records.len()));
            let torn = replay_segment(path, i == last, &mut records)?;
            if torn {
                torn_tail = true;
                stats.torn.fetch_add(1, Ordering::Relaxed);
            }
        }
        let next_seq = segments.last().map_or(first_seq, |(s, _)| s + 1);
        let inner = LogInner::create_segment(
            dir,
            name.to_string(),
            policy,
            segment_bytes,
            stats,
            next_seq,
        )?;
        Ok((
            Self {
                inner: Mutex::new(inner),
            },
            Replay {
                records,
                segments: replayed,
                torn_tail,
            },
        ))
    }

    /// Appends one checksummed frame (buffered; call [`Log::commit`] to
    /// make it durable) and returns the sequence number of the segment it
    /// landed in. Rotates to a new segment when the current one has
    /// reached the configured size.
    pub fn append(&self, body: &[u8]) -> Result<u64> {
        let mut g = self.inner.lock();
        if g.cur_bytes >= g.segment_bytes {
            g.rotate()?;
        }
        let mut header = [0u8; FRAME_HEADER_LEN];
        header[..4].copy_from_slice(&(body.len() as u32).to_le_bytes());
        header[4..].copy_from_slice(&checksum(body).to_le_bytes());
        g.writer.write_all(&header)?;
        g.writer.write_all(body)?;
        let frame_len = FRAME_HEADER_LEN + body.len();
        g.cur_bytes += frame_len;
        g.dirty = true;
        g.stats.bytes.fetch_add(frame_len as u64, Ordering::Relaxed);
        Ok(g.seq)
    }

    /// Flushes buffered frames to the OS and, under
    /// [`FsyncPolicy::Always`], fsyncs the segment. No-op when nothing
    /// was appended since the last commit.
    pub fn commit(&self) -> Result<()> {
        self.inner.lock().commit()
    }

    /// Deletes every segment and starts over at sequence 0 (meta-service
    /// snapshot compaction). Segments are removed oldest-first so a crash
    /// mid-reset leaves only newer segments, whose records must therefore
    /// be idempotent to re-apply over the compacted snapshot.
    pub fn reset(&self) -> Result<()> {
        let mut g = self.inner.lock();
        g.commit()?;
        let mut segments = list_segments(&g.dir, &g.name)?;
        segments.sort_by_key(|(seq, _)| *seq);
        for (_, path) in segments {
            fs::remove_file(path)?;
        }
        let fresh = LogInner::create_segment(
            g.dir.clone(),
            g.name.clone(),
            g.policy,
            g.segment_bytes,
            Arc::clone(&g.stats),
            0,
        )?;
        *g = fresh;
        Ok(())
    }

    /// Deletes every segment wholly below sequence `seq`, oldest first. The
    /// segment appends go to is never below `seq` (that would be a caller
    /// bug, refused as [`WwError::InvalidState`]). The unlinks run outside
    /// the append lock; a segment already gone counts as deleted, so a
    /// release that overlaps an earlier one is harmless.
    pub fn delete_below(&self, seq: u64) -> Result<()> {
        let (dir, name) = {
            let g = self.inner.lock();
            if seq > g.seq {
                return Err(WwError::InvalidState(format!(
                    "cannot release {}'s segments below {seq}: {} is being written",
                    g.name, g.seq
                )));
            }
            (g.dir.clone(), g.name.clone())
        };
        let mut segments = list_segments(&dir, &name)?;
        segments.retain(|(s, _)| *s < seq);
        segments.sort_by_key(|(s, _)| *s);
        for (_, path) in &segments {
            remove_if_present(path)?;
        }
        Ok(())
    }

    /// Shared durability counters.
    pub fn stats(&self) -> Arc<WalStats> {
        Arc::clone(&self.inner.lock().stats)
    }
}

impl LogInner {
    fn create_segment(
        dir: PathBuf,
        name: String,
        policy: FsyncPolicy,
        segment_bytes: usize,
        stats: Arc<WalStats>,
        seq: u64,
    ) -> Result<Self> {
        let path = segment_path(&dir, &name, seq);
        let file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(&path)?;
        let mut header = Vec::with_capacity(SEGMENT_HEADER_LEN);
        header.put_u64(SEGMENT_MAGIC);
        header.put_u32(SEGMENT_VERSION);
        let mut writer = BufWriter::new(file);
        writer.write_all(&header)?;
        let mut inner = Self {
            dir,
            name,
            policy,
            segment_bytes,
            stats,
            writer,
            seq,
            cur_bytes: SEGMENT_HEADER_LEN,
            dirty: true,
        };
        // Make the (empty) segment header durable so a later replay never
        // mistakes a half-written header for foreign bytes.
        inner.commit()?;
        Ok(inner)
    }

    fn commit(&mut self) -> Result<()> {
        if !self.dirty {
            return Ok(());
        }
        self.writer.flush()?;
        if self.policy.is_always() {
            self.writer.get_ref().sync_data()?;
            self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        self.dirty = false;
        Ok(())
    }

    fn rotate(&mut self) -> Result<()> {
        self.commit()?;
        let next = Self::create_segment(
            self.dir.clone(),
            self.name.clone(),
            self.policy,
            self.segment_bytes,
            Arc::clone(&self.stats),
            self.seq + 1,
        )?;
        *self = next;
        Ok(())
    }
}

fn segment_path(dir: &Path, name: &str, seq: u64) -> PathBuf {
    dir.join(format!("{name}.{seq:08}.wal"))
}

/// Lists `name.NNNNNNNN.wal` segments under `dir`.
fn list_segments(dir: &Path, name: &str) -> Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    let prefix = format!("{name}.");
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let fname = entry.file_name();
        let Some(fname) = fname.to_str() else {
            continue;
        };
        let Some(mid) = fname.strip_prefix(&prefix) else {
            continue;
        };
        let Some(seq) = mid.strip_suffix(".wal") else {
            continue;
        };
        if let Ok(seq) = seq.parse::<u64>() {
            out.push((seq, entry.path()));
        }
    }
    Ok(out)
}

/// Replays one segment into `records`. Returns whether a torn tail was
/// dropped (only legal on the final segment). The file is truncated back
/// to its last complete frame so subsequent opens see a clean log.
fn replay_segment(path: &Path, is_last: bool, records: &mut Vec<Vec<u8>>) -> Result<bool> {
    let bytes = fs::read(path)?;
    if bytes.is_empty() {
        // A previous recovery truncated this segment to zero; nothing in it.
        return Ok(false);
    }
    if bytes.len() < SEGMENT_HEADER_LEN {
        // The header write itself was torn. Only believable at the end of
        // the log; anywhere else the file is damaged.
        if is_last {
            truncate_to(path, 0)?;
            return Ok(true);
        }
        return Err(WwError::corrupt(
            "wal segment",
            format!("{}: truncated header in non-final segment", path.display()),
        ));
    }
    let magic = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
    if magic != SEGMENT_MAGIC {
        return Err(WwError::corrupt(
            "wal segment",
            format!("{}: bad magic {magic:#018x}", path.display()),
        ));
    }
    let kernel = match u32::from_le_bytes(bytes[8..12].try_into().unwrap()) {
        SEGMENT_VERSION => checksum,
        FNV_SEGMENT_VERSION => fnv1a,
        version => {
            return Err(WwError::corrupt(
                "wal segment",
                format!("{}: unsupported version {version}", path.display()),
            ))
        }
    };
    let mut pos = SEGMENT_HEADER_LEN;
    loop {
        let remaining = bytes.len() - pos;
        if remaining == 0 {
            return Ok(false);
        }
        let torn_at = |what: &str| -> Result<bool> {
            if is_last {
                truncate_to(path, pos as u64)?;
                Ok(true)
            } else {
                Err(WwError::corrupt(
                    "wal segment",
                    format!(
                        "{}: {what} at offset {pos} in non-final segment",
                        path.display()
                    ),
                ))
            }
        };
        if remaining < FRAME_HEADER_LEN {
            return torn_at("torn frame header");
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        if len > MAX_FRAME_LEN {
            return Err(WwError::corrupt(
                "wal segment",
                format!(
                    "{}: implausible frame length {len} at offset {pos}",
                    path.display()
                ),
            ));
        }
        let crc = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap());
        if (len as usize) > remaining - FRAME_HEADER_LEN {
            return torn_at("torn frame body");
        }
        let body = &bytes[pos + FRAME_HEADER_LEN..pos + FRAME_HEADER_LEN + len as usize];
        if kernel(body) != crc {
            return Err(WwError::corrupt(
                "wal segment",
                format!("{}: checksum mismatch at offset {pos}", path.display()),
            ));
        }
        records.push(body.to_vec());
        pos += FRAME_HEADER_LEN + len as usize;
    }
}

/// Unlinks `path`; one already gone is not an error.
fn remove_if_present(path: &Path) -> Result<()> {
    match fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e.into()),
        _ => Ok(()),
    }
}

fn truncate_to(path: &Path, len: u64) -> Result<()> {
    let f = OpenOptions::new().write(true).open(path)?;
    f.set_len(len)?;
    f.sync_data()?;
    Ok(())
}

static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Writes the concatenation of `parts` to `path` atomically, so a body and
/// its trailer need not be copied into one buffer: a uniquely named
/// dot-prefixed `.…tmp` sibling is written (and fsynced under
/// [`FsyncPolicy::Always`]), then renamed over `path`, then the parent
/// directory is fsynced so the rename itself is durable. A crash at any
/// point leaves either the old file or the new file — never a partial
/// one. Stray temps from crashed writers are cleared by [`sweep_tmp`] or,
/// per artifact, [`sweep_tmp_of`].
pub fn write_atomic(
    path: &Path,
    parts: &[&[u8]],
    policy: FsyncPolicy,
    stats: &WalStats,
) -> Result<()> {
    let dir = path.parent().ok_or_else(|| {
        WwError::InvalidState(format!("{} has no parent directory", path.display()))
    })?;
    let base = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| WwError::InvalidState(format!("{} has no file name", path.display())))?;
    let tmp = dir.join(format!(
        ".{base}.{}.{}.tmp",
        std::process::id(),
        TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    {
        let mut f = File::create(&tmp)?;
        for part in parts {
            f.write_all(part)?;
        }
        if policy.is_always() {
            f.sync_all()?;
            stats.fsyncs.fetch_add(1, Ordering::Relaxed);
        }
    }
    if let Err(e) = fs::rename(&tmp, path) {
        let _ = fs::remove_file(&tmp);
        return Err(e.into());
    }
    if policy.is_always() {
        fsync_dir(dir)?;
        stats.fsyncs.fetch_add(1, Ordering::Relaxed);
    }
    Ok(())
}

/// Fsyncs a directory so renames/creates within it are durable.
pub fn fsync_dir(dir: &Path) -> Result<()> {
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// Removes stray `.…tmp` files left by writers that crashed between
/// temp-file creation and rename. Returns how many were removed.
pub fn sweep_tmp(dir: &Path) -> Result<u64> {
    sweep_tmp_prefixed(dir, ".")
}

/// [`sweep_tmp`] for one artifact in a directory other writers share:
/// removes only the temps [`write_atomic`] made for `path`.
pub fn sweep_tmp_of(path: &Path) -> Result<u64> {
    match (path.parent(), path.file_name().and_then(|n| n.to_str())) {
        (Some(dir), Some(base)) => sweep_tmp_prefixed(dir, &format!(".{base}.")),
        _ => Ok(0),
    }
}

fn sweep_tmp_prefixed(dir: &Path, prefix: &str) -> Result<u64> {
    let mut removed = 0;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.starts_with(prefix) && name.ends_with(".tmp") {
            fs::remove_file(entry.path())?;
            removed += 1;
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ww-wal-test-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn open(dir: &Path, seg: usize) -> (Log, Replay) {
        Log::open(dir, "log", FsyncPolicy::Never, seg, WalStats::shared()).unwrap()
    }

    #[test]
    fn roundtrip_across_reopen() {
        let dir = tmp_dir("roundtrip");
        let (log, replay) = open(&dir, 1 << 20);
        assert!(replay.records.is_empty());
        log.append(b"alpha").unwrap();
        log.append(b"beta").unwrap();
        log.commit().unwrap();
        drop(log);
        let (_, replay) = open(&dir, 1 << 20);
        assert_eq!(replay.records, vec![b"alpha".to_vec(), b"beta".to_vec()]);
        assert!(!replay.torn_tail);
    }

    #[test]
    fn segments_rotate_and_replay_in_order() {
        let dir = tmp_dir("rotate");
        let (log, _) = open(&dir, 64);
        for i in 0..50u32 {
            log.append(&i.to_le_bytes()).unwrap();
        }
        log.commit().unwrap();
        drop(log);
        assert!(list_segments(&dir, "log").unwrap().len() > 1);
        let (_, replay) = open(&dir, 64);
        let got: Vec<u32> = replay
            .records
            .iter()
            .map(|r| u32::from_le_bytes(r[..4].try_into().unwrap()))
            .collect();
        assert_eq!(got, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn torn_tail_is_dropped_and_truncated() {
        let dir = tmp_dir("torn");
        let (log, _) = open(&dir, 1 << 20);
        log.append(b"keep me").unwrap();
        log.append(b"torn away").unwrap();
        log.commit().unwrap();
        drop(log);
        // Chop bytes off the end of the (single non-empty) segment,
        // landing mid-frame — what kill -9 during a buffered write leaves.
        let (_, path) = list_segments(&dir, "log")
            .unwrap()
            .into_iter()
            .min_by_key(|(s, _)| *s)
            .unwrap();
        let len = fs::metadata(&path).unwrap().len();
        truncate_to(&path, len - 5).unwrap();
        let stats = WalStats::shared();
        let (_, replay) =
            Log::open(&dir, "log", FsyncPolicy::Never, 1 << 20, Arc::clone(&stats)).unwrap();
        assert_eq!(replay.records, vec![b"keep me".to_vec()]);
        assert!(replay.torn_tail);
        assert_eq!(stats.torn.load(Ordering::Relaxed), 1);
        // The truncation removed the torn frame: reopening again is clean.
        let (_, replay) = open(&dir, 1 << 20);
        assert_eq!(replay.records, vec![b"keep me".to_vec()]);
        assert!(!replay.torn_tail);
    }

    #[test]
    fn checksum_mismatch_is_a_typed_error() {
        let dir = tmp_dir("crc");
        let (log, _) = open(&dir, 1 << 20);
        log.append(b"payload bytes here").unwrap();
        log.commit().unwrap();
        drop(log);
        let (_, path) = list_segments(&dir, "log")
            .unwrap()
            .into_iter()
            .min_by_key(|(s, _)| *s)
            .unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = SEGMENT_HEADER_LEN + FRAME_HEADER_LEN + 4;
        bytes[mid] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        let err = Log::open(&dir, "log", FsyncPolicy::Never, 1 << 20, WalStats::shared())
            .err()
            .expect("bit flip must be detected");
        assert!(matches!(err, WwError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn bad_magic_and_version_are_typed_errors() {
        let dir = tmp_dir("magic");
        drop(open(&dir, 1 << 20));
        let path = segment_path(&dir, "log", 0);
        fs::write(&path, b"NOTAWAL!....").unwrap();
        let err = Log::open(&dir, "log", FsyncPolicy::Never, 1 << 20, WalStats::shared())
            .err()
            .unwrap();
        assert!(matches!(err, WwError::Corrupt { .. }));
        let mut hdr = Vec::new();
        hdr.put_u64(SEGMENT_MAGIC);
        hdr.put_u32(99);
        fs::write(&path, &hdr).unwrap();
        let err = Log::open(&dir, "log", FsyncPolicy::Never, 1 << 20, WalStats::shared())
            .err()
            .unwrap();
        assert!(matches!(err, WwError::Corrupt { .. }));
    }

    #[test]
    fn a_version_1_segment_replays_and_the_log_appends_after_it() {
        let dir = tmp_dir("v1");
        fs::create_dir_all(&dir).unwrap();
        // A segment written before the XXH64 kernel: version 1, FNV-1a sums.
        let segment = |version: u32, sum: fn(&[u8]) -> u64| {
            let mut seg = Vec::new();
            seg.put_u64(SEGMENT_MAGIC);
            seg.put_u32(version);
            for body in [b"old one".as_slice(), b"old two"] {
                seg.put_u32(body.len() as u32);
                seg.put_u64(sum(body));
                seg.extend_from_slice(body);
            }
            seg
        };
        let v1 = segment(FNV_SEGMENT_VERSION, fnv1a);
        fs::write(segment_path(&dir, "log", 0), &v1).unwrap();
        let (log, replay) = open(&dir, 1 << 20);
        assert_eq!(
            replay.records,
            vec![b"old one".to_vec(), b"old two".to_vec()]
        );
        assert_eq!(log.append(b"new").unwrap(), 1);
        log.commit().unwrap();
        drop(log);
        let fresh = fs::read(segment_path(&dir, "log", 1)).unwrap();
        assert_eq!(fresh[8..12], SEGMENT_VERSION.to_le_bytes());
        let (_, replay) = open(&dir, 1 << 20);
        let want: Vec<&[u8]> = vec![b"old one", b"old two", b"new"];
        assert_eq!(replay.records, want);

        // A flipped body byte in the version-1 segment is refused, and so is
        // either segment under the other version's kernel.
        let mut damaged = v1.clone();
        *damaged.last_mut().unwrap() ^= 0x01;
        let relabelled = |mut seg: Vec<u8>, version: u32| {
            seg[8..12].copy_from_slice(&version.to_le_bytes());
            seg
        };
        for bad in [
            damaged,
            relabelled(v1, SEGMENT_VERSION),
            relabelled(segment(SEGMENT_VERSION, checksum), FNV_SEGMENT_VERSION),
        ] {
            let dir = tmp_dir("v1-bad");
            fs::create_dir_all(&dir).unwrap();
            fs::write(segment_path(&dir, "log", 0), bad).unwrap();
            let err = Log::open(&dir, "log", FsyncPolicy::Never, 1 << 20, WalStats::shared())
                .err()
                .expect("refused");
            assert!(err.to_string().contains("checksum mismatch"), "{err}");
        }
    }

    #[test]
    fn torn_frame_in_non_final_segment_is_corruption() {
        let dir = tmp_dir("mid-torn");
        let (log, _) = open(&dir, 32);
        for _ in 0..8 {
            log.append(&[7u8; 24]).unwrap();
        }
        log.commit().unwrap();
        drop(log);
        let mut segs = list_segments(&dir, "log").unwrap();
        segs.sort_by_key(|(s, _)| *s);
        assert!(segs.len() >= 2);
        let (_, first) = &segs[0];
        let len = fs::metadata(first).unwrap().len();
        truncate_to(first, len - 3).unwrap();
        let err = Log::open(&dir, "log", FsyncPolicy::Never, 32, WalStats::shared())
            .err()
            .expect("mid-log truncation is not a tolerable torn tail");
        assert!(matches!(err, WwError::Corrupt { .. }));
    }

    #[test]
    fn reset_clears_history() {
        let dir = tmp_dir("reset");
        let (log, _) = open(&dir, 1 << 20);
        log.append(b"old").unwrap();
        log.commit().unwrap();
        log.reset().unwrap();
        log.append(b"new").unwrap();
        log.commit().unwrap();
        drop(log);
        let (_, replay) = open(&dir, 1 << 20);
        assert_eq!(replay.records, vec![b"new".to_vec()]);
    }

    #[test]
    fn released_segments_stay_gone_and_strays_below_the_kept_one_are_removed() {
        let dir = tmp_dir("release");
        let (log, _) = open(&dir, 32);
        for i in 0..12u32 {
            log.append(&[i as u8; 24]).unwrap();
        }
        log.commit().unwrap();
        let mut segs = list_segments(&dir, "log").unwrap();
        segs.sort_by_key(|(s, _)| *s);
        let kept = segs[segs.len() / 2].0;
        // A stray copy of a released segment, as a crash mid-release leaves.
        let stray = fs::read(&segs[0].1).unwrap();
        log.delete_below(kept).unwrap();
        log.delete_below(kept).unwrap(); // already gone: still fine
        assert!(
            log.delete_below(u64::MAX).is_err(),
            "the writer's segment stays"
        );
        drop(log);
        assert!(list_segments(&dir, "log")
            .unwrap()
            .iter()
            .all(|(s, _)| *s >= kept));
        fs::write(&segs[0].1, stray).unwrap();
        let (log, replay) = Log::open_from(
            &dir,
            "log",
            FsyncPolicy::Never,
            32,
            WalStats::shared(),
            kept,
        )
        .unwrap();
        assert!(
            !segs[0].1.exists(),
            "open removes strays below the kept segment"
        );
        assert_eq!(replay.segments[0], (kept, 0));
        let first = u8::try_from(kept).unwrap();
        assert_eq!(replay.records[0], vec![first; 24]);
        assert_eq!(replay.records.len(), 12 - first as usize);
        // Appends land after the last replayed segment.
        assert_eq!(log.append(b"next").unwrap(), segs.last().unwrap().0 + 1);
    }

    #[test]
    fn fsync_policy_counts_fsyncs() {
        let dir = tmp_dir("fsync");
        let stats = WalStats::shared();
        let (log, _) = Log::open(
            &dir,
            "log",
            FsyncPolicy::Always,
            1 << 20,
            Arc::clone(&stats),
        )
        .unwrap();
        let base = stats.fsyncs.load(Ordering::Relaxed);
        assert!(base > 0, "segment creation commits durably");
        log.append(b"x").unwrap();
        log.commit().unwrap();
        log.commit().unwrap(); // clean: no extra fsync
        assert_eq!(stats.fsyncs.load(Ordering::Relaxed), base + 1);
    }

    #[test]
    fn write_atomic_commits_whole_files_and_sweeps_strays() {
        let dir = tmp_dir("atomic");
        fs::create_dir_all(&dir).unwrap();
        let stats = WalStats::default();
        let target = dir.join("artifact.bin");
        write_atomic(&target, &[b"v1"], FsyncPolicy::Always, &stats).unwrap();
        write_atomic(&target, &[b"v", b"", b"2"], FsyncPolicy::Never, &stats).unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"v2");
        // Simulate a writer that died between temp creation and rename.
        fs::write(dir.join(".artifact.bin.999.0.tmp"), b"partial").unwrap();
        assert_eq!(sweep_tmp(&dir).unwrap(), 1);
        assert_eq!(fs::read(&target).unwrap(), b"v2");
        assert!(stats.fsyncs.load(Ordering::Relaxed) >= 2);
    }
}
