//! The write-ahead journal of the baseline stores.
//!
//! HBase journals every mutation to the HDFS WAL before acknowledging it,
//! and Druid's realtime tasks journal to local disk; that per-write
//! journalling is a real component of the ingest cost the paper measures
//! against. Waterwheel pays its own counterpart in the durable ingest queue,
//! which journals through `waterwheel_wal::Log` — so the baselines write
//! through the same log rather than a second implementation. What is theirs
//! alone stays here: a group commit every `GROUP_COMMIT` records, and the
//! modelled cost of making that commit durable *remotely*.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use waterwheel_core::codec;
use waterwheel_core::{Result, Tuple};
use waterwheel_wal::{FsyncPolicy, Log, WalStats};

/// Group-commit size: records appended between durability points.
const GROUP_COMMIT: u64 = 256;

/// Segment size of the underlying log.
const SEGMENT_BYTES: usize = 64 << 20;

/// An append-only tuple journal, never read back: the baselines model the
/// ingest cost of journalling, not recovery.
pub struct WriteAheadLog {
    log: Log,
    appended: AtomicU64,
    /// HBase's WAL hflush traverses the HDFS replica pipeline, Druid's
    /// journal + segment hand-off pay similar round trips. Charged on top
    /// of the local fdatasync. Zero by default (unit tests).
    commit_latency: Duration,
}

impl WriteAheadLog {
    /// Starts an empty journal in the directory `dir`, replacing any
    /// earlier one, whose group commits additionally pay `commit_latency`
    /// (the remote-pipeline model used by the system-comparison benches).
    pub fn with_commit_latency(dir: impl Into<PathBuf>, commit_latency: Duration) -> Result<Self> {
        let dir = dir.into();
        match std::fs::remove_dir_all(&dir) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e.into()),
            _ => {}
        }
        let (log, _) = Log::open(
            dir,
            "journal",
            FsyncPolicy::Always,
            SEGMENT_BYTES,
            WalStats::shared(),
        )?;
        Ok(Self {
            log,
            appended: AtomicU64::new(0),
            commit_latency,
        })
    }

    /// Appends one tuple; every `GROUP_COMMIT`th append is a durability
    /// point. HBase acknowledges a batch only after the WAL is hflush'd
    /// through the HDFS replica pipeline, and Druid's realtime tasks fsync
    /// their journal — a real per-batch cost the paper's Figure 15
    /// baselines pay and ours must too.
    pub fn append(&self, tuple: &Tuple) -> Result<()> {
        let mut buf = Vec::with_capacity(tuple.encoded_len());
        codec::encode_tuple(&mut buf, tuple);
        self.log.append(&buf)?;
        let appended = self.appended.fetch_add(1, Ordering::Relaxed) + 1;
        if appended.is_multiple_of(GROUP_COMMIT) {
            self.log.commit()?;
            if !self.commit_latency.is_zero() {
                std::thread::sleep(self.commit_latency);
            }
        }
        Ok(())
    }

    /// Records appended since creation.
    pub fn appended(&self) -> u64 {
        self.appended.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ww-wal-{name}-{}.log", std::process::id()))
    }

    /// Reopens the journal's directory with the log it was written through.
    fn replay(dir: &PathBuf) -> Vec<Vec<u8>> {
        let stats = WalStats::shared();
        let (_, replay) = Log::open(dir, "journal", FsyncPolicy::Never, SEGMENT_BYTES, stats)
            .expect("journal replays");
        replay.records
    }

    #[test]
    fn appends_are_counted_and_land_in_the_log() {
        let dir = tmp("count");
        let wal = WriteAheadLog::with_commit_latency(&dir, Duration::ZERO).unwrap();
        for i in 0..600u64 {
            wal.append(&Tuple::bare(i, i)).unwrap();
        }
        assert_eq!(wal.appended(), 600);
        drop(wal);
        let records = replay(&dir);
        assert_eq!(records.len(), 600);
        let mut first = Vec::new();
        codec::encode_tuple(&mut first, &Tuple::bare(0, 0));
        assert_eq!(records[0], first);
    }

    #[test]
    fn create_replaces_an_existing_journal() {
        let dir = tmp("truncate");
        let wal = WriteAheadLog::with_commit_latency(&dir, Duration::ZERO).unwrap();
        for i in 0..GROUP_COMMIT {
            wal.append(&Tuple::bare(i, i)).unwrap();
        }
        drop(wal);
        let wal = WriteAheadLog::with_commit_latency(&dir, Duration::ZERO).unwrap();
        assert_eq!(wal.appended(), 0);
        drop(wal);
        assert!(replay(&dir).is_empty());
    }
}
