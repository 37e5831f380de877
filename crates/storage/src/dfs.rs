//! The simulated distributed file system (HDFS substitute).
//!
//! Chunks are stored as immutable files under a local root directory, but
//! the *distributed* aspects that Waterwheel's algorithms depend on are
//! modelled faithfully:
//!
//! * every chunk has `replication` replica nodes chosen by the shared
//!   [`Cluster`] (rendezvous hashing stands in for the HDFS block placer's
//!   "three random nodes", §IV-C);
//! * every file access pays the [`LatencyModel`] open cost — the 2–50 ms
//!   per-access delay the paper measures on HDFS (§VI-B) — with a discount
//!   for co-located (short-circuit) reads;
//! * reads are ranged, so a query server fetches the index block and only
//!   the needed leaf pages, exactly like positioned HDFS reads.
//!
//! Durability (paper §V): chunk files are sealed through the shared WAL
//! layer's atomic-write path (unique temp file + rename + optional fsync),
//! and every file carries a 24-byte torn-write-detecting footer:
//!
//! ```text
//! [body_len u64][checksum(body) u64][footer magic u64]
//! ```
//!
//! The body is summed with [`checksum`]. A seal with another magic — the
//! retired `WWCHKFT1`, an FNV-1a sum, included — is refused by that name.
//!
//! A file without a valid footer — truncated, half-written by a crashed
//! sealer, or bit-rotted — is reported as a typed
//! [`WwError::Corrupt`] error, never a panic and never a silently short
//! read. The first open of each chunk verifies the whole-body checksum;
//! subsequent opens trust the cached verdict (files are immutable).
//! All length accounting ([`SimDfs::chunk_len`], [`DfsFile::len`]) refers
//! to the *body*, so the chunk format's own end-of-file trailers keep
//! working unchanged.

use crate::chunk::RangedRead;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::fs;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use waterwheel_cluster::{Cluster, LatencyModel};
use waterwheel_core::codec::checksum;
use waterwheel_core::{ChunkId, NodeId, Result, WwError};
use waterwheel_wal::{sweep_tmp, write_atomic, FsyncPolicy, WalStats};

/// Chunk-file footer magic (`WWCHKXX1`, little-endian): the body is summed
/// with [`checksum`].
pub const FOOTER_MAGIC: u64 = u64::from_le_bytes(*b"WWCHKXX1");
/// Footer length: body length (8) + body checksum (8) + magic (8).
pub const FOOTER_LEN: u64 = 24;

waterwheel_core::counters! {
    /// Access counters, exposed for tests and the chunk-size experiments.
    pub struct DfsStats {
        /// Number of file accesses (each charged one open latency).
        opens,
        /// Total bytes read.
        bytes_read,
        /// Accesses that hit the co-located fast path.
        local_opens,
        /// Whole-body checksum verifications performed (first open per chunk).
        integrity_verifies,
        /// Chunks whose replica set was repaired after a node loss
        /// ([`SimDfs::re_replicate`]).
        re_replications,
    }
}

struct DfsInner {
    root: PathBuf,
    cluster: Cluster,
    replication: usize,
    latency: LatencyModel,
    policy: FsyncPolicy,
    /// Replica sets pinned at write time. HDFS semantics: placement is
    /// decided when the block is written and only changes when the
    /// namenode re-replicates after a datanode loss — not implicitly
    /// whenever cluster membership moves.
    pinned: Mutex<HashMap<ChunkId, Vec<NodeId>>>,
    /// Cached *body* lengths — immutable files, so lengths never change.
    lengths: Mutex<HashMap<ChunkId, u64>>,
    /// Chunks whose whole-body checksum has been verified this process.
    verified: Mutex<HashSet<ChunkId>>,
    stats: Arc<DfsStats>,
    /// Durability counters (fsyncs issued, torn/corrupt files detected).
    wal: Arc<WalStats>,
}

/// Handle to the simulated DFS; clones share state.
#[derive(Clone)]
pub struct SimDfs {
    inner: Arc<DfsInner>,
}

impl SimDfs {
    /// Creates (or reopens) a DFS rooted at `root`. Stray temp files left
    /// by sealers that crashed before their atomic rename are swept away.
    pub fn new(
        root: impl Into<PathBuf>,
        cluster: Cluster,
        replication: usize,
        latency: LatencyModel,
    ) -> Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        sweep_tmp(&root)?;
        Ok(Self {
            inner: Arc::new(DfsInner {
                root,
                cluster,
                replication,
                latency,
                policy: FsyncPolicy::Never,
                pinned: Mutex::new(HashMap::new()),
                lengths: Mutex::new(HashMap::new()),
                verified: Mutex::new(HashSet::new()),
                stats: Arc::default(),
                wal: WalStats::shared(),
            }),
        })
    }

    /// Sets the fsync policy for chunk sealing (builder style; call before
    /// the handle is cloned/shared).
    pub fn with_fsync(mut self, policy: FsyncPolicy) -> Self {
        Arc::get_mut(&mut self.inner)
            .expect("with_fsync must be called before the DFS handle is shared")
            .policy = policy;
        self
    }

    /// A DFS with no latency model over a fresh temp-style directory —
    /// convenience for tests.
    pub fn ephemeral(root: impl Into<PathBuf>) -> Result<Self> {
        Self::new(root, Cluster::new(3), 3, LatencyModel::default())
    }

    fn path(&self, id: ChunkId) -> PathBuf {
        self.inner.root.join(format!("chunk-{}.ww", id.raw()))
    }

    /// The filesystem root (diagnostics).
    pub fn root(&self) -> &Path {
        &self.inner.root
    }

    /// Access statistics.
    pub fn stats(&self) -> &Arc<DfsStats> {
        &self.inner.stats
    }

    /// Durability counters (fsyncs, torn/corrupt chunk files detected).
    pub fn wal_stats(&self) -> Arc<WalStats> {
        Arc::clone(&self.inner.wal)
    }

    /// The replica nodes of a chunk: the set pinned when the chunk was
    /// written (and later repaired by [`SimDfs::re_replicate`]), or — for
    /// chunks sealed by an earlier process, whose pins did not survive
    /// reopen — the deterministic rendezvous placement under the current
    /// membership, which reproduces the original write-time choice.
    pub fn replicas(&self, id: ChunkId) -> Vec<NodeId> {
        if let Some(pinned) = self.inner.pinned.lock().get(&id) {
            return pinned.clone();
        }
        self.inner.cluster.replicas(id, self.inner.replication)
    }

    /// Repairs the replica sets of every pinned chunk that lived on
    /// `dead`, replacing it with the best surviving node by rendezvous
    /// rank (call after `Cluster::fail_node(dead)`, so the placement no
    /// longer offers the lost node). Returns the number of chunks
    /// repaired — the work a namenode schedules when a datanode's
    /// heartbeat lease lapses.
    pub fn re_replicate(&self, dead: NodeId) -> usize {
        let mut pinned = self.inner.pinned.lock();
        let mut repaired = 0usize;
        for (id, set) in pinned.iter_mut() {
            if !set.contains(&dead) {
                continue;
            }
            set.retain(|n| *n != dead);
            // Rendezvous stability keeps the survivors in the fresh
            // placement; whatever it adds is the HRW-best replacement.
            for candidate in self.inner.cluster.replicas(*id, self.inner.replication) {
                if set.len() >= self.inner.replication {
                    break;
                }
                if !set.contains(&candidate) {
                    set.push(candidate);
                }
            }
            repaired += 1;
        }
        self.inner
            .stats
            .re_replications
            .fetch_add(repaired as u64, Ordering::Relaxed);
        repaired
    }

    /// The configured replication factor.
    pub fn replication(&self) -> usize {
        self.inner.replication
    }

    /// Writes an immutable chunk: body + torn-write footer are committed
    /// via unique temp file + atomic rename (fsynced per policy), so a
    /// crash mid-write can never leave a partially visible chunk.
    /// Overwriting an existing chunk id is an error — chunks are
    /// write-once by design.
    pub fn write_chunk(&self, id: ChunkId, bytes: &[u8]) -> Result<()> {
        let path = self.path(id);
        if path.exists() {
            return Err(WwError::InvalidState(format!(
                "chunk {id} already exists — chunks are immutable"
            )));
        }
        let mut footer = [0u8; FOOTER_LEN as usize];
        footer[0..8].copy_from_slice(&(bytes.len() as u64).to_le_bytes());
        footer[8..16].copy_from_slice(&checksum(bytes).to_le_bytes());
        footer[16..24].copy_from_slice(&FOOTER_MAGIC.to_le_bytes());
        write_atomic(&path, &[bytes, &footer], self.inner.policy, &self.inner.wal)?;
        // Pin the replica placement chosen at write time (HDFS block
        // report semantics): later membership changes do not silently
        // move the chunk — only `re_replicate` does.
        let placed = self.inner.cluster.replicas(id, self.inner.replication);
        self.inner.pinned.lock().insert(id, placed);
        self.inner.lengths.lock().insert(id, bytes.len() as u64);
        self.inner.verified.lock().insert(id);
        Ok(())
    }

    /// Whether a chunk exists.
    pub fn exists(&self, id: ChunkId) -> bool {
        if self.inner.lengths.lock().contains_key(&id) {
            return true;
        }
        self.path(id).exists()
    }

    /// Deletes a chunk (retention/GC; not used by the core protocol).
    pub fn delete(&self, id: ChunkId) -> Result<()> {
        self.inner.pinned.lock().remove(&id);
        self.inner.lengths.lock().remove(&id);
        self.inner.verified.lock().remove(&id);
        fs::remove_file(self.path(id)).map_err(Into::into)
    }

    /// Reads and validates a chunk's footer, returning
    /// `(body_len, body_checksum)`. Any structural damage — file shorter
    /// than a footer, wrong magic (named), a body length that disagrees with
    /// the file size — is a torn or corrupt seal, surfaced as a typed error.
    fn read_footer(&self, id: ChunkId) -> Result<(u64, u64)> {
        let path = self.path(id);
        let file_len = fs::metadata(&path)
            .map_err(|_| WwError::not_found("chunk", id))?
            .len();
        let damaged = |detail: String| {
            self.inner.wal.torn.fetch_add(1, Ordering::Relaxed);
            WwError::corrupt("chunk file", detail)
        };
        if file_len < FOOTER_LEN {
            return Err(damaged(format!(
                "chunk {id}: {file_len} bytes is shorter than a footer"
            )));
        }
        let mut file = fs::File::open(&path)?;
        file.seek(SeekFrom::End(-(FOOTER_LEN as i64)))?;
        let mut footer = [0u8; FOOTER_LEN as usize];
        file.read_exact(&mut footer)?;
        let body_len = u64::from_le_bytes(footer[0..8].try_into().unwrap());
        let crc = u64::from_le_bytes(footer[8..16].try_into().unwrap());
        let magic = u64::from_le_bytes(footer[16..24].try_into().unwrap());
        if magic != FOOTER_MAGIC {
            return Err(damaged(format!(
                "chunk {id}: unsupported footer magic {:?}",
                String::from_utf8_lossy(&magic.to_le_bytes())
            )));
        }
        if body_len != file_len - FOOTER_LEN {
            return Err(damaged(format!(
                "chunk {id}: footer claims {body_len} body bytes, file holds {}",
                file_len - FOOTER_LEN
            )));
        }
        Ok((body_len, crc))
    }

    /// Chunk *body* length in bytes (the sealed footer is excluded).
    pub fn chunk_len(&self, id: ChunkId) -> Result<u64> {
        if let Some(len) = self.inner.lengths.lock().get(&id) {
            return Ok(*len);
        }
        let body_len = self.read_footer(id)?.0;
        self.inner.lengths.lock().insert(id, body_len);
        Ok(body_len)
    }

    /// Verifies the whole-body checksum once per chunk per process
    /// (immutable files make the cached verdict sound).
    fn verify_once(&self, id: ChunkId) -> Result<()> {
        if self.inner.verified.lock().contains(&id) {
            return Ok(());
        }
        let (body_len, crc) = self.read_footer(id)?;
        let bytes = fs::read(self.path(id))?;
        // read_footer proved bytes.len() == body_len + FOOTER_LEN.
        let body = &bytes[..body_len as usize];
        self.inner
            .stats
            .integrity_verifies
            .fetch_add(1, Ordering::Relaxed);
        if checksum(body) != crc {
            self.inner.wal.torn.fetch_add(1, Ordering::Relaxed);
            return Err(WwError::corrupt(
                "chunk file",
                format!("chunk {id}: body checksum mismatch"),
            ));
        }
        self.inner.lengths.lock().insert(id, body_len);
        self.inner.verified.lock().insert(id);
        Ok(())
    }

    /// Opens a read handle bound to the reader's node (for the co-location
    /// discount). Pass `None` for an off-cluster reader. The first open of
    /// a chunk verifies its checksummed footer end to end.
    pub fn open(&self, id: ChunkId, reader_node: Option<NodeId>) -> Result<DfsFile> {
        if !self.exists(id) {
            return Err(WwError::not_found("chunk", id));
        }
        self.verify_once(id)?;
        let local = reader_node.is_some_and(|n| self.replicas(id).contains(&n));
        Ok(DfsFile {
            dfs: self.clone(),
            id,
            local,
        })
    }

    fn ranged_read(&self, id: ChunkId, offset: u64, len: u64, local: bool) -> Result<Vec<u8>> {
        // Reads are bounded to the body: past-the-end reads must fail
        // rather than silently hand back footer bytes.
        let body_len = self.chunk_len(id)?;
        if offset.checked_add(len).is_none_or(|end| end > body_len) {
            return Err(WwError::corrupt(
                "chunk",
                format!("read {offset}+{len} past body end {body_len}"),
            ));
        }
        // One access: charge the open latency (discounted when local).
        self.inner.stats.opens.fetch_add(1, Ordering::Relaxed);
        if local {
            self.inner.stats.local_opens.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.latency.charge(len as usize, local);
        let mut file =
            fs::File::open(self.path(id)).map_err(|_| WwError::not_found("chunk", id))?;
        file.seek(SeekFrom::Start(offset))?;
        let mut buf = vec![0u8; len as usize];
        file.read_exact(&mut buf)
            .map_err(|e| WwError::corrupt("chunk", format!("short read at {offset}+{len}: {e}")))?;
        self.inner
            .stats
            .bytes_read
            .fetch_add(len, Ordering::Relaxed);
        Ok(buf)
    }
}

/// A positioned-read handle over one chunk file.
pub struct DfsFile {
    dfs: SimDfs,
    id: ChunkId,
    local: bool,
}

impl DfsFile {
    /// Whether this handle gets the co-located (short-circuit) discount.
    pub fn is_local(&self) -> bool {
        self.local
    }
}

impl RangedRead for DfsFile {
    fn read_range(&self, offset: u64, len: u64) -> Result<Vec<u8>> {
        self.dfs.ranged_read(self.id, offset, len, self.local)
    }

    fn len(&self) -> Result<u64> {
        self.dfs.chunk_len(self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
    use std::time::Instant;

    fn tmp_root(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ww-dfs-test-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn write_read_roundtrip() {
        let dfs = SimDfs::ephemeral(tmp_root("roundtrip")).unwrap();
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        dfs.write_chunk(ChunkId(1), &payload).unwrap();
        assert!(dfs.exists(ChunkId(1)));
        assert_eq!(dfs.chunk_len(ChunkId(1)).unwrap(), 10_000);
        let file = dfs.open(ChunkId(1), None).unwrap();
        assert_eq!(file.read_range(0, 10_000).unwrap(), payload);
        assert_eq!(file.read_range(5_000, 16).unwrap(), &payload[5_000..5_016]);
    }

    #[test]
    fn chunks_are_write_once() {
        let dfs = SimDfs::ephemeral(tmp_root("write-once")).unwrap();
        dfs.write_chunk(ChunkId(2), b"abc").unwrap();
        assert!(dfs.write_chunk(ChunkId(2), b"xyz").is_err());
    }

    #[test]
    fn missing_chunk_errors() {
        let dfs = SimDfs::ephemeral(tmp_root("missing")).unwrap();
        assert!(!dfs.exists(ChunkId(9)));
        assert!(dfs.open(ChunkId(9), None).is_err());
        assert!(dfs.chunk_len(ChunkId(9)).is_err());
    }

    #[test]
    fn read_past_end_is_an_error() {
        let dfs = SimDfs::ephemeral(tmp_root("past-end")).unwrap();
        dfs.write_chunk(ChunkId(3), b"0123456789").unwrap();
        let file = dfs.open(ChunkId(3), None).unwrap();
        // The footer sits past the body; a ranged read must never leak it.
        assert!(file.read_range(8, 10).is_err());
        assert!(file.read_range(u64::MAX, 2).is_err());
    }

    #[test]
    fn reopened_dfs_reads_body_length_from_footer() {
        let root = tmp_root("reopen");
        {
            let dfs = SimDfs::ephemeral(&root).unwrap();
            dfs.write_chunk(ChunkId(11), &[7u8; 4096]).unwrap();
        }
        // A fresh process has no cached lengths: body length and contents
        // must come from the sealed footer.
        let dfs = SimDfs::ephemeral(&root).unwrap();
        assert_eq!(dfs.chunk_len(ChunkId(11)).unwrap(), 4096);
        let file = dfs.open(ChunkId(11), None).unwrap();
        assert_eq!(file.len().unwrap(), 4096);
        assert_eq!(file.read_range(0, 4096).unwrap(), vec![7u8; 4096]);
        assert_eq!(dfs.stats().integrity_verifies.load(Ordering::Relaxed), 1);
        // Second open trusts the cached verification.
        dfs.open(ChunkId(11), None).unwrap();
        assert_eq!(dfs.stats().integrity_verifies.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn truncated_chunk_is_detected_as_torn() {
        let root = tmp_root("torn");
        {
            let dfs = SimDfs::ephemeral(&root).unwrap();
            dfs.write_chunk(ChunkId(12), &[1u8; 1000]).unwrap();
        }
        let path = root.join("chunk-12.ww");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        let dfs = SimDfs::ephemeral(&root).unwrap();
        let err = dfs
            .open(ChunkId(12), None)
            .err()
            .expect("torn seal detected");
        assert!(matches!(err, WwError::Corrupt { .. }), "{err}");
        assert!(dfs.wal_stats().torn.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn bit_rot_fails_the_body_checksum() {
        let root = tmp_root("bitrot");
        {
            let dfs = SimDfs::ephemeral(&root).unwrap();
            dfs.write_chunk(ChunkId(13), &[9u8; 512]).unwrap();
        }
        let path = root.join("chunk-13.ww");
        let mut bytes = fs::read(&path).unwrap();
        bytes[100] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let dfs = SimDfs::ephemeral(&root).unwrap();
        // Footer is structurally fine, so the length is still readable…
        assert_eq!(dfs.chunk_len(ChunkId(13)).unwrap(), 512);
        // …but the first open verifies the body and must reject it.
        let err = dfs.open(ChunkId(13), None).err().expect("bit rot detected");
        assert!(matches!(err, WwError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn a_retired_seal_is_refused_by_name() {
        let root = tmp_root("retired-seal");
        {
            let dfs = SimDfs::ephemeral(&root).unwrap();
            dfs.write_chunk(ChunkId(21), &[5u8; 700]).unwrap();
        }
        // The current seal with its magic swapped for the retired one.
        let path = root.join("chunk-21.ww");
        let mut bytes = fs::read(&path).unwrap();
        let magic_at = bytes.len() - 8;
        bytes[magic_at..].copy_from_slice(b"WWCHKFT1");
        fs::write(&path, bytes).unwrap();
        let dfs = SimDfs::ephemeral(&root).unwrap();
        let err = dfs.open(ChunkId(21), None).err().expect("refused");
        assert!(matches!(err, WwError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("\"WWCHKFT1\""), "{err}");
    }

    #[test]
    fn stray_temp_files_are_swept_on_open() {
        let root = tmp_root("sweep");
        fs::create_dir_all(&root).unwrap();
        fs::write(root.join(".chunk-5.ww.123.0.tmp"), b"half a chunk").unwrap();
        let dfs = SimDfs::ephemeral(&root).unwrap();
        assert!(!root.join(".chunk-5.ww.123.0.tmp").exists());
        assert!(!dfs.exists(ChunkId(5)));
    }

    #[test]
    fn fsync_policy_is_counted() {
        let root = tmp_root("fsync");
        let dfs = SimDfs::ephemeral(&root)
            .unwrap()
            .with_fsync(FsyncPolicy::Always);
        dfs.write_chunk(ChunkId(14), b"durable").unwrap();
        // One for the temp file, one for the directory rename.
        assert_eq!(dfs.wal_stats().fsyncs.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn locality_detected_from_reader_node() {
        let cluster = Cluster::new(6);
        let dfs = SimDfs::new(
            tmp_root("locality"),
            cluster.clone(),
            3,
            LatencyModel::default(),
        )
        .unwrap();
        dfs.write_chunk(ChunkId(4), b"data").unwrap();
        let reps = dfs.replicas(ChunkId(4));
        assert_eq!(reps.len(), 3);
        let on = dfs.open(ChunkId(4), Some(reps[0])).unwrap();
        assert!(on.is_local());
        let off_node = cluster
            .alive_nodes()
            .into_iter()
            .find(|n| !reps.contains(n))
            .unwrap();
        let off = dfs.open(ChunkId(4), Some(off_node)).unwrap();
        assert!(!off.is_local());
    }

    #[test]
    fn open_latency_is_charged_per_access() {
        let latency = LatencyModel {
            open: std::time::Duration::from_millis(5),
            bandwidth: None,
            local_factor: 0.0,
        };
        let dfs = SimDfs::new(tmp_root("latency"), Cluster::new(3), 3, latency).unwrap();
        dfs.write_chunk(ChunkId(5), &vec![0u8; 1024]).unwrap();
        let file = dfs.open(ChunkId(5), None).unwrap();
        let t0 = Instant::now();
        for _ in 0..4 {
            file.read_range(0, 128).unwrap();
        }
        assert!(t0.elapsed() >= std::time::Duration::from_millis(20));
        assert_eq!(dfs.stats().opens.load(Ordering::Relaxed), 4);
        // Local reads with local_factor 0 are free.
        let reps = dfs.replicas(ChunkId(5));
        let local = dfs.open(ChunkId(5), Some(reps[0])).unwrap();
        let t1 = Instant::now();
        local.read_range(0, 128).unwrap();
        assert!(t1.elapsed() < std::time::Duration::from_millis(5));
        assert_eq!(dfs.stats().local_opens.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn write_time_replicas_are_pinned_and_repairable() {
        let cluster = Cluster::new(8);
        let dfs = SimDfs::new(
            tmp_root("re-replicate"),
            cluster.clone(),
            3,
            LatencyModel::default(),
        )
        .unwrap();
        for i in 0..40u64 {
            dfs.write_chunk(ChunkId(i), &[i as u8; 64]).unwrap();
        }
        let before: Vec<Vec<NodeId>> = (0..40).map(|i| dfs.replicas(ChunkId(i))).collect();
        let dead = before[0][0];
        // A membership change alone does NOT move pinned chunks: reads
        // keep failing over within the write-time set.
        cluster.fail_node(dead).unwrap();
        for (i, old) in before.iter().enumerate() {
            assert_eq!(&dfs.replicas(ChunkId(i as u64)), old);
        }
        // Re-replication replaces exactly the lost node, keeps survivors.
        let affected = before.iter().filter(|set| set.contains(&dead)).count();
        assert_eq!(dfs.re_replicate(dead), affected);
        assert!(affected > 0);
        for (i, old) in before.iter().enumerate() {
            let new = dfs.replicas(ChunkId(i as u64));
            assert_eq!(new.len(), 3);
            assert!(!new.contains(&dead), "chunk {i} still on the dead node");
            for n in old.iter().filter(|n| **n != dead) {
                assert!(new.contains(n), "chunk {i}: survivor {n} moved needlessly");
            }
        }
        assert_eq!(
            dfs.stats().re_replications.load(Ordering::Relaxed),
            affected as u64
        );
        // Repairing the same loss again is a no-op.
        assert_eq!(dfs.re_replicate(dead), 0);
    }

    #[test]
    fn delete_removes_chunk() {
        let dfs = SimDfs::ephemeral(tmp_root("delete")).unwrap();
        dfs.write_chunk(ChunkId(6), b"bye").unwrap();
        dfs.delete(ChunkId(6)).unwrap();
        assert!(!dfs.exists(ChunkId(6)));
    }
}
