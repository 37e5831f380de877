//! System-wide configuration knobs.
//!
//! Every tunable the paper mentions is collected here with its paper default
//! (and, where the paper value is cluster-scale, a scaled-down default noted
//! in the field docs). Components receive a shared [`SystemConfig`] at
//! construction time.

use std::time::Duration;

/// Configuration for an embedded Waterwheel deployment.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Chunk flush threshold in bytes (paper §III-A and §VI: 16 MB default).
    ///
    /// An indexing server flushes its in-memory B+ tree to the file system as
    /// an immutable chunk once the accumulated tuple bytes reach this value.
    pub chunk_size_bytes: usize,

    /// B+ tree fanout: maximum children per inner node.
    pub btree_fanout: usize,

    /// Target number of tuples per leaf when (re)building a template.
    pub leaf_capacity: usize,

    /// Skewness threshold above which a template is marked obsolete and
    /// rebuilt (paper §III-C: 0.2).
    pub skew_threshold: f64,

    /// Load-imbalance threshold for adaptive key partitioning: repartition
    /// when any indexing server's sampled load deviates this fraction from
    /// the mean (paper §III-D: 20 %).
    pub partition_imbalance_threshold: f64,

    /// Late-visibility parameter Δt (paper §IV-D): tuples arriving no later
    /// than Δt behind an indexing server's high-water mark stay in the main
    /// tree and remain query-visible via widened region bounds.
    pub late_visibility: Duration,

    /// Tuples later than Δt are diverted to a per-server side store so the
    /// main chunks keep tight temporal bounds (paper §IV-D).
    pub side_store_enabled: bool,

    /// Number of indexing servers (one per key interval, paper §III-A).
    pub indexing_servers: usize,

    /// Number of query servers.
    pub query_servers: usize,

    /// Number of dispatchers feeding the indexing servers.
    pub dispatchers: usize,

    /// Replication factor for chunks in the simulated DFS (HDFS default: 3).
    pub dfs_replication: usize,

    /// Query-server cache capacity in bytes (paper §VI: 1 GB per server;
    /// scaled default 64 MB).
    pub cache_capacity_bytes: usize,

    /// Shards the block cache N ways by key hash: each shard holds its own
    /// LRU list and `capacity / N` byte budget, so concurrent subqueries
    /// stop contending on one mutex. `1` restores the single-mutex cache.
    pub cache_shards: usize,

    /// Subquery worker threads per query server: how many chunk subqueries
    /// one server executes concurrently under a dispatch plan. `1` restores
    /// the serial one-subquery-at-a-time server.
    pub query_workers: usize,

    /// Concurrent DFS reads a query server may have in flight (I/O permit
    /// set). Independent coalesced leaf reads proceed in parallel up to
    /// this bound; `1` restores the old all-of-DFS serial lock.
    pub query_io_permits: usize,

    /// Bits per entry in the leaf bloom filters.
    pub bloom_bits_per_entry: usize,

    /// Enable the per-leaf temporal bloom filters (ablation knob).
    pub bloom_enabled: bool,

    /// How many tuples an indexing server inserts between skewness checks.
    pub skew_check_interval: usize,

    /// Key-slice width exponent for the aggregate wheel: keys are sliced by
    /// their top `agg_slice_bits` bits into `2^agg_slice_bits` slices
    /// (1..=16). More slices answer narrower key ranges from summaries at
    /// the cost of more cells per ring.
    pub agg_slice_bits: u8,

    /// Cap on cells per granularity ring in a sealed chunk summary. Rings
    /// over the cap are dropped finest-first; dropped coverage degrades to
    /// exact tuple-scan residues, never to approximate answers.
    pub agg_max_cells_per_ring: usize,

    /// Maintain live wheels and seal chunk summaries (ablation knob; when
    /// off, aggregate queries fall back to the tuple-scan path end to end).
    pub agg_summaries_enabled: bool,

    /// Tuples per `Request::IngestBatch` envelope on the dispatcher →
    /// indexing hop (paper §VI Fig. 15: ingest throughput comes from
    /// amortizing per-record overhead). `1` disables batching and restores
    /// per-tuple `Request::Ingest` RPCs.
    pub ingest_batch_size: usize,

    /// Longest a partially filled ingest batch may sit buffered in a
    /// dispatcher before a background flush sends it anyway. Bounds the
    /// extra visibility latency batching can add to a trickling stream.
    pub ingest_linger: Duration,

    /// Per-attempt deadline for every cross-server RPC. An attempt whose
    /// simulated transit time exceeds the remaining budget fails with
    /// [`WwError::Timeout`](crate::WwError::Timeout) without reaching the
    /// destination.
    pub rpc_timeout: Duration,

    /// Extra attempts after a retryable RPC failure (timeout/unreachable);
    /// `2` means up to three attempts in total. Non-retryable errors —
    /// actual answers from the destination — are never retried.
    pub rpc_retries: u32,

    /// Base backoff slept between RPC attempts, scaled linearly by the
    /// attempt number. Zero (the default for the in-process transport)
    /// retries immediately.
    pub rpc_backoff: Duration,

    /// Reactor threads multiplexing a process's TCP sockets. One thread
    /// polls every pooled client connection and every accepted server
    /// connection; more threads shard the sockets between them. The whole
    /// endpoint runs on `net_reactor_threads + net_server_workers` threads
    /// regardless of connection count.
    pub net_reactor_threads: usize,

    /// Worker threads executing decoded requests behind a TCP listener.
    /// Bounds handler concurrency independently of connection count (a
    /// thousand idle connections cost no threads; a thousand concurrent
    /// requests queue for this many workers).
    pub net_server_workers: usize,

    /// Pooled client connections idle (no RPC in flight, none completed)
    /// longer than this are closed and reaped. Zero disables reaping.
    pub net_pool_idle_timeout: Duration,

    /// Cap on pooled client connections per transport; dialing past the
    /// cap evicts the least-recently-used idle connection.
    pub net_pool_max_connections: usize,

    /// Admission control: requests in flight (admitted, not yet answered)
    /// a server allows before shedding. Budgets are graduated by priority —
    /// metadata sheds at half this depth, queries at three quarters, ingest
    /// only at the full depth — so load shedding starts with the least
    /// critical traffic (control probes and shutdown are always admitted).
    pub admission_max_inflight: usize,

    /// Retry-after hint stamped into [`WwError::Overloaded`](crate::WwError)
    /// responses when a request is shed by queue depth.
    pub admission_retry_after: Duration,

    /// Per-client (per source server id) token-bucket refill rate in
    /// requests/second. Zero disables client rate limiting.
    pub client_rate_limit: u64,

    /// Token-bucket burst capacity: a client may send this many requests
    /// back-to-back before the refill rate governs.
    pub client_rate_burst: u64,

    /// Rounds of coordinator-level subquery re-dispatch after the first
    /// dispatch plan: subqueries that failed (server crashed mid-plan, link
    /// down past the RPC retry budget) are re-planned across the servers
    /// that still answer pings (paper §V).
    pub rpc_redispatch_rounds: usize,

    /// When `true`, every durable commit point — an acked ingest batch in
    /// the message queue, a meta-service mutation, a sealed chunk file —
    /// is `fsync`ed before it is acknowledged, so acked data survives
    /// `kill -9` *and* machine crash. When `false`, commits are flushed to
    /// the OS page cache only: they still survive process death (kill -9),
    /// but not power loss. Paper §V assumes the former for its replayable
    /// queues.
    pub durability_fsync: bool,

    /// Rotation threshold for write-ahead log segments (message-queue
    /// partition logs and the meta-service mutation log). The meta service
    /// also compacts its log into a fresh snapshot once the log outgrows
    /// this bound.
    pub wal_segment_bytes: usize,

    /// On-disk chunk format written at flush: `1` for the row-tuple v1
    /// layout, `2` for columnar leaves (delta-of-delta timestamps,
    /// delta/dictionary keys, compressed payload blocks) with per-leaf and
    /// per-chunk MIN/MAX measure bounds. Readers dispatch on the header
    /// version, so a store may mix both formats.
    pub chunk_format_version: u32,

    /// Compress v2 payload blocks (byte-shuffle + LZ, whichever encoding is
    /// smallest per leaf). Ignored when writing v1 chunks.
    pub chunk_compression: bool,

    /// Use persisted MIN/MAX measure bounds to skip chunks (coordinator)
    /// and leaves (query server) that cannot satisfy a query's
    /// `measure_range` filter. Disabling only loses the pruning, never
    /// changes answers.
    pub measure_pruning: bool,

    /// Cache hot v2 leaves with their key/timestamp columns already decoded
    /// (payload blocks stay compressed): repeated scans skip the varint
    /// decode entirely. Decoded entries charge their actual resident bytes
    /// against `cache_capacity_bytes`, so the same budget holds fewer — but
    /// much faster — leaves. Disabling caches encoded images only; answers
    /// never change.
    pub decoded_column_cache: bool,

    /// Interval between membership heartbeats a server sends to the meta
    /// service to renew its lease (paper Fig. 17 elasticity: ZooKeeper
    /// ephemeral-node session pings).
    pub heartbeat_interval: Duration,

    /// Membership lease TTL granted per join/heartbeat. A server whose
    /// lease lapses is evicted from the membership view, its chunks are
    /// re-replicated, and routing tables move to the next epoch. Must be
    /// longer than `heartbeat_interval` (several missed beats, not one).
    pub lease_ttl: Duration,
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self {
            // Scaled-down default so test suites run in seconds; the paper
            // value is 16 MiB.
            chunk_size_bytes: 1 << 20,
            btree_fanout: 16,
            leaf_capacity: 64,
            skew_threshold: 0.2,
            partition_imbalance_threshold: 0.2,
            late_visibility: Duration::from_secs(5),
            side_store_enabled: true,
            indexing_servers: 2,
            query_servers: 4,
            dispatchers: 2,
            dfs_replication: 3,
            cache_capacity_bytes: 64 << 20,
            cache_shards: 8,
            query_workers: 4,
            query_io_permits: 4,
            bloom_bits_per_entry: 10,
            bloom_enabled: true,
            skew_check_interval: 4096,
            agg_slice_bits: 4,
            agg_max_cells_per_ring: 8192,
            agg_summaries_enabled: true,
            ingest_batch_size: 128,
            ingest_linger: Duration::from_millis(2),
            rpc_timeout: Duration::from_secs(1),
            rpc_retries: 2,
            rpc_backoff: Duration::ZERO,
            net_reactor_threads: 1,
            net_server_workers: 8,
            net_pool_idle_timeout: Duration::from_secs(60),
            net_pool_max_connections: 64,
            admission_max_inflight: 4_096,
            admission_retry_after: Duration::from_millis(50),
            client_rate_limit: 0,
            client_rate_burst: 256,
            rpc_redispatch_rounds: 2,
            durability_fsync: true,
            wal_segment_bytes: 8 << 20,
            chunk_format_version: 2,
            chunk_compression: true,
            measure_pruning: true,
            decoded_column_cache: true,
            heartbeat_interval: Duration::from_millis(500),
            lease_ttl: Duration::from_secs(3),
        }
    }
}

impl SystemConfig {
    /// The paper's cluster-scale settings (16 MB chunks, 1 GB cache,
    /// 2 indexing / 4 query servers and 2 dispatchers per node). The
    /// paper's 2–50 ms HDFS access cost (§VI-B) is not a config field:
    /// model it with `WaterwheelBuilder::dfs_latency`.
    pub fn paper_scale() -> Self {
        Self {
            chunk_size_bytes: 16 << 20,
            cache_capacity_bytes: 1 << 30,
            ..Self::default()
        }
    }

    /// Validates internal consistency; call once at system start.
    pub fn validate(&self) -> Result<(), String> {
        if self.btree_fanout < 2 {
            return Err("btree_fanout must be at least 2".into());
        }
        if self.leaf_capacity == 0 {
            return Err("leaf_capacity must be positive".into());
        }
        if self.indexing_servers == 0 || self.query_servers == 0 || self.dispatchers == 0 {
            return Err("server counts must be positive".into());
        }
        if self.dfs_replication == 0 {
            return Err("dfs_replication must be positive".into());
        }
        if !(0.0..=10.0).contains(&self.skew_threshold) {
            return Err("skew_threshold out of range".into());
        }
        if !(0.0..=10.0).contains(&self.partition_imbalance_threshold) {
            return Err("partition_imbalance_threshold out of range".into());
        }
        if self.chunk_size_bytes == 0 {
            return Err("chunk_size_bytes must be positive".into());
        }
        if !(1..=16).contains(&self.agg_slice_bits) {
            return Err("agg_slice_bits must be in 1..=16".into());
        }
        if self.ingest_batch_size == 0 {
            return Err("ingest_batch_size must be at least 1".into());
        }
        if self.cache_shards == 0 {
            return Err("cache_shards must be at least 1".into());
        }
        if self.query_workers == 0 {
            return Err("query_workers must be at least 1".into());
        }
        if self.query_io_permits == 0 {
            return Err("query_io_permits must be at least 1".into());
        }
        if self.rpc_timeout.is_zero() {
            return Err("rpc_timeout must be positive".into());
        }
        if self.rpc_redispatch_rounds == 0 {
            return Err("rpc_redispatch_rounds must be at least 1".into());
        }
        if self.net_reactor_threads == 0 {
            return Err("net_reactor_threads must be at least 1".into());
        }
        if self.net_server_workers == 0 {
            return Err("net_server_workers must be at least 1".into());
        }
        if self.net_pool_max_connections == 0 {
            return Err("net_pool_max_connections must be at least 1".into());
        }
        if self.admission_max_inflight == 0 {
            return Err("admission_max_inflight must be at least 1".into());
        }
        if self.client_rate_limit > 0 && self.client_rate_burst == 0 {
            return Err("client_rate_burst must be positive when rate limiting".into());
        }
        if self.wal_segment_bytes < 4096 {
            return Err("wal_segment_bytes must be at least 4096".into());
        }
        if !(1..=2).contains(&self.chunk_format_version) {
            return Err("chunk_format_version must be 1 or 2".into());
        }
        if self.heartbeat_interval.is_zero() {
            return Err("heartbeat_interval must be positive".into());
        }
        if self.lease_ttl <= self.heartbeat_interval {
            return Err("lease_ttl must exceed heartbeat_interval".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        SystemConfig::default().validate().unwrap();
        SystemConfig::paper_scale().validate().unwrap();
    }

    #[test]
    fn paper_scale_uses_paper_constants() {
        let c = SystemConfig::paper_scale();
        assert_eq!(c.chunk_size_bytes, 16 << 20);
        assert_eq!(c.cache_capacity_bytes, 1 << 30);
    }

    #[test]
    fn validate_rejects_degenerate_settings() {
        for breakage in [
            |c: &mut SystemConfig| c.btree_fanout = 1,
            |c: &mut SystemConfig| c.leaf_capacity = 0,
            |c: &mut SystemConfig| c.indexing_servers = 0,
            |c: &mut SystemConfig| c.dfs_replication = 0,
            |c: &mut SystemConfig| c.skew_threshold = -1.0,
            |c: &mut SystemConfig| c.chunk_size_bytes = 0,
            |c: &mut SystemConfig| c.agg_slice_bits = 0,
            |c: &mut SystemConfig| c.agg_slice_bits = 17,
            |c: &mut SystemConfig| c.ingest_batch_size = 0,
            |c: &mut SystemConfig| c.cache_shards = 0,
            |c: &mut SystemConfig| c.query_workers = 0,
            |c: &mut SystemConfig| c.query_io_permits = 0,
            |c: &mut SystemConfig| c.rpc_timeout = Duration::ZERO,
            |c: &mut SystemConfig| c.rpc_redispatch_rounds = 0,
            |c: &mut SystemConfig| c.wal_segment_bytes = 0,
            |c: &mut SystemConfig| c.net_reactor_threads = 0,
            |c: &mut SystemConfig| c.net_server_workers = 0,
            |c: &mut SystemConfig| c.net_pool_max_connections = 0,
            |c: &mut SystemConfig| c.admission_max_inflight = 0,
            |c: &mut SystemConfig| {
                c.client_rate_limit = 100;
                c.client_rate_burst = 0;
            },
            |c: &mut SystemConfig| c.chunk_format_version = 0,
            |c: &mut SystemConfig| c.chunk_format_version = 3,
            |c: &mut SystemConfig| c.heartbeat_interval = Duration::ZERO,
            |c: &mut SystemConfig| c.lease_ttl = Duration::from_millis(1),
        ] {
            let mut c = SystemConfig::default();
            breakage(&mut c);
            assert!(c.validate().is_err());
        }
    }
}
