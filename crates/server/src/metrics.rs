//! System-wide metrics aggregation.
//!
//! Every server keeps lock-free counters; this module snapshots them all
//! into one [`SystemMetrics`] value with a human-readable `Display`, for
//! examples, operational debugging, and the benchmark harnesses.

use crate::system::Waterwheel;
use std::fmt;
use std::sync::atomic::Ordering;

/// A point-in-time snapshot of the whole system's counters.
#[derive(Clone, Debug, Default)]
pub struct SystemMetrics {
    /// Tuples routed by the dispatchers.
    pub dispatched: u64,
    /// Tuples ingested into in-memory trees.
    pub ingested: u64,
    /// Tuples diverted to side stores (later than Δt).
    pub side_stored: u64,
    /// Chunks flushed to the DFS.
    pub chunks_flushed: u64,
    /// Chunks currently registered.
    pub chunks_registered: usize,
    /// Secondary attribute indexes registered.
    pub attr_indexes: usize,
    /// Queries executed.
    pub queries: u64,
    /// Subqueries generated.
    pub subqueries: u64,
    /// Subqueries re-dispatched after failures.
    pub redispatches: u64,
    /// Chunk subqueries pruned by secondary attribute indexes.
    pub attr_pruned_chunks: u64,
    /// Leaf pages read from the DFS by query servers.
    pub leaf_reads: u64,
    /// Leaf pages served from query-server caches.
    pub leaf_cache_hits: u64,
    /// Leaves skipped by temporal pruning (bounds/bloom).
    pub leaves_pruned: u64,
    /// Columnar leaves served from the decoded-column cache tier (scan
    /// skipped the varint decode kernels entirely).
    pub column_decode_hits: u64,
    /// Columnar leaves decoded from their encoded image (fresh reads and
    /// encoded-cache upgrades).
    pub column_decode_misses: u64,
    /// Rows that survived key/time selection and were materialized as
    /// tuples by columnar scans (before residual predicates).
    pub scan_selected_rows: u64,
    /// Templates (index blocks) read from the DFS by query servers.
    pub template_reads: u64,
    /// Templates served from query-server caches.
    pub template_cache_hits: u64,
    /// Chunk summaries read from the DFS (footer-only accesses).
    pub summary_reads: u64,
    /// Chunk summaries served from query-server caches.
    pub summary_cache_hits: u64,
    /// Template/summary loads answered by joining another subquery's
    /// in-flight DFS read (singleflight de-duplication).
    pub singleflight_shared: u64,
    /// Milliseconds query servers spent waiting for an I/O permit
    /// (`IO_PERMITS` contention).
    pub io_wait_ms: u64,
    /// Largest chunk-subquery backlog one dispatch plan handed to the
    /// query-server worker pools (worker-pool queue depth).
    pub worker_queue_peak: u64,
    /// Per query server: `(server id, leaf hit ratio, template hit ratio)`.
    pub per_server_hit_ratios: Vec<(u32, f64, f64)>,
    /// DFS file accesses (each charged one open latency).
    pub dfs_opens: u64,
    /// Bytes read from the DFS.
    pub dfs_bytes_read: u64,
    /// DFS accesses that hit the co-located fast path.
    pub dfs_local_opens: u64,
    /// Aggregate queries executed (DESIGN.md §4b).
    pub agg_queries: u64,
    /// Wheel/summary cells merged while answering aggregate queries.
    pub agg_cells_merged: u64,
    /// Aggregate subqueries that fell back to tuple scans.
    pub agg_fallback_subqueries: u64,
    /// Bytes of wheel summaries appended to flushed chunks.
    pub summary_bytes_flushed: u64,
    /// Ingest batch envelopes acknowledged by indexing servers.
    pub rpc_batches_sent: u64,
    /// Tuples delivered inside those batch envelopes.
    pub ingest_batch_tuples: u64,
    /// Redelivered ingest batches recognised by sequence number and
    /// dropped instead of appended twice.
    pub ingest_dedup_drops: u64,
    /// RPC envelopes handed to the message plane (including retries).
    pub rpc_sent: u64,
    /// RPC attempts retried after a delivery failure.
    pub rpc_retried: u64,
    /// RPC attempts that timed out (lost or late in transit).
    pub rpc_timed_out: u64,
    /// RPC attempts that found the destination unreachable.
    pub rpc_unreachable: u64,
    /// Encoded frame bytes moved over the message plane (exact on both
    /// transports: the in-process plane charges the same frames TCP sends).
    pub rpc_bytes: u64,
    /// Frame bytes read off TCP sockets (zero for in-process planes).
    pub wire_bytes_in: u64,
    /// Frame bytes written to TCP sockets (zero for in-process planes).
    pub wire_bytes_out: u64,
    /// First successful TCP connections to a destination address.
    pub wire_connects: u64,
    /// TCP re-connections after a pooled connection died.
    pub wire_reconnects: u64,
    /// Wire frames that failed to decode (each drops its connection).
    pub wire_decode_errors: u64,
    /// Reactor poll returns that carried at least one readiness event
    /// (zero for in-process planes).
    pub wire_reactor_wakeups: u64,
    /// Requests that passed admission control.
    pub admission_admitted: u64,
    /// Requests shed by admission with a typed `Overloaded` answer.
    pub admission_shed: u64,
    /// Requests currently holding an admission permit.
    pub admission_inflight: u64,
    /// High-water mark of concurrently admitted requests.
    pub admission_inflight_peak: u64,
    /// Per-request-kind RPC latency percentiles (client-observed, retries
    /// included): `(kind, count, p50, p95, p99)`.
    pub rpc_latencies: Vec<waterwheel_net::LatencySnapshot>,
    /// Bytes appended to write-ahead logs (queue, metadata) and
    /// atomically committed files (chunks, snapshots).
    pub wal_bytes: u64,
    /// fsync/fdatasync calls issued by the durability tier.
    pub wal_fsyncs: u64,
    /// Tuples and metadata records replayed from durable logs at startup.
    pub recovery_replayed_tuples: u64,
    /// Torn or corrupt on-disk artifacts detected (truncated WAL tails,
    /// chunk footer/checksum failures).
    pub torn_writes_detected: u64,
    /// The metadata service's current membership epoch.
    pub membership_epoch: u64,
    /// Balancer rounds skipped because the skewed samples were too
    /// duplicate-heavy to act on (`BalanceOutcome::SkippedDegenerate`).
    pub balancer_skipped: u64,
    /// Live migrations started (durable records written at the metadata
    /// server before any routing changed).
    pub migrations_started: u64,
    /// Live migrations cut over (straggler flush done, records completed).
    pub migrations_completed: u64,
    /// Key ranges whose owning indexing server changed across all
    /// migrations.
    pub reassigned_key_ranges: u64,
    /// Chunk replica sets repaired after a node loss (pinned replicas
    /// refilled onto surviving nodes).
    pub dfs_re_replications: u64,
}

impl SystemMetrics {
    /// Collects a snapshot from a running system.
    pub fn collect(ww: &Waterwheel) -> Self {
        let mut m = SystemMetrics {
            dispatched: ww.dispatchers().iter().map(|d| d.dispatched()).sum(),
            rpc_batches_sent: ww.dispatchers().iter().map(|d| d.batches_sent()).sum(),
            ingest_batch_tuples: ww.dispatchers().iter().map(|d| d.batch_tuples()).sum(),
            ingest_dedup_drops: ww.ingest_dedup_drops(),
            chunks_registered: ww.metadata().chunk_count(),
            attr_indexes: ww.metadata().attr_index_count(),
            ..SystemMetrics::default()
        };
        for s in ww.indexing_servers() {
            m.ingested += s.stats().ingested.load(Ordering::Relaxed);
            m.side_stored += s.stats().side_stored.load(Ordering::Relaxed);
            m.chunks_flushed += s.stats().chunks_flushed.load(Ordering::Relaxed);
            m.summary_bytes_flushed += s.stats().summary_bytes_flushed.load(Ordering::Relaxed);
        }
        let c = ww.coordinator();
        m.queries = c.stats().queries.load(Ordering::Relaxed);
        m.subqueries = c.stats().subqueries.load(Ordering::Relaxed);
        m.redispatches = c.stats().redispatches.load(Ordering::Relaxed);
        m.attr_pruned_chunks = c.stats().attr_pruned_chunks.load(Ordering::Relaxed);
        m.agg_queries = c.stats().agg_queries.load(Ordering::Relaxed);
        m.agg_cells_merged = c.stats().agg_cells_merged.load(Ordering::Relaxed);
        m.agg_fallback_subqueries = c.stats().agg_fallback_subqueries.load(Ordering::Relaxed);
        m.worker_queue_peak = c.stats().worker_queue_peak.load(Ordering::Relaxed);
        let mut io_wait_ns = 0u64;
        for qs in ww.query_servers() {
            let s = qs.stats();
            m.leaf_reads += s.leaf_reads.load(Ordering::Relaxed);
            m.leaf_cache_hits += s.leaf_cache_hits.load(Ordering::Relaxed);
            m.leaves_pruned += s.leaves_pruned.load(Ordering::Relaxed);
            m.column_decode_hits += s.column_decode_hits.load(Ordering::Relaxed);
            m.column_decode_misses += s.column_decode_misses.load(Ordering::Relaxed);
            m.scan_selected_rows += s.scan_selected_rows.load(Ordering::Relaxed);
            m.template_reads += s.template_reads.load(Ordering::Relaxed);
            m.template_cache_hits += s.template_cache_hits.load(Ordering::Relaxed);
            m.summary_reads += s.summary_reads.load(Ordering::Relaxed);
            m.summary_cache_hits += s.summary_cache_hits.load(Ordering::Relaxed);
            m.singleflight_shared += qs.singleflight_shared();
            io_wait_ns += s.io_wait_ns.load(Ordering::Relaxed);
            m.per_server_hit_ratios.push((
                qs.id().raw(),
                s.leaf_hit_ratio(),
                s.template_hit_ratio(),
            ));
        }
        m.io_wait_ms = io_wait_ns / 1_000_000;
        let dfs = ww.dfs().stats();
        m.dfs_opens = dfs.opens.load(Ordering::Relaxed);
        m.dfs_bytes_read = dfs.bytes_read.load(Ordering::Relaxed);
        m.dfs_local_opens = dfs.local_opens.load(Ordering::Relaxed);
        m.dfs_re_replications = dfs.re_replications.load(Ordering::Relaxed);
        m.membership_epoch = ww.metadata().membership_epoch();
        m.balancer_skipped = ww
            .balancer()
            .stats()
            .skipped_degenerate
            .load(Ordering::Relaxed);
        let mig = ww.migration_stats();
        m.migrations_started = mig.started.load(Ordering::Relaxed);
        m.migrations_completed = mig.completed.load(Ordering::Relaxed);
        m.reassigned_key_ranges = mig.reassigned_ranges.load(Ordering::Relaxed);
        let rpc = ww.rpc_totals();
        m.rpc_sent = rpc.sent;
        m.rpc_retried = rpc.retried;
        m.rpc_timed_out = rpc.timed_out;
        m.rpc_unreachable = rpc.unreachable;
        m.rpc_bytes = rpc.bytes;
        let wire = ww.wire_totals();
        m.wire_bytes_in = wire.bytes_in;
        m.wire_bytes_out = wire.bytes_out;
        m.wire_connects = wire.connects;
        m.wire_reconnects = wire.reconnects;
        m.wire_decode_errors = wire.decode_errors;
        m.wire_reactor_wakeups = wire.reactor_wakeups;
        let adm = ww.admission_totals();
        m.admission_admitted = adm.admitted;
        m.admission_shed = adm.shed;
        m.admission_inflight = adm.inflight;
        m.admission_inflight_peak = adm.inflight_peak;
        m.rpc_latencies = ww.rpc_latencies();
        // Durability counters, summed across every WAL-backed surface: the
        // ingest queue, chunk sealing, and (when durable) the metadata log.
        let mut wals = vec![ww.message_queue().wal_stats(), ww.dfs().wal_stats()];
        if let Some(s) = ww.metadata().wal_stats() {
            wals.push(s);
        }
        for s in wals {
            m.wal_bytes += s.bytes.load(Ordering::Relaxed);
            m.wal_fsyncs += s.fsyncs.load(Ordering::Relaxed);
            m.recovery_replayed_tuples += s.replayed.load(Ordering::Relaxed);
            m.torn_writes_detected += s.torn.load(Ordering::Relaxed);
        }
        m
    }

    /// Leaf cache hit ratio in `[0, 1]`.
    pub fn cache_hit_ratio(&self) -> f64 {
        let total = self.leaf_reads + self.leaf_cache_hits;
        if total == 0 {
            0.0
        } else {
            self.leaf_cache_hits as f64 / total as f64
        }
    }
}

impl fmt::Display for SystemMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "ingest:  {} dispatched, {} indexed, {} side-stored",
            self.dispatched, self.ingested, self.side_stored
        )?;
        writeln!(
            f,
            "batches: {} sent carrying {} tuples, {} dedup drops",
            self.rpc_batches_sent, self.ingest_batch_tuples, self.ingest_dedup_drops
        )?;
        writeln!(
            f,
            "chunks:  {} flushed, {} registered, {} attr indexes",
            self.chunks_flushed, self.chunks_registered, self.attr_indexes
        )?;
        writeln!(
            f,
            "queries: {} queries → {} subqueries ({} re-dispatched, {} attr-pruned)",
            self.queries, self.subqueries, self.redispatches, self.attr_pruned_chunks
        )?;
        writeln!(
            f,
            "leaves:  {} read, {} cached ({:.0}% hit), {} pruned",
            self.leaf_reads,
            self.leaf_cache_hits,
            self.cache_hit_ratio() * 100.0,
            self.leaves_pruned
        )?;
        writeln!(
            f,
            "columns: {} decoded-cache hits / {} decodes, {} rows selected",
            self.column_decode_hits, self.column_decode_misses, self.scan_selected_rows
        )?;
        writeln!(
            f,
            "blocks:  {} template reads / {} cached, {} summary reads / {} cached, {} singleflight-shared",
            self.template_reads,
            self.template_cache_hits,
            self.summary_reads,
            self.summary_cache_hits,
            self.singleflight_shared
        )?;
        writeln!(
            f,
            "readers: {}ms io-permit wait, {} peak worker-queue depth",
            self.io_wait_ms, self.worker_queue_peak
        )?;
        for (id, leaf, template) in &self.per_server_hit_ratios {
            writeln!(
                f,
                "  qs-{id}: {:.0}% leaf hit, {:.0}% template hit",
                leaf * 100.0,
                template * 100.0
            )?;
        }
        writeln!(
            f,
            "dfs:     {} opens ({} local), {} bytes read",
            self.dfs_opens, self.dfs_local_opens, self.dfs_bytes_read
        )?;
        writeln!(
            f,
            "agg:     {} queries, {} cells merged, {} fallback subqueries, {} summary bytes flushed",
            self.agg_queries,
            self.agg_cells_merged,
            self.agg_fallback_subqueries,
            self.summary_bytes_flushed
        )?;
        writeln!(
            f,
            "rpc:     {} sent ({} retried, {} timed out, {} unreachable), {} bytes",
            self.rpc_sent,
            self.rpc_retried,
            self.rpc_timed_out,
            self.rpc_unreachable,
            self.rpc_bytes
        )?;
        writeln!(
            f,
            "wire:    {} bytes in / {} bytes out, {} connects (+{} reconnects), {} decode errors, {} reactor wakeups",
            self.wire_bytes_in,
            self.wire_bytes_out,
            self.wire_connects,
            self.wire_reconnects,
            self.wire_decode_errors,
            self.wire_reactor_wakeups
        )?;
        writeln!(
            f,
            "admit:   {} admitted, {} shed, {} in flight (peak {})",
            self.admission_admitted,
            self.admission_shed,
            self.admission_inflight,
            self.admission_inflight_peak
        )?;
        for l in &self.rpc_latencies {
            writeln!(
                f,
                "  rpc-{}: p50 {:?}, p95 {:?}, p99 {:?} over {} calls",
                l.kind, l.p50, l.p95, l.p99, l.count
            )?;
        }
        writeln!(
            f,
            "wal:     {} bytes, {} fsyncs, {} replayed on recovery, {} torn writes detected",
            self.wal_bytes,
            self.wal_fsyncs,
            self.recovery_replayed_tuples,
            self.torn_writes_detected
        )?;
        write!(
            f,
            "elastic: epoch {}, {} migrations started / {} completed, {} ranges reassigned, {} balancer skips, {} re-replications",
            self.membership_epoch,
            self.migrations_started,
            self.migrations_completed,
            self.reassigned_key_ranges,
            self.balancer_skipped,
            self.dfs_re_replications
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waterwheel_core::{KeyInterval, Query, SystemConfig, TimeInterval, Tuple};

    #[test]
    fn collect_reflects_activity() {
        let root = std::env::temp_dir().join(format!("ww-metrics-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut cfg = SystemConfig::default();
        cfg.chunk_size_bytes = 8 * 1024;
        let ww = Waterwheel::builder(root).config(cfg).build().unwrap();
        for i in 0..1_000u64 {
            ww.insert(Tuple::bare(i << 40, 1_000 + i)).unwrap();
        }
        ww.drain().unwrap();
        ww.flush_all().unwrap();
        ww.query(&Query::range(KeyInterval::full(), TimeInterval::full()))
            .unwrap();
        let m = SystemMetrics::collect(&ww);
        assert_eq!(m.dispatched, 1_000);
        assert_eq!(m.ingested, 1_000);
        assert!(m.chunks_flushed >= 1);
        assert_eq!(m.queries, 1);
        assert!(m.subqueries >= 1);
        assert!(m.leaf_reads > 0);
        assert!(m.dfs_opens > 0);
        // Batched ingest amortizes envelopes: all 1 000 tuples rode batch
        // envelopes, at least 8× fewer than per-tuple dispatch would send.
        assert_eq!(m.ingest_batch_tuples, 1_000);
        assert!(m.rpc_batches_sent > 0);
        assert!(
            m.rpc_batches_sent * 8 <= m.dispatched,
            "{} batches for {} tuples is under 8× amortization",
            m.rpc_batches_sent,
            m.dispatched
        );
        assert_eq!(m.ingest_dedup_drops, 0, "fault-free plane never dedups");
        assert!(m.rpc_bytes > 0);
        assert_eq!(m.rpc_retried, 0, "fault-free plane must not retry");
        // Parallel read-path counters: the query above loaded templates and
        // read summaries, the plan backlog registered with the worker pool,
        // and every query server reported a hit-ratio row.
        assert!(m.template_reads > 0);
        assert!(m.worker_queue_peak >= 1);
        assert_eq!(
            m.per_server_hit_ratios.len(),
            ww.query_servers().len(),
            "one hit-ratio row per query server"
        );
        // Display renders without panicking and mentions the key figures.
        let text = m.to_string();
        assert!(text.contains("1000 dispatched"));
        assert!(text.contains("queries"));
    }

    #[test]
    fn hit_ratio_handles_zero() {
        assert_eq!(SystemMetrics::default().cache_hit_ratio(), 0.0);
    }

    #[test]
    fn display_renders_every_field() {
        // Give every counter a distinct sentinel value and check each one
        // appears in the rendered text — a field silently dropped from
        // `Display` fails here.
        let m = SystemMetrics {
            dispatched: 101,
            ingested: 102,
            side_stored: 103,
            chunks_flushed: 104,
            chunks_registered: 105,
            attr_indexes: 106,
            queries: 107,
            subqueries: 108,
            redispatches: 109,
            attr_pruned_chunks: 110,
            leaf_reads: 111,
            leaf_cache_hits: 112,
            leaves_pruned: 113,
            dfs_opens: 114,
            dfs_bytes_read: 115,
            dfs_local_opens: 116,
            agg_queries: 117,
            agg_cells_merged: 118,
            agg_fallback_subqueries: 119,
            summary_bytes_flushed: 120,
            rpc_sent: 121,
            rpc_retried: 122,
            rpc_timed_out: 123,
            rpc_unreachable: 124,
            rpc_bytes: 125,
            rpc_batches_sent: 126,
            ingest_batch_tuples: 127,
            ingest_dedup_drops: 128,
            template_reads: 129,
            template_cache_hits: 130,
            summary_reads: 131,
            summary_cache_hits: 132,
            singleflight_shared: 133,
            io_wait_ms: 134,
            worker_queue_peak: 135,
            wire_bytes_in: 136,
            wire_bytes_out: 137,
            wire_connects: 138,
            wire_reconnects: 139,
            wire_decode_errors: 140,
            wal_bytes: 141,
            wal_fsyncs: 142,
            recovery_replayed_tuples: 143,
            torn_writes_detected: 144,
            wire_reactor_wakeups: 145,
            admission_admitted: 146,
            admission_shed: 147,
            admission_inflight: 148,
            admission_inflight_peak: 149,
            per_server_hit_ratios: vec![(77, 0.25, 0.75)],
            rpc_latencies: vec![waterwheel_net::LatencySnapshot {
                kind: "ping",
                count: 150,
                p50: std::time::Duration::from_micros(151),
                p95: std::time::Duration::from_micros(152),
                p99: std::time::Duration::from_micros(153),
            }],
            column_decode_hits: 154,
            column_decode_misses: 155,
            scan_selected_rows: 156,
            membership_epoch: 157,
            balancer_skipped: 158,
            migrations_started: 159,
            migrations_completed: 160,
            reassigned_key_ranges: 161,
            dfs_re_replications: 162,
        };
        let text = m.to_string();
        for sentinel in 101..=162u64 {
            assert!(
                text.contains(&sentinel.to_string()),
                "Display omits the field with sentinel {sentinel}:\n{text}"
            );
        }
        assert!(
            text.contains("qs-77: 25% leaf hit, 75% template hit"),
            "Display omits per-server hit ratios:\n{text}"
        );
        assert!(
            text.contains("rpc-ping:"),
            "Display omits per-kind latency rows:\n{text}"
        );
    }
}
