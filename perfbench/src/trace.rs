//! The traced run: per-layer metrics, outside in, from the message queue
//! to the query merge. It has three parts, all driven by the workload's own
//! seeded inputs and all measured from this file — no crate outside this
//! directory carries instrumentation:
//!
//! 1. a short *untraced* run of the workload's own drivers, for the numbers
//!    only a concurrent run has (queue backlog, generator lateness) and as
//!    the base of `trace.overhead_ratio`;
//! 2. a *staged* run on one thread — `insert` loop → `flush_ingest_batches`
//!    → `IndexingServer::pump` → `IndexingServer::flush`, then
//!    `Coordinator::decompose` → one call per subquery → the residual
//!    against `Waterwheel::query` — with a span around every call, so stage
//!    self-times sum to the whole;
//! 3. *layer replays*: each layer's public API fed the same tuples, chunks
//!    and queries in isolation.
//!
//! Layer names are the repository's crates and modules.

use crate::drive;
use crate::e2e::{self, Inputs};
use crate::inputs::{self, Op, OpKind};
use crate::report::{Metric, Outcome};
use crate::spans::Recorder;
use crate::spec::{Main, Scale, Spec, CHECK_EVERY};
use crate::stats;
use crate::sut;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use waterwheel_cluster::{Cluster, LatencyModel};
use waterwheel_core::{
    ChunkId, KeyInterval, QueryId, Region, Result, ServerId, SubQueryTarget, SystemConfig,
    TimeInterval, Tuple, WwError,
};
use waterwheel_index::columnar::{self, DecodedLeaf, ScanScratch};
use waterwheel_index::{IndexConfig, SealedTree, TemplateBTree, TupleIndex};
use waterwheel_meta::PartitionSchema;
use waterwheel_mq::{Consumer, MessageQueue};
use waterwheel_net::{
    wire, Envelope, HandlerRegistry, InProcTransport, Request, Response, RpcClient, TcpRpcServer,
    TcpTransport, WireStats,
};
use waterwheel_server::{Dispatcher, IndexingServer, Waterwheel};
use waterwheel_storage::{
    write_chunk_opts, Block, BlockCache, BlockKey, ChunkReader, ChunkWriteOptions, RangedRead,
    SimDfs,
};
use waterwheel_wal::FsyncPolicy;

/// The per-layer metrics, in print order: `(name, unit)`. `BENCHMARK.json`
/// lists the same names and units; a test compares them.
pub const PER_LAYER: [(&str, &str); 78] = [
    ("server.dispatcher.dispatch_ns_per_tuple", "ns"),
    ("server.dispatcher.batches_sent", "count"),
    ("server.dispatcher.tuples_per_batch", "count"),
    ("server.dispatcher.pending_max", "count"),
    ("net.wire.encode_ns_per_tuple", "ns"),
    ("net.wire.decode_ns_per_tuple", "ns"),
    ("net.wire.frame_bytes_per_tuple", "B"),
    ("net.transport.inproc_rtt_us_p50", "us"),
    ("net.transport.tcp_rtt_us_p50", "us"),
    ("net.transport.rpc_sent", "count"),
    ("net.transport.rpc_retried", "count"),
    ("net.transport.rpc_timed_out", "count"),
    ("net.transport.wire_bytes_out", "B"),
    ("mq.append_ns_per_tuple", "ns"),
    ("mq.poll_ns_per_tuple", "ns"),
    ("mq.lag_tuples_max", "count"),
    ("mq.lag_tuples_end", "count"),
    ("wal.append_ns_per_tuple", "ns"),
    ("wal.bytes_per_tuple", "B"),
    ("wal.fsyncs", "count"),
    ("wal.segments", "count"),
    ("server.indexing.pump_ns_per_tuple", "ns"),
    ("server.indexing.flushes", "count"),
    ("server.indexing.flush_ms_p50", "ms"),
    ("server.indexing.flush_ms_max", "ms"),
    ("server.indexing.flush_share", "ratio"),
    ("server.indexing.side_stored_ratio", "ratio"),
    ("server.indexing.agg_pump_overhead_ns_per_tuple", "ns"),
    ("server.indexing.visibility_lag_ms_p50", "ms"),
    ("server.indexing.visibility_lag_ms_p99", "ms"),
    ("index.template.insert_ns_per_tuple", "ns"),
    ("index.template.seal_ms_p50", "ms"),
    ("index.template.template_updates", "count"),
    ("index.template.skewness_end", "ratio"),
    ("index.template.mem_scan_ns_per_row", "ns"),
    ("index.template.mem_scan_under_insert_ns_per_row", "ns"),
    ("storage.chunk.write_ns_per_tuple", "ns"),
    ("storage.chunk.bytes_per_tuple", "B"),
    ("storage.chunk.load_index_us_p50", "us"),
    ("storage.chunk.read_leaf_pages_mb_per_s", "MB/s"),
    ("storage.dfs.write_mb_per_s", "MB/s"),
    ("storage.dfs.open_us_p50", "us"),
    ("storage.dfs.opens_per_query", "count"),
    ("storage.dfs.bytes_read_per_query", "B"),
    ("storage.dfs.local_open_ratio", "ratio"),
    ("index.columnar.encode_rows_per_s", "1/s"),
    ("index.columnar.decode_rows_per_s", "1/s"),
    ("index.columnar.scan_encoded_rows_per_s", "1/s"),
    ("index.columnar.scan_decoded_rows_per_s", "1/s"),
    ("index.columnar.selected_row_ratio", "ratio"),
    ("storage.cache.get_ns_p50", "ns"),
    ("storage.cache.hit_ratio", "ratio"),
    ("storage.cache.evictions", "count"),
    ("storage.cache.used_bytes_end", "B"),
    ("meta.chunks_overlapping_us_p50", "us"),
    ("meta.chunks_matched_per_query", "count"),
    ("meta.memory_regions_us_p50", "us"),
    ("server.coordinator.decompose_us_p50", "us"),
    ("server.coordinator.subqueries_per_query", "count"),
    ("server.coordinator.pruned_chunk_ratio", "ratio"),
    ("server.coordinator.redispatches", "count"),
    ("server.coordinator.residual_us_p50", "us"),
    ("server.coordinator.query_ms_p99", "ms"),
    ("server.coordinator.agg_cells_merged_per_query", "count"),
    ("server.coordinator.agg_fallback_ratio", "ratio"),
    ("server.query_server.execute_us_p50", "us"),
    ("server.query_server.leaf_reads_per_query", "count"),
    ("server.query_server.leaf_cache_hit_ratio", "ratio"),
    ("server.query_server.template_cache_hit_ratio", "ratio"),
    ("server.query_server.leaves_pruned_ratio", "ratio"),
    ("server.query_server.column_decode_hit_ratio", "ratio"),
    ("server.query_server.io_wait_share", "ratio"),
    ("server.query_server.busy_share", "ratio"),
    ("trace.ingest_stage_coverage", "ratio"),
    ("trace.query_stage_coverage", "ratio"),
    ("trace.query_named_stage_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.loadgen_late_ms_p99", "ms"),
];

/// Tuples the traced run streams (beside the workload's warm-up tuples).
const TRACE_TUPLES: usize = 200_000;
/// Tuples the untraced run's paced probe offers (0.3 s worth).
const TRACE_PROBE_TUPLES: usize = 45_000;
/// Query operations the staged run executes.
const TRACE_OPS: usize = 300;
/// Tuples each layer replay is fed.
const REPLAY_TUPLES: usize = 100_000;
/// Tuples per staged ingest slice (one `op_id`).
const SLICE: usize = 4_096;
/// `max` passed to `IndexingServer::pump`, as the background pumps do.
const PUMP_BATCH: usize = 1_024;
/// Tuples per replayed ingest envelope and queue append: the default
/// `ingest_batch_size`.
const BATCH: usize = 128;

/// Collects `(name, value, samples, note)` rows and emits them in
/// [`PER_LAYER`] order.
#[derive(Default)]
struct Rows(Vec<(&'static str, f64, usize, String)>);

impl Rows {
    fn put(&mut self, name: &'static str, value: f64, samples: usize) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.0.push((name, value, samples, String::new()));
    }

    /// A p99, or the highest percentile `samples_ms` supports, with a note
    /// saying which when it is not the p99.
    fn put_p99(&mut self, name: &'static str, samples_ms: &[f64]) {
        let t = stats::tail(samples_ms, 0.99);
        self.put(name, t.value, t.samples);
        if t.percentile < 0.99 {
            let row = self.0.last_mut().expect("just pushed");
            row.3 = format!("p{} (sample supports no higher)", t.percentile * 100.0);
        }
    }

    fn metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let row = self.0.iter().find(|r| r.0 == name);
                Metric {
                    name,
                    unit,
                    value: row.map_or(0.0, |r| r.1),
                    samples: row.map_or(0, |r| r.2),
                    note: row.map_or_else(|| "not measured".into(), |r| r.3.clone()),
                }
            })
            .collect()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64().max(1e-12)
}

fn us(samples_ns: &[f64]) -> f64 {
    stats::median(samples_ns) / 1e3
}

/// Counters read before and after the whole-query pass.
#[derive(Default)]
struct QueryCounters {
    leaf_reads: u64,
    leaf_hits: u64,
    leaves_pruned: u64,
    template_reads: u64,
    template_hits: u64,
    decode_hits: u64,
    decode_misses: u64,
    io_wait_ns: u64,
    busy_ns: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    dfs_opens: u64,
    dfs_local_opens: u64,
    dfs_bytes: u64,
    queries: u64,
    subqueries: u64,
    redispatches: u64,
    agg_queries: u64,
    agg_cells: u64,
    agg_fallbacks: u64,
}

impl QueryCounters {
    fn read(ww: &Waterwheel) -> Self {
        let dfs = ww.dfs().stats();
        let mut c = QueryCounters {
            dfs_opens: dfs.opens.load(Ordering::Relaxed),
            dfs_local_opens: dfs.local_opens.load(Ordering::Relaxed),
            dfs_bytes: dfs.bytes_read.load(Ordering::Relaxed),
            ..QueryCounters::default()
        };
        for qs in ww.query_servers() {
            let s = qs.stats();
            c.leaf_reads += s.leaf_reads.load(Ordering::Relaxed);
            c.leaf_hits += s.leaf_cache_hits.load(Ordering::Relaxed);
            c.leaves_pruned += s.leaves_pruned.load(Ordering::Relaxed);
            c.template_reads += s.template_reads.load(Ordering::Relaxed);
            c.template_hits += s.template_cache_hits.load(Ordering::Relaxed);
            c.decode_hits += s.column_decode_hits.load(Ordering::Relaxed);
            c.decode_misses += s.column_decode_misses.load(Ordering::Relaxed);
            c.io_wait_ns += s.io_wait_ns.load(Ordering::Relaxed);
            c.busy_ns += s.busy_ns.load(Ordering::Relaxed);
            let cache = qs.cache().stats();
            c.cache_hits += cache.hits.load(Ordering::Relaxed);
            c.cache_misses += cache.misses.load(Ordering::Relaxed);
            c.cache_evictions += cache.evictions.load(Ordering::Relaxed);
        }
        let coordinator = ww.coordinator();
        let s = coordinator.stats();
        c.queries = s.queries.load(Ordering::Relaxed);
        c.subqueries = s.subqueries.load(Ordering::Relaxed);
        c.redispatches = s.redispatches.load(Ordering::Relaxed);
        c.agg_queries = s.agg_queries.load(Ordering::Relaxed);
        c.agg_cells = s.agg_cells_merged.load(Ordering::Relaxed);
        c.agg_fallbacks = s.agg_fallback_subqueries.load(Ordering::Relaxed);
        c
    }
}

/// What the staged run hands to the metric assembly.
#[derive(Default)]
struct Staged {
    pump_tuples: u64,
    pending_max: u64,
    failed: u64,
    attempted: u64,
    checked: u64,
    /// Whole-query latency minus the staged stage spans, per range op (ns,
    /// signed: the whole query fans subqueries out in parallel, the staged
    /// run does not).
    residual_ns: Vec<f64>,
    chunk_subqueries: u64,
    range_ops: u64,
    whole_pass: Duration,
    before: QueryCounters,
    after: QueryCounters,
}

fn chunks_flushed(server: &IndexingServer) -> u64 {
    server.stats().chunks_flushed.load(Ordering::Relaxed)
}

/// Staged ingest: the same inputs as the untraced run, on one thread.
fn staged_ingest(
    rec: &mut Recorder,
    ww: &Waterwheel,
    servers: &[Arc<IndexingServer>],
    tuples: &[Tuple],
    staged: &mut Staged,
) -> Result<()> {
    for (slice_id, slice) in tuples.chunks(SLICE).enumerate() {
        let op = slice_id as u64;
        rec.span("ingest.slice", op, |rec| -> Result<()> {
            let refused = rec.span("server.dispatcher.dispatch", op, |_| {
                slice
                    .iter()
                    .filter(|t| ww.insert((*t).clone()).is_err())
                    .count()
            });
            staged.failed += refused as u64;
            staged.pending_max = staged.pending_max.max(ww.pending_ingest());
            rec.span("server.dispatcher.flush_batches", op, |_| {
                ww.flush_ingest_batches()
            })?;
            for server in servers {
                loop {
                    let sealed_before = chunks_flushed(server);
                    let n = rec.span("server.indexing.pump", op, |_| server.pump(PUMP_BATCH))?;
                    if chunks_flushed(server) != sealed_before {
                        // This call crossed the chunk threshold and sealed
                        // inside `pump`; its span holds one flush plus at
                        // most PUMP_BATCH inserts.
                        rec.rename_last("server.indexing.pump_flush");
                    } else {
                        staged.pump_tuples += n as u64;
                    }
                    if n == 0 {
                        break;
                    }
                }
            }
            Ok(())
        })?;
    }
    staged.attempted += tuples.len() as u64;
    Ok(())
}

/// The closing seal of whatever is still in memory: clean flush spans.
fn staged_final_flush(rec: &mut Recorder, servers: &[Arc<IndexingServer>]) -> Result<()> {
    rec.span("ingest.final_flush", u64::MAX, |rec| {
        for server in servers {
            rec.span("server.indexing.flush", u64::MAX, |_| server.flush())?;
        }
        Ok(())
    })
}

/// Picks the query server a chunk subquery runs on when the harness plays
/// coordinator: a co-located one when there is one (what LADA prefers).
fn server_for(ww: &Waterwheel, chunk: ChunkId) -> usize {
    let servers = ww.query_servers();
    servers
        .iter()
        .position(|qs| qs.is_colocated(chunk, ww.cluster()))
        .unwrap_or(chunk.raw() as usize % servers.len())
}

/// Staged queries: every range op is first executed stage by stage on this
/// thread (pass A, spans), then the whole list is executed through
/// `Waterwheel::query` / `aggregate` (pass B, whose counters feed the
/// per-query layer metrics).
fn staged_queries(
    rec: &mut Recorder,
    ww: &Waterwheel,
    tuples: &[Tuple],
    ops: &[Op],
    warm_pass: bool,
    staged: &mut Staged,
) -> Result<()> {
    let now = tuples[tuples.len() - 1].ts;
    let servers = ww.indexing_servers();
    let coordinator = ww.coordinator();
    if warm_pass {
        let mut warm = drive::QueryRun::default();
        for op in ops {
            drive::issue(ww, op, op.times(now), None, &mut warm);
        }
        staged.failed += warm.failed;
        staged.attempted += warm.attempted;
    }
    // Pass A: stage by stage.
    let mut stage_ns = vec![0u64; ops.len()];
    for (i, op) in ops.iter().enumerate() {
        if op.kind != OpKind::Range {
            continue;
        }
        let id = i as u64;
        let times = op.times(now);
        let query = op.query(times);
        let first_span = rec.spans().len();
        let mut answer = rec.span("query.staged", id, |rec| -> Result<Vec<Tuple>> {
            let subqueries = rec.span("server.coordinator.decompose", id, |_| {
                coordinator.decompose(&query, QueryId(id))
            })?;
            let mut parts = Vec::with_capacity(subqueries.len());
            for sq in &subqueries {
                parts.push(match sq.target {
                    SubQueryTarget::InMemory(owner) => {
                        let server = servers
                            .iter()
                            .find(|s| s.id() == owner)
                            .ok_or(WwError::Unreachable("indexing server removed"))?;
                        rec.span("server.indexing.query_in_memory", id, |_| {
                            server.query_in_memory(sq)
                        })?
                    }
                    SubQueryTarget::Chunk(chunk) => {
                        staged.chunk_subqueries += 1;
                        let qs = &ww.query_servers()[server_for(ww, chunk)];
                        rec.span("server.query_server.execute", id, |_| qs.execute(sq, chunk))?
                    }
                });
            }
            Ok(rec.span("server.coordinator.merge", id, |_| parts.concat()))
        })?;
        stage_ns[i] = rec.spans()[first_span].duration_ns();
        staged.range_ops += 1;
        staged.attempted += 1;
        if i.is_multiple_of(CHECK_EVERY) {
            staged.checked += 1;
            inputs::sort_answer(&mut answer);
            if answer != inputs::expected_range(tuples, &op.keys, &times) {
                staged.failed += 1;
            }
        }
    }
    // Pass B: the real path.
    staged.before = QueryCounters::read(ww);
    let t0 = Instant::now();
    let mut whole = drive::QueryRun::default();
    for (i, op) in ops.iter().enumerate() {
        let id = i as u64;
        let reference = i.is_multiple_of(CHECK_EVERY).then_some(tuples);
        let name = match op.kind {
            OpKind::Range => "waterwheel.query",
            OpKind::Aggregate(_) => "waterwheel.aggregate",
        };
        let first_span = rec.spans().len();
        rec.span(name, id, |_| {
            drive::issue(ww, op, op.times(now), reference, &mut whole)
        });
        if op.kind == OpKind::Range {
            let whole_ns = rec.spans()[first_span].duration_ns();
            staged
                .residual_ns
                .push(whole_ns as f64 - stage_ns[i] as f64);
        }
    }
    staged.whole_pass = t0.elapsed();
    staged.after = QueryCounters::read(ww);
    staged.failed += whole.failed;
    staged.attempted += whole.attempted;
    staged.checked += whole.checked;
    Ok(())
}

/// A registry that acknowledges ingest verbs and pings without doing any
/// work, bound at `ids`: what a layer replay talks to when it wants the
/// layer's own cost and nothing behind it.
fn echo_registry(ids: &[ServerId]) -> Arc<HandlerRegistry> {
    let registry = Arc::new(HandlerRegistry::new());
    for &id in ids {
        registry.bind(id, |env: &Envelope| match &env.payload {
            Request::Ping => Ok(Response::Pong),
            Request::IngestBatch { tuples, .. } => Ok(Response::AckBatch {
                tuples: tuples.len() as u32,
                deduped: false,
            }),
            other => Err(WwError::InvalidState(format!(
                "replay handler got {other:?}"
            ))),
        });
    }
    registry
}

fn replay_dispatcher(
    rows: &mut Rows,
    tuples: &[Tuple],
    schema: PartitionSchema,
    cfg: &SystemConfig,
) {
    let ids: Vec<ServerId> = schema.entries.iter().map(|e| e.server).collect();
    let transport = Arc::new(InProcTransport::with_registry(None, echo_registry(&ids)));
    let id = ServerId(2_000);
    let dispatcher = Dispatcher::new(id, RpcClient::new(transport, id, cfg), schema, cfg);
    let t0 = Instant::now();
    let mut refused = 0usize;
    for t in tuples {
        refused += usize::from(dispatcher.dispatch(t.clone()).is_err());
    }
    refused += usize::from(dispatcher.flush_batches().is_err());
    let elapsed = t0.elapsed();
    assert_eq!(refused, 0, "echo handlers never refuse");
    rows.put(
        "server.dispatcher.dispatch_ns_per_tuple",
        elapsed.as_nanos() as f64 / tuples.len() as f64,
        tuples.len(),
    );
}

fn replay_wire(rows: &mut Rows, tuples: &[Tuple]) -> Result<()> {
    let deadline = Instant::now() + Duration::from_secs(60);
    let envelopes: Vec<Envelope> = tuples
        .chunks(BATCH)
        .enumerate()
        .map(|(seq, batch)| Envelope {
            src: ServerId(2_000),
            dst: ServerId(0),
            rpc_id: seq as u64,
            deadline,
            payload: Request::IngestBatch {
                seq: seq as u64,
                tuples: batch.to_vec(),
            },
        })
        .collect();
    let t0 = Instant::now();
    let frames: Vec<Vec<u8>> = envelopes
        .iter()
        .enumerate()
        .map(|(corr, env)| wire::encode_request(corr as u64, env))
        .collect();
    let encode = t0.elapsed();
    let bytes: usize = frames.iter().map(Vec::len).sum();
    let t0 = Instant::now();
    let mut decoded = 0usize;
    for frame in &frames {
        // The frame starts with its 4-byte length prefix; `decode_frame`
        // takes the body, as `read_frame` would hand it over.
        if let wire::Frame::Request { env, .. } = wire::decode_frame(&frame[4..])? {
            if let Request::IngestBatch { tuples, .. } = &env.payload {
                decoded += tuples.len();
            }
        }
    }
    let decode = t0.elapsed();
    assert_eq!(decoded, tuples.len(), "wire replay lost tuples");
    let n = tuples.len() as f64;
    rows.put(
        "net.wire.encode_ns_per_tuple",
        encode.as_nanos() as f64 / n,
        tuples.len(),
    );
    rows.put(
        "net.wire.decode_ns_per_tuple",
        decode.as_nanos() as f64 / n,
        tuples.len(),
    );
    rows.put(
        "net.wire.frame_bytes_per_tuple",
        bytes as f64 / n,
        tuples.len(),
    );
    Ok(())
}

fn ping_rtts_ns(rpc: &RpcClient, dst: ServerId, n: usize) -> Result<Vec<f64>> {
    rpc.call(dst, Request::Ping)?; // connect before timing
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let t0 = Instant::now();
        rpc.call(dst, Request::Ping)?;
        out.push(t0.elapsed().as_nanos() as f64);
    }
    Ok(out)
}

fn replay_transport(rows: &mut Rows, cfg: &SystemConfig, pings: usize) -> Result<()> {
    let echo = ServerId(0);
    let client = ServerId(5_000);
    let inproc = Arc::new(InProcTransport::with_registry(None, echo_registry(&[echo])));
    let rtts = ping_rtts_ns(&RpcClient::new(inproc, client, cfg), echo, pings)?;
    rows.put("net.transport.inproc_rtt_us_p50", us(&rtts), rtts.len());

    let wire_stats = Arc::new(WireStats::default());
    let server = TcpRpcServer::bind(
        "127.0.0.1:0",
        echo_registry(&[echo]),
        Arc::clone(&wire_stats),
        None,
    )?;
    let tcp = TcpTransport::with_wire_stats(wire_stats);
    tcp.set_default_route(Some(server.local_addr()));
    let rtts = ping_rtts_ns(&RpcClient::new(Arc::new(tcp), client, cfg), echo, pings)?;
    rows.put("net.transport.tcp_rtt_us_p50", us(&rtts), rtts.len());
    Ok(())
}

/// Appends `tuples` in [`BATCH`]-sized batches, then polls them all back.
/// Returns `(append, poll)` wall times.
fn append_and_poll(mq: &MessageQueue, tuples: &[Tuple]) -> Result<(Duration, Duration)> {
    mq.create_topic("replay", 1)?;
    let t0 = Instant::now();
    for batch in tuples.chunks(BATCH) {
        mq.append_batch("replay", 0, batch.iter().cloned())?;
    }
    let append = t0.elapsed();
    let mut consumer = Consumer::new(mq.clone(), "replay", 0, 0);
    let t0 = Instant::now();
    let mut polled = 0usize;
    loop {
        let records = consumer.poll(PUMP_BATCH)?;
        if records.is_empty() {
            break;
        }
        polled += records.len();
    }
    let poll = t0.elapsed();
    assert_eq!(polled, tuples.len(), "queue replay lost tuples");
    Ok((append, poll))
}

fn count_files(dir: &Path) -> usize {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .map(|e| {
                let path = e.path();
                if path.is_dir() {
                    count_files(&path)
                } else {
                    1
                }
            })
            .sum()
    })
}

fn replay_queue(rows: &mut Rows, tuples: &[Tuple], cfg: &SystemConfig, dir: &Path) -> Result<()> {
    let n = tuples.len() as f64;
    let (append, poll) = append_and_poll(&MessageQueue::new(), tuples)?;
    rows.put(
        "mq.append_ns_per_tuple",
        append.as_nanos() as f64 / n,
        tuples.len(),
    );
    rows.put(
        "mq.poll_ns_per_tuple",
        poll.as_nanos() as f64 / n,
        tuples.len(),
    );

    // The same appends through the journaled queue: what the WAL adds.
    let root = dir.join("wal-replay");
    let _ = std::fs::remove_dir_all(&root);
    let durable = MessageQueue::durable_with(&root, FsyncPolicy::Never, cfg.wal_segment_bytes)?;
    let (append, _) = append_and_poll(&durable, tuples)?;
    durable.sync()?;
    let wal = durable.wal_stats();
    rows.put(
        "wal.append_ns_per_tuple",
        append.as_nanos() as f64 / n,
        tuples.len(),
    );
    rows.put(
        "wal.bytes_per_tuple",
        wal.bytes.load(Ordering::Relaxed) as f64 / n,
        tuples.len(),
    );
    rows.put("wal.fsyncs", wal.fsyncs.load(Ordering::Relaxed) as f64, 1);
    rows.put("wal.segments", count_files(&root) as f64, 1);
    drop(durable);
    let _ = std::fs::remove_dir_all(&root);
    Ok(())
}

/// Pump cost with the aggregate wheel on minus off: the wheel is not
/// reachable from outside `waterwheel-server`, so its cost is taken as the
/// difference between two otherwise identical pump runs.
fn replay_wheel_overhead(rows: &mut Rows, spec: &Spec, tuples: &[Tuple], dir: &Path) -> Result<()> {
    let mut per_tuple = [0.0f64; 2];
    for (slot, enabled) in [(0, false), (1, true)] {
        let root = dir.join(format!("wheel-{enabled}"));
        let mut cfg = sut::config(&spec.deployment);
        cfg.agg_summaries_enabled = enabled;
        // In-process, volatile: only the pump differs between the two.
        let mut deployment = spec.deployment;
        deployment.tcp_durable = false;
        let ww = sut::build_with(&root, &deployment, cfg)?;
        for t in tuples {
            ww.insert(t.clone())?;
        }
        ww.flush_ingest_batches()?;
        let t0 = Instant::now();
        let mut pumped = 0usize;
        loop {
            let n = ww.pump_all(PUMP_BATCH)?;
            if n == 0 {
                break;
            }
            pumped += n;
        }
        per_tuple[slot] = t0.elapsed().as_nanos() as f64 / pumped.max(1) as f64;
        drop(ww);
        let _ = std::fs::remove_dir_all(&root);
    }
    rows.put(
        "server.indexing.agg_pump_overhead_ns_per_tuple",
        per_tuple[1] - per_tuple[0],
        tuples.len(),
    );
    Ok(())
}

/// Nanoseconds per returned row of `TupleIndex::query` over `ops`' key
/// ranges (all timestamps), optionally while `writer` keeps inserting.
fn mem_scan_ns_per_row(tree: &TemplateBTree, ops: &[Op]) -> (f64, usize) {
    let times = TimeInterval::full();
    let mut rows = 0usize;
    let t0 = Instant::now();
    for op in ops {
        rows += std::hint::black_box(tree.query(&op.keys, &times, None)).len();
    }
    (t0.elapsed().as_nanos() as f64 / rows.max(1) as f64, rows)
}

/// Feeds the template B+ tree the stream, sealing at the chunk threshold
/// as an indexing server would; returns the sealed trees for the storage
/// replays.
fn replay_template(
    rows: &mut Rows,
    tuples: &[Tuple],
    ops: &[Op],
    cfg: &SystemConfig,
) -> Vec<SealedTree> {
    let index_cfg = IndexConfig::from_system(cfg);
    let tree = TemplateBTree::new(KeyInterval::full(), index_cfg);
    let mut sealed = Vec::new();
    let mut seal_ns = Vec::new();
    let mut insert = Duration::ZERO;
    let mut scanned = false;
    let mut t0 = Instant::now();
    for t in tuples {
        tree.insert(t.clone());
        if tree.byte_size() >= cfg.chunk_size_bytes {
            insert += t0.elapsed();
            if !scanned {
                // A full tree, just before it seals: scan it alone, then
                // again while one thread keeps inserting into it.
                scanned = true;
                let (alone, n) = mem_scan_ns_per_row(&tree, ops);
                rows.put("index.template.mem_scan_ns_per_row", alone, n);
                let stop = AtomicBool::new(false);
                let (busy, n) = std::thread::scope(|scope| {
                    scope.spawn(|| {
                        for t in tuples.iter().cycle() {
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                            tree.insert(t.clone());
                        }
                    });
                    let out = mem_scan_ns_per_row(&tree, ops);
                    stop.store(true, Ordering::Relaxed);
                    out
                });
                rows.put("index.template.mem_scan_under_insert_ns_per_row", busy, n);
            }
            let s0 = Instant::now();
            let tree_sealed = tree.seal().expect("a full tree seals");
            seal_ns.push(s0.elapsed().as_nanos() as f64);
            sealed.push(tree_sealed);
            t0 = Instant::now();
        }
    }
    insert += t0.elapsed();
    rows.put(
        "index.template.insert_ns_per_tuple",
        insert.as_nanos() as f64 / tuples.len() as f64,
        tuples.len(),
    );
    rows.put("index.template.skewness_end", tree.skewness(), 1);
    rows.put(
        "index.template.template_updates",
        tree.stats().template_updates as f64,
        1,
    );
    if let Some(rest) = tree.seal() {
        sealed.push(rest);
    }
    rows.put(
        "index.template.seal_ms_p50",
        stats::median(&seal_ns) / 1e6,
        seal_ns.len(),
    );
    sealed
}

fn replay_storage(
    rows: &mut Rows,
    sealed: &[SealedTree],
    ops: &[Op],
    cfg: &SystemConfig,
    dir: &Path,
) -> Result<()> {
    let tuples: usize = sealed.iter().map(|s| s.count).sum();
    let opts = ChunkWriteOptions {
        format_version: cfg.chunk_format_version,
        compression: cfg.chunk_compression,
        measure: Some(&inputs::measure),
    };
    // storage.chunk: serialize, parse the index back, read the pages back.
    let t0 = Instant::now();
    let images: Vec<Vec<u8>> = sealed
        .iter()
        .map(|s| write_chunk_opts(s, None, &opts))
        .collect();
    let write = t0.elapsed();
    let bytes: usize = images.iter().map(Vec::len).sum();
    rows.put(
        "storage.chunk.write_ns_per_tuple",
        write.as_nanos() as f64 / tuples.max(1) as f64,
        tuples,
    );
    rows.put(
        "storage.chunk.bytes_per_tuple",
        bytes as f64 / tuples.max(1) as f64,
        tuples,
    );
    let mut load_ns = Vec::new();
    let mut page_bytes = 0usize;
    let mut page_read = Duration::ZERO;
    let mut pages: Vec<(Vec<u8>, u32)> = Vec::new();
    for image in &images {
        let reader = ChunkReader::new(image.as_slice());
        let t0 = Instant::now();
        let index = reader.load_index()?;
        load_ns.push(t0.elapsed().as_nanos() as f64);
        let t0 = Instant::now();
        let raw = reader.read_leaf_pages(&index, 0, index.leaves.len() - 1)?;
        page_read += t0.elapsed();
        page_bytes += raw.iter().map(Vec::len).sum::<usize>();
        pages.extend(raw.into_iter().zip(index.leaves.iter().map(|l| l.count)));
    }
    rows.put(
        "storage.chunk.load_index_us_p50",
        us(&load_ns),
        load_ns.len(),
    );
    rows.put(
        "storage.chunk.read_leaf_pages_mb_per_s",
        page_bytes as f64 / 1e6 / secs(page_read),
        pages.len(),
    );

    // storage.dfs: the same images through the simulated DFS.
    let root = dir.join("dfs-replay");
    let _ = std::fs::remove_dir_all(&root);
    let dfs = SimDfs::new(
        &root,
        Cluster::new(4),
        cfg.dfs_replication.min(4),
        LatencyModel::default(),
    )?;
    let t0 = Instant::now();
    for (i, image) in images.iter().enumerate() {
        dfs.write_chunk(ChunkId(i as u64), image)?;
    }
    rows.put(
        "storage.dfs.write_mb_per_s",
        bytes as f64 / 1e6 / secs(t0.elapsed()),
        images.len(),
    );
    let mut open_ns = Vec::new();
    for (i, image) in images.iter().enumerate() {
        let t0 = Instant::now();
        let file = dfs.open(ChunkId(i as u64), None)?;
        std::hint::black_box(file.read_range(0, 4_096.min(image.len() as u64))?);
        open_ns.push(t0.elapsed().as_nanos() as f64);
    }
    rows.put("storage.dfs.open_us_p50", us(&open_ns), open_ns.len());
    drop(dfs);
    let _ = std::fs::remove_dir_all(&root);

    // index.columnar: the leaf codec and both scan paths, leaf by leaf.
    let leaf_rows: usize = sealed
        .iter()
        .flat_map(|s| &s.leaves)
        .map(|l| l.entries.len())
        .sum();
    let t0 = Instant::now();
    for leaf in sealed.iter().flat_map(|s| &s.leaves) {
        std::hint::black_box(columnar::encode_leaf(&leaf.entries, cfg.chunk_compression));
    }
    rows.put(
        "index.columnar.encode_rows_per_s",
        leaf_rows as f64 / secs(t0.elapsed()),
        leaf_rows,
    );
    if cfg.chunk_format_version == 2 {
        let mut scratch = ScanScratch::new();
        let page_rows: usize = pages.iter().map(|(_, n)| *n as usize).sum();
        let t0 = Instant::now();
        for (page, count) in &pages {
            std::hint::black_box(columnar::decode_leaf_with(page, *count, &mut scratch)?);
        }
        rows.put(
            "index.columnar.decode_rows_per_s",
            page_rows as f64 / secs(t0.elapsed()),
            page_rows,
        );
        // Each leaf is scanned under one of the workload's key ranges.
        let times = TimeInterval::full();
        let keys_of = |i: usize| ops[i % ops.len()].keys;
        let mut selected = 0usize;
        let t0 = Instant::now();
        for (i, (page, count)) in pages.iter().enumerate() {
            selected +=
                columnar::scan_leaf_with(page, *count, &keys_of(i), &times, true, &mut scratch)?
                    .len();
        }
        rows.put(
            "index.columnar.scan_encoded_rows_per_s",
            page_rows as f64 / secs(t0.elapsed()),
            page_rows,
        );
        rows.put(
            "index.columnar.selected_row_ratio",
            ratio(selected as f64, page_rows as f64),
            page_rows,
        );
        let decoded: Vec<DecodedLeaf> = pages
            .iter()
            .map(|(page, count)| DecodedLeaf::decode(page, *count, true, &mut scratch))
            .collect::<Result<_>>()?;
        let t0 = Instant::now();
        let mut selected_hot = 0usize;
        for (i, leaf) in decoded.iter().enumerate() {
            selected_hot += leaf.scan(&keys_of(i), &times, &mut scratch)?.len();
        }
        rows.put(
            "index.columnar.scan_decoded_rows_per_s",
            page_rows as f64 / secs(t0.elapsed()),
            page_rows,
        );
        assert_eq!(selected, selected_hot, "encoded and decoded scans disagree");
    }

    // storage.cache: lookups of resident encoded leaves, 64 at a time.
    let cache = BlockCache::with_shards(cfg.cache_capacity_bytes.max(bytes * 2), cfg.cache_shards);
    let keys: Vec<BlockKey> = (0..pages.len())
        .map(|i| BlockKey::Leaf(ChunkId(0), i as u32))
        .collect();
    for (key, (page, _)) in keys.iter().zip(&pages) {
        cache.put(*key, Block::Column(Arc::new(page.clone())));
    }
    let mut get_ns = Vec::new();
    for group in keys.chunks(64) {
        let t0 = Instant::now();
        for key in group {
            std::hint::black_box(cache.get(key));
        }
        get_ns.push(t0.elapsed().as_nanos() as f64 / group.len() as f64);
    }
    rows.put(
        "storage.cache.get_ns_p50",
        stats::median(&get_ns),
        keys.len(),
    );
    Ok(())
}

fn replay_meta(rows: &mut Rows, ww: &Waterwheel, ops: &[Op], now: u64) {
    let mut chunks_ns = Vec::new();
    let mut memory_ns = Vec::new();
    let mut matched = 0usize;
    for op in ops {
        let region = Region::new(op.keys, op.times(now));
        let t0 = Instant::now();
        matched += std::hint::black_box(ww.metadata().chunks_overlapping(&region)).len();
        chunks_ns.push(t0.elapsed().as_nanos() as f64);
        let t0 = Instant::now();
        std::hint::black_box(ww.metadata().memory_regions_overlapping(&region));
        memory_ns.push(t0.elapsed().as_nanos() as f64);
    }
    rows.put("meta.chunks_overlapping_us_p50", us(&chunks_ns), ops.len());
    rows.put(
        "meta.chunks_matched_per_query",
        ratio(matched as f64, ops.len() as f64),
        ops.len(),
    );
    rows.put("meta.memory_regions_us_p50", us(&memory_ns), ops.len());
}

/// Runs the traced run of `spec` under `dir`; writes the spans to `out`
/// when given. Returns every per-layer metric.
pub fn run(
    spec: &Spec,
    seed: u64,
    scale: Scale,
    dir: &Path,
    out: Option<&Path>,
) -> Result<Outcome> {
    let mut rows = Rows::default();
    let warm = scale.of(spec.warm, 2_000);
    let n = scale.of(TRACE_TUPLES, 10_000);
    let n_ops = scale.of(TRACE_OPS, 50);
    let mut paced = *spec;
    let probe_rate = e2e::paced_rate(e2e::PROBE_PER_S, &scale);
    let (offered, probe_n) = match spec.main {
        Main::Mixed { offered_per_s } => {
            let offered = e2e::paced_rate(offered_per_s, &scale);
            paced.events_per_s = offered as u64;
            (Some(offered), 0)
        }
        _ => (None, scale.of(TRACE_PROBE_TUPLES, 2_000)),
    };
    let Inputs { data, ops } = e2e::generate(&paced, warm + n + probe_n, n_ops, seed);
    let cfg = sut::config(&spec.deployment);

    // Part 1 — untraced, with the workload's own drivers: the saturating
    // stream then the paced probe, or for `mixed-fresh` its paced stream
    // beside the query client.
    let root = dir.join("untraced");
    let ww = sut::build(&root, &spec.deployment)?;
    sut::warm_and_balance(&ww, &data.tuples[..warm])?;
    ww.start_pumps();
    let (untraced, paced_run) = match offered {
        Some(rate) => (
            e2e::mixed_main(&ww, &data.tuples, warm, &ops, rate as f64).0,
            None,
        ),
        None => {
            let (stream, probe) =
                e2e::stream_and_probe(&ww, &data.tuples, warm, n, probe_rate as f64);
            (stream, Some(probe))
        }
    };
    let untraced_rate = (untraced.attempted - untraced.failed) as f64 / secs(untraced.elapsed);
    let paced_run = paced_run.as_ref().unwrap_or(&untraced);
    let lags_ms = paced_run.observations.lags_ms();
    rows.put(
        "server.indexing.visibility_lag_ms_p50",
        stats::median(&lags_ms),
        lags_ms.len(),
    );
    rows.put_p99("server.indexing.visibility_lag_ms_p99", &lags_ms);
    rows.put("mq.lag_tuples_max", untraced.backlog_max as f64, 1);
    rows.put("mq.lag_tuples_end", untraced.backlog_end as f64, 1);
    rows.put_p99("trace.loadgen_late_ms_p99", &paced_run.late_ms);
    // The staged run and the replays use the stream without the probe tail.
    let tuples = &data.tuples[..warm + n];
    let mut attempted = untraced.attempted + paced_run.attempted;
    let mut failed = untraced.failed + paced_run.failed;
    drop(ww);
    let _ = std::fs::remove_dir_all(&root);

    // Part 2 — staged, one thread, spans around every call.
    let root = dir.join("staged");
    let ww = sut::build(&root, &spec.deployment)?;
    sut::warm_and_balance(&ww, &tuples[..warm])?;
    let servers = ww.indexing_servers();
    let schema = ww
        .metadata()
        .partition()
        .expect("a built system has a partition schema");
    let mut staged = Staged::default();
    let mut rec = Recorder::new();
    staged_ingest(&mut rec, &ww, &servers, &tuples[warm..], &mut staged)?;
    let ingest_wall_ns = rec.total_ns("ingest.slice");
    // Query workloads query sealed chunks; the others query what the
    // stream left behind, part in memory and part sealed, and seal after.
    let (sealed_first, warm_pass) = match spec.main {
        Main::Query { warm_pass } => (true, warm_pass),
        _ => (false, false),
    };
    if sealed_first {
        staged_final_flush(&mut rec, &servers)?;
    }
    let chunks_at_query_time = ww.metadata().chunk_count();
    staged_queries(&mut rec, &ww, tuples, &ops, warm_pass, &mut staged)?;
    replay_meta(&mut rows, &ww, &ops, tuples[tuples.len() - 1].ts);
    if !sealed_first {
        staged_final_flush(&mut rec, &servers)?;
    }
    let visible = ww.total_visible();
    failed += visible.abs_diff(warm + n) as u64;
    let rec = &rec;
    attempted += staged.attempted;
    failed += staged.failed;

    let self_ns = rec.self_times_ns();
    let stage = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64;
    let ingest_stages = [
        "server.dispatcher.dispatch",
        "server.dispatcher.flush_batches",
        "server.indexing.pump",
        "server.indexing.pump_flush",
    ];
    rows.put(
        "trace.ingest_stage_coverage",
        ratio(
            ingest_stages.iter().map(|s| stage(s)).sum(),
            ingest_wall_ns as f64,
        ),
        rec.durations_ns("ingest.slice").len(),
    );
    rows.put(
        "trace.overhead_ratio",
        ratio(
            n as f64 / (ingest_wall_ns as f64 / 1e9).max(1e-12),
            untraced_rate,
        ),
        1,
    );
    let query_stages = [
        "server.coordinator.decompose",
        "server.indexing.query_in_memory",
        "server.query_server.execute",
        "server.coordinator.merge",
    ];
    // The residual — `Waterwheel::query` minus the staged stages: fan-out,
    // worker hand-off, merge, sort — is itself a stage, so the stages sum
    // to the whole unless the parallel fan-out beat the serial replay.
    let whole_range_ns = rec.total_ns("waterwheel.query") as f64;
    let named: f64 = query_stages.iter().map(|s| stage(s)).sum();
    let residual: f64 = staged.residual_ns.iter().map(|r| r.max(0.0)).sum();
    rows.put(
        "trace.query_stage_coverage",
        ratio(named + residual, whole_range_ns),
        staged.range_ops as usize,
    );
    rows.put(
        "trace.query_named_stage_share",
        ratio(named, whole_range_ns),
        staged.range_ops as usize,
    );

    // Layer metrics from the staged system's spans and counters.
    let disp_batches: u64 = ww.dispatchers().iter().map(|d| d.batches_sent()).sum();
    let disp_tuples: u64 = ww.dispatchers().iter().map(|d| d.batch_tuples()).sum();
    rows.put("server.dispatcher.batches_sent", disp_batches as f64, 1);
    rows.put(
        "server.dispatcher.tuples_per_batch",
        ratio(disp_tuples as f64, disp_batches as f64),
        disp_batches as usize,
    );
    rows.put(
        "server.dispatcher.pending_max",
        staged.pending_max as f64,
        1,
    );
    let rpc = ww.rpc_totals();
    rows.put("net.transport.rpc_sent", rpc.sent as f64, 1);
    rows.put("net.transport.rpc_retried", rpc.retried as f64, 1);
    rows.put("net.transport.rpc_timed_out", rpc.timed_out as f64, 1);
    rows.put(
        "net.transport.wire_bytes_out",
        ww.wire_totals().bytes_out as f64,
        1,
    );

    let pump_ns = rec.total_ns("server.indexing.pump") as f64;
    let mut flush_ns = rec.durations_ns("server.indexing.pump_flush");
    flush_ns.extend(rec.durations_ns("server.indexing.flush"));
    let flush_total: f64 = flush_ns.iter().sum();
    let (ingested, side_stored) = servers.iter().fold((0u64, 0u64), |(i, s), server| {
        (
            i + server.stats().ingested.load(Ordering::Relaxed),
            s + server.stats().side_stored.load(Ordering::Relaxed),
        )
    });
    rows.put(
        "server.indexing.pump_ns_per_tuple",
        ratio(pump_ns, staged.pump_tuples as f64),
        staged.pump_tuples as usize,
    );
    rows.put(
        "server.indexing.flushes",
        servers.iter().map(|s| chunks_flushed(s)).sum::<u64>() as f64,
        1,
    );
    rows.put(
        "server.indexing.flush_ms_p50",
        stats::median(&flush_ns) / 1e6,
        flush_ns.len(),
    );
    rows.put(
        "server.indexing.flush_ms_max",
        flush_ns.iter().copied().fold(0.0, f64::max) / 1e6,
        flush_ns.len(),
    );
    rows.put(
        "server.indexing.flush_share",
        ratio(flush_total, flush_total + pump_ns),
        flush_ns.len(),
    );
    rows.put(
        "server.indexing.side_stored_ratio",
        ratio(side_stored as f64, (ingested + side_stored) as f64),
        (ingested + side_stored) as usize,
    );

    let (b, a) = (&staged.before, &staged.after);
    let executed = (a.queries - b.queries) as f64;
    let d = |after: u64, before: u64| (after - before) as f64;
    rows.put(
        "storage.dfs.opens_per_query",
        ratio(d(a.dfs_opens, b.dfs_opens), executed),
        executed as usize,
    );
    rows.put(
        "storage.dfs.bytes_read_per_query",
        ratio(d(a.dfs_bytes, b.dfs_bytes), executed),
        executed as usize,
    );
    rows.put(
        "storage.dfs.local_open_ratio",
        ratio(
            d(a.dfs_local_opens, b.dfs_local_opens),
            d(a.dfs_opens, b.dfs_opens),
        ),
        d(a.dfs_opens, b.dfs_opens) as usize,
    );
    let lookups = d(a.cache_hits, b.cache_hits) + d(a.cache_misses, b.cache_misses);
    rows.put(
        "storage.cache.hit_ratio",
        ratio(d(a.cache_hits, b.cache_hits), lookups),
        lookups as usize,
    );
    rows.put(
        "storage.cache.evictions",
        d(a.cache_evictions, b.cache_evictions),
        1,
    );
    rows.put(
        "storage.cache.used_bytes_end",
        ww.query_servers()
            .iter()
            .map(|qs| qs.cache().used_bytes())
            .sum::<usize>() as f64,
        1,
    );
    rows.put(
        "server.coordinator.decompose_us_p50",
        us(&rec.durations_ns("server.coordinator.decompose")),
        staged.range_ops as usize,
    );
    rows.put(
        "server.coordinator.subqueries_per_query",
        ratio(d(a.subqueries, b.subqueries), executed),
        executed as usize,
    );
    rows.put(
        "server.coordinator.pruned_chunk_ratio",
        1.0 - ratio(
            staged.chunk_subqueries as f64,
            (staged.range_ops * chunks_at_query_time as u64) as f64,
        ),
        staged.range_ops as usize,
    );
    rows.put(
        "server.coordinator.redispatches",
        d(a.redispatches, b.redispatches),
        1,
    );
    rows.put(
        "server.coordinator.residual_us_p50",
        us(&staged.residual_ns),
        staged.residual_ns.len(),
    );
    let whole_ms: Vec<f64> = rec
        .durations_ns("waterwheel.query")
        .iter()
        .map(|ns| ns / 1e6)
        .collect();
    rows.put_p99("server.coordinator.query_ms_p99", &whole_ms);
    let aggregates = d(a.agg_queries, b.agg_queries);
    rows.put(
        "server.coordinator.agg_cells_merged_per_query",
        ratio(d(a.agg_cells, b.agg_cells), aggregates),
        aggregates as usize,
    );
    rows.put(
        "server.coordinator.agg_fallback_ratio",
        ratio(d(a.agg_fallbacks, b.agg_fallbacks), aggregates),
        aggregates as usize,
    );
    let leaf_reads = d(a.leaf_reads, b.leaf_reads);
    let leaf_hits = d(a.leaf_hits, b.leaf_hits);
    let pruned = d(a.leaves_pruned, b.leaves_pruned);
    let execute_ns = rec.durations_ns("server.query_server.execute");
    rows.put(
        "server.query_server.execute_us_p50",
        us(&execute_ns),
        execute_ns.len(),
    );
    rows.put(
        "server.query_server.leaf_reads_per_query",
        ratio(leaf_reads, executed),
        executed as usize,
    );
    rows.put(
        "server.query_server.leaf_cache_hit_ratio",
        ratio(leaf_hits, leaf_hits + leaf_reads),
        (leaf_hits + leaf_reads) as usize,
    );
    let template_reads = d(a.template_reads, b.template_reads);
    let template_hits = d(a.template_hits, b.template_hits);
    rows.put(
        "server.query_server.template_cache_hit_ratio",
        ratio(template_hits, template_hits + template_reads),
        (template_hits + template_reads) as usize,
    );
    rows.put(
        "server.query_server.leaves_pruned_ratio",
        ratio(pruned, pruned + leaf_hits + leaf_reads),
        (pruned + leaf_hits + leaf_reads) as usize,
    );
    let decode_hits = d(a.decode_hits, b.decode_hits);
    let decode_misses = d(a.decode_misses, b.decode_misses);
    rows.put(
        "server.query_server.column_decode_hit_ratio",
        ratio(decode_hits, decode_hits + decode_misses),
        (decode_hits + decode_misses) as usize,
    );
    let busy = d(a.busy_ns, b.busy_ns);
    rows.put(
        "server.query_server.io_wait_share",
        ratio(d(a.io_wait_ns, b.io_wait_ns), busy),
        executed as usize,
    );
    rows.put(
        "server.query_server.busy_share",
        ratio(busy, staged.whole_pass.as_nanos() as f64),
        executed as usize,
    );
    if let Some(path) = out {
        std::fs::write(path, rec.to_json())?;
    }
    let span_count = rec.spans().len();
    drop(servers);
    drop(ww);
    let _ = std::fs::remove_dir_all(&root);

    // Part 3 — layer replays on the same tuples and operations.
    let replay = &tuples[..tuples.len().min(scale.of(REPLAY_TUPLES, 10_000))];
    replay_dispatcher(&mut rows, replay, schema, &cfg);
    replay_wire(&mut rows, replay)?;
    replay_transport(&mut rows, &cfg, scale.of(2_000, 200))?;
    replay_queue(&mut rows, replay, &cfg, dir)?;
    replay_wheel_overhead(&mut rows, spec, replay, dir)?;
    let sealed = replay_template(&mut rows, replay, &ops, &cfg);
    replay_storage(&mut rows, &sealed, &ops, &cfg, dir)?;

    Ok(Outcome {
        metrics: rows.metrics(),
        attempted,
        failed,
        facts: vec![
            ("traced_tuples".into(), n.to_string()),
            ("traced_ops".into(), n_ops.to_string()),
            ("replay_tuples".into(), replay.len().to_string()),
            ("spans".into(), span_count.to_string()),
            ("answers_checked".into(), staged.checked.to_string()),
            (
                "untraced_tuples_per_s".into(),
                format!("{untraced_rate:.0}"),
            ),
        ],
    })
}
