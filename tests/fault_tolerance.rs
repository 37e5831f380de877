//! System-level fault tolerance (paper §V): crashes of indexing servers,
//! query servers, and full-process restarts must never lose flushed data or
//! replayable in-memory data, and must never duplicate tuples.

use std::sync::atomic::Ordering;
use waterwheel::prelude::*;
use waterwheel::server::SystemMetrics;

fn fresh_root(name: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!("ww-ft-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn cfg() -> SystemConfig {
    let mut cfg = SystemConfig::default();
    cfg.chunk_size_bytes = 32 * 1024;
    cfg.indexing_servers = 2;
    cfg.query_servers = 3;
    cfg
}

fn all() -> Query {
    Query::range(KeyInterval::full(), TimeInterval::full())
}

fn spread_key(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[test]
fn indexing_crash_at_every_phase_loses_nothing() {
    for crash_after in [100u64, 1_500, 2_999] {
        let ww = Waterwheel::builder(fresh_root(&format!("ix-{crash_after}")))
            .config(cfg())
            .build()
            .unwrap();
        for i in 0..3_000u64 {
            ww.insert(Tuple::bare(spread_key(i), 1_000 + i)).unwrap();
            if i == crash_after {
                ww.drain().unwrap();
                let victim = ww.indexing_servers()[0].id();
                ww.crash_indexing_server(victim).unwrap();
                ww.recover_indexing_server(victim).unwrap();
            }
        }
        ww.drain().unwrap();
        let got = ww.query(&all()).unwrap().tuples.len();
        assert_eq!(got, 3_000, "crash after {crash_after}: lost/duplicated");
    }
}

#[test]
fn repeated_crashes_of_the_same_server_are_idempotent() {
    let ww = Waterwheel::builder(fresh_root("repeat"))
        .config(cfg())
        .build()
        .unwrap();
    for i in 0..2_000u64 {
        ww.insert(Tuple::bare(spread_key(i), 1_000 + i)).unwrap();
    }
    ww.drain().unwrap();
    let victim = ww.indexing_servers()[1].id();
    for _ in 0..3 {
        ww.crash_indexing_server(victim).unwrap();
        ww.recover_indexing_server(victim).unwrap();
        ww.drain().unwrap();
    }
    assert_eq!(ww.query(&all()).unwrap().tuples.len(), 2_000);
}

#[test]
fn query_server_failures_degrade_gracefully() {
    let ww = Waterwheel::builder(fresh_root("qs"))
        .config(cfg())
        .build()
        .unwrap();
    for i in 0..2_000u64 {
        ww.insert(Tuple::bare(spread_key(i), 1_000 + i)).unwrap();
    }
    ww.drain().unwrap();
    ww.flush_all().unwrap();

    // Fail servers one by one; queries keep answering until none remain.
    let servers = ww.query_servers();
    for down in 0..servers.len() {
        servers[down].set_failed(true);
        if down + 1 < servers.len() {
            let got = ww.query(&all()).unwrap().tuples.len();
            assert_eq!(got, 2_000, "with {} servers down", down + 1);
        } else {
            assert!(ww.query(&all()).is_err(), "all down must error");
        }
    }
    // Recovery restores service.
    servers[0].set_failed(false);
    assert_eq!(ww.query(&all()).unwrap().tuples.len(), 2_000);
    assert!(
        ww.coordinator()
            .stats()
            .redispatches
            .load(Ordering::Relaxed)
            > 0
    );
}

#[test]
fn process_restart_preserves_all_flushed_data() {
    let root = fresh_root("restart");
    let inserted = 4_000u64;
    {
        let ww = Waterwheel::builder(&root).config(cfg()).build().unwrap();
        for i in 0..inserted {
            ww.insert(Tuple::bare(spread_key(i), 1_000 + i)).unwrap();
        }
        ww.drain().unwrap();
        ww.flush_all().unwrap();
    }
    // Restart twice to make sure recovery is itself recoverable.
    for round in 0..2 {
        let ww = Waterwheel::builder(&root).config(cfg()).build().unwrap();
        let got = ww.query(&all()).unwrap().tuples.len();
        assert_eq!(got as u64, inserted, "restart round {round}");
    }
}

#[test]
fn crash_between_insert_and_pump_replays_from_queue() {
    // Tuples sitting in the (durable) queue that were never pumped must
    // appear after recovery: the consumer starts from the durable offset.
    let ww = Waterwheel::builder(fresh_root("queue-replay"))
        .config(cfg())
        .build()
        .unwrap();
    for i in 0..500u64 {
        ww.insert(Tuple::bare(spread_key(i), 1_000 + i)).unwrap();
    }
    ww.drain().unwrap();
    // These 500 are only in the queue when the server crashes.
    for i in 500..1_000u64 {
        ww.insert(Tuple::bare(spread_key(i), 1_000 + i)).unwrap();
    }
    for server in ww.indexing_servers() {
        ww.crash_indexing_server(server.id()).unwrap();
        ww.recover_indexing_server(server.id()).unwrap();
    }
    ww.drain().unwrap();
    assert_eq!(ww.query(&all()).unwrap().tuples.len(), 1_000);
}

#[test]
fn coordinator_restart_preserves_service_and_state() {
    // Paper §V: a failed coordinator is simply replaced; all state needed
    // to answer queries lives in the metadata service.
    let ww = Waterwheel::builder(fresh_root("coord"))
        .config(cfg())
        .build()
        .unwrap();
    for i in 0..2_000u64 {
        ww.insert(Tuple::bare(spread_key(i), 1_000 + i)).unwrap();
    }
    ww.drain().unwrap();
    ww.flush_all().unwrap();
    let before = ww.query(&all()).unwrap().tuples.len();
    ww.restart_coordinator();
    let after = ww.query(&all()).unwrap().tuples.len();
    assert_eq!(before, after);
    assert_eq!(after, 2_000);
    // The fresh coordinator starts with clean stats.
    assert_eq!(ww.coordinator().stats().queries.load(Ordering::Relaxed), 1);
}

#[test]
fn durable_queue_survives_full_process_restart_with_unflushed_data() {
    // With the durable queue enabled (Kafka's contract, §V), even tuples
    // that never reached a chunk are recovered after a process restart by
    // replaying the on-disk partition logs from the durable offsets.
    let root = fresh_root("durable-queue");
    let inserted = 3_000u64;
    {
        let ww = Waterwheel::builder(&root)
            .config(cfg())
            .durable_queue()
            .build()
            .unwrap();
        let flushed = inserted / 2;
        for i in 0..flushed {
            ww.insert(Tuple::bare(spread_key(i), 1_000 + i)).unwrap();
        }
        // `Flush` drains each partition before sealing, so everything so
        // far reaches chunks. The tail inserted afterwards is pumped only
        // in part and never sealed: it lives only in the queue when the
        // "process" dies.
        ww.flush_all().unwrap();
        for i in flushed..inserted {
            ww.insert(Tuple::bare(spread_key(i), 1_000 + i)).unwrap();
        }
        ww.flush_ingest_batches().unwrap();
        ww.pump_all(500).unwrap();
        ww.sync_queue().unwrap();
    }
    let ww = Waterwheel::builder(&root)
        .config(cfg())
        .durable_queue()
        .build()
        .unwrap();
    let from_chunks = ww.total_visible() as u64;
    assert!(
        from_chunks < inserted,
        "the restart must have queue-only tuples left to replay"
    );
    ww.drain().unwrap();
    let got = ww.query(&all()).unwrap().tuples.len();
    assert_eq!(
        got as u64, inserted,
        "durable queue lost or duplicated data"
    );
}

#[test]
fn rebuilt_durable_system_dedups_old_batches_and_accepts_new_ones() {
    // A re-opened durable store remembers, from the batch markers in its
    // queue journal, which (dispatcher, seq) batches already landed. A
    // redelivery from the previous incarnation must be dropped — and the
    // rebuilt dispatchers (same ids) must number their fresh batches above
    // it, or those would be acknowledged as duplicates and lost.
    use waterwheel::core::ServerId;
    use waterwheel::net::{Request, RpcClient};
    let root = fresh_root("rebuild-dedup");
    let (n, m) = (1_000u64, 700u64);
    {
        let ww = Waterwheel::builder(&root)
            .config(cfg())
            .durable_queue()
            .build()
            .unwrap();
        for i in 0..n {
            ww.insert(Tuple::bare(spread_key(i), 1_000 + i)).unwrap();
        }
        ww.flush_ingest_batches().unwrap();
    }
    let ww = Waterwheel::builder(&root)
        .config(cfg())
        .durable_queue()
        .build()
        .unwrap();
    let ix = ww.indexing_servers()[0].id();
    let mq = ww.message_queue();
    let &(src, last_seq) = mq
        .recovered_seqs("ingest", 0)
        .unwrap()
        .first()
        .expect("acked batches must journal their (src, seq) marker");
    let before = mq.latest_offset("ingest", 0).unwrap();
    let plane = std::sync::Arc::clone(ww.plane());
    let old_dispatcher = RpcClient::new(plane, ServerId(src), ww.config());
    let (_, deduped) = old_dispatcher
        .call(
            ix,
            Request::IngestBatch {
                seq: last_seq,
                tuples: vec![Tuple::bare(0, 1)],
            },
        )
        .unwrap()
        .into_ack_batch()
        .unwrap();
    assert!(deduped, "redelivery of an acked batch must be dropped");
    assert_eq!(mq.latest_offset("ingest", 0).unwrap(), before);

    for i in n..n + m {
        ww.insert(Tuple::bare(spread_key(i), 1_000 + i)).unwrap();
    }
    ww.drain().unwrap();
    assert_eq!(
        SystemMetrics::collect(&ww).get("ingest.dedup_drops"),
        1,
        "only the redelivery is a drop"
    );
    let got = ww.query(&all()).unwrap().tuples.len() as u64;
    assert_eq!(got, n + m, "fresh batches after a rebuild were lost");
}

#[test]
fn node_failure_moves_replicas_but_queries_still_answer() {
    let ww = Waterwheel::builder(fresh_root("node"))
        .config(cfg())
        .nodes(5)
        .build()
        .unwrap();
    for i in 0..2_000u64 {
        ww.insert(Tuple::bare(spread_key(i), 1_000 + i)).unwrap();
    }
    ww.drain().unwrap();
    ww.flush_all().unwrap();
    // Kill a cluster node: replica sets recompute; queries must still work
    // (chunk files remain readable in the simulation — HDFS re-replicates).
    let victim = ww.cluster().alive_nodes()[0];
    ww.cluster().fail_node(victim).unwrap();
    assert_eq!(ww.query(&all()).unwrap().tuples.len(), 2_000);
}
