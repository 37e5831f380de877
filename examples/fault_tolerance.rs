//! Fault-tolerance walkthrough (paper §V): crash an indexing server and a
//! query server mid-stream, drop RPC messages on the wire, and show that
//! no data is lost and queries keep answering.
//!
//! ```sh
//! cargo run --release --example fault_tolerance
//! ```

use waterwheel::net::LinkProfile;
use waterwheel::prelude::*;
use waterwheel::server::SystemMetrics;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let root = std::env::temp_dir().join("waterwheel-fault-tolerance");
    let _ = std::fs::remove_dir_all(&root);

    let mut cfg = SystemConfig::default();
    cfg.chunk_size_bytes = 64 * 1024;
    cfg.indexing_servers = 2;
    cfg.query_servers = 4;
    // Deep enough retry budget that 10 % message loss cannot exhaust it.
    cfg.rpc_retries = 6;
    let ww = Waterwheel::builder(&root).config(cfg).build()?;

    let total = 50_000u64;
    println!("ingesting {total} tuples …");
    for i in 0..total {
        ww.insert(Tuple::new(
            i.wrapping_mul(0x9E37_79B9) << 16,
            1_000_000 + i / 10,
            vec![0u8; 16],
        ))?;
    }
    ww.drain()?;

    let all = Query::range(KeyInterval::full(), TimeInterval::full());
    let before = ww.query(&all)?.tuples.len();
    println!("visible before any failure:            {before}");
    assert_eq!(before as u64, total);

    // ----- Indexing server crash: the in-memory B+ tree evaporates. -----
    let victim = ww.indexing_servers()[0].id();
    let in_memory_lost = ww.indexing_servers()[0].in_memory();
    ww.crash_indexing_server(victim)?;
    println!("crashed {victim} (held {in_memory_lost} tuples in memory)");

    // Recovery replays the server's queue partition from the offset that
    // was persisted with its last chunk flush (paper §V).
    ww.recover_indexing_server(victim)?;
    ww.drain()?;
    let after_ix = ww.query(&all)?.tuples.len();
    println!("visible after replay-based recovery:    {after_ix}");
    assert_eq!(after_ix as u64, total, "indexing recovery lost tuples");

    // ----- Query server crashes: subqueries are re-dispatched. -----
    ww.flush_all()?;
    ww.query_servers()[0].set_failed(true);
    ww.query_servers()[1].set_failed(true);
    println!("killed 2 of 4 query servers; querying anyway …");
    let during = ww.query(&all)?.tuples.len();
    let redispatched = ww
        .coordinator()
        .stats()
        .redispatches
        .load(std::sync::atomic::Ordering::Relaxed);
    println!(
        "visible with half the query fleet down: {during} ({redispatched} subqueries re-dispatched)"
    );
    assert_eq!(during as u64, total);
    ww.query_servers()[0].set_failed(false);
    ww.query_servers()[1].set_failed(false);

    // ----- Network loss: every tenth RPC message vanishes in transit. ---
    // Loss drops requests before they reach the destination, so the
    // client's retries can never duplicate an ingest or a subquery — the
    // answers below stay exact, not approximate.
    ww.transport().set_default_profile(LinkProfile {
        loss: 0.10,
        ..LinkProfile::default()
    });
    println!("dropping 10% of RPC messages; ingesting and querying anyway …");
    for i in 0..5_000u64 {
        ww.insert(Tuple::new(
            i.wrapping_mul(0x9E37_79B9) << 16,
            2_000_000 + i / 10,
            vec![0u8; 16],
        ))?;
    }
    ww.drain()?;
    let with_loss = ww.query(&all)?.tuples.len();
    println!("visible with a lossy message plane:     {with_loss}");
    assert_eq!(with_loss as u64, total + 5_000, "loss must be masked");
    let m = SystemMetrics::collect(&ww);
    let (retried, timed_out) = (m.get("rpc.retried"), m.get("rpc.timed_out"));
    println!("rpc: {retried} attempts retried after {timed_out} timed out");
    assert!(retried > 0, "loss should have forced retries");
    ww.transport().clear_faults();

    // ----- Full restart: metadata + chunks + queue replay. -----
    drop(ww);
    let cfg = {
        let mut c = SystemConfig::default();
        c.chunk_size_bytes = 64 * 1024;
        c.indexing_servers = 2;
        c.query_servers = 4;
        c
    };
    // The first system ran with a memory-only queue, so only flushed data
    // survives this restart — the §V durability boundary.
    let ww = Waterwheel::builder(&root).config(cfg.clone()).build()?;
    let after_restart = ww.query(&all)?.tuples.len();
    println!("visible after restart (memory queue):   {after_restart} (flushed data only)");
    assert!(after_restart > 0);
    drop(ww);

    // ----- With the durable queue (Kafka's contract), nothing is lost. ---
    let root2 = std::env::temp_dir().join("waterwheel-fault-tolerance-durable");
    let _ = std::fs::remove_dir_all(&root2);
    {
        let ww = Waterwheel::builder(&root2)
            .config(cfg.clone())
            .durable_queue()
            .build()?;
        for i in 0..total {
            ww.insert(Tuple::new(i << 20, 1_000_000 + i, vec![0u8; 16]))?;
        }
        // Deliberately leave most of it unpumped, then "crash".
        ww.pump_all(100)?;
        ww.sync_queue()?;
    }
    let ww = Waterwheel::builder(&root2)
        .config(cfg)
        .durable_queue()
        .build()?;
    ww.drain()?;
    let recovered = ww.query(&all)?.tuples.len();
    println!("visible after restart (durable queue):  {recovered} (queue replayed)");
    assert_eq!(recovered as u64, total);
    Ok(())
}
