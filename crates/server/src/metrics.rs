//! System-wide metrics: every registered counter, by name.
//!
//! Each component declares its counters once (`waterwheel_core::counters!`)
//! and whoever builds it registers the set on the process's
//! [`HandlerRegistry`](waterwheel_net::HandlerRegistry). A
//! [`SystemMetrics`] is one walk over those sets: `(name, server, value)`
//! rows such as `query.leaf_reads@srv-1000`, `coordinator.queries`,
//! `wal.queue.fsyncs` or `rpc.latency.ping.p99_ns`. The same rows answer the
//! `Stats` verb, so a snapshot of an embedded system
//! ([`SystemMetrics::collect`]) and a scrape of a `waterwheel-node` cluster
//! ([`SystemMetrics::from_rows`] over the concatenated answers) read — and
//! print — alike.

use crate::system::Waterwheel;
use std::fmt;
use waterwheel_core::StatRow;

/// A point-in-time snapshot of a deployment's counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SystemMetrics {
    rows: Vec<StatRow>,
}

impl SystemMetrics {
    /// Collects a snapshot from a running embedded system.
    pub fn collect(ww: &Waterwheel) -> Self {
        Self::from_rows(ww.registry().counters().snapshot())
    }

    /// A snapshot made of rows scraped elsewhere (`Stats` answers).
    pub fn from_rows(rows: Vec<StatRow>) -> Self {
        Self { rows }
    }

    /// Every row, in registration-key order per answering process.
    pub fn rows(&self) -> &[StatRow] {
        &self.rows
    }

    /// The value of `name`, summed across the servers (and processes) that
    /// report it.
    ///
    /// # Panics
    ///
    /// When no row is called `name`: a misspelt counter must fail the test
    /// that reads it, not read as zero.
    pub fn get(&self, name: &str) -> u64 {
        let mut hits = self.rows.iter().filter(|r| r.name == name).peekable();
        assert!(
            hits.peek().is_some(),
            "no counter named {name:?} in this snapshot:\n{self}"
        );
        hits.map(|r| r.value).sum()
    }
}

impl fmt::Display for SystemMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for row in &self.rows {
            let label = match row.server {
                Some(server) => format!("{}@{server}", row.name),
                None => row.name.clone(),
            };
            writeln!(f, "{label:<48} {}", row.value)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;
    use waterwheel_core::{KeyInterval, Query, ServerId, SystemConfig, TimeInterval, Tuple};
    use waterwheel_net::{Request, RpcClient, COORDINATOR};

    fn system(name: &str) -> Waterwheel {
        let root = std::env::temp_dir().join(format!("ww-metrics-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut cfg = SystemConfig::default();
        cfg.chunk_size_bytes = 8 * 1024;
        Waterwheel::builder(root).config(cfg).build().unwrap()
    }

    #[test]
    fn collect_reflects_activity() {
        let ww = system("activity");
        for i in 0..1_000u64 {
            ww.insert(Tuple::bare(i << 40, 1_000 + i)).unwrap();
        }
        ww.drain().unwrap();
        ww.flush_all().unwrap();
        ww.query(&Query::range(KeyInterval::full(), TimeInterval::full()))
            .unwrap();
        let m = SystemMetrics::collect(&ww);
        assert_eq!(m.get("dispatcher.dispatched"), 1_000);
        assert_eq!(m.get("dispatcher.pending"), 0);
        // In-process answers are collected on the spot: nothing stays on
        // the wire and no batch outgrows `ingest_batch_size`.
        assert_eq!(m.get("dispatcher.in_flight"), 0);
        assert_eq!(m.get("dispatcher.coalesced"), 0);
        assert_eq!(m.get("indexing.ingested"), 1_000);
        assert!(m.get("indexing.chunks_flushed") >= 1);
        assert_eq!(
            m.get("meta.chunks_registered"),
            m.get("indexing.chunks_flushed")
        );
        assert_eq!(m.get("coordinator.queries"), 1);
        assert!(m.get("coordinator.subqueries") >= 1);
        assert!(m.get("query.leaf_reads") > 0);
        assert!(m.get("dfs.opens") > 0);
        // Batched ingest amortizes envelopes: at least 8× fewer than
        // per-tuple dispatch would send.
        let batches = m.get("dispatcher.batches_sent");
        assert!(batches > 0);
        assert!(
            batches * 8 <= 1_000,
            "{batches} batches for 1000 tuples is under 8× amortization"
        );
        assert_eq!(
            m.get("ingest.dedup_drops"),
            0,
            "fault-free plane never dedups"
        );
        assert!(m.get("rpc.bytes") > 0);
        assert_eq!(m.get("rpc.retried"), 0, "fault-free plane must not retry");
        assert!(m.get("rpc.latency.ingest_batch.count") > 0);
        // Parallel read-path counters: the query above loaded templates,
        // the plan backlog registered with the worker pool, and every
        // query server reports its own row.
        assert!(m.get("query.template_reads") > 0);
        assert!(m.get("coordinator.worker_queue_peak") >= 1);
        let per_server = m.rows().iter().filter(|r| r.name == "query.leaf_reads");
        assert_eq!(per_server.count(), ww.query_servers().len());
        // What the hot path bumped but no snapshot used to carry.
        assert_eq!(m.get("query.subqueries"), m.get("coordinator.subqueries"));
        assert!(m.get("query.busy_ns") > 0);
        assert!(m.get("cache.misses") > 0);
        assert_eq!(m.get("cache.evictions"), 0);
        assert_eq!(
            m.get("fanout.threads_started"),
            ww.coordinator().fanout_pool().threads_started()
        );
        for name in [
            "coordinator.measure_pruned_chunks",
            "query.measure_pruned_leaves",
            "cache.hits",
            "dfs.integrity_verifies",
            "fanout.tickets_issued",
            "admission.inflight",
            "wal.chunks.fsyncs",
        ] {
            m.get(name);
        }
        let text = m.to_string();
        assert!(text.contains("query.leaf_reads@srv-1000"), "{text}");
        assert!(text
            .lines()
            .any(|l| l.starts_with("coordinator.queries ") && l.ends_with(" 1")));
    }

    #[test]
    fn restarted_components_report_under_their_old_names() {
        let ww = system("restart");
        ww.insert(Tuple::bare(1, 1_000)).unwrap();
        ww.drain().unwrap();
        ww.query(&Query::range(KeyInterval::full(), TimeInterval::full()))
            .unwrap();
        assert_eq!(SystemMetrics::collect(&ww).get("coordinator.queries"), 1);
        ww.restart_coordinator();
        assert_eq!(SystemMetrics::collect(&ww).get("coordinator.queries"), 0);
        // A recovered indexing server replays its partition into a fresh
        // set: one row per server, counting the replay.
        let victim = ww.indexing_servers()[0].id();
        ww.crash_indexing_server(victim).unwrap();
        ww.recover_indexing_server(victim).unwrap();
        ww.drain().unwrap();
        let m = SystemMetrics::collect(&ww);
        let rows = m.rows().iter().filter(|r| r.name == "indexing.ingested");
        assert_eq!(rows.count(), ww.indexing_servers().len());
        assert_eq!(m.get("indexing.ingested"), 1);
    }

    waterwheel_core::counters! {
        /// A set no other line of the repo knows about.
        struct Probe {
            /// Widgets frobbed.
            frobbed,
        }
    }

    #[test]
    fn a_declared_set_shows_up_by_registering_it_and_a_typo_panics() {
        let ww = system("probe");
        let probe = Arc::new(Probe::default());
        probe.frobbed.fetch_add(7, Ordering::Relaxed);
        ww.registry()
            .counters()
            .register("probe", Some(ServerId(9)), probe);
        // In the embedded snapshot's text…
        let text = SystemMetrics::collect(&ww).to_string();
        assert!(
            text.lines()
                .any(|l| l.starts_with("probe.frobbed@srv-9 ") && l.ends_with(" 7")),
            "{text}"
        );
        // …and in the answer to a `Stats` request on the plane.
        let rpc = RpcClient::new(Arc::clone(ww.plane()), ServerId(9_000), ww.config());
        let rows = rpc.call(COORDINATOR, Request::Stats).unwrap();
        let scraped = SystemMetrics::from_rows(rows.into_stats().unwrap());
        assert_eq!(scraped.get("probe.frobbed"), 7);
        let typo = std::panic::catch_unwind(|| scraped.get("nope"));
        assert!(typo.is_err(), "an unknown name must panic");
    }
}
