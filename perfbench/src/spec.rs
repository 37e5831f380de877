//! The five workloads. Names are fixed: later issues refer to them, and
//! `BENCHMARK.json` lists them with the same one-line reasons.

use crate::inputs::{DatasetKind, OpMix};

/// How a workload's servers are wired.
#[derive(Clone, Copy, Debug)]
pub struct Deployment {
    /// `true`: RPCs cross the TCP loopback transport and the ingest queue
    /// journals to a write-ahead log (fsync off). `false`: in-process
    /// transport, volatile queue.
    pub tcp_durable: bool,
    /// Block-cache capacity per query server, in bytes.
    pub cache_bytes: usize,
}

/// What the timed section of a workload does.
#[derive(Clone, Copy, Debug)]
pub enum Main {
    /// Rounds of: fresh system, one saturating producer ingests
    /// [`Spec::tuples`] tuples with the pumps running, then a read-back of
    /// [`Spec::mix`] checks what was written.
    Ingest,
    /// [`Spec::tuples`] tuples are loaded and sealed during set-up; the
    /// timed section is closed-loop clients replaying [`Spec::mix`].
    Query {
        /// Replay the operation list once, untimed, before measuring.
        warm_pass: bool,
    },
    /// Open loop: a paced producer offers tuples at a fixed rate while one
    /// closed-loop client queries the freshest data.
    Mixed {
        /// Offered tuples per second (also the event-time density, so
        /// event time advances with the wall clock).
        offered_per_s: u64,
    },
}

/// One workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Fixed name.
    pub name: &'static str,
    /// Why the workload exists (one line; mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    /// The stream.
    pub dataset: DatasetKind,
    /// Tuples per second of event time in the generated stream.
    pub events_per_s: u64,
    /// Tuples per saturating ingest round (`Ingest`), loaded during
    /// set-up (`Query`), or loaded as history before the paced stream
    /// starts (`Mixed`, whose run length and rate decide the rest).
    pub tuples: usize,
    /// Tuples ingested during set-up before the one partition-balancing
    /// round every workload runs (they count towards the stored total).
    pub warm: usize,
    /// Server wiring.
    pub deployment: Deployment,
    /// The query operations.
    pub mix: OpMix,
    /// Closed-loop query clients.
    pub clients: usize,
    /// Seconds one ingest round or query pass took on the reference host
    /// when the benchmark was defined. `--seconds` is turned into a whole
    /// number of rounds with it, so the work — and the memory high-water
    /// mark, and every sample count — is fixed by count, not by how fast
    /// this run happens to go.
    pub round_s: f64,
    /// The timed section.
    pub main: Main,
}

/// Every checked answer is compared with the reference; one operation in
/// this many is checked.
pub const CHECK_EVERY: usize = 25;

/// Fewest set-ups per run: `setup_s` is their median.
pub const SETUPS: usize = 3;

const HISTORIC_SELECTIVITIES: &[f64] = &[0.001, 0.01, 0.1];

/// The workloads, in the order the full suite runs them.
pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "ingest-inproc",
        why: "In-process transport, volatile queue: dispatcher batching, template B+ tree insert and seal/flush carry the cost; wire codec and WAL do none",
        dataset: DatasetKind::TDrive,
        events_per_s: 2_000,
        tuples: 500_000,
        warm: 20_000,
        deployment: Deployment {
            tcp_durable: false,
            cache_bytes: 64 << 20,
        },
        mix: OpMix {
            count: 300,
            aggregate_every: 5,
            selectivities: HISTORIC_SELECTIVITIES,
            aggregate_selectivity: 0.1,
            range_windows_s: &[60],
            aggregate_window_s: 60,
            recent: false,
        },
        clients: 1,
        round_s: 1.5,
        main: Main::Ingest,
    },
    Spec {
        name: "ingest-tcp-durable",
        why: "TCP loopback plus journaled queue (fsync off): wire codec, reactor and WAL carry the cost, the tree little; must stay flat when only the tree changes",
        dataset: DatasetKind::Network,
        events_per_s: 2_000,
        tuples: 500_000,
        warm: 20_000,
        deployment: Deployment {
            tcp_durable: true,
            cache_bytes: 64 << 20,
        },
        mix: OpMix {
            count: 300,
            aggregate_every: 5,
            selectivities: HISTORIC_SELECTIVITIES,
            aggregate_selectivity: 0.1,
            range_windows_s: &[60],
            aggregate_window_s: 60,
            recent: false,
        },
        clients: 1,
        round_s: 2.1,
        main: Main::Ingest,
    },
    Spec {
        name: "query-cold",
        why: "Cache far smaller than the stored chunks: DFS open/read, chunk index parse, leaf decompress and column decode dominate; caches contribute nothing",
        dataset: DatasetKind::TDrive,
        events_per_s: 2_000,
        tuples: 1_000_000,
        warm: 20_000,
        deployment: Deployment {
            tcp_durable: false,
            cache_bytes: 64 << 10,
        },
        mix: OpMix {
            count: 1_000,
            aggregate_every: 5,
            selectivities: HISTORIC_SELECTIVITIES,
            aggregate_selectivity: 0.1,
            range_windows_s: &[60],
            aggregate_window_s: 60,
            recent: false,
        },
        clients: 2,
        round_s: 2.4,
        main: Main::Query { warm_pass: false },
    },
    Spec {
        name: "query-hot",
        why: "Same data, cache twice the stored bytes, warmed: block cache, decoded-column tier, scan kernels, summaries and coordinator merge dominate; the DFS is idle",
        dataset: DatasetKind::TDrive,
        events_per_s: 2_000,
        tuples: 1_000_000,
        warm: 20_000,
        deployment: Deployment {
            tcp_durable: false,
            cache_bytes: 64 << 20,
        },
        mix: OpMix {
            count: 1_000,
            aggregate_every: 5,
            selectivities: HISTORIC_SELECTIVITIES,
            aggregate_selectivity: 0.1,
            range_windows_s: &[60],
            aggregate_window_s: 60,
            recent: false,
        },
        clients: 2,
        round_s: 1.9,
        main: Main::Query { warm_pass: true },
    },
    Spec {
        name: "mixed-fresh",
        why: "Open-loop ingest at a fixed rate beside queries of the newest data: inserts and scans share the in-memory trees and the pump/flush critical section",
        dataset: DatasetKind::Network,
        events_per_s: 150_000,
        tuples: 750_000,
        warm: 20_000,
        deployment: Deployment {
            tcp_durable: false,
            cache_bytes: 64 << 20,
        },
        mix: OpMix {
            count: 1_000,
            aggregate_every: 5,
            selectivities: &[0.01],
            aggregate_selectivity: 0.1,
            range_windows_s: &[1, 5],
            aggregate_window_s: 5,
            recent: true,
        },
        clients: 1,
        round_s: 1.0,
        main: Main::Mixed {
            offered_per_s: 150_000,
        },
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// Run-size controls shared by every workload.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Seconds the timed section is sized for.
    pub seconds: f64,
    /// Divides tuple and operation counts (`--quick` uses 50).
    pub shrink: usize,
}

impl Scale {
    /// Rounds (or passes) of `round_s` seconds each that fill the timed
    /// section, at least `floor`.
    pub fn rounds(&self, round_s: f64, floor: usize) -> usize {
        ((self.seconds / round_s).round() as usize).max(floor)
    }

    /// `n` shrunk, never below `floor`.
    pub fn of(&self, n: usize, floor: usize) -> usize {
        (n / self.shrink).max(floor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(w
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(find(w.name).is_some());
        }
        assert!(find("nope").is_none());
    }
}
