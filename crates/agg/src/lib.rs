//! Hierarchical aggregate wheel for Waterwheel (extension beyond the
//! paper's evaluation; see DESIGN.md §4b).
//!
//! Waterwheel's native query path ships raw tuples out of B+ tree leaves;
//! analytics workloads (dashboards, rate monitors, fleet counts) would
//! re-scan and re-fold tuples on every query. This crate adds the
//! pre-folded form, following the time-wheel layout of `datafusion-uwheel`
//! and hierarchical time indexing à la Timehash:
//!
//! * [`PartialAgg`] — a mergeable partial aggregate (COUNT, SUM, MIN, MAX,
//!   AVG-as-sum+count) — the cell type.
//! * [`AggWheel`] — the live wheel an indexing server maintains next to its
//!   in-memory tree: per-granularity rings (second → minute → hour → day)
//!   of cells keyed by `(time bucket, key slice)`.
//! * [`WheelSummary`] — the sealed wheel written into a flushed chunk's
//!   footer; over-cap rings are dropped finest-first and show up as
//!   *residue* time ranges at query time, never as wrong answers.
//! * [`plan`] — splits an arbitrary `⟨K_q, T_q⟩` into a wheel-covered
//!   interior plus tuple-scan fringes ([`plan::split`]), and decomposes the
//!   interior into the minimal run of wheel slots (coarsest granularity
//!   first).
//! * [`AggShare`] — one source's exact share of an aggregate, as an
//!   indexing or query server answers it.
//!
//! Exactness contract: for a rectangle decomposed by [`plan::split`],
//! summary cells over the interior plus folds over fringes and residues
//! partition the query's tuple set — so the merged [`PartialAgg`] equals a
//! naive fold over a full scan, bit for bit.

#![warn(missing_docs)]

pub mod partial;
pub mod plan;
pub mod summary;
pub mod wheel;

pub use partial::PartialAgg;
pub use summary::{WheelSummary, SUMMARY_MAGIC};
pub use wheel::{AggWheel, FoldOutcome, Granularity};

/// Key-slice width exponent the system builds every wheel with: keys are
/// sliced by their top 4 bits into 16 slices. Indexing servers (live wheels
/// and sealed summaries) and the coordinator (query-range planner) must
/// agree on it, so both read this constant.
pub const SLICE_BITS: u8 = 4;

/// Cap on cells per granularity ring in a sealed chunk summary. Rings over
/// the cap are dropped finest-first; dropped coverage degrades to exact
/// tuple-scan residues, never to approximate answers.
pub const MAX_CELLS_PER_RING: usize = 8192;

use plan::Split;
use waterwheel_core::aggregate::AggregateKind;
use waterwheel_core::{QueryId, Region, Tuple};

/// The answer to an aggregate query, assembled by the coordinator.
#[derive(Clone, Debug, PartialEq)]
pub struct AggregateAnswer {
    /// The query this answers.
    pub query_id: QueryId,
    /// Which aggregate the caller asked for.
    pub kind: AggregateKind,
    /// The merged partial aggregate; all five kinds are readable, `kind`
    /// records the caller's intent.
    pub agg: PartialAgg,
    /// Wheel/summary cells merged into the answer.
    pub cells_merged: u64,
    /// Tuples folded through the scan path (fringes, residues, fallbacks).
    pub scanned_tuples: u64,
}

waterwheel_core::wire_struct!(AggregateAnswer {
    query_id: QueryId,
    kind: AggregateKind,
    agg: PartialAgg,
    cells_merged: u64,
    scanned_tuples: u64,
});

/// One source's share of an aggregate: the partial aggregate over its own
/// tuples inside the query rectangle, and how it was computed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AggShare {
    /// The partial aggregate.
    pub agg: PartialAgg,
    /// Wheel/summary cells merged.
    pub cells_merged: u64,
    /// Chunk leaves merged from the leaf directory without reading them.
    pub leaves_merged: u64,
    /// Tuples folded one by one.
    pub scanned: u64,
}

impl AggShare {
    /// Merges another share in.
    pub fn merge(&mut self, other: &AggShare) {
        self.agg.merge(&other.agg);
        self.cells_merged += other.cells_merged;
        self.leaves_merged += other.leaves_merged;
        self.scanned += other.scanned;
    }

    /// Folds tuples one by one under `measure`.
    pub fn fold(&mut self, tuples: &[Tuple], measure: &dyn Fn(&Tuple) -> u64) {
        for t in tuples {
            self.agg.insert(measure(t));
        }
        self.scanned += tuples.len() as u64;
    }

    /// Merges in `interior`, a source's wheel or summary folded over
    /// `split`'s interior, and returns the rectangles left for the source
    /// to scan: the split's fringes, the fold's residues and — when the
    /// source has nothing to fold — the whole interior.
    pub fn fold_interior(&mut self, split: &Split, interior: Option<FoldOutcome>) -> Vec<Region> {
        let mut fringes = split.fringes.clone();
        if let Some(i) = &split.interior {
            let out = interior.unwrap_or_else(|| FoldOutcome {
                residues: vec![i.covered],
                ..FoldOutcome::default()
            });
            self.agg.merge(&out.agg);
            self.cells_merged += out.cells_merged;
            fringes.extend(out.residues.iter().map(|r| Region::new(i.keys, *r)));
        }
        fringes
    }
}

impl AggregateAnswer {
    /// The requested aggregate as a float (COUNT/SUM/MIN/MAX are exact
    /// integers widened; MIN/MAX/AVG of an empty set are `None`).
    pub fn value(&self) -> Option<f64> {
        match self.kind {
            AggregateKind::Count => Some(self.agg.count as f64),
            AggregateKind::Sum => Some(self.agg.sum as f64),
            AggregateKind::Min => self.agg.min().map(|v| v as f64),
            AggregateKind::Max => self.agg.max().map(|v| v as f64),
            AggregateKind::Avg => self.agg.avg(),
        }
    }
}
