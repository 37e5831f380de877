//! Aggregate query vocabulary (extension beyond the paper; DESIGN.md §4b).
//!
//! The aggregate *machinery* — wheels, summaries, combiners — lives in the
//! `waterwheel-agg` crate; this module only defines what every layer must
//! agree on: which aggregates exist, how a [`Query`] is upgraded into an
//! aggregate query, and the measure function mapping a tuple to the `u64`
//! being aggregated.

use crate::query::Query;
use crate::tuple::Tuple;
use std::fmt;
use std::sync::Arc;

crate::wire_enum! {
    /// Which aggregate an [`AggregateQuery`] asks for.
    ///
    /// All five are answered from the same mergeable partial aggregate
    /// (count + sum + min + max), so the kind only selects which component
    /// the caller reads out; AVG is derived exactly as sum / count.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    pub enum AggregateKind as "aggregate kind" {
        /// Number of matching tuples.
        0 => Count,
        /// Sum of measures over matching tuples.
        1 => Sum,
        /// Minimum measure over matching tuples.
        2 => Min,
        /// Maximum measure over matching tuples.
        3 => Max,
        /// Mean measure over matching tuples (exact sum / exact count).
        4 => Avg,
    }
}

impl AggregateKind {
    /// Every kind, for exhaustive tests.
    pub const ALL: [AggregateKind; 5] = [
        AggregateKind::Count,
        AggregateKind::Sum,
        AggregateKind::Min,
        AggregateKind::Max,
        AggregateKind::Avg,
    ];
}

impl fmt::Display for AggregateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            AggregateKind::Count => "COUNT",
            AggregateKind::Sum => "SUM",
            AggregateKind::Min => "MIN",
            AggregateKind::Max => "MAX",
            AggregateKind::Avg => "AVG",
        };
        f.write_str(name)
    }
}

/// Maps a tuple to the `u64` measure being aggregated.
///
/// Shared so indexing servers folding tuples into wheels and query servers
/// folding leaf scans use the *same* function — a requirement for exact
/// answers. Must be registered before any data is ingested, like secondary
/// attributes.
pub type MeasureFn = Arc<dyn Fn(&Tuple) -> u64 + Send + Sync>;

/// The default measure: the tuple's payload length in bytes. Cheap, always
/// defined, and makes COUNT/SUM answer "how many tuples / how many payload
/// bytes" out of the box.
pub fn default_measure() -> MeasureFn {
    Arc::new(|t: &Tuple| t.payload.len() as u64)
}

/// An aggregate query: a plain range [`Query`] plus the aggregate to
/// compute over the matching tuples.
#[derive(Clone, Debug)]
pub struct AggregateQuery {
    /// Range constraints and optional predicate, attribute and measure
    /// filters; a filtered aggregate folds scans at its sources, since
    /// wheel cells cannot see the filters.
    pub query: Query,
    /// Which aggregate to compute.
    pub kind: AggregateKind,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::{KeyInterval, TimeInterval};

    #[test]
    fn aggregate_builder_carries_the_range() {
        let aq = Query::range(KeyInterval::new(1, 9), TimeInterval::new(10, 20))
            .aggregate(AggregateKind::Sum);
        assert_eq!(aq.kind, AggregateKind::Sum);
        assert_eq!(aq.query.keys, KeyInterval::new(1, 9));
        assert_eq!(aq.query.times, TimeInterval::new(10, 20));
    }

    #[test]
    fn default_measure_is_payload_len() {
        let m = default_measure();
        assert_eq!(m(&Tuple::new(1, 2, vec![0u8; 17])), 17);
        assert_eq!(m(&Tuple::bare(1, 2)), 0);
    }

    #[test]
    fn kinds_display_sql_style() {
        let names: Vec<String> = AggregateKind::ALL.iter().map(|k| k.to_string()).collect();
        assert_eq!(names, ["COUNT", "SUM", "MIN", "MAX", "AVG"]);
    }
}
