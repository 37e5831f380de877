//! User queries and their decomposition into subqueries (paper §II-A, §IV-A).

use crate::expr::Expr;
use crate::ids::{ChunkId, QueryId, ServerId, SubQueryId};
use crate::interval::{KeyInterval, TimeInterval};
use crate::region::Region;
use crate::tuple::Tuple;

/// A user query `q = ⟨K_q, T_q, f_q⟩` (paper §II-A).
///
/// The result is every tuple whose `⟨key, ts⟩` point falls inside the query
/// region `⟨K_q, T_q⟩` **and** which satisfies the predicate `f_q`.
#[derive(Clone, Debug)]
pub struct Query {
    /// Selection interval on the key domain, `K_q`.
    pub keys: KeyInterval,
    /// Selection interval on the time domain, `T_q`.
    pub times: TimeInterval,
    /// Optional user-defined predicate `f_q`; `None` accepts every tuple.
    pub predicate: Option<Expr>,
    /// Optional *structured* inclusive range constraint `[lo, hi]` on the
    /// registered measure `m(tuple)`. It travels on every subquery: each
    /// executor filters by it under its own measure, and chunks and leaves
    /// whose persisted MIN/MAX measure bounds cannot intersect it are
    /// pruned unread.
    pub measure_range: Option<(u64, u64)>,
}

impl Query {
    /// A pure range query with no user predicate.
    pub fn range(keys: KeyInterval, times: TimeInterval) -> Self {
        Self {
            keys,
            times,
            predicate: None,
            measure_range: None,
        }
    }

    /// A range query with a user-defined predicate.
    pub fn with_predicate(keys: KeyInterval, times: TimeInterval, predicate: Expr) -> Self {
        Self {
            predicate: Some(predicate),
            ..Self::range(keys, times)
        }
    }

    /// Adds an inclusive range constraint on the registered measure
    /// (builder style): only tuples with `lo <= measure(t) <= hi` match.
    /// Filtering is exact; persisted MIN/MAX bounds make it prunable.
    pub fn and_measure_between(mut self, lo: u64, hi: u64) -> Self {
        self.measure_range = Some((lo, hi));
        self
    }

    /// Upgrades the range query into an aggregate query (builder style):
    /// instead of the matching tuples, the system returns `kind` folded
    /// over them — served from hierarchical wheel summaries where the
    /// range permits, tuple scans elsewhere, with identical results.
    pub fn aggregate(
        self,
        kind: crate::aggregate::AggregateKind,
    ) -> crate::aggregate::AggregateQuery {
        crate::aggregate::AggregateQuery { query: self, kind }
    }

    /// The query region `⟨K_q, T_q⟩`.
    pub fn region(&self) -> Region {
        Region::new(self.keys, self.times)
    }

    /// Whether the tuple matches the range constraints and predicate.
    pub fn matches(&self, tuple: &Tuple) -> bool {
        self.keys.contains(tuple.key)
            && self.times.contains(tuple.ts)
            && self.predicate.as_ref().is_none_or(|p| p.accepts(tuple))
    }
}

crate::wire_enum! {
    /// Where a subquery must execute (paper §IV-A): fresh data still in an
    /// indexing server's in-memory tree, or a flushed chunk served by a query
    /// server.
    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
    pub enum SubQueryTarget as "subquery target" {
        /// The data region has not been flushed yet — execute on the
        /// indexing server that owns the in-memory B+ tree.
        0 => InMemory(ServerId),
        /// The data region is an immutable chunk in the file system —
        /// execute on a query server chosen by the dispatch policy.
        1 => Chunk(ChunkId),
    }
}

/// A subquery `q_i = ⟨K_i ∩ K_q, T_i ∩ T_q, f_q⟩` (paper §IV-A): the
/// intersection of the user query with one candidate data region, routed to
/// that region's owner.
#[derive(Clone, Debug)]
pub struct SubQuery {
    /// Identity: parent query plus decomposition index.
    pub id: SubQueryId,
    /// Key constraint after intersecting with the data region.
    pub keys: KeyInterval,
    /// Time constraint after intersecting with the data region.
    pub times: TimeInterval,
    /// The parent query's predicate.
    pub predicate: Option<Expr>,
    /// Structured measure-range constraint inherited from the parent query:
    /// the executor filters by it under its measure, and prunes leaves and
    /// chunks by their persisted MIN/MAX bounds.
    pub measure_range: Option<(u64, u64)>,
    /// Which data region (and thus executor) this fragment belongs to.
    pub target: SubQueryTarget,
    /// For an in-memory target, the durable offset the plan saw registered
    /// for its owner: it picks which side of a flush hand-off answers.
    /// `None` on chunk targets; on an in-memory one (a subquery not planned
    /// against the metadata) it reads every tuple the server holds.
    pub offset: Option<u64>,
}

impl SubQuery {
    /// Whether the tuple matches this fragment's constraints and predicate.
    pub fn matches(&self, tuple: &Tuple) -> bool {
        self.keys.contains(tuple.key)
            && self.times.contains(tuple.ts)
            && self.predicate.as_ref().is_none_or(|p| p.accepts(tuple))
    }

    /// Whether the fragment filters tuples beyond its rectangle: by a
    /// predicate or a measure range.
    pub fn filters(&self) -> bool {
        self.predicate.is_some() || self.measure_range.is_some()
    }

    /// Whether a tuple of the rectangle passes the predicate and, under
    /// `measure`, the measure range.
    pub fn keeps(&self, tuple: &Tuple, measure: &dyn Fn(&Tuple) -> u64) -> bool {
        self.predicate.as_ref().is_none_or(|p| p.accepts(tuple))
            && self
                .measure_range
                .is_none_or(|(lo, hi)| (lo..=hi).contains(&measure(tuple)))
    }
}

/// The merged answer to a [`Query`], assembled by the query coordinator from
/// all subquery results (paper §IV-A).
#[derive(Clone, Debug, Default)]
pub struct QueryResult {
    /// The query this result answers.
    pub query_id: QueryId,
    /// All matching tuples, in no particular order.
    pub tuples: Vec<Tuple>,
    /// Number of subqueries the query decomposed into.
    pub subqueries: u32,
}

impl QueryResult {
    /// Sorts tuples by `(key, ts)` for deterministic comparisons in tests.
    pub fn normalize(&mut self) {
        self.tuples
            .sort_by(|a, b| (a.key, a.ts, &a.payload).cmp(&(b.key, b.ts, &b.payload)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_query_matches_on_both_dimensions() {
        let q = Query::range(KeyInterval::new(0, 10), TimeInterval::new(100, 200));
        assert!(q.matches(&Tuple::bare(5, 150)));
        assert!(!q.matches(&Tuple::bare(11, 150)));
        assert!(!q.matches(&Tuple::bare(5, 99)));
    }

    #[test]
    fn predicate_filters_within_range() {
        let q = Query::with_predicate(
            KeyInterval::full(),
            TimeInterval::full(),
            (Expr::key() % 2).equals(0),
        );
        assert!(q.matches(&Tuple::bare(4, 0)));
        assert!(!q.matches(&Tuple::bare(5, 0)));
    }

    #[test]
    fn subquery_shares_parent_predicate() {
        let q = Query::with_predicate(
            KeyInterval::new(0, 100),
            TimeInterval::new(0, 100),
            Expr::from(10).lt(Expr::ts()),
        );
        let sq = SubQuery {
            id: SubQueryId {
                query: QueryId(1),
                index: 0,
            },
            keys: KeyInterval::new(0, 50),
            times: TimeInterval::new(0, 100),
            predicate: q.predicate.clone(),
            measure_range: None,
            target: SubQueryTarget::Chunk(ChunkId(7)),
            offset: None,
        };
        assert!(sq.matches(&Tuple::bare(3, 50)));
        assert!(!sq.matches(&Tuple::bare(3, 5)));
        assert!(!sq.matches(&Tuple::bare(51, 50)));
    }

    #[test]
    fn result_normalize_sorts_deterministically() {
        let mut r = QueryResult {
            query_id: QueryId(1),
            tuples: vec![Tuple::bare(2, 1), Tuple::bare(1, 9), Tuple::bare(1, 2)],
            subqueries: 1,
        };
        r.normalize();
        let keys: Vec<_> = r.tuples.iter().map(|t| (t.key, t.ts)).collect();
        assert_eq!(keys, vec![(1, 2), (1, 9), (2, 1)]);
    }

    #[test]
    fn query_region_is_the_constraint_rectangle() {
        let q = Query::range(KeyInterval::new(1, 2), TimeInterval::new(3, 4));
        let r = q.region();
        assert!(r.contains_point(1, 3) && r.contains_point(2, 4));
        assert!(!r.contains_point(0, 3));
    }
}
