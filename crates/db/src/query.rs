//! The query builder.
//!
//! A [`Query`] combines filters (mnemonic prefix or exact match, ISA
//! extension, microarchitecture, port, µop-count and latency bounds), a sort
//! order, and pagination, and runs over the zero-copy [`SegmentDb`].
//!
//! The builder is a thin, source-compatible front over the canonical
//! [`QueryPlan`]: every setter writes a plan field, and [`Query::run`]
//! hands the plan to [`QueryExec`]. Layers that need the plan itself — the
//! response cache (hashable key), the wire protocol (query-string codec) —
//! take it via [`Query::plan`] / [`Query::into_plan`] instead of
//! re-deriving it.

use crate::exec::QueryExec;
use crate::plan::{normalize_bound, QueryPlan};
use crate::segment::SegmentDb;

pub use crate::exec::QueryResult;
pub use crate::plan::SortKey;

/// A composable query over a [`SegmentDb`].
#[must_use]
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Query {
    plan: QueryPlan,
}

impl Query {
    /// Creates an unconstrained query (matches everything).
    pub fn new() -> Query {
        Query::default()
    }

    /// Wraps an existing plan in the builder.
    pub fn from_plan(plan: QueryPlan) -> Query {
        Query { plan }
    }

    /// The canonical plan this builder has accumulated.
    pub fn plan(&self) -> &QueryPlan {
        &self.plan
    }

    /// Consumes the builder, returning the canonical plan.
    pub fn into_plan(self) -> QueryPlan {
        self.plan
    }

    /// Filters on an exact mnemonic.
    pub fn mnemonic(mut self, mnemonic: impl Into<String>) -> Query {
        self.plan.mnemonic = Some(mnemonic.into());
        self
    }

    /// Filters on a mnemonic prefix (e.g. `"V"` for the VEX-encoded part of
    /// the catalog).
    pub fn mnemonic_prefix(mut self, prefix: impl Into<String>) -> Query {
        self.plan.mnemonic_prefix = Some(prefix.into());
        self
    }

    /// Filters on an ISA extension, e.g. `"AVX2"`.
    pub fn extension(mut self, extension: impl Into<String>) -> Query {
        self.plan.extension = Some(extension.into());
        self
    }

    /// Filters on a microarchitecture, e.g. `"Skylake"`.
    pub fn uarch(mut self, uarch: impl Into<String>) -> Query {
        self.plan.uarch = Some(uarch.into());
        self
    }

    /// Keeps only instructions that may execute a µop on `port`.
    pub fn uses_port(mut self, port: u8) -> Query {
        self.plan.port = Some(port);
        self
    }

    /// Keeps only records with at least `n` µops.
    pub fn min_uops(mut self, n: u32) -> Query {
        self.plan.min_uops = Some(n);
        self
    }

    /// Keeps only records with at most `n` µops.
    pub fn max_uops(mut self, n: u32) -> Query {
        self.plan.max_uops = Some(n);
        self
    }

    /// Keeps only records whose maximum latency is at least `cycles`.
    pub fn min_latency(mut self, cycles: f64) -> Query {
        self.plan.min_latency = Some(normalize_bound(cycles));
        self
    }

    /// Keeps only records whose maximum latency is at most `cycles`.
    pub fn max_latency(mut self, cycles: f64) -> Query {
        self.plan.max_latency = Some(normalize_bound(cycles));
        self
    }

    /// Sets the sort key (ascending).
    pub fn sort_by(mut self, key: SortKey) -> Query {
        self.plan.sort = key;
        self.plan.descending = false;
        self
    }

    /// Sets the sort key, descending.
    pub fn sort_by_desc(mut self, key: SortKey) -> Query {
        self.plan.sort = key;
        self.plan.descending = true;
        self
    }

    /// Skips the first `n` matches (pagination).
    pub fn offset(mut self, n: usize) -> Query {
        self.plan.offset = n;
        self
    }

    /// Returns at most `n` matches (pagination).
    pub fn limit(mut self, n: usize) -> Query {
        self.plan.limit = Some(n);
        self
    }

    /// Runs the query against a segment.
    #[must_use]
    pub fn run<'db>(&self, db: &'db SegmentDb<'db>) -> QueryResult<'db> {
        QueryExec::new().run(&self.plan, db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::IdList;
    use crate::segment::Segment;
    use crate::snapshot::{LatencyEdge, Snapshot, VariantRecord};

    fn record(
        mnemonic: &str,
        extension: &str,
        uarch: &str,
        uops: u32,
        mask: u16,
        latency: f64,
        tp: f64,
    ) -> VariantRecord {
        VariantRecord {
            mnemonic: mnemonic.into(),
            variant: "R64, R64".into(),
            extension: extension.into(),
            uarch: uarch.into(),
            uop_count: uops,
            ports: vec![(mask, uops)],
            tp_measured: tp,
            latency: vec![LatencyEdge {
                source: 0,
                target: 1,
                cycles: latency,
                ..Default::default()
            }],
            ..Default::default()
        }
    }

    fn segment() -> Segment {
        let mut s = Snapshot::new("test");
        s.records.push(record("ADD", "BASE", "Skylake", 1, 0b0110_0011, 1.0, 0.25));
        s.records.push(record("ADC", "BASE", "Skylake", 1, 0b0100_0001, 1.0, 0.5));
        s.records.push(record("VPADDD", "AVX2", "Skylake", 1, 0b0010_0011, 1.0, 0.33));
        s.records.push(record("VPGATHERDD", "AVX2", "Skylake", 4, 0b0000_1101, 12.0, 4.0));
        s.records.push(record("ADD", "BASE", "Haswell", 1, 0b0110_0011, 1.0, 0.25));
        s.records.push(record("DIV", "BASE", "Skylake", 10, 0b0000_0001, 23.0, 6.0));
        Segment::from_bytes(Segment::encode(&s)).expect("valid")
    }

    #[test]
    fn filter_by_uarch_and_extension() {
        let segment = segment();
        let db = segment.db();
        let r = Query::new().uarch("Skylake").extension("AVX2").run(&db);
        assert_eq!(r.total_matches, 2);
        assert_eq!(r.rows[0].mnemonic(), "VPADDD");
        assert_eq!(r.rows[1].mnemonic(), "VPGATHERDD");
    }

    #[test]
    fn filter_by_port() {
        let segment = segment();
        let db = segment.db();
        // Port 6 on Skylake: ADD (p0156) and ADC (p06).
        let r = Query::new().uarch("Skylake").uses_port(6).run(&db);
        assert_eq!(r.total_matches, 2);
        let names: Vec<&str> = r.rows.iter().map(|v| v.mnemonic()).collect();
        assert_eq!(names, vec!["ADC", "ADD"]);
    }

    #[test]
    fn intersection_of_three_posting_lists() {
        let segment = segment();
        let db = segment.db();
        // mnemonic ∧ (uarch, port) ∧ extension all have posting lists; the
        // planner must intersect them, not just filter one.
        let r =
            Query::new().mnemonic("ADD").uarch("Skylake").uses_port(6).extension("BASE").run(&db);
        assert_eq!(r.total_matches, 1);
        assert_eq!(r.rows[0].uarch(), "Skylake");
        let r = Query::new().mnemonic("ADD").uarch("Skylake").extension("AVX2").run(&db);
        assert_eq!(r.total_matches, 0, "empty intersection");
    }

    #[test]
    fn prefix_latency_and_uop_filters() {
        let segment = segment();
        let db = segment.db();
        let r = Query::new().mnemonic_prefix("VP").run(&db);
        assert_eq!(r.total_matches, 2);
        let r = Query::new().min_latency(10.0).run(&db);
        assert_eq!(r.total_matches, 2);
        let r = Query::new().min_latency(10.0).max_uops(4).run(&db);
        assert_eq!(r.total_matches, 1);
        assert_eq!(r.rows[0].mnemonic(), "VPGATHERDD");
    }

    #[test]
    fn unknown_filter_strings_match_nothing() {
        let segment = segment();
        let db = segment.db();
        let r = Query::new().uarch("Cannon Lake").run(&db);
        assert_eq!(r.total_matches, 0);
        let r = Query::new().mnemonic("NOPE").run(&db);
        assert_eq!(r.total_matches, 0);
    }

    #[test]
    fn out_of_range_port_matches_nothing() {
        let segment = segment();
        let db = segment.db();
        // Both the indexed path (with uarch) and the scan path (without)
        // must treat ports beyond the mask as "no matches", not overflow.
        assert_eq!(Query::new().uarch("Skylake").uses_port(16).run(&db).total_matches, 0);
        assert_eq!(Query::new().uses_port(16).run(&db).total_matches, 0);
        assert_eq!(Query::new().uses_port(255).run(&db).total_matches, 0);
    }

    #[test]
    fn sorting_and_pagination() {
        let segment = segment();
        let db = segment.db();
        let r = Query::new().uarch("Skylake").sort_by_desc(SortKey::Latency).limit(2).run(&db);
        assert_eq!(r.total_matches, 5);
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0].mnemonic(), "DIV");
        assert_eq!(r.rows[1].mnemonic(), "VPGATHERDD");
        let page2 =
            Query::new().uarch("Skylake").sort_by(SortKey::Mnemonic).offset(2).limit(2).run(&db);
        assert_eq!(page2.rows.len(), 2);
        assert_eq!(page2.rows[0].mnemonic(), "DIV");
    }

    #[test]
    fn throughput_sort() {
        let segment = segment();
        let db = segment.db();
        let r = Query::new().uarch("Skylake").sort_by(SortKey::Throughput).limit(1).run(&db);
        assert_eq!(r.rows[0].mnemonic(), "ADD");
    }

    #[test]
    fn builder_and_wire_plan_answer_identically() {
        let segment = segment();
        let db = segment.db();
        let built = Query::new().uarch("Skylake").uses_port(6).sort_by_desc(SortKey::Latency);
        let wire = crate::QueryPlan::parse(&built.plan().to_query_string()).expect("parse");
        let a = built.run(&db);
        let b = Query::from_plan(wire).run(&db);
        assert_eq!(a.total_matches, b.total_matches);
        let names = |r: &QueryResult<'_>| {
            r.rows.iter().map(|v| v.mnemonic().to_string()).collect::<Vec<_>>()
        };
        assert_eq!(names(&a), names(&b));
    }

    #[test]
    fn empty_posting_list_is_usable() {
        // IdList::empty() flows through the planner when an index has no
        // entry for a resolved symbol.
        assert!(IdList::empty().is_empty());
    }
}
