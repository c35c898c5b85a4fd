//! The query executor: runs a canonical [`QueryPlan`] against a
//! [`SegmentDb`].
//!
//! Execution is index-driven: the planner collects the posting list of
//! every filter that has one, drives the scan from the **smallest** list,
//! and **gallop-intersects** the remaining lists (exponential probing from
//! a monotone cursor — cheap when one list is much smaller than the
//! others, the common shape for point-ish queries). Residual predicates
//! (prefix, µop and latency bounds) run only on the intersection. Sorting
//! computes each record's key **once per result set** — a key vector sort,
//! not a per-comparison re-derivation — and because a segment stores
//! records in canonical order, name sorts are integer compares on ids.
//!
//! [`QueryExec`] is the seam the serving stack builds on: the
//! [`crate::Query`] builder is a thin front producing plans, a response
//! cache keys on the plan's fingerprint, and a transport hands parsed wire
//! plans straight to the executor.

use std::collections::HashMap;

use crate::backend::{IdList, RecordView};
use crate::intern::Sym;
use crate::plan::{QueryPlan, SortKey};
use crate::segment::SegmentDb;
use uops_telemetry::{Histogram, Span};

/// Per-stage latency histograms for the query path: wire-plan parsing,
/// plan execution, and result encoding (nanoseconds).
///
/// The executor itself records only `execute_ns` (via
/// [`QueryExec::run_timed`]); the parse and encode stages belong to the
/// layers around it, which share this struct so one place owns the whole
/// stage breakdown. All fields are wait-free, allocation-free histograms,
/// and the constructor is `const`, so the set can live in a `static` or a
/// long-lived service struct.
#[derive(Debug, Default)]
pub struct ExecStageMetrics {
    /// Wire-plan parse + canonicalization time.
    pub parse_ns: Histogram,
    /// Plan execution time ([`QueryExec::run`]).
    pub execute_ns: Histogram,
    /// Result encoding time (JSON/binary/XML encoder).
    pub encode_ns: Histogram,
}

impl ExecStageMetrics {
    /// Creates zeroed stage histograms.
    pub const fn new() -> ExecStageMetrics {
        ExecStageMetrics {
            parse_ns: Histogram::new(),
            execute_ns: Histogram::new(),
            encode_ns: Histogram::new(),
        }
    }
}

/// The result of executing a query plan.
#[derive(Debug)]
pub struct QueryResult<'db> {
    /// Number of records matching the filters, before pagination.
    pub total_matches: usize,
    /// The requested page of matching records, in sort order.
    pub rows: Vec<RecordView<'db>>,
}

/// Executes [`QueryPlan`]s against a segment. Stateless — one executor can
/// run any number of plans; it exists as a type so layers above the
/// database (the query service, the server) name the execution step
/// explicitly instead of reaching into the builder.
#[must_use]
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryExec;

impl QueryExec {
    /// Creates an executor.
    pub fn new() -> QueryExec {
        QueryExec
    }

    /// Runs `plan` against `db`, recording the elapsed nanoseconds into
    /// `stages.execute_ns` via a [`Span`] scope guard (recorded on drop, so
    /// the timing covers early returns too).
    #[must_use]
    pub fn run_timed<'db>(
        self,
        plan: &QueryPlan,
        db: &'db SegmentDb<'db>,
        stages: &ExecStageMetrics,
    ) -> QueryResult<'db> {
        let _span = Span::start(&stages.execute_ns);
        self.run(plan, db)
    }

    /// Runs `plan` against `db`.
    #[must_use]
    pub fn run<'db>(self, plan: &QueryPlan, db: &'db SegmentDb<'db>) -> QueryResult<'db> {
        let (total_matches, ids) = self.run_ids(plan, db);
        QueryResult { total_matches, rows: ids.into_iter().map(|id| db.view(id)).collect() }
    }

    /// Runs `plan` against `db`, returning the pre-pagination match count
    /// and the requested page as raw record ids (sort order applied).
    ///
    /// This is the streaming entry point: callers that emit rows
    /// incrementally re-view each id on demand instead of materializing a
    /// row vector up front.
    #[must_use]
    pub fn run_ids(self, plan: &QueryPlan, db: &SegmentDb<'_>) -> (usize, Vec<u32>) {
        page_ids(plan, db, match_ids(plan, db, &mut Direct))
    }
}

/// Executes many plans against one segment, memoizing the per-plan
/// planner setup across the batch: filter-string symbol resolutions and
/// gathered posting lists are cached, so N plans filtering on the same
/// mnemonic/uarch/extension indexes pay the lookup once. Intersection,
/// residual filtering, and sorting still run per plan (their inputs
/// differ), but the index-probing prologue is shared.
///
/// The memo borrows nothing from the plans — filter strings are interned
/// into the memo on first sight — so one `BatchExec` can outlive the
/// plans it ran.
#[derive(Debug)]
pub struct BatchExec<'db> {
    db: &'db SegmentDb<'db>,
    memo: Memo<'db>,
}

impl<'db> BatchExec<'db> {
    /// Creates a batch executor over `db` with an empty memo.
    #[must_use]
    pub fn new(db: &'db SegmentDb<'db>) -> BatchExec<'db> {
        BatchExec { db, memo: Memo::default() }
    }

    /// Runs one plan of the batch, reusing any posting lists and symbol
    /// resolutions earlier plans already gathered.
    #[must_use]
    pub fn run(&mut self, plan: &QueryPlan) -> QueryResult<'db> {
        let (total_matches, ids) = self.run_ids(plan);
        let db = self.db;
        QueryResult { total_matches, rows: ids.into_iter().map(|id| db.view(id)).collect() }
    }

    /// [`BatchExec::run`] returning the page as raw record ids.
    #[must_use]
    pub fn run_ids(&mut self, plan: &QueryPlan) -> (usize, Vec<u32>) {
        page_ids(plan, self.db, match_ids(plan, self.db, &mut self.memo))
    }

    /// How many planner lookups (symbol resolutions + posting-list
    /// gathers) were answered from the memo instead of the segment.
    #[must_use]
    pub fn memo_hits(&self) -> u64 {
        self.memo.hits
    }
}

/// The planner's view of a segment's indexes: symbol resolution and
/// posting-list gathering. [`Direct`] passes straight through (the
/// single-plan path); [`Memo`] caches every answer (the batch path).
trait Planner<'db> {
    fn sym(&mut self, db: &SegmentDb<'db>, s: &str) -> Option<Sym>;
    fn mnemonic_list(&mut self, db: &SegmentDb<'db>, sym: Sym) -> IdList<'db>;
    fn uarch_list(&mut self, db: &SegmentDb<'db>, sym: Sym, port: Option<u8>) -> IdList<'db>;
    fn extension_list(&mut self, db: &SegmentDb<'db>, sym: Sym) -> IdList<'db>;
}

struct Direct;

impl<'db> Planner<'db> for Direct {
    fn sym(&mut self, db: &SegmentDb<'db>, s: &str) -> Option<Sym> {
        db.lookup_sym(s)
    }
    fn mnemonic_list(&mut self, db: &SegmentDb<'db>, sym: Sym) -> IdList<'db> {
        db.postings_by_mnemonic(sym)
    }
    fn uarch_list(&mut self, db: &SegmentDb<'db>, sym: Sym, port: Option<u8>) -> IdList<'db> {
        match port {
            Some(port) => db.postings_by_uarch_port(sym, port),
            None => db.postings_by_uarch(sym),
        }
    }
    fn extension_list(&mut self, db: &SegmentDb<'db>, sym: Sym) -> IdList<'db> {
        db.postings_by_extension(sym)
    }
}

/// Memoized planner state shared across one batch. `IdList` is `Copy`
/// (a borrowed slice), so cached lists cost two words each.
#[derive(Debug, Default)]
struct Memo<'db> {
    syms: HashMap<String, Option<Sym>>,
    mnemonic: HashMap<Sym, IdList<'db>>,
    uarch: HashMap<(Sym, Option<u8>), IdList<'db>>,
    extension: HashMap<Sym, IdList<'db>>,
    hits: u64,
}

impl<'db> Planner<'db> for Memo<'db> {
    fn sym(&mut self, db: &SegmentDb<'db>, s: &str) -> Option<Sym> {
        if let Some(&sym) = self.syms.get(s) {
            self.hits += 1;
            return sym;
        }
        let sym = db.lookup_sym(s);
        self.syms.insert(s.to_string(), sym);
        sym
    }
    fn mnemonic_list(&mut self, db: &SegmentDb<'db>, sym: Sym) -> IdList<'db> {
        if let Some(&list) = self.mnemonic.get(&sym) {
            self.hits += 1;
            return list;
        }
        *self.mnemonic.entry(sym).or_insert_with(|| db.postings_by_mnemonic(sym))
    }
    fn uarch_list(&mut self, db: &SegmentDb<'db>, sym: Sym, port: Option<u8>) -> IdList<'db> {
        if let Some(&list) = self.uarch.get(&(sym, port)) {
            self.hits += 1;
            return list;
        }
        *self.uarch.entry((sym, port)).or_insert_with(|| match port {
            Some(port) => db.postings_by_uarch_port(sym, port),
            None => db.postings_by_uarch(sym),
        })
    }
    fn extension_list(&mut self, db: &SegmentDb<'db>, sym: Sym) -> IdList<'db> {
        if let Some(&list) = self.extension.get(&sym) {
            self.hits += 1;
            return list;
        }
        *self.extension.entry(sym).or_insert_with(|| db.postings_by_extension(sym))
    }
}

/// The shared match core: resolves filters, gathers posting lists through
/// `planner`, and intersects + residual-filters into the unsorted match
/// set.
fn match_ids<'db>(
    plan: &QueryPlan,
    db: &SegmentDb<'db>,
    planner: &mut impl Planner<'db>,
) -> Vec<u32> {
    // Resolve the string filters to symbols once. A filter string the
    // segment has never seen means zero matches; a port beyond the
    // 16-bit mask can likewise never match.
    let mut unmatchable = plan.port.is_some_and(|p| p >= 16);
    let mut resolve = |s: &Option<String>, unmatchable: &mut bool| -> Option<Sym> {
        match s {
            None => None,
            Some(s) => match planner.sym(db, s) {
                Some(sym) => Some(sym),
                None => {
                    *unmatchable = true;
                    None
                }
            },
        }
    };
    let mnemonic = resolve(&plan.mnemonic, &mut unmatchable);
    let extension = resolve(&plan.extension, &mut unmatchable);
    let uarch = resolve(&plan.uarch, &mut unmatchable);
    if unmatchable {
        return Vec::new();
    }

    // Plan: gather the posting list of every filter that has one. The
    // (uarch, port) list subsumes the plain uarch list, so only one of
    // the two participates.
    let mut lists: Vec<IdList<'db>> = Vec::new();
    if let Some(sym) = mnemonic {
        lists.push(planner.mnemonic_list(db, sym));
    }
    if let Some(sym) = uarch {
        lists.push(planner.uarch_list(db, sym, plan.port));
    }
    if let Some(sym) = extension {
        lists.push(planner.extension_list(db, sym));
    }
    // Drive from the smallest list, gallop-intersect the rest.
    lists.sort_by_key(IdList::len);

    let prefix = plan.mnemonic_prefix.as_deref();
    let mut matches: Vec<u32> = Vec::new();
    match lists.split_first() {
        None => {
            for id in 0..db.len() as u32 {
                if matches_residual(plan, db, id, mnemonic, extension, uarch, prefix) {
                    matches.push(id);
                }
            }
        }
        Some((driver, rest)) => {
            let mut cursors = vec![0usize; rest.len()];
            'driver: for i in 0..driver.len() {
                let id = driver.get(i);
                for (list, cursor) in rest.iter().zip(cursors.iter_mut()) {
                    if !gallop_to(list, cursor, id) {
                        continue 'driver;
                    }
                }
                if matches_residual(plan, db, id, mnemonic, extension, uarch, prefix) {
                    matches.push(id);
                }
            }
        }
    }
    matches
}

/// Sorts the match set and cuts the requested page, returning
/// `(total_matches, page_ids)`.
fn page_ids(plan: &QueryPlan, db: &SegmentDb<'_>, mut matches: Vec<u32>) -> (usize, Vec<u32>) {
    let total_matches = matches.len();
    sort_ids(plan, db, &mut matches);
    if plan.offset > 0 {
        matches.drain(..plan.offset.min(matches.len()));
    }
    if let Some(limit) = plan.limit {
        matches.truncate(limit);
    }
    (total_matches, matches)
}

#[allow(clippy::too_many_arguments)]
fn matches_residual(
    plan: &QueryPlan,
    db: &SegmentDb<'_>,
    id: u32,
    mnemonic: Option<Sym>,
    extension: Option<Sym>,
    uarch: Option<Sym>,
    prefix: Option<&str>,
) -> bool {
    if let Some(sym) = mnemonic {
        if db.mnemonic_sym(id) != sym {
            return false;
        }
    }
    if let Some(sym) = extension {
        if db.extension_sym(id) != sym {
            return false;
        }
    }
    if let Some(sym) = uarch {
        if db.uarch_sym(id) != sym {
            return false;
        }
    }
    if let Some(port) = plan.port {
        // `run` rejected ports beyond the 16-bit mask up front; the
        // `port >= 16` guard here is defense in depth keeping the
        // shift sound if that ever changes. The union check also
        // covers the scan (no posting list) path.
        if port >= 16 || db.port_union(id) & (1u16 << port) == 0 {
            return false;
        }
    }
    if let Some(prefix) = prefix {
        if !db.resolve(db.mnemonic_sym(id)).starts_with(prefix) {
            return false;
        }
    }
    if let Some(n) = plan.min_uops {
        if db.uop_count(id) < n {
            return false;
        }
    }
    if let Some(n) = plan.max_uops {
        if db.uop_count(id) > n {
            return false;
        }
    }
    if plan.min_latency.is_some() || plan.max_latency.is_some() {
        let Some(latency) = db.max_latency(id) else { return false };
        if let Some(min) = plan.min_latency {
            if latency < min {
                return false;
            }
        }
        if let Some(max) = plan.max_latency {
            if latency > max {
                return false;
            }
        }
    }
    true
}

fn sort_ids(plan: &QueryPlan, db: &SegmentDb<'_>, ids: &mut [u32]) {
    // Keys are computed once per id into a key vector, then sorted —
    // never re-derived inside the comparator. Records are stored in
    // canonical (mnemonic, variant, uarch) order, so the id itself is the
    // name key, and every other sort tie-breaks on it.
    match plan.sort {
        SortKey::Mnemonic => ids.sort_unstable(),
        SortKey::Latency => {
            sort_by_key_vec(ids, |id| (F64Key(db.max_latency(id).unwrap_or(f64::NEG_INFINITY)), id))
        }
        SortKey::Throughput => sort_by_key_vec(ids, |id| (F64Key(db.tp_measured(id)), id)),
        SortKey::UopCount => sort_by_key_vec(ids, |id| (db.uop_count(id), id)),
    }
    if plan.descending {
        ids.reverse();
    }
}

/// Total-ordered `f64` sort key.
#[derive(PartialEq)]
struct F64Key(f64);

impl Eq for F64Key {}

impl PartialOrd for F64Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for F64Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Sorts `ids` by a key computed exactly once per element.
fn sort_by_key_vec<K: Ord>(ids: &mut [u32], mut key_of: impl FnMut(u32) -> K) {
    let mut keyed: Vec<(K, u32)> = ids.iter().map(|&id| (key_of(id), id)).collect();
    keyed.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    for (slot, (_, id)) in ids.iter_mut().zip(keyed) {
        *slot = id;
    }
}

/// Advances `cursor` to the first position in `list` holding an id `>=
/// target` (exponential probe + binary search), returning whether `target`
/// itself is present. Both the driver ids and the cursor move strictly
/// forward, so a whole intersection costs O(Σ log gap) instead of a
/// per-element binary search from scratch.
fn gallop_to(list: &IdList<'_>, cursor: &mut usize, target: u32) -> bool {
    let n = list.len();
    let mut lo = *cursor;
    if lo >= n {
        return false;
    }
    if list.get(lo) >= target {
        return list.get(lo) == target;
    }
    // Invariant: list[lo] < target. Double the step until overshoot.
    let mut step = 1usize;
    let mut hi;
    loop {
        match lo.checked_add(step) {
            Some(probe) if probe < n => {
                if list.get(probe) < target {
                    lo = probe;
                    step <<= 1;
                } else {
                    hi = probe;
                    break;
                }
            }
            _ => {
                hi = n;
                break;
            }
        }
    }
    // Binary search in (lo, hi]: first position with list[pos] >= target.
    let mut left = lo + 1;
    while left < hi {
        let mid = (left + hi) / 2;
        if list.get(mid) < target {
            left = mid + 1;
        } else {
            hi = mid;
        }
    }
    *cursor = left;
    left < n && list.get(left) == target
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::Segment;

    #[test]
    fn gallop_finds_every_member_and_no_others() {
        let ids: Vec<u32> = (0..4000).filter(|i| i % 7 == 0 || i % 11 == 0).collect();
        let le: Vec<u8> = ids.iter().flat_map(|id| id.to_le_bytes()).collect();
        let list = IdList::from_le(&le);
        let mut cursor = 0usize;
        for target in 0..4000u32 {
            let expected = target % 7 == 0 || target % 11 == 0;
            assert_eq!(gallop_to(&list, &mut cursor, target), expected, "target {target}");
        }
        // Exhausted cursor stays exhausted.
        assert!(!gallop_to(&list, &mut cursor, 5000));
        assert!(!gallop_to(&list, &mut cursor, 5001));
    }

    #[test]
    fn exec_runs_a_parsed_wire_plan() {
        use crate::snapshot::{Snapshot, VariantRecord};
        let mut s = Snapshot::new("exec test");
        for (m, uarch) in [("ADD", "Skylake"), ("ADC", "Skylake"), ("ADD", "Haswell")] {
            s.records.push(VariantRecord {
                mnemonic: m.into(),
                variant: "R64, R64".into(),
                extension: "BASE".into(),
                uarch: uarch.into(),
                uop_count: 1,
                ports: vec![(0b0100_0001, 1)],
                tp_measured: 0.5,
                ..Default::default()
            });
        }
        let segment = Segment::from_bytes(Segment::encode(&s)).expect("valid");
        let db = segment.db();
        let plan = QueryPlan::parse("uarch=Skylake&port=6").expect("parse");
        let result = QueryExec::new().run(&plan, &db);
        assert_eq!(result.total_matches, 2);
        assert_eq!(result.rows[0].mnemonic(), "ADC");
    }

    #[test]
    fn batch_exec_matches_singles_and_reuses_the_memo() {
        use crate::snapshot::{Snapshot, VariantRecord};
        let mut s = Snapshot::new("batch exec test");
        for (m, uarch) in
            [("ADD", "Skylake"), ("ADC", "Skylake"), ("ADD", "Haswell"), ("SHLD", "Haswell")]
        {
            s.records.push(VariantRecord {
                mnemonic: m.into(),
                variant: "R64, R64".into(),
                extension: "BASE".into(),
                uarch: uarch.into(),
                uop_count: 1,
                ports: vec![(0b0100_0001, 1)],
                tp_measured: 0.5,
                ..Default::default()
            });
        }
        let segment = Segment::from_bytes(Segment::encode(&s)).expect("valid");
        let db = segment.db();
        let plans: Vec<QueryPlan> = [
            "uarch=Skylake",
            "uarch=Skylake&port=6",
            "mnemonic=ADD",
            "mnemonic=ADD&uarch=Skylake",
            "uarch=Nehalem",
            "extension=BASE&sort=uops&desc=1&limit=2",
            "",
        ]
        .iter()
        .map(|q| QueryPlan::parse(q).expect("plan"))
        .collect();

        let mut batch = BatchExec::new(&db);
        for plan in &plans {
            let batched = batch.run(plan);
            let single = QueryExec::new().run(plan, &db);
            assert_eq!(batched.total_matches, single.total_matches, "{}", plan.to_query_string());
            let ids = |r: &QueryResult<'_>| -> Vec<String> {
                r.rows.iter().map(|v| format!("{}/{}", v.mnemonic(), v.uarch())).collect()
            };
            assert_eq!(ids(&batched), ids(&single), "{}", plan.to_query_string());
        }
        // Skylake's uarch list, ADD's mnemonic list, and the BASE symbol
        // all recur across the batch: the memo must have absorbed repeats.
        assert!(batch.memo_hits() >= 3, "memo hits: {}", batch.memo_hits());

        // `run_ids` pagination agrees with the materialized rows.
        let plan = QueryPlan::parse("sort=uops&offset=1&limit=2").expect("plan");
        let (total, ids) = BatchExec::new(&db).run_ids(&plan);
        let full = QueryExec::new().run(&plan, &db);
        assert_eq!(total, full.total_matches);
        assert_eq!(ids.len(), full.rows.len());
    }

    #[test]
    fn run_timed_records_execute_stage_and_matches_run() {
        use crate::snapshot::{Snapshot, VariantRecord};
        let mut s = Snapshot::new("timed exec test");
        s.records.push(VariantRecord {
            mnemonic: "ADD".into(),
            variant: "R64, R64".into(),
            extension: "BASE".into(),
            uarch: "Skylake".into(),
            uop_count: 1,
            ports: vec![(0b0100_0001, 1)],
            tp_measured: 0.25,
            ..Default::default()
        });
        let segment = Segment::from_bytes(Segment::encode(&s)).expect("valid");
        let db = segment.db();
        let plan = QueryPlan::parse("uarch=Skylake").expect("parse");
        let stages = ExecStageMetrics::new();
        let timed = QueryExec::new().run_timed(&plan, &db, &stages);
        let plain = QueryExec::new().run(&plan, &db);
        assert_eq!(timed.total_matches, plain.total_matches);
        assert_eq!(stages.execute_ns.count(), 1, "one execution span recorded");
        assert_eq!(stages.parse_ns.count(), 0, "parse stage belongs to the caller");
        assert_eq!(stages.encode_ns.count(), 0, "encode stage belongs to the caller");
    }
}
