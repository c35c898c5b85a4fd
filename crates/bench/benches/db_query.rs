//! Benchmarks of the `uops-db` storage and query engine on a database of
//! 500+ variants per microarchitecture (the scale of one generation in the
//! paper's dataset):
//!
//! * **open**: TLV decode vs zero-copy segment validation — the cost of
//!   going from bytes on disk to a readable dataset;
//! * **query**: the galloping-intersection multi-filter planner vs the
//!   legacy single-index+filter strategy it replaced (posting-list lookups
//!   are checked against linear scans over the segment's record views);
//! * **merge**: k-way merging of per-uarch segment shards.
//!
//! Every timed number is a [`median_ns`]. The run writes a machine-readable
//! summary, with the machine's core count, to `BENCH_db.json` (override
//! the path with the `BENCH_DB_JSON` environment variable) for CI
//! artifact upload, and asserts the headline
//! acceptance numbers: segment open ≥ 10x faster than TLV decode, and the
//! galloping multi-filter query no slower than the legacy strategy.

use uops_bench::median_ns;
use uops_db::{Query, Segment, SegmentDb, Snapshot, VariantRecord};

/// Builds a synthetic snapshot with `per_uarch` variants on three
/// microarchitectures, mimicking the shape of real characterization data
/// (a few hundred mnemonics, several variants each, skewed port masks).
fn synthetic_snapshot(per_uarch: usize) -> Snapshot {
    let uarches = ["Haswell", "Skylake", "Coffee Lake"];
    let extensions = ["BASE", "SSE2", "SSSE3", "AVX", "AVX2", "BMI2"];
    let variants = ["R64, R64", "R32, R32", "XMM, XMM", "YMM, YMM, YMM", "R64, M64"];
    let masks: [u16; 6] =
        [0b0110_0011, 0b0100_0001, 0b0010_0011, 0b0000_0011, 0b0000_1100, 0b0011_0000];
    let mut snapshot = Snapshot::new("db_query bench");
    for uarch in uarches {
        for i in 0..per_uarch {
            let mnemonic =
                format!("{}OP{:04}", if i % 3 == 0 { "V" } else { "" }, i / variants.len());
            snapshot.records.push(VariantRecord {
                mnemonic,
                variant: variants[i % variants.len()].to_string(),
                extension: extensions[i % extensions.len()].to_string(),
                uarch: uarch.to_string(),
                uop_count: (i % 4 + 1) as u32,
                ports: vec![(masks[i % masks.len()], (i % 4 + 1) as u32)],
                tp_measured: 0.25 * (i % 8 + 1) as f64,
                ..Default::default()
            });
        }
    }
    snapshot
}

/// One snapshot per microarchitecture — the shard shape `build_db --merge`
/// produces.
fn shard_snapshots(snapshot: &Snapshot) -> Vec<Snapshot> {
    let mut shards: Vec<Snapshot> = Vec::new();
    for uarch in ["Haswell", "Skylake", "Coffee Lake"] {
        let mut shard = Snapshot::new(&*snapshot.generator);
        shard.records = snapshot.records.iter().filter(|r| r.uarch == uarch).cloned().collect();
        shards.push(shard);
    }
    shards
}

/// The hand-rolled baseline: filter by scanning every record view,
/// resolving strings for comparison — what consumers do without the
/// posting lists.
fn linear_scan_port(db: &SegmentDb<'_>, uarch: &str, port: u8) -> usize {
    db.views().filter(|v| v.uarch() == uarch && v.port_union() & (1u16 << port) != 0).count()
}

fn linear_scan_mnemonic(db: &SegmentDb<'_>, mnemonic: &str) -> usize {
    db.views().filter(|v| v.mnemonic() == mnemonic).count()
}

/// The (uarch, port) posting list, symbol lookup included.
fn indexed_port(db: &SegmentDb<'_>, uarch: &str, port: u8) -> usize {
    db.lookup_sym(uarch).map_or(0, |sym| db.postings_by_uarch_port(sym, port).len())
}

/// The mnemonic posting list, symbol lookup included.
fn indexed_mnemonic(db: &SegmentDb<'_>, mnemonic: &str) -> usize {
    db.lookup_sym(mnemonic).map_or(0, |sym| db.postings_by_mnemonic(sym).len())
}

/// The query planner's strategy before galloping intersection landed: walk
/// the single (uarch, port) posting list, apply the residual µop filter,
/// and sort with keys re-derived inside the comparator (the name tiebreak
/// is the id: records are stored in name order). Kept here as the
/// regression baseline for the multi-filter acceptance check.
fn legacy_multi_filter(db: &SegmentDb<'_>, uarch: &str, port: u8, min_uops: u32) -> Vec<u32> {
    let Some(sym) = db.lookup_sym(uarch) else { return Vec::new() };
    let mut matches: Vec<u32> = db
        .postings_by_uarch_port(sym, port)
        .iter()
        .filter(|&id| db.uop_count(id) >= min_uops)
        .collect();
    matches.sort_by(|&a, &b| db.tp_measured(a).total_cmp(&db.tp_measured(b)).then(a.cmp(&b)));
    matches
}

fn main() {
    let snapshot = synthetic_snapshot(700);
    let tlv_bytes = uops_db::codec::encode(&snapshot);
    let seg_image = Segment::encode(&snapshot);
    let segment = Segment::from_bytes(seg_image.clone()).expect("valid segment");
    let db = segment.db();
    assert!(db.len() >= 500 * 3, "bench db must hold 500+ variants per uarch");
    let shards: Vec<Segment> = shard_snapshots(&snapshot)
        .iter()
        .map(|s| Segment::from_bytes(Segment::encode(s)).expect("valid shard"))
        .collect();

    let multi_filter = Query::new()
        .uarch("Skylake")
        .uses_port(5)
        .min_uops(2)
        .sort_by(uops_db::SortKey::Throughput)
        .limit(20);

    // ---- correctness: every strategy answers identically ----
    assert_eq!(indexed_port(&db, "Skylake", 5), linear_scan_port(&db, "Skylake", 5));
    assert_eq!(indexed_mnemonic(&db, "OP0042"), linear_scan_mnemonic(&db, "OP0042"));
    let result = multi_filter.run(&db);
    let rows: Vec<_> = result.rows.iter().map(|v| (v.mnemonic(), v.variant(), v.uarch())).collect();
    let legacy = legacy_multi_filter(&db, "Skylake", 5, 2);
    assert_eq!(legacy.len(), result.total_matches);
    let legacy_rows: Vec<_> = legacy
        .iter()
        .take(20)
        .map(|&id| {
            let v = db.view(id);
            (v.mnemonic(), v.variant(), v.uarch())
        })
        .collect();
    assert_eq!(legacy_rows, rows, "planner rework must not change results");
    let merged = Segment::merge(&shards);
    assert_eq!(merged.as_bytes(), segment.as_bytes(), "shard merge must equal single-pass build");

    // ---- machine-readable summary + acceptance gates ----
    let open_tlv_ns = median_ns(15, || uops_db::codec::decode(&tlv_bytes).expect("decode"));
    let open_segment_ns = median_ns(15, || SegmentDb::open(&seg_image).expect("open").len());
    let open_speedup = open_tlv_ns / open_segment_ns.max(1.0);
    let gallop_ns = median_ns(15, || multi_filter.run(&db).total_matches);
    let legacy_ns = median_ns(15, || legacy_multi_filter(&db, "Skylake", 5, 2).len());
    let merge_ns = median_ns(15, || Segment::merge(&shards).len());
    let merge_records_per_sec = merged.len() as f64 / (merge_ns / 1e9);

    assert!(
        open_speedup >= 10.0,
        "segment open must be >= 10x faster than TLV decode \
         (tlv {open_tlv_ns:.0} ns vs segment {open_segment_ns:.0} ns = {open_speedup:.1}x)"
    );
    // Generous noise margin: the requirement is "no slower", the typical
    // result is meaningfully faster.
    assert!(
        gallop_ns <= legacy_ns * 1.25,
        "galloping multi-filter query must not be slower than the legacy path \
         (gallop {gallop_ns:.0} ns vs legacy {legacy_ns:.0} ns)"
    );

    let json = format!(
        "{{\n  \"cores\": {},\n  \"records\": {},\n  \"open_tlv_decode_ns\": {:.0},\n  \
         \"open_segment_ns\": {:.0},\n  \"open_speedup\": {:.1},\n  \"query_multi_filter_ns\": {{\n    \
         \"gallop\": {:.0},\n    \"legacy_single_index\": {:.0}\n  }},\n  \"merge\": {{\n    \
         \"shards\": {},\n    \"records\": {},\n    \"ns\": {:.0},\n    \"records_per_sec\": {:.0}\n  \
         }}\n}}\n",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        db.len(),
        open_tlv_ns,
        open_segment_ns,
        open_speedup,
        gallop_ns,
        legacy_ns,
        shards.len(),
        merged.len(),
        merge_ns,
        merge_records_per_sec,
    );
    let path = std::env::var("BENCH_DB_JSON").unwrap_or_else(|_| "BENCH_db.json".to_string());
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nwrote {path}:\n{json}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
