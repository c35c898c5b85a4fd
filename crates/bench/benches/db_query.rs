//! Benchmarks of the `uops-db` storage and query engine on a database of
//! 500+ variants per microarchitecture (the scale of one generation in the
//! paper's dataset):
//!
//! * **open**: TLV decode + in-memory index build vs zero-copy segment
//!   validation — the cost of going from bytes on disk to the first
//!   answered query;
//! * **query**: indexed lookups vs linear scans, multi-filter galloping
//!   intersection on both backends, and the legacy single-index+filter
//!   strategy the planner replaced;
//! * **merge**: k-way merging of per-uarch segment shards.
//!
//! Besides the human-readable report, the run writes a machine-readable
//! summary, with the machine's core count, to `BENCH_db.json` (override
//! the path with the `BENCH_DB_JSON` environment variable) for CI
//! artifact upload, and asserts the headline
//! acceptance numbers: segment open ≥ 10x faster than TLV open, and the
//! galloping multi-filter query no slower than the legacy strategy.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use uops_db::{DbBackend, InstructionDb, Query, Segment, SegmentDb, Snapshot, VariantRecord};

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

/// The hand-rolled baseline: filter by scanning every record, resolving
/// strings for comparison — what consumers do without the index layer.
fn linear_scan_port(db: &InstructionDb, uarch: &str, port: u8) -> usize {
    db.iter().filter(|v| v.uarch() == uarch && v.record().port_union & (1u16 << port) != 0).count()
}

fn linear_scan_mnemonic(db: &InstructionDb, mnemonic: &str) -> usize {
    db.iter().filter(|v| v.mnemonic() == mnemonic).count()
}

/// The query planner's strategy before galloping intersection landed: walk
/// the single (uarch, port) posting list, apply the residual µop filter,
/// and sort with keys re-derived inside the comparator. Kept here as the
/// regression baseline for the multi-filter acceptance check.
fn legacy_multi_filter(db: &InstructionDb, uarch: &str, port: u8, min_uops: u32) -> Vec<u32> {
    let mut matches: Vec<u32> = db
        .ids_by_port(uarch, port)
        .iter()
        .copied()
        .filter(|&id| db.record(id).uop_count >= min_uops)
        .collect();
    let name_key = |id: u32| {
        let r = db.record(id);
        (db.resolve(r.mnemonic), db.resolve(r.variant), db.resolve(r.uarch))
    };
    matches.sort_by(|&a, &b| {
        db.record(a)
            .tp_measured
            .total_cmp(&db.record(b).tp_measured)
            .then_with(|| name_key(a).cmp(&name_key(b)))
    });
    matches
}

/// Median wall-clock of `runs` timed executions of `f` (with warmup),
/// in nanoseconds — the numbers exported to `BENCH_db.json`.
fn median_ns<T>(runs: usize, mut f: impl FnMut() -> T) -> f64 {
    for _ in 0..3 {
        black_box(f());
    }
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn bench_db_query(c: &mut Criterion) {
    let snapshot = synthetic_snapshot(700);
    let db = InstructionDb::from_snapshot(&snapshot);
    assert!(db.len() >= 500 * 3, "bench db must hold 500+ variants per uarch");
    let tlv_bytes = uops_db::codec::encode(&snapshot);
    let seg_image = Segment::encode(&snapshot);
    let segment = Segment::from_bytes(seg_image.clone()).expect("valid segment");
    let seg_db = segment.db();
    let shards: Vec<Segment> = shard_snapshots(&snapshot)
        .iter()
        .map(|s| Segment::from_bytes(Segment::encode(s)).expect("valid shard"))
        .collect();

    let mut group = c.benchmark_group("db_query");

    // ---- open: bytes on disk → first queryable database ----
    group.bench_function("open/tlv_decode_and_index", |b| {
        b.iter(|| {
            let snapshot = uops_db::codec::decode(black_box(&tlv_bytes)).expect("decode");
            black_box(InstructionDb::from_snapshot(&snapshot).len())
        })
    });
    group.bench_function("open/segment_zero_copy", |b| {
        b.iter(|| black_box(SegmentDb::open(black_box(&seg_image)).expect("open").len()))
    });

    // ---- point and single-index lookups ----
    group.bench_function("indexed/port_on_uarch", |b| {
        b.iter(|| black_box(db.ids_by_port(black_box("Skylake"), black_box(5)).len()))
    });
    group.bench_function("linear/port_on_uarch", |b| {
        b.iter(|| black_box(linear_scan_port(&db, black_box("Skylake"), black_box(5))))
    });
    group.bench_function("indexed/mnemonic", |b| {
        b.iter(|| black_box(db.ids_by_mnemonic(black_box("OP0042")).len()))
    });
    group.bench_function("linear/mnemonic", |b| {
        b.iter(|| black_box(linear_scan_mnemonic(&db, black_box("OP0042"))))
    });
    group.bench_function("query/point_lookup", |b| {
        b.iter(|| black_box(db.find("OP0042", "XMM, XMM", "Skylake").is_some()))
    });
    group.bench_function("query/point_lookup_segment", |b| {
        b.iter(|| black_box(seg_db.find_id("OP0042", "XMM, XMM", "Skylake").is_some()))
    });

    // ---- multi-filter queries: galloping planner on both backends vs the
    // legacy single-index strategy ----
    let multi_filter = Query::new()
        .uarch("Skylake")
        .uses_port(5)
        .min_uops(2)
        .sort_by(uops_db::SortKey::Throughput)
        .limit(20);
    group.bench_function("query/multi_filter_gallop", |b| {
        b.iter(|| black_box(multi_filter.run(&db).total_matches))
    });
    group.bench_function("query/multi_filter_gallop_segment", |b| {
        b.iter(|| black_box(multi_filter.run(&seg_db).total_matches))
    });
    group.bench_function("query/multi_filter_legacy", |b| {
        b.iter(|| black_box(legacy_multi_filter(&db, black_box("Skylake"), 5, 2).len()))
    });

    // ---- merge: k-way shard merging ----
    group.bench_function("merge/three_uarch_shards", |b| {
        b.iter(|| black_box(Segment::merge(black_box(&shards)).len()))
    });
    group.finish();

    // ---- correctness: every strategy answers identically ----
    assert_eq!(db.ids_by_port("Skylake", 5).len(), linear_scan_port(&db, "Skylake", 5));
    let mem_result = multi_filter.run(&db);
    let seg_result = multi_filter.run(&seg_db);
    assert_eq!(mem_result.total_matches, seg_result.total_matches);
    let mem_rows: Vec<_> =
        mem_result.rows.iter().map(|v| (v.mnemonic(), v.variant(), v.uarch())).collect();
    let seg_rows: Vec<_> =
        seg_result.rows.iter().map(|v| (v.mnemonic(), v.variant(), v.uarch())).collect();
    assert_eq!(mem_rows, seg_rows, "backends must answer multi-filter queries identically");
    let legacy = legacy_multi_filter(&db, "Skylake", 5, 2);
    assert_eq!(legacy.len(), mem_result.total_matches);
    let legacy_rows: Vec<_> = legacy
        .iter()
        .take(20)
        .map(|&id| {
            let v = db.view(id);
            (v.mnemonic(), v.variant(), v.uarch())
        })
        .collect();
    assert_eq!(legacy_rows, mem_rows, "planner rework must not change results");
    let merged = Segment::merge(&shards);
    assert_eq!(merged.as_bytes(), segment.as_bytes(), "shard merge must equal single-pass build");

    // ---- machine-readable summary + acceptance gates ----
    let open_tlv_ns = median_ns(15, || {
        let snapshot = uops_db::codec::decode(&tlv_bytes).expect("decode");
        InstructionDb::from_snapshot(&snapshot).len()
    });
    let open_segment_ns = median_ns(15, || SegmentDb::open(&seg_image).expect("open").len());
    let open_speedup = open_tlv_ns / open_segment_ns.max(1.0);
    let gallop_ns = median_ns(15, || multi_filter.run(&db).total_matches);
    let gallop_segment_ns = median_ns(15, || multi_filter.run(&seg_db).total_matches);
    let legacy_ns = median_ns(15, || legacy_multi_filter(&db, "Skylake", 5, 2).len());
    let merge_ns = median_ns(15, || Segment::merge(&shards).len());
    let merge_records_per_sec = merged.len() as f64 / (merge_ns / 1e9);

    assert!(
        open_speedup >= 10.0,
        "segment open must be >= 10x faster than TLV decode + index \
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
        "{{\n  \"cores\": {},\n  \"records\": {},\n  \"open_tlv_ns\": {:.0},\n  \"open_segment_ns\": {:.0},\n  \
         \"open_speedup\": {:.1},\n  \"query_multi_filter_ns\": {{\n    \"gallop\": {:.0},\n    \
         \"gallop_segment\": {:.0},\n    \"legacy_single_index\": {:.0}\n  }},\n  \"merge\": {{\n    \
         \"shards\": {},\n    \"records\": {},\n    \"ns\": {:.0},\n    \"records_per_sec\": {:.0}\n  \
         }}\n}}\n",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        db.len(),
        open_tlv_ns,
        open_segment_ns,
        open_speedup,
        gallop_ns,
        gallop_segment_ns,
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

criterion_group!(benches, bench_db_query);
criterion_main!(benches);
