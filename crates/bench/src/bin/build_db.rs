//! Builds a persistent instruction-characterization database: characterizes
//! a slice of the catalog on every supported microarchitecture, writes the
//! snapshot in the requested encodings, reloads it, and runs a few queries
//! plus a cross-generation diff — the end-to-end pipeline behind uops.info.
//!
//! The per-architecture sweeps are independent (backend and engine are both
//! per-arch), so they are sharded over a work-stealing thread pool; within a
//! shard, any leftover thread budget parallelizes the variant sweep itself.
//! Reports are reassembled in `MicroArch::ALL` order and each variant sweep
//! is deterministic in catalog order, so the resulting snapshot is
//! byte-identical to a serial run's.
//!
//! Two persistent formats are written and compared:
//!
//! * **TLV** (`PREFIX.bin` + `PREFIX.json`): the compact interchange
//!   encoding — loading decodes every record.
//! * **Segment** (`PREFIX.seg`): the zero-copy query format — opening
//!   validates the header and section table only; queries read the image
//!   in place. The run prints both open times and the bytes each path
//!   touches, so the load-time win is visible in one run. The queries and
//!   the diff run on the segment (built from the decoded TLV snapshot when
//!   only TLV was written).
//!
//! With `--merge`, each architecture shard is additionally written as its
//! own segment (`PREFIX.shard-<arch>.seg`) and the final segment is
//! produced by `Segment::merge` instead of a single-pass encode; the run
//! asserts the merged image is byte-identical to the single-pass one.
//!
//! Usage: `cargo run --release --bin build_db [-- OPTIONS] [OUTPUT_PREFIX]`
//!
//! * `--threads N` — total worker-thread budget for the sweeps (default:
//!   the number of available cores).
//! * `--serial`    — run everything on the calling thread (equivalent to
//!   `--threads 1`); useful as the baseline for speedup measurements.
//! * `--format tlv|segment|both` — which persistent encodings to write
//!   (default `both`).
//! * `--merge`     — write per-arch segment shards and k-way-merge them
//!   into the final segment (implies the segment format).
//! * `OUTPUT_PREFIX` — output path prefix (default `uops_snapshot`).

use std::fs;
use std::time::{Duration, Instant};

use uops_bench::experiment_setup;
use uops_core::{report_to_snapshot, reports_to_snapshot};
use uops_db::{diff_uarches, Query, Segment, Snapshot, SortKey};
use uops_isa::Catalog;
use uops_pool::Parallelism;
use uops_serve::args::CliSpec;
use uops_uarch::MicroArch;

/// The catalog slice characterized by this experiment: a mix of ALU,
/// shift, vector, AES, and divider instructions covering the paper's case
/// studies.
const SELECTION: [(&str, &str); 10] = [
    ("ADD", "R64, R64"),
    ("ADC", "R64, R64"),
    ("SHLD", "R64, R64, I8"),
    ("AESDEC", "XMM, XMM"),
    ("MOVQ2DQ", "XMM, MM"),
    ("PBLENDVB", "XMM, XMM"),
    ("PADDD", "XMM, XMM"),
    ("MULPS", "XMM, XMM"),
    ("VADDPS", "XMM, XMM, XMM"),
    ("DIV", "R32"),
];

/// Which persistent encodings to write.
#[derive(Clone, Copy, PartialEq)]
enum Format {
    Tlv,
    Segment,
    Both,
}

impl Format {
    fn tlv(self) -> bool {
        matches!(self, Format::Tlv | Format::Both)
    }

    fn segment(self) -> bool {
        matches!(self, Format::Segment | Format::Both)
    }
}

/// Command-line options, parsed via the workspace's shared declarative
/// helper ([`uops_serve::args`]) — the same one the `serve` binary uses,
/// so both reject unknown flags with usage and exit status 2 instead of
/// silently ignoring them.
struct Options {
    threads: usize,
    prefix: String,
    format: Format,
    merge: bool,
}

const SPEC: CliSpec<'static> = CliSpec {
    name: "build_db",
    usage: "build_db [--threads N | --serial] [--format tlv|segment|both] [--merge] \
            [OUTPUT_PREFIX]",
    value_flags: &["--threads", "--format"],
    bool_flags: &["--serial", "--merge"],
    optional_value_flags: &[],
    max_positional: 1,
};

fn parse_args() -> Options {
    let args = SPEC.parse_or_exit();
    let threads = if args.flag("--serial") {
        1
    } else {
        match args.parsed_value::<usize>("--threads") {
            Ok(n) => n.unwrap_or_else(|| Parallelism::Auto.thread_count()).max(1),
            Err(message) => SPEC.exit_usage(&message),
        }
    };
    let format = match args.value("--format") {
        None => Format::Both,
        Some("tlv") => Format::Tlv,
        Some("segment") => Format::Segment,
        Some("both") => Format::Both,
        Some(other) => SPEC.exit_usage(&format!("invalid --format value: {other}")),
    };
    let merge = args.flag("--merge");
    if merge && !format.segment() {
        SPEC.exit_usage("--merge requires the segment format (--format segment|both)");
    }
    Options {
        threads,
        prefix: args.positional.first().cloned().unwrap_or_else(|| "uops_snapshot".to_string()),
        format,
        merge,
    }
}

/// Human-readable byte count.
fn fmt_bytes(n: usize) -> String {
    if n >= 1 << 20 {
        format!("{:.1} MiB", n as f64 / (1 << 20) as f64)
    } else if n >= 1 << 10 {
        format!("{:.1} KiB", n as f64 / (1 << 10) as f64)
    } else {
        format!("{n} B")
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let opts = parse_args();
    let catalog = Catalog::intel_core();

    // Shard the sweeps per architecture over the thread budget; threads
    // beyond the number of architectures parallelize within a shard (the
    // first `threads % shards` shards absorb the remainder, so the whole
    // budget is used even when it doesn't divide evenly).
    let arches = MicroArch::ALL;
    let shards = opts.threads.min(arches.len());
    let inner_for = |shard: usize| {
        let extra = usize::from(shard < opts.threads % shards);
        match opts.threads / shards + extra {
            1 => Parallelism::Serial,
            n => Parallelism::Fixed(n),
        }
    };
    let outer = if opts.threads == 1 { Parallelism::Serial } else { Parallelism::Fixed(shards) };
    println!(
        "characterizing {} variants x {} uarches ({} threads: {shards} shards, {}-{} within each)",
        SELECTION.len(),
        arches.len(),
        opts.threads,
        inner_for(shards - 1).thread_count(),
        inner_for(0).thread_count(),
    );

    let sweep_start = Instant::now();
    let reports = uops_pool::parallel_map_indexed(outer, arches.len(), |i| {
        let (backend, engine) = experiment_setup(&catalog, arches[i]);
        engine.characterize_matching_parallel(
            &backend,
            |d| SELECTION.iter().any(|(m, v)| d.mnemonic == *m && d.variant() == *v),
            inner_for(i),
        )
    });
    let wall = sweep_start.elapsed();

    // Per-arch wall-clock, in deterministic MicroArch::ALL order.
    for report in &reports {
        let arch = report.arch.expect("per-arch report");
        println!(
            "{:<14} characterized {:>3} variants ({} skipped) in {:>8.2?}",
            arch.name(),
            report.characterized_count(),
            report.skipped.len(),
            report.duration,
        );
    }
    // Concurrency gain = per-arch sum / wall: how much sharding compressed
    // the timeline vs running the same (possibly inner-parallel) shards
    // back-to-back. With inner = 1 thread per shard this is the speedup
    // over a fully serial sweep.
    let shard_sum: Duration = reports.iter().map(|r| r.duration).sum();
    println!(
        "sweep wall-clock {wall:.2?}, per-arch sum {shard_sum:.2?} => {:.2}x concurrency gain on {} threads",
        shard_sum.as_secs_f64() / wall.as_secs_f64().max(1e-9),
        opts.threads
    );

    // Reports → canonical snapshot → the requested encodings on disk.
    let mut snapshot = reports_to_snapshot(&reports);
    snapshot.canonicalize();
    let mut written = Vec::new();

    let bin_path = format!("{}.bin", opts.prefix);
    let mut tlv_bytes = None;
    if opts.format.tlv() {
        let json_path = format!("{}.json", opts.prefix);
        let bytes = uops_db::codec::encode(&snapshot);
        fs::write(&bin_path, &bytes)?;
        fs::write(&json_path, uops_db::json::to_json(&snapshot))?;
        written.push(format!("{} ({})", bin_path, fmt_bytes(bytes.len())));
        written.push(json_path);
        tlv_bytes = Some(bytes);
    }

    let seg_path = format!("{}.seg", opts.prefix);
    if opts.format.segment() {
        let seg = if opts.merge {
            merged_segment(&reports, &snapshot, &opts.prefix)?
        } else {
            Segment::write(&snapshot, &seg_path)?
        };
        if opts.merge {
            fs::write(&seg_path, seg.as_bytes())?;
        }
        written.push(format!("{} ({})", seg_path, fmt_bytes(seg.as_bytes().len())));
    }
    println!(
        "\nwrote {} records for {} uarches: {}",
        snapshot.len(),
        snapshot.uarches.len(),
        written.join(", ")
    );

    // Open-time comparison: TLV decode vs zero-copy segment open, with the
    // bytes each path materializes/touches. Each written format reports its
    // own open time; the speedup line needs both.
    let mut tlv_open = None;
    let mut restored = None;
    if let Some(bytes) = &tlv_bytes {
        let t = Instant::now();
        let decoded = uops_db::codec::decode(&fs::read(&bin_path)?)?;
        let elapsed = t.elapsed();
        tlv_open = Some(elapsed);
        assert_eq!(decoded, snapshot, "binary round trip must be lossless");
        println!(
            "open TLV:     {elapsed:>10.2?}  (decoded {} into ~{}; {} on disk)",
            decoded.len(),
            fmt_bytes(decoded.approx_heap_bytes()),
            fmt_bytes(bytes.len()),
        );
        restored = Some(decoded);
    }
    let segment = if opts.format.segment() {
        let t = Instant::now();
        let seg = Segment::open(&seg_path)?;
        let seg_open = t.elapsed();
        let speedup = tlv_open
            .map(|tlv| {
                format!(" => {:.0}x faster", tlv.as_secs_f64() / seg_open.as_secs_f64().max(1e-9))
            })
            .unwrap_or_default();
        println!(
            "open segment: {seg_open:>10.2?}  (validated {} of {} on disk; 0 records \
             decoded){speedup}",
            fmt_bytes(seg.db().open_cost_bytes()),
            fmt_bytes(seg.as_bytes().len()),
        );
        seg
    } else {
        // Only TLV was written: query a segment built from what it decoded.
        let restored = restored.as_ref().expect("the TLV format was written");
        Segment::from_bytes(Segment::encode(restored))?
    };
    let db = segment.db();

    // A few indexed queries.
    println!("\nport 5 users on Skylake:");
    for view in Query::new().uarch("Skylake").uses_port(5).sort_by(SortKey::Mnemonic).run(&db).rows
    {
        println!("  {:<10} {:<16} {}", view.mnemonic(), view.variant(), view.ports_notation());
    }
    let slowest = Query::new().uarch("Skylake").sort_by_desc(SortKey::Latency).limit(3).run(&db);
    println!("\nhighest-latency variants on Skylake:");
    for view in slowest.rows {
        println!(
            "  {:<10} {:<16} {:.2} cycles",
            view.mnemonic(),
            view.variant(),
            view.max_latency().unwrap_or(0.0)
        );
    }

    // The zero-copy reader must give back exactly the snapshot it was
    // built from.
    assert_eq!(db.export_snapshot(), snapshot, "the segment must export its snapshot losslessly");
    println!("\nsegment reader verified: lossless export of {} records", db.len());

    // Cross-generation diff (§5 findings).
    let diff = diff_uarches(&db, "Haswell", "Skylake");
    println!(
        "\nHaswell → Skylake: {} changed, {} unchanged, {} only on Haswell, {} only on Skylake",
        diff.changed.len(),
        diff.unchanged,
        diff.only_in_base.len(),
        diff.only_in_other.len()
    );
    for delta in &diff.changed {
        println!("  {} {}:", delta.mnemonic, delta.variant);
        for change in &delta.changes {
            println!("    {change:?}");
        }
    }
    Ok(())
}

/// The `--merge` path: write one segment shard per architecture, k-way
/// merge them, and assert the result is byte-identical to the single-pass
/// encode of the full snapshot.
fn merged_segment(
    reports: &[uops_core::CharacterizationReport],
    full_snapshot: &Snapshot,
    prefix: &str,
) -> Result<Segment, Box<dyn std::error::Error>> {
    let mut shards = Vec::with_capacity(reports.len());
    for report in reports {
        let arch = report.arch.expect("per-arch report");
        let shard_snapshot = report_to_snapshot(report);
        let path = format!("{}.shard-{}.seg", prefix, arch.name().replace(' ', "_"));
        shards.push(Segment::write(&shard_snapshot, &path)?);
    }
    let t = Instant::now();
    let merged = Segment::merge(&shards);
    let merge_time = t.elapsed();
    let single_pass = Segment::encode(full_snapshot);
    assert_eq!(
        merged.as_bytes(),
        single_pass.as_slice(),
        "merged shards must be byte-identical to a single-pass build"
    );
    println!(
        "merged {} shards ({} records) in {merge_time:.2?} ({:.0} records/s), byte-identical to \
         single-pass",
        shards.len(),
        merged.len(),
        merged.len() as f64 / merge_time.as_secs_f64().max(1e-9),
    );
    Ok(merged)
}
