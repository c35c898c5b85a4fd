//! Reproduces the paper's evaluation: first the findings of §5.1, §7.2 and
//! §7.3.1–§7.3.6 (the table in `uops_bench::findings`, each row with the
//! paper's value and the observed one), then **Table 1**: for every
//! microarchitecture generation, the number of characterized instruction
//! variants, the IACA versions that support the generation, the percentage
//! of variants for which IACA reports the same µop count (excluding
//! LOCK/REP), and — among those — the percentage with matching port usage.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p uops-bench --bin paper [-- --sample N] [--arch NAME]... [--timing]
//! ```
//!
//! `--sample N` characterizes every N-th catalog variant for Table 1
//! (default 8; use 1 for the full catalog). `--arch` restricts both the
//! findings and Table 1 to the named generations. `--timing` additionally
//! prints the wall-clock time of each per-architecture run (the analogue of
//! the 50–110 minute tool run times reported in §7.1). Exits with status 1
//! if a finding reads neither the paper's value nor its recorded divergence.

use uops_bench::findings::observe_all;
use uops_bench::{experiment_setup, to_measured_instructions, Table};
use uops_iaca::{compare_against_iaca, IacaVersion};
use uops_isa::Catalog;
use uops_uarch::MicroArch;

struct Args {
    sample: usize,
    archs: Vec<MicroArch>,
    timing: bool,
}

fn parse_args() -> Args {
    let mut args = Args { sample: 8, archs: Vec::new(), timing: false };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--sample" => {
                args.sample = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--sample requires a positive integer");
            }
            "--arch" => {
                let name = iter.next().expect("--arch requires a name");
                let arch = MicroArch::ALL
                    .into_iter()
                    .find(|a| a.name().eq_ignore_ascii_case(&name))
                    .unwrap_or_else(|| panic!("unknown microarchitecture '{name}'"));
                args.archs.push(arch);
            }
            "--timing" => args.timing = true,
            other => panic!("unknown argument '{other}'"),
        }
    }
    if args.archs.is_empty() {
        args.archs = MicroArch::ALL.to_vec();
    }
    args.sample = args.sample.max(1);
    args
}

/// Prints the findings table and returns the number of rows that fail their
/// check.
fn print_findings(catalog: &Catalog, archs: &[MicroArch]) -> usize {
    println!("Findings of §5.1, §7.2 and §7.3 on the simulator\n");
    let mut table =
        Table::new(&["section", "instruction", "uarch", "field", "paper", "observed", "note"]);
    let mut failures = 0;
    for (finding, observed) in observe_all(catalog, archs) {
        let note = match (finding.check(&observed), finding.divergence) {
            (Err(e), _) => {
                failures += 1;
                format!("FAIL: {e}")
            }
            (Ok(()), Some((_, reason))) => format!("diverges: {reason}"),
            (Ok(()), None) => String::new(),
        };
        table.row(&[
            finding.section.to_string(),
            finding.instruction(),
            finding.arch.name().to_string(),
            finding.field.to_string(),
            finding.paper.to_string(),
            observed,
            note,
        ]);
    }
    println!("{}", table.render());
    failures
}

fn main() {
    let args = parse_args();
    let catalog = Catalog::intel_core();
    let failures = print_findings(&catalog, &args.archs);
    println!(
        "\nTable 1 — catalog of {} variants, sampling every {}-th variant\n",
        catalog.len(),
        args.sample
    );

    let mut table = Table::new(&["Architecture", "Processor", "# Instr.", "IACA", "µops", "Ports"]);
    let mut timings = Vec::new();

    for arch in &args.archs {
        let arch = *arch;
        let (backend, engine) = experiment_setup(&catalog, arch);
        let sample = args.sample;
        let report = engine.characterize_matching(&backend, |d| d.uid % sample == 0);
        let measured = to_measured_instructions(&catalog, &report);
        let stats = compare_against_iaca(arch, &measured);
        timings.push((arch, report.duration, report.characterized_count()));

        let (uops_pct, ports_pct) = if stats.versions.is_some() {
            (
                format!("{:.2}%", stats.uops_match_excl_pct()),
                format!("{:.2}%", stats.ports_match_pct()),
            )
        } else {
            ("-".to_string(), "-".to_string())
        };
        table.row(&[
            arch.name().to_string(),
            arch.reference_processor().to_string(),
            report.characterized_count().to_string(),
            IacaVersion::range_string(arch).unwrap_or_else(|| "-".to_string()),
            uops_pct,
            ports_pct,
        ]);
    }

    println!("{}", table.render());
    println!(
        "(paper, full catalog on real hardware: 1836–3119 variants per generation; µop\n\
         agreement 91.4–93.3%, port agreement 91.0–98.2%; Kaby/Coffee Lake unsupported by IACA)"
    );

    if args.timing {
        println!("\nRun time per architecture (§7.1 reports 50–110 minutes on real hardware):");
        for (arch, duration, count) in timings {
            println!(
                "  {:<14} {:>8.2} s for {count} variants",
                arch.name(),
                duration.as_secs_f64()
            );
        }
    }
    if failures > 0 {
        eprintln!("{failures} finding(s) failed their check");
        std::process::exit(1);
    }
}
