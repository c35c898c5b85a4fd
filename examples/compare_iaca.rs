//! Compare measured characterizations against the IACA-analogue static
//! analyzer (§6.3, §7.2): per-instruction discrepancies and the aggregate
//! agreement statistics of Table 1 for one microarchitecture.
//!
//! Run with `cargo run --release --example compare_iaca`.

use uops_info::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let catalog = Catalog::intel_core();
    let arch = MicroArch::Skylake;
    let backend = SimBackend::new(arch);
    let engine = CharacterizationEngine::with_config(&catalog, arch, EngineConfig::fast());

    // Characterize a sample of the catalog (every 12th variant) to keep the
    // example quick; `uops-bench`'s `paper` binary does the full sweep.
    let report = engine.characterize_matching(&backend, |d| d.uid % 12 == 0);
    println!(
        "characterized {} variants on {} ({} skipped)",
        report.characterized_count(),
        arch.name(),
        report.skipped.len()
    );

    // Convert to the comparison format and compute the Table 1 row.
    let measured: Vec<(MeasuredInstruction, InstructionDesc)> = report
        .profiles
        .iter()
        .filter_map(|p| {
            let desc = catalog.try_get(p.uid)?;
            Some((
                MeasuredInstruction::new(desc, p.uop_count, p.port_usage.entries().to_vec()),
                desc.clone(),
            ))
        })
        .collect();
    let stats = compare_against_iaca(arch, &measured);
    println!(
        "\nIACA versions: {}   µops agree: {:.2}%   ports agree (among matching µops): {:.2}%",
        stats.versions.clone().unwrap_or_else(|| "-".to_string()),
        stats.uops_match_excl_pct(),
        stats.ports_match_pct()
    );

    // Show a few per-instruction disagreements.
    println!("\nexample disagreements (measured vs IACA):");
    let mut shown = 0;
    for (m, desc) in &measured {
        if shown >= 10 {
            break;
        }
        for version in IacaVersion::supporting(arch) {
            let Some(analyzer) = IacaAnalyzer::new(arch, version) else { continue };
            let Some(view) = analyzer.analyze_instruction(desc) else { continue };
            if view.uop_count != m.uop_count {
                println!(
                    "  {:<28} measured {} µops, {} reports {}",
                    format!("{} ({})", m.mnemonic, m.variant),
                    m.uop_count,
                    version,
                    view.uop_count
                );
                shown += 1;
                break;
            }
        }
    }
    if shown == 0 {
        println!("  (none in this sample)");
    }
    Ok(())
}
