//! Produce the machine-readable output of §6.4: characterize a set of
//! instructions on two microarchitectures and emit the combined XML document
//! (in the style of the uops.info XML file) plus a JSON summary.
//!
//! Run with `cargo run --release --example export_xml > uops.xml`.

use uops_info::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let catalog = Catalog::intel_core();
    let selection = [
        ("ADD", "R64, R64"),
        ("ADC", "R64, R64"),
        ("SHLD", "R64, R64, I8"),
        ("AESDEC", "XMM, XMM"),
        ("MOVQ2DQ", "XMM, MM"),
        ("PBLENDVB", "XMM, XMM"),
        ("MULPS", "XMM, XMM"),
        ("DIV", "R32"),
    ];

    let mut reports = Vec::new();
    for arch in [MicroArch::Skylake, MicroArch::Haswell] {
        let backend = SimBackend::new(arch);
        let engine = CharacterizationEngine::with_config(&catalog, arch, EngineConfig::fast());
        let report = engine.characterize_matching(&backend, |d| {
            selection.iter().any(|(m, v)| d.mnemonic == *m && d.variant() == *v)
        });
        eprintln!("{}: characterized {} variants", arch.name(), report.characterized_count());
        reports.push(report);
    }

    // XML goes to stdout; a JSON summary of the first architecture to stderr.
    print!("{}", uops_info::db::xml::to_xml(&uops_info::core_::reports_to_snapshot(&reports)));
    eprintln!("\nJSON summary for {}:", reports[0].arch.map(|a| a.name()).unwrap_or("?"));
    eprintln!(
        "{}",
        uops_info::db::json::to_json(&uops_info::core_::report_to_snapshot(&reports[0]))
    );
    Ok(())
}
