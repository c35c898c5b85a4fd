//! Quickstart: characterize a handful of instructions on Skylake and print
//! their port usage, latency, and throughput.
//!
//! Run with `cargo run --release --example quickstart`.

use uops_info::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The instruction catalog plays the role of the XED-derived XML file of
    // the paper: it describes operands (including implicit ones) for every
    // instruction variant.
    let catalog = Catalog::intel_core();
    println!("catalog: {} instruction variants", catalog.len());

    // The backend is where microbenchmarks run. `SimBackend` executes them on
    // the cycle-level pipeline simulator; a hardware backend could implement
    // the same trait using performance counters.
    let arch = MicroArch::Skylake;
    let backend = SimBackend::new(arch);
    let engine = CharacterizationEngine::with_config(&catalog, arch, EngineConfig::fast());

    let interesting = [
        ("ADD", "R64, R64"),
        ("ADC", "R64, R64"),
        ("IMUL", "R64, R64"),
        ("PADDD", "XMM, XMM"),
        ("PSHUFD", "XMM, XMM, I8"),
        ("MULPS", "XMM, XMM"),
        ("AESDEC", "XMM, XMM"),
        ("MOV", "R64, M64"),
        ("MOV", "M64, R64"),
        ("DIV", "R32"),
    ];

    println!(
        "\n{:<22} {:>5}  {:<18} {:>9} {:>9}  latency (per operand pair)",
        "instruction", "µops", "ports", "tp meas", "tp ports"
    );
    for (mnemonic, variant) in interesting {
        let desc = catalog
            .find_variant(mnemonic, variant)
            .ok_or_else(|| format!("unknown variant {mnemonic} ({variant})"))?;
        let profile = engine.characterize_variant(&backend, desc)?;
        let tp_ports = profile
            .throughput
            .from_port_usage
            .map(|v| format!("{v:>9.2}"))
            .unwrap_or_else(|| format!("{:>9}", "-"));
        println!(
            "{:<22} {:>5}  {:<18} {:>9.2} {}  {}",
            profile.mnemonic.clone() + " (" + &profile.variant + ")",
            profile.uop_count,
            profile.port_usage.to_string(),
            profile.throughput.measured,
            tp_ports,
            profile.latency
        );
    }

    println!(
        "\nDone. `cargo run --release -p uops-bench --bin paper` reproduces the paper's findings."
    );
    Ok(())
}
