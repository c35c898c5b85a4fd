//! Walkthrough of the `uops-db` layer: characterize a catalog slice on two
//! microarchitectures, persist the results as a snapshot, load it as a
//! zero-copy segment, and answer the questions uops.info answers — filtered
//! queries, port membership, and cross-generation diffs.
//!
//! Run with `cargo run --release --example query_db`.

use uops_info::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let catalog = Catalog::intel_core();
    let selection = [
        ("ADD", "R64, R64"),
        ("ADC", "R64, R64"),
        ("SHLD", "R64, R64, I8"),
        ("AESDEC", "XMM, XMM"),
        ("PADDD", "XMM, XMM"),
        ("MULPS", "XMM, XMM"),
        ("DIV", "R32"),
    ];

    // 1. Characterize on two generations.
    let mut reports = Vec::new();
    for uarch in [MicroArch::Haswell, MicroArch::Skylake] {
        let backend = SimBackend::new(uarch);
        let engine = CharacterizationEngine::with_config(&catalog, uarch, EngineConfig::fast());
        let report = engine.characterize_matching(&backend, |d| {
            selection.iter().any(|(m, v)| d.mnemonic == *m && d.variant() == *v)
        });
        eprintln!("{}: characterized {} variants", uarch.name(), report.characterized_count());
        reports.push(report);
    }

    // 2. Persist: reports → snapshot → binary bytes (and back). The same
    //    snapshot also serializes to JSON and XML.
    let snapshot = reports_to_snapshot(&reports);
    let bytes = uops_info::db::codec::encode(&snapshot);
    eprintln!("snapshot: {} records, {} bytes binary", snapshot.len(), bytes.len());
    let restored = uops_info::db::codec::decode(&bytes)?;
    assert_eq!(restored, snapshot);

    // 3. Load as a zero-copy segment: the reader answers queries straight
    //    from the image without decoding any record — the format to ship to
    //    query replicas (`Segment::write` / `Segment::open` on disk).
    let segment = Segment::from_bytes(Segment::encode(&restored))?;
    let db = segment.db();
    eprintln!("segment: {} bytes, 0 records decoded", segment.as_bytes().len());

    // Which instructions may use port 0 on Skylake?
    println!("port 0 users on Skylake:");
    let result = Query::new().uarch("Skylake").uses_port(0).sort_by(SortKey::Mnemonic).run(&db);
    for row in &result.rows {
        println!("  {:<8} {:<16} {}", row.mnemonic(), row.variant(), row.ports_notation());
    }

    // Multi-µop variants, slowest first, first page of two.
    println!("\nmulti-µop variants on Skylake (top 2 by latency):");
    let result =
        Query::new().uarch("Skylake").min_uops(2).sort_by_desc(SortKey::Latency).limit(2).run(&db);
    println!("  ({} matches total)", result.total_matches);
    for row in &result.rows {
        println!(
            "  {:<8} {:<16} {} µops, {:.2} cycles",
            row.mnemonic(),
            row.variant(),
            row.uop_count(),
            row.max_latency().unwrap_or(0.0),
        );
    }

    // 4. What changed between Haswell and Skylake?
    let diff = diff_uarches(&db, "Haswell", "Skylake");
    println!("\nHaswell → Skylake: {} compared, {} changed", diff.compared(), diff.changed.len());
    for delta in &diff.changed {
        println!("  {} {} changed:", delta.mnemonic, delta.variant);
        for change in &delta.changes {
            println!("    {change:?}");
        }
    }

    Ok(())
}
