//! Ingestion bridge: characterization output → `uops-db` snapshots.
//!
//! [`CharacterizationReport`]s are the engine's in-memory result type; the
//! [`uops_db::Snapshot`] is the canonical serialized representation that the
//! database layer persists, indexes, and serves. This module converts the
//! former into the latter, carrying over every published field (µop count,
//! port usage, all throughput values, the full operand-pair latency map).

use uops_db::{LatencyEdge, Snapshot, UarchMeta, VariantRecord};
use uops_uarch::MicroArch;

use crate::engine::{CharacterizationReport, InstructionProfile};

/// The generator string stamped into snapshots produced by this crate.
pub const GENERATOR: &str = concat!("uops-info ", env!("CARGO_PKG_VERSION"));

/// Converts one instruction profile into a snapshot record.
#[must_use]
pub fn profile_to_record(profile: &InstructionProfile) -> VariantRecord {
    let ports: Vec<(u16, u32)> = profile
        .port_usage
        .entries()
        .iter()
        .map(|(set, uops)| (set.iter().fold(0u16, |m, p| m | (1 << p)), *uops))
        .collect();
    let latency: Vec<LatencyEdge> = profile
        .latency
        .iter()
        .map(|(&(source, target), value)| LatencyEdge {
            source: source as u32,
            target: target as u32,
            cycles: value.cycles,
            upper_bound: value.is_upper_bound,
            same_reg_cycles: value.same_register_cycles,
            low_value_cycles: value.low_value_cycles,
        })
        .collect();
    VariantRecord {
        mnemonic: profile.mnemonic.clone(),
        variant: profile.variant.clone(),
        extension: profile.extension.clone(),
        uarch: profile.arch.name().to_string(),
        uop_count: profile.uop_count,
        ports,
        unattributed: profile.port_usage.unattributed(),
        tp_measured: profile.throughput.measured,
        tp_ports: profile.throughput.from_port_usage,
        tp_low_values: profile.throughput.measured_low_values,
        tp_breaking: profile.throughput.measured_with_breaking,
        latency,
    }
}

/// The snapshot metadata entry for one microarchitecture.
#[must_use]
pub fn uarch_meta(arch: MicroArch, characterized: u32, skipped: u32) -> UarchMeta {
    UarchMeta {
        name: arch.name().to_string(),
        processor: arch.reference_processor().to_string(),
        year: arch.release_year(),
        ports: arch.port_count(),
        characterized,
        skipped,
    }
}

/// Converts a set of per-architecture reports into one snapshot. Reports
/// contribute uarch metadata in slice order; when several reports cover the
/// same microarchitecture (e.g. a sweep done in batches), their
/// characterized/skipped counts accumulate. Records for the same
/// (mnemonic, variant, uarch) key in later reports replace earlier ones.
#[must_use]
pub fn reports_to_snapshot(reports: &[CharacterizationReport]) -> Snapshot {
    let mut snapshot = Snapshot::new(GENERATOR);
    let mut incoming = Snapshot::new(GENERATOR);
    for report in reports {
        if let Some(arch) = report.arch {
            let characterized = report.profiles.len() as u32;
            let skipped = report.skipped.len() as u32;
            match snapshot.uarches.iter_mut().find(|m| m.name == arch.name()) {
                Some(meta) => {
                    meta.characterized += characterized;
                    meta.skipped += skipped;
                }
                None => snapshot.upsert_uarch(uarch_meta(arch, characterized, skipped)),
            }
        }
        incoming.records.extend(report.profiles.iter().map(profile_to_record));
    }
    snapshot.merge(incoming);
    snapshot
}

/// Converts one report into a snapshot (convenience wrapper).
#[must_use]
pub fn report_to_snapshot(report: &CharacterizationReport) -> Snapshot {
    reports_to_snapshot(std::slice::from_ref(report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CharacterizationEngine, EngineConfig};
    use uops_db::Segment;
    use uops_isa::Catalog;
    use uops_measure::SimBackend;

    fn small_report(arch: MicroArch) -> CharacterizationReport {
        let catalog = Catalog::intel_core();
        let backend = SimBackend::new(arch);
        let engine = CharacterizationEngine::with_config(&catalog, arch, EngineConfig::fast());
        engine.characterize_matching(&backend, |d| {
            (d.mnemonic == "ADD" && d.variant() == "R64, R64")
                || (d.mnemonic == "SHLD" && d.variant() == "R64, R64, I8")
        })
    }

    #[test]
    fn snapshot_carries_all_published_fields() {
        let report = small_report(MicroArch::Skylake);
        let snapshot = report_to_snapshot(&report);
        assert_eq!(snapshot.records.len(), 2);
        assert_eq!(snapshot.uarches.len(), 1);
        assert_eq!(snapshot.uarches[0].name, "Skylake");
        assert_eq!(snapshot.uarches[0].ports, 8);
        assert_eq!(snapshot.uarches[0].characterized, 2);
        let add = snapshot.records.iter().find(|r| r.mnemonic == "ADD").expect("ADD record");
        assert_eq!(add.uop_count, 1);
        assert_eq!(add.ports_notation(), "1*p0156");
        assert!(add.tp_ports.is_some());
        assert!(!add.latency.is_empty());
        let shld = snapshot.records.iter().find(|r| r.mnemonic == "SHLD").expect("SHLD record");
        assert!(
            shld.latency.iter().any(|e| e.same_reg_cycles.is_some()),
            "SHLD must carry the same-register latency"
        );
    }

    #[test]
    fn batched_reports_accumulate_uarch_counts() {
        // Characterizing one uarch in two batches must produce metadata
        // covering both batches, not just the last one.
        let catalog = Catalog::intel_core();
        let backend = SimBackend::new(MicroArch::Skylake);
        let engine =
            CharacterizationEngine::with_config(&catalog, MicroArch::Skylake, EngineConfig::fast());
        let batch_a = engine
            .characterize_matching(&backend, |d| d.mnemonic == "ADD" && d.variant() == "R64, R64");
        let batch_b = engine
            .characterize_matching(&backend, |d| d.mnemonic == "SUB" && d.variant() == "R64, R64");
        let snapshot = reports_to_snapshot(&[batch_a, batch_b]);
        assert_eq!(snapshot.records.len(), 2);
        assert_eq!(snapshot.uarches.len(), 1);
        assert_eq!(snapshot.uarches[0].characterized, 2);
    }

    #[test]
    fn snapshot_roundtrips_and_ingests() {
        let reports = [small_report(MicroArch::Skylake), small_report(MicroArch::Haswell)];
        let snapshot = reports_to_snapshot(&reports);
        let bytes = uops_db::codec::encode(&snapshot);
        let decoded = uops_db::codec::decode(&bytes).expect("binary decode");
        assert_eq!(decoded, snapshot);
        let parsed =
            uops_db::json::from_json(&uops_db::json::to_json(&snapshot)).expect("json parse");
        assert_eq!(parsed, snapshot);

        let segment = Segment::from_bytes(Segment::encode(&snapshot)).expect("valid segment");
        let db = segment.db();
        assert_eq!(db.len(), 4);
        let add = db.find_id("ADD", "R64, R64", "Skylake").expect("point lookup");
        assert_eq!(db.uop_count(add), 1);
        // ADD uses port 6 on Skylake (p0156).
        let skylake = db.lookup_sym("Skylake").expect("Skylake records");
        assert!(db
            .postings_by_uarch_port(skylake, 6)
            .iter()
            .any(|id| db.view(id).mnemonic() == "ADD"));
    }
}
