//! End-to-end integration tests: the full characterization pipeline (catalog
//! → code generation → simulated measurement → inference) validated against
//! the simulator's ground truth *from the outside*.
//!
//! The inference code in `uops-core` never sees the ground truth; these tests
//! are allowed to, because they play the role of the experimenter checking
//! the tool's output.

use std::collections::BTreeMap;
use std::sync::Arc;

use uops_info::prelude::*;
use uops_info::uarch::{characterize, TruthOptions, UarchConfig};

fn engine_for(catalog: &Catalog, arch: MicroArch) -> CharacterizationEngine<'_> {
    CharacterizationEngine::with_config(catalog, arch, EngineConfig::fast())
}

/// The inferred µop count and port usage must match the ground truth for a
/// cross-section of the catalog on several microarchitectures.
#[test]
fn inferred_port_usage_matches_ground_truth_for_a_sample() {
    let catalog = Catalog::intel_core();
    let sample = [
        ("ADD", "R64, R64"),
        ("ADC", "R64, R64"),
        ("IMUL", "R64, R64"),
        ("SHL", "R64, I8"),
        ("PADDD", "XMM, XMM"),
        ("PSHUFD", "XMM, XMM, I8"),
        ("MULPS", "XMM, XMM"),
        ("ADDPD", "XMM, XMM"),
        ("PBLENDVB", "XMM, XMM"),
        ("MOVQ2DQ", "XMM, MM"),
        ("MOVDQ2Q", "MM, XMM"),
        ("MOV", "R64, M64"),
        ("MOV", "M64, R64"),
        ("LEA", "R64, M64"),
        ("POPCNT", "R64, R64"),
    ];
    for arch in [MicroArch::Nehalem, MicroArch::Haswell, MicroArch::Skylake] {
        let backend = SimBackend::new(arch);
        let engine = engine_for(&catalog, arch);
        let cfg = UarchConfig::for_arch(arch);
        for (mnemonic, variant) in sample {
            let desc = catalog.find_variant(mnemonic, variant).expect("variant exists");
            if !arch.supports(desc.extension) {
                continue;
            }
            let profile = engine.characterize_variant(&backend, desc).expect("characterization");

            // Ground truth for the same binding style.
            let mut pool = RegisterPool::new();
            let arc = Arc::new(desc.clone());
            let inst = Inst::bind(&arc, &BTreeMap::new(), &mut pool).unwrap();
            let truth = characterize(&inst, &cfg, TruthOptions::default());

            assert_eq!(
                profile.uop_count as usize,
                truth.uop_count(),
                "{arch:?} {mnemonic} ({variant}): µop count mismatch"
            );
            let mut truth_usage: Vec<(PortSet, u32)> = truth.port_usage();
            truth_usage.sort();
            assert_eq!(
                profile.port_usage.entries(),
                truth_usage.as_slice(),
                "{arch:?} {mnemonic} ({variant}): port usage mismatch (inferred {})",
                profile.port_usage
            );
        }
    }
}

/// The inferred latency must match the ground truth's critical path for
/// instructions with a read-modify-write destination.
#[test]
fn inferred_latency_matches_ground_truth_critical_path() {
    let catalog = Catalog::intel_core();
    let arch = MicroArch::Skylake;
    let backend = SimBackend::new(arch);
    let cfg = UarchConfig::for_arch(arch);
    let engine = engine_for(&catalog, arch);
    for (mnemonic, variant) in [
        ("ADD", "R64, R64"),
        ("IMUL", "R64, R64"),
        ("PADDD", "XMM, XMM"),
        ("MULPS", "XMM, XMM"),
        ("AESDEC", "XMM, XMM"),
        ("POPCNT", "R64, R64"),
    ] {
        let desc = catalog.find_variant(mnemonic, variant).expect("variant exists");
        let profile = engine.characterize_variant(&backend, desc).expect("characterization");
        let mut pool = RegisterPool::new();
        let arc = Arc::new(desc.clone());
        let inst = Inst::bind(&arc, &BTreeMap::new(), &mut pool).unwrap();
        let truth = characterize(&inst, &cfg, TruthOptions::default());
        let measured = profile.latency_single_value().expect("latency measured");
        let expected = f64::from(truth.critical_path_latency());
        assert!(
            (measured - expected).abs() < 0.7,
            "{mnemonic} ({variant}): measured latency {measured:.2}, ground truth {expected}"
        );
    }
}

/// Throughput computed from the inferred port usage must agree with the
/// measured throughput for instructions without implicit dependencies.
#[test]
fn computed_and_measured_throughput_agree_for_simple_instructions() {
    let catalog = Catalog::intel_core();
    let arch = MicroArch::Skylake;
    let backend = SimBackend::new(arch);
    let engine = engine_for(&catalog, arch);
    for (mnemonic, variant) in
        [("PSHUFD", "XMM, XMM, I8"), ("PADDD", "XMM, XMM"), ("LEA", "R64, M64")]
    {
        let desc = catalog.find_variant(mnemonic, variant).expect("variant exists");
        let profile = engine.characterize_variant(&backend, desc).expect("characterization");
        let computed = profile.throughput.from_port_usage.expect("computed throughput");
        let measured = profile.throughput.measured;
        assert!(
            (computed - measured).abs() < 0.35,
            "{mnemonic}: computed {computed:.2} vs measured {measured:.2}"
        );
    }
}

/// The full engine flow works on every microarchitecture generation.
#[test]
fn every_microarchitecture_can_characterize_a_basic_instruction() {
    let catalog = Catalog::intel_core();
    for arch in MicroArch::ALL {
        let backend = SimBackend::new(arch);
        let engine = engine_for(&catalog, arch);
        let desc = catalog.find_variant("ADD", "R64, R64").unwrap();
        let profile = engine.characterize_variant(&backend, desc).expect("ADD characterization");
        assert_eq!(profile.uop_count, 1, "{arch:?}");
        assert!(profile.throughput.measured <= 0.6, "{arch:?}");
        let expected_ports = UarchConfig::for_arch(arch).int_alu;
        assert_eq!(profile.port_usage.uops_for(expected_ports), 1, "{arch:?}");
    }
}

/// AVX instructions are characterized with AVX blocking instructions and
/// still produce correct results.
#[test]
fn avx_instructions_use_the_avx_blocking_world() {
    let catalog = Catalog::intel_core();
    let arch = MicroArch::Skylake;
    let backend = SimBackend::new(arch);
    let engine = engine_for(&catalog, arch);
    let desc = catalog.find_variant("VPADDD", "YMM, YMM, YMM").unwrap();
    let profile = engine.characterize_variant(&backend, desc).expect("VPADDD characterization");
    assert_eq!(profile.uop_count, 1);
    assert_eq!(profile.port_usage.to_string(), "1*p015");
}

/// The XML output of the engine can be generated for multiple architectures
/// and contains one entry per instruction with per-architecture measurements.
#[test]
fn xml_output_for_multiple_architectures() {
    let catalog = Catalog::intel_core();
    let mut reports = Vec::new();
    for arch in [MicroArch::SandyBridge, MicroArch::Skylake] {
        let backend = SimBackend::new(arch);
        let engine = engine_for(&catalog, arch);
        reports.push(engine.characterize_matching(&backend, |d| {
            d.mnemonic == "AESDEC" && d.variant() == "XMM, XMM"
        }));
    }
    let xml = uops_info::db::xml::to_xml(&uops_info::core_::reports_to_snapshot(&reports));
    assert_eq!(xml.matches("<instruction ").count(), 1);
    assert!(xml.contains("Sandy Bridge"));
    assert!(xml.contains("Skylake"));
    assert!(xml.contains("latency"));
}
