//! Exact parity of the pipeline simulator.
//!
//! `Pipeline::execute` is the hot path of every characterization, and its
//! counters are the only thing the inference ever sees. A speed-up of the
//! simulator is only a speed-up if every counter of every run stays the
//! same. These tests fold the counters (and, one level up, the latency maps
//! of the §5.2 chains and the canonical snapshot bytes of a
//! characterization sweep) into FNV-1a digests, one per microarchitecture,
//! and compare them with digests recorded from the reference
//! implementation.
//!
//! On a mismatch the assertion prints every digest the current code
//! produces, so a deliberate change of simulator semantics can re-record
//! the constants in one step (and must say so in its change log).

use std::collections::BTreeMap;
use std::sync::Arc;

use uops_info::core_::codegen::independent_copies;
use uops_info::pipeline::SimOptions;
use uops_info::prelude::*;
use uops_info::uarch::{characterize, FuKind, TruthOptions};

/// Counter digests for `Pipeline::execute` over the catalog, in
/// `MicroArch::ALL` order.
const COUNTER_DIGESTS: [u64; 9] = [
    0x9a1b_d44b_1e6b_2766,
    0x9a1b_d44b_1e6b_2766,
    0x43fc_1f3f_4c03_8750,
    0x48ff_acbf_6721_79b4,
    0xb906_c59c_13c6_0505,
    0x6893_288e_1dee_9c5b,
    0x8bce_6e03_9161_d488,
    0x8bce_6e03_9161_d488,
    0x8bce_6e03_9161_d488,
];

/// Digests of the canonical snapshot bytes of a fast characterization sweep
/// over the `tests/parallel_sweep.rs` slice, in `MicroArch::ALL` order.
const SNAPSHOT_DIGESTS: [u64; 9] = [
    0x2578_69ab_30c7_8c35,
    0x29a1_f5da_13f8_8256,
    0xadb3_ebfd_6c8e_622b,
    0x6ab2_5043_20a3_c6af,
    0x72c4_7d27_488c_e72d,
    0x04a8_e7c1_1e8e_a796,
    0x4d07_2e54_db96_9cff,
    0x6eaf_965f_2a79_962f,
    0x955d_06c8_fc2b_3773,
];

/// Digests of every `LatencyAnalyzer::infer` entry under
/// `MeasurementConfig::fast()` over [`latency_sample`], in `MicroArch::ALL`
/// order.
const LATENCY_DIGESTS: [u64; 9] = [
    0x6f78_e83d_2097_30d9,
    0xd7f0_5b12_275a_ea24,
    0xb9a7_9d85_b8ff_acab,
    0x6721_bd31_474f_1f0f,
    0xfe5f_96a5_514e_fabf,
    0x717a_3838_0ba4_7dcf,
    0x9c9e_edff_3de0_a0ef,
    0x9c9e_edff_3de0_a0ef,
    0x9c9e_edff_3de0_a0ef,
];

/// Variants that reach each §5.2 chain kind the stride alone may miss:
/// divider low values, flags, GPR → flags, cross-file, MMX, load, store and
/// same-register chains.
const LATENCY_NAMED: [(&str, &str); 14] = [
    ("DIV", "R32"),
    ("IDIV", "R64"),
    ("SQRTSD", "XMM, XMM"),
    ("CMC", ""),
    ("SETNZ", "R8"),
    ("CMOVNZ", "R64, R64"),
    ("ROL", "R64, CL"),
    ("MOVQ2DQ", "XMM, MM"),
    ("MOVDQ2Q", "MM, XMM"),
    ("PSHUFW", "MM, MM, I8"),
    ("ADD", "R64, M64"),
    ("MOV", "M64, R64"),
    ("SHLD", "R64, R64, I8"),
    ("XADD", "R64, R64"),
];

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn counters(&mut self, c: &PerfCounters) {
        self.u64(c.core_cycles);
        for &p in &c.uops_port {
            self.u64(p);
        }
        self.u64(c.uops_total);
        self.u64(c.instructions_retired);
    }
}

/// `true` if the instruction has a µop on the divider, whose latency and
/// occupancy depend on `divider_low_latency`.
fn uses_divider(inst: &Inst, cfg: &UarchConfig) -> bool {
    let truth = characterize(inst, cfg, TruthOptions::default());
    truth.divider_occupancy.is_some() || truth.uops.iter().any(|u| u.fu == FuKind::Div)
}

/// Folds the counters of every run for one microarchitecture: each catalog
/// variant that binds with a fresh register pool (PAUSE excepted: its µop
/// has no port), run alone ×5 and ×25 and as a body of independent copies,
/// under both divider settings for divider instructions.
fn counter_digest(catalog: &Catalog, arch: MicroArch) -> u64 {
    let low = Pipeline::with_options(
        arch,
        SimOptions { divider_low_latency: true, ..SimOptions::default() },
    );
    let high = Pipeline::new(arch);
    let mut h = Fnv::new();
    for desc in catalog.iter_arcs() {
        if desc.attrs.pause {
            continue;
        }
        let Ok(inst) = Inst::bind(desc, &BTreeMap::new(), &mut RegisterPool::new()) else {
            continue;
        };
        h.u64(desc.uid as u64);
        let single = CodeSequence::from_instructions(vec![inst.clone()]);
        let mut bodies = vec![single.repeat(5), single.repeat(25)];
        if let Ok(copies) = independent_copies(desc, 8, &mut RegisterPool::new()) {
            bodies.push(CodeSequence::from_instructions(copies));
        }
        let sims: &[&Pipeline] =
            if uses_divider(&inst, high.config()) { &[&high, &low] } else { &[&high] };
        for sim in sims {
            for body in &bodies {
                h.counters(&sim.execute(body));
            }
        }
    }
    h.0
}

/// The digest of the canonical snapshot bytes of a serial fast sweep over
/// the parallel-sweep slice. This covers what the single-variant runs above
/// do not: blocking sequences, latency chains and the full inference.
fn snapshot_digest(catalog: &Catalog, arch: MicroArch) -> u64 {
    let in_slice = |d: &InstructionDesc| {
        matches!(
            d.mnemonic.as_str(),
            "ADD" | "ADC" | "SHLD" | "AESDEC" | "PADDD" | "MULPS" | "VADDPS" | "RDMSR"
        )
    };
    let engine = CharacterizationEngine::with_config(catalog, arch, EngineConfig::fast());
    let report = engine.characterize_matching_parallel(
        &SimBackend::new(arch),
        in_slice,
        Parallelism::Serial,
    );
    let mut snapshot = reports_to_snapshot(&[report]);
    snapshot.canonicalize();
    let mut h = Fnv::new();
    h.bytes(&uops_info::db::codec::encode(&snapshot));
    h.0
}

/// Every 13th catalog variant plus [`LATENCY_NAMED`], in catalog order.
fn latency_sample(catalog: &Catalog) -> Vec<Arc<InstructionDesc>> {
    for (mnemonic, variant) in LATENCY_NAMED {
        assert!(catalog.find_variant(mnemonic, variant).is_some(), "{mnemonic} ({variant})");
    }
    catalog
        .iter_arcs()
        .filter(|d| {
            d.uid % 13 == 0
                || LATENCY_NAMED.iter().any(|&(m, v)| d.mnemonic == m && d.variant() == v)
        })
        .cloned()
        .collect()
}

/// Folds the chain calibration and every field of every latency entry the
/// analyzer infers for the supported variants of the sample; a variant the
/// analyzer rejects folds a marker.
fn latency_digest(catalog: &Catalog, arch: MicroArch) -> u64 {
    let backend = SimBackend::new(arch);
    let engine = CharacterizationEngine::with_config(catalog, arch, EngineConfig::fast());
    let analyzer = LatencyAnalyzer::new(&backend, catalog, MeasurementConfig::fast())
        .expect("chain instructions are in the catalog");
    let cal = analyzer.calibration();
    let mut h = Fnv::new();
    for v in [cal.movsx, cal.pshufd, cal.shufps, cal.pshufw, cal.cmov_flags_to_reg] {
        h.f64(v);
    }
    for desc in latency_sample(catalog) {
        if engine.supports(&desc).is_some() {
            continue;
        }
        h.u64(desc.uid as u64);
        let Ok(map) = analyzer.infer(&desc) else {
            h.u64(u64::MAX);
            continue;
        };
        for (&(s, d), v) in map.iter() {
            h.u64(s as u64);
            h.u64(d as u64);
            h.f64(v.cycles);
            h.bytes(&[u8::from(v.is_upper_bound)]);
            for opt in [v.same_register_cycles, v.low_value_cycles] {
                match opt {
                    Some(c) => h.f64(c),
                    None => h.bytes(&[0xff]),
                }
            }
        }
    }
    h.0
}

/// `digest` for every microarchitecture, one worker per core.
fn per_arch(digest: impl Fn(MicroArch) -> u64 + Sync) -> [u64; 9] {
    let digests = parallel_map(Parallelism::Auto, &MicroArch::ALL, |&arch| digest(arch));
    digests.try_into().expect("one digest per microarchitecture")
}

fn check(what: &str, expected: &[u64; 9], actual: &[u64; 9]) {
    let table: Vec<String> = MicroArch::ALL
        .iter()
        .zip(actual)
        .map(|(arch, d)| format!("{:>12}: {d:#018x}", arch.name()))
        .collect();
    assert_eq!(expected, actual, "{what} digests changed; current values:\n{}", table.join("\n"));
}

#[test]
fn simulator_counters_match_reference_digests() {
    let catalog = Catalog::intel_core();
    let actual = per_arch(|arch| counter_digest(&catalog, arch));
    check("counter", &COUNTER_DIGESTS, &actual);
}

#[test]
fn latency_maps_match_reference_digests() {
    let catalog = Catalog::intel_core();
    let actual = per_arch(|arch| latency_digest(&catalog, arch));
    check("latency", &LATENCY_DIGESTS, &actual);
}

#[test]
fn sweep_snapshots_match_reference_digests() {
    let catalog = Catalog::intel_core();
    let actual = per_arch(|arch| snapshot_digest(&catalog, arch));
    check("snapshot", &SNAPSHOT_DIGESTS, &actual);
}
