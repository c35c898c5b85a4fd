//! One simulation answers both unroll factors of a measurement exactly.
//!
//! `measure()` asks its backend for the small and the large unroll of §6.2
//! through `MeasurementBackend::run_pair`. `SimBackend` answers from one
//! simulation of the large unroll, checkpointed where the small one ends.
//! These tests require that answer to equal two separate `run` calls: for
//! every pair the characterization engine asks for over a sample of the
//! catalog on every microarchitecture, in the fast and the default engine
//! configuration, and for direct calls over the renamer's special paths.
//! A backend that keeps the default `run_pair` (two `run` calls, as a
//! hardware backend does) must produce the same profiles.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use uops_info::core_::codegen::independent_copies;
use uops_info::prelude::*;

/// Every `FAST_STRIDE`-th catalog variant is characterized under
/// `EngineConfig::fast()`.
const FAST_STRIDE: usize = 7 * DEBUG_THINNING;

/// Every `DEFAULT_STRIDE`-th catalog variant is characterized under the
/// default configuration, whose runs are ~10x longer.
const DEFAULT_STRIDE: usize = 29 * DEBUG_THINNING;

/// Unoptimized builds sample a fifth as many variants (~1 min instead of
/// ~2 min); CI runs this file in release over the full sample.
const DEBUG_THINNING: usize = if cfg!(debug_assertions) { 5 } else { 1 };

/// Wraps `SimBackend` and checks each `run_pair` answer against two
/// separate runs.
struct CheckingBackend {
    inner: SimBackend,
    pairs: AtomicUsize,
}

impl CheckingBackend {
    fn new(arch: MicroArch) -> CheckingBackend {
        CheckingBackend { inner: SimBackend::new(arch), pairs: AtomicUsize::new(0) }
    }
}

impl MeasurementBackend for CheckingBackend {
    fn arch(&self) -> MicroArch {
        self.inner.arch()
    }

    fn run(&self, code: &CodeSequence, ctx: RunContext) -> PerfCounters {
        self.inner.run(code, ctx)
    }

    fn run_pair(
        &self,
        code: &CodeSequence,
        small: usize,
        large: usize,
        ctx: RunContext,
    ) -> (PerfCounters, PerfCounters) {
        let pair = self.inner.run_pair(code, small, large, ctx);
        let separate =
            (self.inner.run(&code.repeat(small), ctx), self.inner.run(&code.repeat(large), ctx));
        assert_eq!(pair, separate, "{:?}, {small} and {large} x\n{code}", self.arch());
        self.pairs.fetch_add(1, Ordering::Relaxed);
        pair
    }
}

/// A backend that implements only `run`, like a timing or hardware
/// wrapper: it measures through the trait's default `run_pair`.
struct RunOnlyBackend(SimBackend);

impl MeasurementBackend for RunOnlyBackend {
    fn arch(&self) -> MicroArch {
        self.0.arch()
    }

    fn run(&self, code: &CodeSequence, ctx: RunContext) -> PerfCounters {
        self.0.run(code, ctx)
    }
}

/// The catalog variants at every `stride`-th position that `engine`
/// supports (PAUSE excepted: its µop has no port).
fn sample<'c>(
    catalog: &'c Catalog,
    engine: &CharacterizationEngine<'_>,
    stride: usize,
) -> Vec<&'c InstructionDesc> {
    catalog
        .iter()
        .enumerate()
        .filter(|&(i, desc)| {
            i % stride == 0 && !desc.attrs.pause && engine.supports(desc).is_none()
        })
        .map(|(_, desc)| desc)
        .collect()
}

#[test]
fn engine_pairs_equal_separate_runs() {
    let catalog = Catalog::intel_core();
    let configs = [(EngineConfig::fast(), FAST_STRIDE), (EngineConfig::default(), DEFAULT_STRIDE)];
    let pairs = parallel_map(Parallelism::Auto, &MicroArch::ALL, |&arch| {
        let mut pairs = 0;
        for (config, stride) in configs {
            let engine = CharacterizationEngine::with_config(&catalog, arch, config);
            let backend = CheckingBackend::new(arch);
            for desc in sample(&catalog, &engine, stride) {
                let _ = engine.characterize_variant(&backend, desc);
            }
            pairs += backend.pairs.load(Ordering::Relaxed);
        }
        pairs
    });
    for (arch, n) in MicroArch::ALL.iter().zip(&pairs) {
        // Setup alone (blocking discovery, chain calibration) asks for
        // thousands of pairs per configuration.
        assert!(*n > 9000, "{arch:?} checked only {n} pairs");
    }
}

#[test]
fn default_run_pair_gives_identical_profiles() {
    let catalog = Catalog::intel_core();
    parallel_map(Parallelism::Auto, &MicroArch::ALL, |&arch| {
        let engine = CharacterizationEngine::with_config(&catalog, arch, EngineConfig::fast());
        let sim = SimBackend::new(arch);
        let run_only = RunOnlyBackend(SimBackend::new(arch));
        for desc in sample(&catalog, &engine, FAST_STRIDE) {
            let expected = engine.characterize_variant(&sim, desc).map_err(|e| e.to_string());
            let actual = engine.characterize_variant(&run_only, desc).map_err(|e| e.to_string());
            assert_eq!(actual, expected, "{arch:?} {}", desc.full_name());
        }
    });
}

#[test]
fn direct_pairs_equal_separate_runs() {
    let catalog = Catalog::intel_core();
    // Move elimination draws from the RNG (Ivy Bridge eliminates GPR moves,
    // Sandy Bridge does not), XOR is a zero idiom, DIV depends on the
    // divider setting, and the store and the load go through memory.
    let named = [
        ("MOV", "R64, R64"),
        ("XOR", "R64, R64"),
        ("DIV", "R32"),
        ("MOV", "M64, R64"),
        ("MOV", "R64, M64"),
        ("ADDPS", "XMM, XMM"),
    ];
    let mut bodies = vec![CodeSequence::new()];
    for (mnemonic, variant) in named {
        let desc = variant_arc(&catalog, mnemonic, variant).unwrap();
        let inst = Inst::bind(&desc, &BTreeMap::new(), &mut RegisterPool::new()).unwrap();
        let single = CodeSequence::from_instructions(vec![inst]);
        bodies.push(single.repeat(2).repeat(3));
        bodies.push(single);
        if let Ok(copies) = independent_copies(&desc, 8, &mut RegisterPool::new()) {
            bodies.push(CodeSequence::from_instructions(copies));
        }
    }
    let factors = [(0, 0), (0, 4), (1, 1), (5, 25), (10, 110), (7, 3)];
    for arch in [MicroArch::IvyBridge, MicroArch::SandyBridge, MicroArch::Skylake] {
        let backend = CheckingBackend::new(arch);
        for body in &bodies {
            for divider_low_latency in [false, true] {
                for (small, large) in factors {
                    let _ =
                        backend.run_pair(body, small, large, RunContext { divider_low_latency });
                }
            }
        }
        assert_eq!(backend.pairs.load(Ordering::Relaxed), bodies.len() * 2 * factors.len());
    }
}
