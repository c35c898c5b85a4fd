//! The measurement harness of §6.2 (Algorithm 2).
//!
//! The paper wraps the code under test in serializing instructions and
//! performance-counter reads, which adds a constant overhead. To remove it,
//! the code is measured twice — once unrolled `n = 10` times and once
//! `n = 110` times — and the difference of the two measurements, divided by
//! 100, yields the average cost of one execution of the code sequence. The
//! whole procedure is repeated (after a warm-up run) and averaged.
//!
//! Each repetition asks the backend for both unroll factors at once
//! ([`MeasurementBackend::run_pair`]). On hardware these are two
//! executions. A backend whose runs are deterministic and in program order
//! may answer both from one execution of the large unroll, because its
//! state after the first `base_unroll` iterations is the small run's
//! result; the simulator does so.

use serde::{Deserialize, Serialize};

use uops_asm::CodeSequence;
use uops_pipeline::PerfCounters;
use uops_uarch::{PortSet, MAX_PORTS};

use crate::backend::{MeasurementBackend, RunContext};

/// Configuration of the measurement procedure.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeasurementConfig {
    /// The small unroll factor (`n = 10` in the paper).
    pub base_unroll: usize,
    /// The large unroll factor (`n = 110` in the paper).
    pub large_unroll: usize,
    /// Number of repetitions whose results are averaged (100 in the paper;
    /// the simulator is deterministic, so fewer repetitions suffice by
    /// default).
    pub repetitions: usize,
    /// Whether to perform a warm-up run whose result is discarded.
    pub warmup: bool,
}

impl Default for MeasurementConfig {
    fn default() -> Self {
        MeasurementConfig { base_unroll: 10, large_unroll: 110, repetitions: 3, warmup: true }
    }
}

impl MeasurementConfig {
    /// The configuration used by the paper on real hardware.
    #[must_use]
    pub fn paper() -> MeasurementConfig {
        MeasurementConfig { base_unroll: 10, large_unroll: 110, repetitions: 100, warmup: true }
    }

    /// A faster configuration for large characterization sweeps on the
    /// simulator.
    #[must_use]
    pub fn fast() -> MeasurementConfig {
        MeasurementConfig { base_unroll: 5, large_unroll: 25, repetitions: 1, warmup: false }
    }

    /// The number of iterations the differencing divides by.
    #[must_use]
    pub fn delta(&self) -> usize {
        self.large_unroll - self.base_unroll
    }
}

/// The averaged result of measuring one code sequence: per-execution cycles
/// and µop counts.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Measurement {
    /// Average core cycles per execution of the code sequence.
    pub cycles: f64,
    /// Average µops per port per execution of the code sequence.
    pub uops_port: [f64; MAX_PORTS as usize],
    /// Average total µops per execution of the code sequence.
    pub uops_total: f64,
}

impl Measurement {
    /// Average µops on the given port.
    #[must_use]
    pub fn port(&self, port: u8) -> f64 {
        self.uops_port.get(port as usize).copied().unwrap_or(0.0)
    }

    /// Sum of average µops over a port set.
    #[must_use]
    pub fn uops_on_ports(&self, ports: PortSet) -> f64 {
        ports.iter().map(|p| self.port(p)).sum()
    }

    /// Scales the measurement by `1/divisor` (e.g. to get per-instruction
    /// values from a sequence containing several copies of an instruction).
    #[must_use]
    pub fn per(&self, divisor: f64) -> Measurement {
        assert!(divisor > 0.0, "divisor must be positive");
        Measurement {
            cycles: self.cycles / divisor,
            uops_port: self.uops_port.map(|v| v / divisor),
            uops_total: self.uops_total / divisor,
        }
    }
}

/// Measures the average per-execution cost of `code` on `backend` following
/// the procedure of §6.2 (warm-up, two unroll factors, differencing,
/// repetition, averaging).
pub fn measure<B: MeasurementBackend + ?Sized>(
    backend: &B,
    code: &CodeSequence,
    config: &MeasurementConfig,
    ctx: RunContext,
) -> Measurement {
    assert!(
        config.large_unroll > config.base_unroll,
        "large unroll factor must exceed the base unroll factor"
    );
    if config.warmup {
        let _ = backend.run(&code.repeat(config.base_unroll), ctx);
    }

    let delta = config.delta() as f64;
    let repetitions = config.repetitions.max(1);
    let mut acc = Measurement::default();
    for _ in 0..repetitions {
        let (counters_small, counters_large) =
            backend.run_pair(code, config.base_unroll, config.large_unroll, ctx);
        let diff: PerfCounters = counters_large - counters_small;
        acc.cycles += diff.core_cycles as f64 / delta;
        acc.uops_total += diff.uops_total as f64 / delta;
        for p in 0..MAX_PORTS as usize {
            acc.uops_port[p] += diff.uops_port[p] as f64 / delta;
        }
    }
    let n = repetitions as f64;
    acc.cycles /= n;
    acc.uops_total /= n;
    for p in 0..MAX_PORTS as usize {
        acc.uops_port[p] /= n;
    }
    acc
}

/// Measures a single instruction in isolation (a sequence containing just the
/// given instruction), returning per-instruction averages.
pub fn measure_single<B: MeasurementBackend + ?Sized>(
    backend: &B,
    inst: uops_asm::Inst,
    config: &MeasurementConfig,
    ctx: RunContext,
) -> Measurement {
    let mut seq = CodeSequence::new();
    seq.push(inst);
    measure(backend, &seq, config, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SimBackend;
    use std::collections::BTreeMap;
    use uops_asm::{variant_arc, Inst, Op, RegisterPool};
    use uops_isa::{gpr, Catalog, Register, Width};
    use uops_uarch::MicroArch;

    fn catalog() -> Catalog {
        Catalog::intel_core()
    }

    fn movsx_chain(c: &Catalog, len: usize) -> CodeSequence {
        let desc = variant_arc(c, "MOVSX", "R64, R16").unwrap();
        let mut pool = RegisterPool::new();
        let a = Register::gpr(gpr::RBX, Width::W64);
        let b = Register::gpr(gpr::RCX, Width::W64);
        let mut seq = CodeSequence::new();
        for i in 0..len {
            let (dst, src) = if i % 2 == 0 { (a, b) } else { (b, a) };
            let mut assign = BTreeMap::new();
            assign.insert(0, Op::Reg(dst));
            assign.insert(1, Op::Reg(src.with_width(Width::W16)));
            seq.push(Inst::bind(&desc, &assign, &mut pool).unwrap());
        }
        seq
    }

    #[test]
    fn differencing_removes_constant_overhead() {
        let c = catalog();
        let backend = SimBackend::new(MicroArch::Skylake);
        // A 2-instruction MOVSX chain has a latency of 2 cycles per chain
        // iteration; the measured per-sequence cycles must be close to 2
        // even though every raw run includes dozens of overhead cycles.
        let chain = movsx_chain(&c, 2);
        let m = measure(&backend, &chain, &MeasurementConfig::default(), RunContext::default());
        assert!((m.cycles - 2.0).abs() < 0.3, "cycles = {}", m.cycles);
        assert!((m.uops_total - 2.0).abs() < 0.3, "uops = {}", m.uops_total);
    }

    #[test]
    fn per_instruction_scaling() {
        let c = catalog();
        let backend = SimBackend::new(MicroArch::Skylake);
        let chain = movsx_chain(&c, 4);
        let m = measure(&backend, &chain, &MeasurementConfig::default(), RunContext::default());
        let per_inst = m.per(4.0);
        assert!(
            (per_inst.cycles - 1.0).abs() < 0.2,
            "per-instruction cycles = {}",
            per_inst.cycles
        );
    }

    #[test]
    fn port_counters_are_reported_per_iteration() {
        let c = catalog();
        let backend = SimBackend::new(MicroArch::Skylake);
        let desc = variant_arc(&c, "PSHUFD", "XMM, XMM, I8").unwrap();
        let mut pool = RegisterPool::new();
        let inst = Inst::bind(&desc, &BTreeMap::new(), &mut pool).unwrap();
        let m =
            measure_single(&backend, inst, &MeasurementConfig::default(), RunContext::default());
        // PSHUFD is one shuffle µop on port 5.
        assert!((m.uops_total - 1.0).abs() < 0.2);
        assert!(m.port(5) > 0.8, "port 5 share = {}", m.port(5));
        assert!(m.uops_on_ports(PortSet::of(&[5])) > 0.8);
    }

    #[test]
    fn fast_and_paper_configs_are_consistent() {
        let c = catalog();
        let backend = SimBackend::new(MicroArch::Haswell);
        let chain = movsx_chain(&c, 2);
        let fast = measure(&backend, &chain, &MeasurementConfig::fast(), RunContext::default());
        let paper = measure(&backend, &chain, &MeasurementConfig::paper(), RunContext::default());
        assert!((fast.cycles - paper.cycles).abs() < 0.5);
    }

    #[test]
    #[should_panic(expected = "large unroll factor must exceed")]
    fn invalid_config_panics() {
        let backend = SimBackend::new(MicroArch::Skylake);
        let cfg =
            MeasurementConfig { base_unroll: 10, large_unroll: 10, repetitions: 1, warmup: false };
        let _ = measure(&backend, &CodeSequence::new(), &cfg, RunContext::default());
    }
}
