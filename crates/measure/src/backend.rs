//! Measurement backends: where the generated microbenchmarks run.
//!
//! The paper runs its microbenchmarks in kernel space on real hardware and,
//! alternatively, feeds them to Intel IACA (§6.2, §6.3). This crate
//! abstracts the execution target behind the [`MeasurementBackend`] trait so
//! that the inference algorithms are independent of it. The default backend
//! is [`SimBackend`], which executes the benchmarks on the cycle-level
//! pipeline simulator of [`uops_pipeline`]; a backend based on `perf_event`
//! and inline assembly could implement the same trait on real hardware.
//! Because a simulation is deterministic and in program order, `SimBackend`
//! answers both unroll factors of a repetition from one simulation
//! ([`MeasurementBackend::run_pair`]); a hardware backend keeps the default
//! of two runs.

use uops_asm::CodeSequence;
use uops_pipeline::{PerfCounters, Pipeline, SimOptions};
use uops_uarch::{MicroArch, UarchConfig};

/// Per-run context: knobs that influence value-dependent behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunContext {
    /// Use operand values that lead to low divider latency (§5.2.5). The
    /// measurement driver runs divider instructions under both settings.
    pub divider_low_latency: bool,
}

/// An execution target for microbenchmarks.
///
/// Implementations must behave like the measurement setup of §6.2: executing
/// the same code twice yields the same counters up to measurement noise, and
/// the counters include a *constant* overhead for the serializing
/// instructions and counter reads, which the harness removes by differencing
/// two different unroll factors.
pub trait MeasurementBackend {
    /// The microarchitecture this backend measures.
    fn arch(&self) -> MicroArch;

    /// The structural configuration of the measured microarchitecture
    /// (number of ports, functional-unit port combinations, ...).
    fn config(&self) -> UarchConfig {
        UarchConfig::for_arch(self.arch())
    }

    /// Executes the code sequence once and returns the raw counter values
    /// (including measurement overhead).
    fn run(&self, code: &CodeSequence, ctx: RunContext) -> PerfCounters;

    /// Measures `code` unrolled `small` and `large` times and returns both
    /// raw counter sets, in that order: the two runs of one repetition of
    /// §6.2.
    ///
    /// The default makes two [`run`](MeasurementBackend::run) calls, as the
    /// protocol does on hardware. An override may answer both from one
    /// execution, but only if it returns exactly what those two calls
    /// would: that holds for a backend whose runs are deterministic and
    /// execute in program order, so that the first `small` iterations of
    /// the `large` run are the `small` run.
    fn run_pair(
        &self,
        code: &CodeSequence,
        small: usize,
        large: usize,
        ctx: RunContext,
    ) -> (PerfCounters, PerfCounters) {
        (self.run(&code.repeat(small), ctx), self.run(&code.repeat(large), ctx))
    }
}

/// The simulator-based measurement backend.
#[derive(Debug, Clone)]
pub struct SimBackend {
    arch: MicroArch,
}

impl SimBackend {
    /// Creates a backend for the given microarchitecture.
    #[must_use]
    pub fn new(arch: MicroArch) -> SimBackend {
        SimBackend { arch }
    }

    fn pipeline(&self, ctx: RunContext) -> Pipeline {
        Pipeline::with_options(
            self.arch,
            SimOptions { divider_low_latency: ctx.divider_low_latency, ..SimOptions::default() },
        )
    }
}

impl MeasurementBackend for SimBackend {
    fn arch(&self) -> MicroArch {
        self.arch
    }

    fn run(&self, code: &CodeSequence, ctx: RunContext) -> PerfCounters {
        self.pipeline(ctx).execute(code)
    }

    /// One simulation of the `large` unroll, checkpointed where iteration
    /// `small` begins (see [`Pipeline::execute_with_checkpoint`]).
    fn run_pair(
        &self,
        code: &CodeSequence,
        small: usize,
        large: usize,
        ctx: RunContext,
    ) -> (PerfCounters, PerfCounters) {
        // `repeat` drops the unroll count of an empty body, so there is no
        // iteration to checkpoint at.
        if code.is_empty() || small > large {
            return (self.run(&code.repeat(small), ctx), self.run(&code.repeat(large), ctx));
        }
        self.pipeline(ctx).execute_with_checkpoint(&code.repeat(large), small * code.unroll())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use uops_asm::{variant_arc, Inst, RegisterPool};
    use uops_isa::Catalog;

    #[test]
    fn sim_backend_reports_its_arch_and_config() {
        let b = SimBackend::new(MicroArch::Haswell);
        assert_eq!(b.arch(), MicroArch::Haswell);
        assert_eq!(b.config().port_count, 8);
    }

    #[test]
    fn sim_backend_is_deterministic() {
        let c = Catalog::intel_core();
        let desc = variant_arc(&c, "ADD", "R64, R64").unwrap();
        let mut pool = RegisterPool::new();
        let mut seq = CodeSequence::new();
        for _ in 0..8 {
            pool.reset();
            seq.push(Inst::bind(&desc, &BTreeMap::new(), &mut pool).unwrap());
        }
        let b = SimBackend::new(MicroArch::Skylake);
        let a1 = b.run(&seq, RunContext::default());
        let a2 = b.run(&seq, RunContext::default());
        assert_eq!(a1, a2);
    }

    #[test]
    fn divider_context_changes_results() {
        let c = Catalog::intel_core();
        let desc = variant_arc(&c, "DIV", "R64").unwrap();
        let mut pool = RegisterPool::new();
        let mut seq = CodeSequence::new();
        for _ in 0..4 {
            pool.reset();
            seq.push(Inst::bind(&desc, &BTreeMap::new(), &mut pool).unwrap());
        }
        let b = SimBackend::new(MicroArch::Skylake);
        let slow = b.run(&seq, RunContext { divider_low_latency: false });
        let fast = b.run(&seq, RunContext { divider_low_latency: true });
        assert!(slow.core_cycles > fast.core_cycles);
    }
}
