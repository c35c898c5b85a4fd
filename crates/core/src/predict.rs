//! A throughput/port-pressure predictor built on the *inferred* instruction
//! characterizations.
//!
//! The paper's conclusion mentions that the authors "have also implemented a
//! performance-prediction tool similar to Intel's IACA supporting all Intel
//! Core microarchitectures, exploiting the results obtained in the present
//! work." This module is that follow-on tool: given a
//! [`CharacterizationReport`] (the machine-readable output of the
//! characterization engine) it statically predicts, for a loop kernel given
//! as a [`CodeSequence`]:
//!
//! * the **port pressure** per execution port (cycles per loop iteration each
//!   port is busy),
//! * the **throughput bound** implied by the busiest port, the front end, and
//!   — unlike IACA (§7.2) — the **latency bound** of loop-carried dependency
//!   chains through registers, flags, and memory cells,
//! * the predicted **block throughput** (the maximum of these bounds).
//!
//! Unlike the IACA analogue in `uops-iaca`, nothing here consults the hidden
//! ground truth: all per-instruction data comes from the measurements.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use uops_asm::{CodeSequence, Resource};
use uops_isa::Catalog;
use uops_uarch::{PortSet, UarchConfig};

use crate::engine::{CharacterizationReport, InstructionProfile};
use crate::error::CoreError;

/// The static prediction for a loop kernel.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Prediction {
    /// Predicted cycles per loop iteration (the maximum of the bounds below).
    pub block_throughput: f64,
    /// Cycles per iteration implied by the busiest execution port.
    pub port_bound: f64,
    /// Cycles per iteration implied by the front end (issue width).
    pub frontend_bound: f64,
    /// Cycles per iteration implied by the longest loop-carried dependency
    /// chain.
    pub latency_bound: f64,
    /// Average busy cycles per iteration for each port.
    pub port_pressure: BTreeMap<u8, f64>,
    /// Total µops per iteration.
    pub total_uops: f64,
    /// Instructions that had no profile in the report and were skipped.
    pub unknown_instructions: Vec<String>,
}

impl Prediction {
    /// The port with the highest pressure, if any.
    #[must_use]
    pub fn bottleneck_port(&self) -> Option<u8> {
        self.port_pressure
            .iter()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite pressure"))
            .map(|(p, _)| *p)
    }

    /// A human-readable classification of the bottleneck.
    #[must_use]
    pub fn bottleneck(&self) -> Bottleneck {
        let max = self.block_throughput;
        if (self.latency_bound - max).abs() < 1e-9 && self.latency_bound > self.port_bound {
            Bottleneck::Dependencies
        } else if (self.frontend_bound - max).abs() < 1e-9 && self.frontend_bound > self.port_bound
        {
            Bottleneck::FrontEnd
        } else {
            Bottleneck::Ports
        }
    }
}

/// What limits the predicted throughput of a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    /// Execution-port pressure.
    Ports,
    /// Front-end issue bandwidth.
    FrontEnd,
    /// A loop-carried dependency chain.
    Dependencies,
}

impl fmt::Display for Prediction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "block throughput: {:.2} cycles/iteration ({:?}-bound)",
            self.block_throughput,
            self.bottleneck()
        )?;
        writeln!(
            f,
            "  port bound {:.2}, front-end bound {:.2}, latency bound {:.2}, {:.1} µops",
            self.port_bound, self.frontend_bound, self.latency_bound, self.total_uops
        )?;
        write!(f, "  port pressure:")?;
        for (port, pressure) in &self.port_pressure {
            write!(f, " p{port}:{pressure:.2}")?;
        }
        Ok(())
    }
}

/// The predictor: a characterization report indexed for lookup, plus the
/// structural machine configuration.
pub struct Predictor<'a> {
    catalog: &'a Catalog,
    cfg: UarchConfig,
    by_uid: HashMap<usize, &'a InstructionProfile>,
    issue_width: f64,
}

impl<'a> Predictor<'a> {
    /// Creates a predictor from a characterization report.
    ///
    /// # Errors
    ///
    /// Returns an error if the report contains no profiles or no
    /// architecture.
    pub fn new(
        catalog: &'a Catalog,
        report: &'a CharacterizationReport,
    ) -> Result<Predictor<'a>, CoreError> {
        let arch = report.arch.ok_or_else(|| CoreError::Unsupported {
            instruction: "<report>".to_string(),
            reason: "report has no architecture".to_string(),
        })?;
        if report.profiles.is_empty() {
            return Err(CoreError::Unsupported {
                instruction: "<report>".to_string(),
                reason: "report contains no instruction profiles".to_string(),
            });
        }
        let cfg = UarchConfig::for_arch(arch);
        let issue_width = f64::from(cfg.issue_width);
        let by_uid = report.profiles.iter().map(|p| (p.uid, p)).collect();
        Ok(Predictor { catalog, cfg, by_uid, issue_width })
    }

    /// The profile used for an instruction variant, if the report contains
    /// one.
    #[must_use]
    pub fn profile_for(&self, uid: usize) -> Option<&InstructionProfile> {
        self.by_uid.get(&uid).copied()
    }

    /// Predicts the steady-state cost of `kernel` executed as a loop body.
    #[must_use]
    pub fn predict(&self, kernel: &CodeSequence) -> Prediction {
        let mut usage_map = uops_lp::PortUsageMap::new();
        let mut total_uops = 0.0f64;
        let mut unknown = Vec::new();
        let mut issue_slots = 0.0f64;

        // Latency bound: longest loop-carried dependency cycle. We compute
        // the longest path through one iteration from every architectural
        // resource written in the previous iteration; since the kernel is
        // repeated, the bound is the maximum over resources of
        // (ready time of the resource's last write within one iteration).
        let mut resource_ready: HashMap<Resource, f64> = HashMap::new();

        for inst in kernel.iter() {
            let desc = inst.desc();
            let Some(profile) =
                self.catalog.try_get(desc.uid).and_then(|d| self.by_uid.get(&d.uid)).copied()
            else {
                unknown.push(desc.full_name());
                continue;
            };

            // Port pressure.
            for (ports, count) in profile.port_usage.entries() {
                let mask: u16 = ports.iter().fold(0u16, |m, p| m | (1 << p));
                *usage_map.entry(mask).or_insert(0.0) += f64::from(*count);
            }
            total_uops += f64::from(profile.uop_count);
            issue_slots += f64::from(profile.uop_count.max(1));

            // Dependency chains: the instruction's inputs become ready when
            // their producers are done; its outputs become ready that time
            // plus the measured latency (single-value approximation when the
            // operand-pair value is unavailable).
            let input_ready = inst
                .reads()
                .iter()
                .filter_map(|r| resource_ready.get(r).copied())
                .fold(0.0f64, f64::max);
            let latency = profile.latency.single_value().unwrap_or(1.0).max(0.0);
            let done = input_ready + latency;
            for r in inst.writes() {
                let entry = resource_ready.entry(r).or_insert(0.0);
                *entry = entry.max(done);
            }
        }

        // Port bound via the same min-max load optimization used for
        // single-instruction throughput (§5.3.2).
        let all_ports: u16 = (0..self.cfg.port_count).fold(0u16, |m, p| m | (1 << p));
        let port_bound =
            if usage_map.is_empty() { 0.0 } else { uops_lp::min_max_load(&usage_map, all_ports) };
        let assignment = uops_lp::optimal_assignment(&usage_map, all_ports);
        let port_pressure: BTreeMap<u8, f64> =
            assignment.port_load.iter().map(|(p, l)| (*p, *l)).collect();

        let frontend_bound = issue_slots / self.issue_width;
        let latency_bound = resource_ready.values().copied().fold(0.0f64, f64::max);
        // The latency bound only binds if the chain is loop-carried; as an
        // approximation we only apply it when some written resource is also
        // read by the kernel (a genuine cycle).
        let loop_carried = kernel.iter().any(|inst| {
            let writes = inst.writes();
            kernel.iter().any(|other| other.reads().iter().any(|r| writes.contains(r)))
        });
        let latency_bound = if loop_carried { latency_bound } else { 0.0 };

        let block_throughput = port_bound.max(frontend_bound).max(latency_bound).max(0.0);
        Prediction {
            block_throughput,
            port_bound,
            frontend_bound,
            latency_bound,
            port_pressure,
            total_uops,
            unknown_instructions: unknown,
        }
    }

    /// Convenience: predicts the reciprocal throughput of a single
    /// instruction profile (cycles per instruction when executed back to
    /// back), directly from its port usage — Intel's throughput definition.
    #[must_use]
    pub fn instruction_throughput(&self, profile: &InstructionProfile) -> Option<f64> {
        crate::throughput::throughput_from_port_usage(
            &profile.port_usage,
            self.catalog.try_get(profile.uid)?,
            self.cfg.port_count,
        )
    }

    /// The ports of the modelled machine.
    #[must_use]
    pub fn ports(&self) -> PortSet {
        self.cfg.all_ports()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CharacterizationEngine, EngineConfig};
    use std::collections::BTreeMap as Map;
    use std::sync::Arc;
    use uops_asm::{variant_arc, Inst, Op, RegisterPool};
    use uops_isa::{gpr, Register, Width};
    use uops_measure::{measure, MeasurementConfig, RunContext, SimBackend};
    use uops_uarch::MicroArch;

    fn report(arch: MicroArch, picks: &[(&str, &str)]) -> CharacterizationReport {
        let catalog = Catalog::intel_core();
        let backend = SimBackend::new(arch);
        let engine = CharacterizationEngine::with_config(&catalog, arch, EngineConfig::fast());
        engine.characterize_matching(&backend, |d| {
            picks.iter().any(|(m, v)| d.mnemonic == *m && d.variant() == *v)
        })
    }

    #[test]
    fn independent_kernel_is_port_bound() {
        let catalog = Catalog::intel_core();
        let arch = MicroArch::Skylake;
        let rep = report(arch, &[("PSHUFD", "XMM, XMM, I8")]);
        let predictor = Predictor::new(&catalog, &rep).unwrap();
        // Four independent PSHUFDs: one shuffle port → 4 cycles per iteration.
        let desc = variant_arc(&catalog, "PSHUFD", "XMM, XMM, I8").unwrap();
        let mut pool = RegisterPool::new();
        let kernel: CodeSequence =
            crate::codegen::independent_copies(&desc, 4, &mut pool).unwrap().into_iter().collect();
        let prediction = predictor.predict(&kernel);
        assert!((prediction.port_bound - 4.0).abs() < 1e-9, "{prediction}");
        assert_eq!(prediction.bottleneck_port(), Some(5));
        assert_eq!(prediction.bottleneck(), Bottleneck::Ports);
        assert!(prediction.unknown_instructions.is_empty());

        // The prediction matches what the simulator actually measures.
        let backend = SimBackend::new(arch);
        let measured =
            measure(&backend, &kernel, &MeasurementConfig::default(), RunContext::default());
        assert!(
            (measured.cycles - prediction.block_throughput).abs() < 1.0,
            "measured {} vs predicted {}",
            measured.cycles,
            prediction.block_throughput
        );
    }

    #[test]
    fn dependent_kernel_is_latency_bound_unlike_iaca() {
        let catalog = Catalog::intel_core();
        let arch = MicroArch::Skylake;
        let rep = report(arch, &[("IMUL", "R64, R64")]);
        let predictor = Predictor::new(&catalog, &rep).unwrap();
        // A loop-carried IMUL chain: latency 3, so 2 chained IMULs → 6 cycles
        // per iteration even though the port bound is only 2.
        let desc = variant_arc(&catalog, "IMUL", "R64, R64").unwrap();
        let a = Register::gpr(gpr::RBX, Width::W64);
        let b = Register::gpr(gpr::RSI, Width::W64);
        let mut pool = RegisterPool::new();
        let mut kernel = CodeSequence::new();
        for (dst, src) in [(a, b), (b, a)] {
            let mut assign = Map::new();
            assign.insert(0, Op::Reg(dst));
            assign.insert(1, Op::Reg(src));
            kernel.push(Inst::bind(&desc, &assign, &mut pool).unwrap());
        }
        let prediction = predictor.predict(&kernel);
        assert_eq!(prediction.bottleneck(), Bottleneck::Dependencies);
        assert!((prediction.latency_bound - 6.0).abs() < 1.0, "{prediction}");
        assert!((prediction.port_bound - 2.0).abs() < 1e-9);
        // Cross-check against the simulator.
        let backend = SimBackend::new(arch);
        let measured =
            measure(&backend, &kernel, &MeasurementConfig::default(), RunContext::default());
        assert!(
            (measured.cycles - prediction.block_throughput).abs() < 1.5,
            "measured {} vs predicted {}",
            measured.cycles,
            prediction.block_throughput
        );
    }

    #[test]
    fn frontend_bound_kernel() {
        let catalog = Catalog::intel_core();
        let arch = MicroArch::Skylake;
        let rep = report(arch, &[("ADD", "R64, R64")]);
        let predictor = Predictor::new(&catalog, &rep).unwrap();
        // Eight independent single-µop ALU instructions: 4 ALU ports would
        // allow 2 cycles, and the front end also needs 2 cycles; dependencies
        // do not bind.
        let desc = variant_arc(&catalog, "ADD", "R64, R64").unwrap();
        let mut pool = RegisterPool::new();
        let kernel: CodeSequence =
            crate::codegen::independent_copies(&desc, 8, &mut pool).unwrap().into_iter().collect();
        let prediction = predictor.predict(&kernel);
        assert!((prediction.frontend_bound - 2.0).abs() < 1e-9);
        assert!((prediction.block_throughput - 2.0).abs() < 0.6, "{prediction}");
    }

    #[test]
    fn unknown_instructions_are_reported() {
        let catalog = Catalog::intel_core();
        let arch = MicroArch::Skylake;
        let rep = report(arch, &[("ADD", "R64, R64")]);
        let predictor = Predictor::new(&catalog, &rep).unwrap();
        let desc = variant_arc(&catalog, "PADDD", "XMM, XMM").unwrap();
        let mut pool = RegisterPool::new();
        let kernel: CodeSequence =
            crate::codegen::independent_copies(&desc, 2, &mut pool).unwrap().into_iter().collect();
        let prediction = predictor.predict(&kernel);
        assert_eq!(prediction.unknown_instructions.len(), 2);
        assert_eq!(prediction.total_uops, 0.0);
    }

    #[test]
    fn predictor_requires_a_non_empty_report() {
        let catalog = Catalog::intel_core();
        let empty = CharacterizationReport { arch: Some(MicroArch::Skylake), ..Default::default() };
        assert!(Predictor::new(&catalog, &empty).is_err());
        let no_arch = CharacterizationReport::default();
        assert!(Predictor::new(&catalog, &no_arch).is_err());
    }

    #[test]
    fn instruction_throughput_helper_uses_port_usage() {
        let catalog = Catalog::intel_core();
        let arch = MicroArch::Skylake;
        let rep = report(arch, &[("ADD", "R64, R64")]);
        let predictor = Predictor::new(&catalog, &rep).unwrap();
        let profile = rep.find("ADD", "R64, R64").unwrap();
        let tp = predictor.instruction_throughput(profile).unwrap();
        assert!((tp - 0.25).abs() < 1e-9);
        let _ = Arc::new(profile.clone());
        assert!(predictor.ports().contains(0));
    }
}
