//! The paper's findings (§5.1, §7.2, §7.3.1–§7.3.6) as one table.
//!
//! Each [`Finding`] names an instruction variant, a microarchitecture, the
//! [`Field`] observed on it and the value the paper reports. Where this
//! reproduction measures something else, the row records the observed value
//! and the reason instead of tuning the simulator towards the paper.
//!
//! [`observe_all`] measures every kind of finding in one place, through the
//! public calls a user of the library makes: [`CharacterizationEngine::characterize_variant`],
//! [`LatencyAnalyzer::infer`], [`naive_latency`],
//! [`CharacterizationEngine::zero_idiom_scan`] and [`IacaAnalyzer`]. Values
//! render as strings: µop counts as integers, port usages in the paper's
//! notation, cycles with two decimals (an upper bound as `≤x`), and yes/no
//! answers as `yes`/`no`.
//!
//! `tests/paper_findings.rs` asserts every row; the `paper` binary prints
//! them.

use std::fmt;
use std::iter;
use std::sync::Arc;

use uops_core::{
    naive_latency, ChainCalibration, CharacterizationEngine, EngineConfig, LatencyAnalyzer,
    LatencyMap,
};
use uops_iaca::{IacaAnalyzer, IacaInstructionData, IacaVersion};
use uops_isa::{Catalog, InstructionDesc};
use uops_measure::{MeasurementConfig, SimBackend};
use uops_uarch::MicroArch;

use IacaVersion::{V21, V23, V30};
use MicroArch::{Haswell, IvyBridge, Nehalem, SandyBridge, Skylake, Westmere};

/// What a finding observes on its instruction variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Field {
    /// Number of µops.
    Uops,
    /// Port usage inferred by Algorithm 1.
    Ports,
    /// Port usage concluded by the run-in-isolation method of prior work.
    NaivePorts,
    /// `lat(src→dst)` with distinct registers, by operand index.
    Latency(usize, usize),
    /// `lat(src→dst)` with the same register for both operands.
    SameRegister(usize, usize),
    /// Prior work's single latency with one register for all operands
    /// (Granlund, AIDA64).
    NaiveSameRegister,
    /// Prior work's single latency chained through the destination (Fog).
    NaiveDestinationChain,
    /// Whether the latencies of the operand pairs differ (§7.3.5).
    MultipleLatencies,
    /// Whether the same-register form breaks the dependency on its sources
    /// (§7.3.6).
    ZeroIdiom,
    /// Measured throughput in cycles per instruction.
    Throughput,
    /// The µop count an IACA version reports.
    IacaUops(IacaVersion),
    /// The port usage an IACA version reports.
    IacaPorts(IacaVersion),
    /// The sum of an IACA version's per-port view.
    IacaPortSum(IacaVersion),
    /// The throughput an IACA version predicts.
    IacaThroughput(IacaVersion),
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Field::Uops => write!(f, "µops"),
            Field::Ports => write!(f, "ports (Algorithm 1)"),
            Field::NaivePorts => write!(f, "ports (naive)"),
            Field::Latency(s, d) => write!(f, "lat({s}→{d})"),
            Field::SameRegister(s, d) => write!(f, "same-register lat({s}→{d})"),
            Field::NaiveSameRegister => write!(f, "naive same-register lat"),
            Field::NaiveDestinationChain => write!(f, "naive destination-chain lat"),
            Field::MultipleLatencies => write!(f, "multiple latencies"),
            Field::ZeroIdiom => write!(f, "dependency-breaking"),
            Field::Throughput => write!(f, "throughput"),
            Field::IacaUops(v) => write!(f, "{v} µops"),
            Field::IacaPorts(v) => write!(f, "{v} ports"),
            Field::IacaPortSum(v) => write!(f, "{v} per-port sum"),
            Field::IacaThroughput(v) => write!(f, "{v} throughput"),
        }
    }
}

/// One finding of the paper, reproduced on the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Finding {
    /// The paper section that states it.
    pub section: &'static str,
    /// The instruction's mnemonic.
    pub mnemonic: &'static str,
    /// The variant string (explicit operand types).
    pub variant: &'static str,
    /// The microarchitecture.
    pub arch: MicroArch,
    /// What is observed.
    pub field: Field,
    /// The value the paper reports, rendered as [`observe_all`] renders.
    pub paper: &'static str,
    /// Where the reproduction differs: the observed value and why.
    pub divergence: Option<(&'static str, &'static str)>,
}

impl Finding {
    const fn diverges(self, observed: &'static str, reason: &'static str) -> Finding {
        Finding { divergence: Some((observed, reason)), ..self }
    }

    /// The instruction as the paper writes it, e.g. `SHLD (R64, R64, I8)`.
    #[must_use]
    pub fn instruction(&self) -> String {
        if self.variant.is_empty() {
            self.mnemonic.to_string()
        } else {
            format!("{} ({})", self.mnemonic, self.variant)
        }
    }

    /// Checks an observed value against the row: the paper's value, or the
    /// recorded one where the row diverges.
    ///
    /// # Errors
    ///
    /// Returns what is wrong: a value that matches neither, or a recorded
    /// divergence that now reads the paper's value.
    pub fn check(&self, observed: &str) -> Result<(), String> {
        let expected = match self.divergence {
            Some(_) if observed == self.paper => {
                return Err(format!(
                    "{self}: divergence resolved, update the row (now reads the paper's {observed})"
                ))
            }
            Some((recorded, _)) => recorded,
            None => self.paper,
        };
        if observed == expected {
            Ok(())
        } else {
            Err(format!("{self}: observed {observed}, expected {expected}"))
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} on {}, {}", self.section, self.instruction(), self.arch, self.field)
    }
}

/// The reason of every §7.3.5 divergence: the simulator's ground truth
/// (`uops_uarch::characterize`) gives each of these variants one latency
/// for all operand pairs, so there is nothing for inference to tell apart.
const ONE_LATENCY: &str = "truth table models one latency";

/// A row that matches the paper; `.diverges(..)` records where it does not.
const fn row(
    section: &'static str,
    mnemonic: &'static str,
    variant: &'static str,
    arch: MicroArch,
    field: Field,
    paper: &'static str,
) -> Finding {
    Finding { section, mnemonic, variant, arch, field, paper, divergence: None }
}

/// The findings, in paper order.
pub const FINDINGS: &[Finding] = &[
    // §5.1: run in isolation, 2*p05 looks like 1*p0 + 1*p5, and ADC's
    // 1*p06 + 1*p0156 like 2*p0156.
    row("§5.1", "PBLENDVB", "XMM, XMM", Nehalem, Field::Ports, "2*p05"),
    row("§5.1", "PBLENDVB", "XMM, XMM", Nehalem, Field::NaivePorts, "1*p0+1*p5"),
    row("§5.1", "ADC", "R64, R64", Haswell, Field::Ports, "1*p06+1*p0156"),
    row("§5.1", "ADC", "R64, R64", Haswell, Field::NaivePorts, "2*p0156"),
    // §7.2: the classes of IACA errors.
    row("§7.2", "IMUL", "R64, M64", Nehalem, Field::Uops, "2"),
    row("§7.2", "IMUL", "R64, M64", Nehalem, Field::IacaUops(V21), "1"),
    row("§7.2", "TEST", "M64, R64", Nehalem, Field::Uops, "2"),
    row("§7.2", "TEST", "M64, R64", Nehalem, Field::IacaUops(V21), "4"),
    row("§7.2", "BSWAP", "R32", Skylake, Field::Uops, "1"),
    row("§7.2", "BSWAP", "R32", Skylake, Field::IacaUops(V30), "2"),
    row("§7.2", "BSWAP", "R64", Skylake, Field::Uops, "2"),
    row("§7.2", "BSWAP", "R64", Skylake, Field::IacaUops(V30), "2"),
    row("§7.2", "VHADDPD", "XMM, XMM, XMM", Skylake, Field::Uops, "3"),
    row("§7.2", "VHADDPD", "XMM, XMM, XMM", Skylake, Field::IacaUops(V30), "3"),
    row("§7.2", "VHADDPD", "XMM, XMM, XMM", Skylake, Field::IacaPortSum(V30), "1"),
    row("§7.2", "VMINPS", "XMM, XMM, XMM", Skylake, Field::Ports, "1*p01"),
    row("§7.2", "VMINPS", "XMM, XMM, XMM", Skylake, Field::IacaPorts(V23), "1*p015"),
    row("§7.2", "VMINPS", "XMM, XMM, XMM", Skylake, Field::IacaPorts(V30), "1*p01"),
    row("§7.2", "SAHF", "", Haswell, Field::Ports, "1*p06"),
    row("§7.2", "SAHF", "", Haswell, Field::IacaPorts(V21), "1*p06"),
    row("§7.2", "SAHF", "", Haswell, Field::IacaPorts(V23), "1*p0156"),
    row("§7.2", "CMC", "", Skylake, Field::Throughput, "1.00"),
    row("§7.2", "CMC", "", Skylake, Field::IacaThroughput(V30), "0.25"),
    // §7.3.1: AESDEC's state and round-key latencies across generations.
    row("§7.3.1", "AESDEC", "XMM, XMM", Westmere, Field::Uops, "3"),
    row("§7.3.1", "AESDEC", "XMM, XMM", Westmere, Field::Latency(0, 0), "6.00"),
    row("§7.3.1", "AESDEC", "XMM, XMM", Westmere, Field::Latency(1, 0), "6.00"),
    row("§7.3.1", "AESDEC", "XMM, XMM", SandyBridge, Field::Uops, "2"),
    row("§7.3.1", "AESDEC", "XMM, XMM", SandyBridge, Field::Latency(0, 0), "8.00"),
    row("§7.3.1", "AESDEC", "XMM, XMM", SandyBridge, Field::Latency(1, 0), "1.25")
        .diverges("1.00", "truth table's key-XOR µop takes 1 cycle"),
    row("§7.3.1", "AESDEC", "XMM, XMM", SandyBridge, Field::MultipleLatencies, "yes"),
    row("§7.3.1", "AESDEC", "XMM, XMM", IvyBridge, Field::Uops, "2"),
    row("§7.3.1", "AESDEC", "XMM, XMM", IvyBridge, Field::Latency(0, 0), "8.00"),
    row("§7.3.1", "AESDEC", "XMM, XMM", IvyBridge, Field::Latency(1, 0), "1.25")
        .diverges("1.00", "truth table's key-XOR µop takes 1 cycle"),
    row("§7.3.1", "AESDEC", "XMM, XMM", Haswell, Field::Uops, "1"),
    row("§7.3.1", "AESDEC", "XMM, XMM", Haswell, Field::Latency(0, 0), "7.00"),
    row("§7.3.1", "AESDEC", "XMM, XMM", Haswell, Field::Latency(1, 0), "7.00"),
    row("§7.3.1", "AESDEC", "XMM, M128", SandyBridge, Field::Latency(0, 0), "8.00"),
    row("§7.3.1", "AESDEC", "XMM, M128", SandyBridge, Field::Latency(1, 0), "≤7.00").diverges(
        "≤8.00",
        "the bound adds the truth table's 5-cycle load, 1-cycle key XOR and the XMM→GPR move",
    ),
    // §7.3.2: SHLD, and why prior work reports 3 or 4 (Nehalem) and 1 or 3
    // (Skylake) cycles.
    row("§7.3.2", "SHLD", "R64, R64, I8", Nehalem, Field::Latency(0, 0), "3.00"),
    row("§7.3.2", "SHLD", "R64, R64, I8", Nehalem, Field::Latency(1, 0), "4.00"),
    row("§7.3.2", "SHLD", "R64, R64, I8", Nehalem, Field::SameRegister(1, 0), "4.00"),
    row("§7.3.2", "SHLD", "R64, R64, I8", Nehalem, Field::NaiveSameRegister, "4.00"),
    row("§7.3.2", "SHLD", "R64, R64, I8", Nehalem, Field::NaiveDestinationChain, "3.00"),
    row("§7.3.2", "SHLD", "R64, R64, I8", Skylake, Field::Latency(0, 0), "3.00"),
    row("§7.3.2", "SHLD", "R64, R64, I8", Skylake, Field::Latency(1, 0), "3.00"),
    row("§7.3.2", "SHLD", "R64, R64, I8", Skylake, Field::SameRegister(1, 0), "1.00"),
    row("§7.3.2", "SHLD", "R64, R64, I8", Skylake, Field::NaiveSameRegister, "1.00"),
    row("§7.3.2", "SHLD", "R64, R64, I8", Skylake, Field::NaiveDestinationChain, "3.00"),
    // §7.3.3: MOVQ2DQ's second µop can use ports 0, 1 and 5.
    row("§7.3.3", "MOVQ2DQ", "XMM, MM", Skylake, Field::Uops, "2"),
    row("§7.3.3", "MOVQ2DQ", "XMM, MM", Skylake, Field::Ports, "1*p0+1*p015"),
    row("§7.3.3", "MOVQ2DQ", "XMM, MM", Skylake, Field::NaivePorts, "1*p0+1*p15"),
    row("§7.3.3", "MOVQ2DQ", "XMM, MM", Skylake, Field::IacaPorts(V30), "2*p5"),
    // §7.3.4: MOVDQ2Q; IACA 2.1 agrees on Haswell, later versions do not.
    row("§7.3.4", "MOVDQ2Q", "MM, XMM", Haswell, Field::Ports, "1*p5+1*p015"),
    row("§7.3.4", "MOVDQ2Q", "MM, XMM", Haswell, Field::IacaPorts(V21), "1*p5+1*p015"),
    row("§7.3.4", "MOVDQ2Q", "MM, XMM", Haswell, Field::IacaPorts(V30), "1*p01+1*p015"),
    row("§7.3.4", "MOVDQ2Q", "MM, XMM", SandyBridge, Field::Ports, "1*p5+1*p015"),
    // §7.3.5: instructions whose operand pairs have different latencies,
    // with plain ALU and vector instructions as the control group.
    row("§7.3.5", "ADC", "R64, R64", Haswell, Field::MultipleLatencies, "yes"),
    row("§7.3.5", "SBB", "R64, R64", Haswell, Field::MultipleLatencies, "yes"),
    row("§7.3.5", "CMOVBE", "R64, R64", Haswell, Field::MultipleLatencies, "yes"),
    row("§7.3.5", "CMOVNBE", "R64, R64", Haswell, Field::MultipleLatencies, "yes"),
    row("§7.3.5", "ROL", "R64, CL", Haswell, Field::MultipleLatencies, "yes"),
    row("§7.3.5", "ROR", "R64, CL", Haswell, Field::MultipleLatencies, "yes"),
    row("§7.3.5", "SHLD", "R64, R64, CL", Haswell, Field::MultipleLatencies, "yes"),
    row("§7.3.5", "SHRD", "R64, R64, CL", Haswell, Field::MultipleLatencies, "yes"),
    row("§7.3.5", "IMUL", "R64, R64, I32", Haswell, Field::MultipleLatencies, "yes")
        .diverges("no", ONE_LATENCY),
    row("§7.3.5", "MUL", "R64", Haswell, Field::MultipleLatencies, "yes")
        .diverges("no", ONE_LATENCY),
    row("§7.3.5", "PSHUFB", "XMM, XMM", Haswell, Field::MultipleLatencies, "yes")
        .diverges("no", ONE_LATENCY),
    row("§7.3.5", "SAR", "R64, CL", Haswell, Field::MultipleLatencies, "yes")
        .diverges("no", ONE_LATENCY),
    row("§7.3.5", "SHL", "R64, CL", Haswell, Field::MultipleLatencies, "yes")
        .diverges("no", ONE_LATENCY),
    row("§7.3.5", "SHR", "R64, CL", Haswell, Field::MultipleLatencies, "yes")
        .diverges("no", ONE_LATENCY),
    row("§7.3.5", "MPSADBW", "XMM, XMM, I8", Haswell, Field::MultipleLatencies, "yes")
        .diverges("no", ONE_LATENCY),
    row("§7.3.5", "VPBLENDVB", "YMM, YMM, YMM, YMM", Haswell, Field::MultipleLatencies, "yes")
        .diverges("no", ONE_LATENCY),
    row("§7.3.5", "PSLLD", "XMM, XMM", Haswell, Field::MultipleLatencies, "yes")
        .diverges("no", ONE_LATENCY),
    row("§7.3.5", "PSRLD", "XMM, XMM", Haswell, Field::MultipleLatencies, "yes")
        .diverges("no", ONE_LATENCY),
    row("§7.3.5", "PSRAD", "XMM, XMM", Haswell, Field::MultipleLatencies, "yes")
        .diverges("no", ONE_LATENCY),
    row("§7.3.5", "XADD", "R64, R64", Haswell, Field::MultipleLatencies, "yes")
        .diverges("no", ONE_LATENCY),
    row("§7.3.5", "XCHG", "R64, R64", Haswell, Field::MultipleLatencies, "yes")
        .diverges("no", ONE_LATENCY),
    row("§7.3.5", "ADD", "R64, R64", Haswell, Field::MultipleLatencies, "no"),
    row("§7.3.5", "PADDD", "XMM, XMM", Haswell, Field::MultipleLatencies, "no"),
    row("§7.3.5", "PSHUFD", "XMM, XMM, I8", Haswell, Field::MultipleLatencies, "no"),
    // §7.3.6: PCMPGT* break dependencies although the manual does not list
    // them; ordinary vector instructions do not.
    row("§7.3.6", "PCMPGTB", "XMM, XMM", Skylake, Field::ZeroIdiom, "yes"),
    row("§7.3.6", "PCMPGTW", "XMM, XMM", Skylake, Field::ZeroIdiom, "yes"),
    row("§7.3.6", "PCMPGTD", "XMM, XMM", Skylake, Field::ZeroIdiom, "yes"),
    row("§7.3.6", "PCMPGTQ", "XMM, XMM", Skylake, Field::ZeroIdiom, "yes"),
    row("§7.3.6", "PADDD", "XMM, XMM", Skylake, Field::ZeroIdiom, "no"),
    row("§7.3.6", "PAND", "XMM, XMM", Skylake, Field::ZeroIdiom, "no"),
    row("§7.3.6", "PMINSW", "XMM, XMM", Skylake, Field::ZeroIdiom, "no"),
];

/// The measurement setup of one microarchitecture, built once and shared by
/// every finding on it.
pub(crate) struct Lab<'c> {
    catalog: &'c Catalog,
    arch: MicroArch,
    backend: SimBackend,
    engine: CharacterizationEngine<'c>,
    calibration: ChainCalibration,
}

impl<'c> Lab<'c> {
    /// Builds the engine, backend and chain calibration for `arch` with the
    /// fast measurement configuration.
    ///
    /// # Panics
    ///
    /// Panics if the chain-instruction calibration fails (a broken catalog).
    #[must_use]
    pub(crate) fn new(catalog: &'c Catalog, arch: MicroArch) -> Lab<'c> {
        let backend = SimBackend::new(arch);
        let engine = CharacterizationEngine::with_config(catalog, arch, EngineConfig::fast());
        let calibration = LatencyAnalyzer::new(&backend, catalog, MeasurementConfig::fast())
            .expect("chain-instruction calibration")
            .calibration();
        Lab { catalog, arch, backend, engine, calibration }
    }

    fn latency(&self, desc: &Arc<InstructionDesc>) -> Result<LatencyMap, String> {
        LatencyAnalyzer::with_calibration(
            &self.backend,
            self.catalog,
            MeasurementConfig::fast(),
            self.calibration,
        )
        .infer(desc)
        .map_err(|e| e.to_string())
    }

    fn iaca(
        &self,
        version: IacaVersion,
        desc: &InstructionDesc,
    ) -> Result<IacaInstructionData, String> {
        IacaAnalyzer::new(self.arch, version)
            .and_then(|iaca| iaca.analyze_instruction(desc))
            .ok_or_else(|| format!("{version} has no answer"))
    }
}

fn cycles(value: f64) -> String {
    format!("{value:.2}")
}

fn yes_no(value: bool) -> String {
    if value { "yes" } else { "no" }.to_string()
}

impl Field {
    /// Observes this field of a variant on `lab`'s microarchitecture,
    /// rendered the way the table writes it. A failed measurement renders as
    /// `error: …`.
    #[must_use]
    pub(crate) fn observe(self, lab: &Lab<'_>, mnemonic: &str, variant: &str) -> String {
        self.measure(lab, mnemonic, variant).unwrap_or_else(|e| format!("error: {e}"))
    }

    fn measure(self, lab: &Lab<'_>, mnemonic: &str, variant: &str) -> Result<String, String> {
        let desc = lab.catalog.find_variant_arc(mnemonic, variant).ok_or("not in the catalog")?;
        let profile =
            || lab.engine.characterize_variant(&lab.backend, desc).map_err(|e| e.to_string());
        let pair =
            |s, d| lab.latency(desc)?.get(s, d).cloned().ok_or_else(|| format!("no lat({s}→{d})"));
        let naive = || {
            naive_latency(&lab.backend, desc, &MeasurementConfig::fast()).map_err(|e| e.to_string())
        };
        Ok(match self {
            Field::Uops => profile()?.uop_count.to_string(),
            Field::Ports => profile()?.port_usage.to_string(),
            Field::NaivePorts => {
                profile()?.naive_port_usage.ok_or("no naive baseline")?.interpretation.to_string()
            }
            Field::Latency(s, d) => {
                let value = pair(s, d)?;
                let bound = if value.is_upper_bound { "≤" } else { "" };
                format!("{bound}{}", cycles(value.cycles))
            }
            Field::SameRegister(s, d) => {
                cycles(pair(s, d)?.same_register_cycles.ok_or("no same-register value")?)
            }
            Field::NaiveSameRegister => cycles(naive()?.same_register.ok_or("not measured")?),
            Field::NaiveDestinationChain => {
                cycles(naive()?.destination_chain.ok_or("not measured")?)
            }
            Field::MultipleLatencies => yes_no(lab.latency(desc)?.has_multiple_latencies()),
            Field::ZeroIdiom => {
                let found = lab
                    .engine
                    .zero_idiom_scan(&lab.backend, iter::once(desc.as_ref()))
                    .map_err(|e| e.to_string())?;
                yes_no(found.contains(&desc.uid))
            }
            Field::Throughput => cycles(profile()?.throughput.measured),
            Field::IacaUops(v) => lab.iaca(v, desc)?.uop_count.to_string(),
            Field::IacaPorts(v) => lab.iaca(v, desc)?.port_usage_string(),
            Field::IacaPortSum(v) => lab.iaca(v, desc)?.per_port_uop_sum().to_string(),
            Field::IacaThroughput(v) => cycles(lab.iaca(v, desc)?.throughput),
        })
    }
}

/// Observes every finding on `archs`, building one engine and backend per
/// microarchitecture, and returns the rows with their observed values in
/// table order.
#[must_use]
pub fn observe_all(catalog: &Catalog, archs: &[MicroArch]) -> Vec<(Finding, String)> {
    let mut observed: Vec<Option<String>> = vec![None; FINDINGS.len()];
    for &arch in archs {
        let mut lab = None;
        for (i, finding) in FINDINGS.iter().enumerate().filter(|(_, f)| f.arch == arch) {
            let lab = lab.get_or_insert_with(|| Lab::new(catalog, arch));
            observed[i] = Some(finding.field.observe(lab, finding.mnemonic, finding.variant));
        }
    }
    FINDINGS.iter().zip(observed).filter_map(|(f, o)| Some((*f, o?))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_accepts_the_paper_or_the_recorded_divergence_only() {
        let matching = row("§", "ADD", "R64, R64", Haswell, Field::Uops, "1");
        assert!(matching.check("1").is_ok());
        assert!(matching.check("2").unwrap_err().contains("observed 2, expected 1"));

        let diverging = matching.diverges("2", "reason");
        assert!(diverging.check("2").is_ok());
        assert!(diverging.check("3").unwrap_err().contains("observed 3, expected 2"));
        assert!(diverging.check("1").unwrap_err().contains("divergence resolved"));
    }
}
