//! Port-usage inference (Algorithm 1, §5.1.2).
//!
//! The port usage of an instruction is a mapping from port combinations to
//! the number of µops that can execute on exactly the ports of that
//! combination. It is inferred by running the instruction together with a
//! large number of copies of a *blocking instruction* for each port
//! combination: µops of the instruction that are counted on the blocked
//! ports despite the contention can only execute there.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use uops_asm::{CodeSequence, RegisterPool};
use uops_isa::InstructionDesc;
use uops_measure::{measure, measure_single, MeasurementBackend, MeasurementConfig, RunContext};
use uops_uarch::PortSet;

use crate::blocking::BlockingInstructions;
use crate::codegen::instantiate;
use crate::error::CoreError;

/// The inferred port usage of an instruction: for each port combination, the
/// number of µops that may execute exactly on those ports.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PortUsage {
    entries: Vec<(PortSet, u32)>,
    /// µops that could not be attributed to any combination (e.g. because no
    /// blocking instruction was available).
    unattributed: u32,
}

impl PortUsage {
    /// Creates an empty port usage.
    #[must_use]
    pub fn new() -> PortUsage {
        PortUsage::default()
    }

    /// Creates a port usage from a list of `(ports, µops)` pairs.
    #[must_use]
    pub fn from_entries(mut entries: Vec<(PortSet, u32)>) -> PortUsage {
        entries.retain(|(_, n)| *n > 0);
        entries.sort();
        PortUsage { entries, unattributed: 0 }
    }

    /// Parses the paper's notation, e.g. `"1*p015+2*p5"`.
    #[must_use]
    pub fn parse(s: &str) -> Option<PortUsage> {
        let mut entries = Vec::new();
        for part in s.split('+') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (count, ports) = part.split_once('*')?;
            let count: u32 = count.trim().parse().ok()?;
            let ports = PortSet::parse(ports.trim())?;
            entries.push((ports, count));
        }
        Some(PortUsage::from_entries(entries))
    }

    /// Adds µops to a combination.
    pub fn add(&mut self, ports: PortSet, uops: u32) {
        if uops == 0 {
            return;
        }
        if let Some(entry) = self.entries.iter_mut().find(|(p, _)| *p == ports) {
            entry.1 += uops;
        } else {
            self.entries.push((ports, uops));
            self.entries.sort();
        }
    }

    /// The entries, sorted by port combination.
    #[must_use]
    pub fn entries(&self) -> &[(PortSet, u32)] {
        &self.entries
    }

    /// Number of µops attributed to the given combination.
    #[must_use]
    pub fn uops_for(&self, ports: PortSet) -> u32 {
        self.entries.iter().find(|(p, _)| *p == ports).map(|(_, n)| *n).unwrap_or(0)
    }

    /// Total number of µops attributed to combinations.
    #[must_use]
    pub fn total_uops(&self) -> u32 {
        self.entries.iter().map(|(_, n)| n).sum()
    }

    /// Number of µops that could not be attributed.
    #[must_use]
    pub fn unattributed(&self) -> u32 {
        self.unattributed
    }

    /// Returns `true` if no µops are recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Converts to the map format used by the LP solver.
    #[must_use]
    pub fn to_usage_map(&self) -> uops_lp::PortUsageMap {
        let mut map = uops_lp::PortUsageMap::new();
        for (ports, count) in &self.entries {
            let mask: u16 = ports.iter().fold(0u16, |m, p| m | (1 << p));
            *map.entry(mask).or_insert(0.0) += f64::from(*count);
        }
        map
    }
}

impl fmt::Display for PortUsage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.entries.is_empty() {
            return write!(f, "0");
        }
        let parts: Vec<String> = self.entries.iter().map(|(p, n)| format!("{n}*{p}")).collect();
        write!(f, "{}", parts.join("+"))?;
        if self.unattributed > 0 {
            write!(f, " (+{} unattributed)", self.unattributed)?;
        }
        Ok(())
    }
}

/// The result of running an instruction in isolation: total µop count and
/// per-port averages (the raw observation that prior work interprets
/// directly, §5.1).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct IsolationProfile {
    /// Average total µops per instruction execution.
    pub uops_total: f64,
    /// Average µops per port per instruction execution.
    pub port_averages: Vec<(u8, f64)>,
}

impl IsolationProfile {
    /// The set of ports with a non-negligible share of µops.
    #[must_use]
    pub fn used_ports(&self) -> PortSet {
        self.port_averages.iter().filter(|(_, v)| *v > 0.1).map(|(p, _)| *p).collect()
    }

    /// The µop count rounded to the nearest integer.
    #[must_use]
    pub fn rounded_uops(&self) -> u32 {
        self.uops_total.round().max(0.0) as u32
    }
}

/// Measures an instruction in isolation (total µops and per-port averages).
pub fn isolation_profile<B: MeasurementBackend + ?Sized>(
    backend: &B,
    desc: &Arc<InstructionDesc>,
    config: &MeasurementConfig,
) -> Result<IsolationProfile, CoreError> {
    let mut pool = RegisterPool::new();
    let inst = instantiate(desc, &mut pool)?;
    let m = measure_single(backend, inst, config, RunContext::default());
    let port_count = backend.config().port_count;
    let port_averages: Vec<(u8, f64)> =
        (0..port_count).map(|p| (p, m.port(p))).filter(|(_, v)| *v > 0.02).collect();
    Ok(IsolationProfile { uops_total: m.uops_total, port_averages })
}

/// Infers the port usage of an instruction using Algorithm 1.
///
/// `max_latency` is the maximum latency of the instruction over all operand
/// pairs (used to size the number of blocking-instruction copies); if it is
/// not yet known, a conservative default such as 12 can be used.
///
/// # Errors
///
/// Returns an error if the instruction cannot be instantiated.
pub fn infer_port_usage<B: MeasurementBackend + ?Sized>(
    backend: &B,
    blocking: &BlockingInstructions,
    desc: &Arc<InstructionDesc>,
    max_latency: u32,
    config: &MeasurementConfig,
) -> Result<PortUsage, CoreError> {
    // Step 0: run the instruction in isolation to obtain the total µop count
    // and the set of ports it uses (the optimization described after
    // Algorithm 1).
    let isolation = isolation_profile(backend, desc, config)?;
    infer_port_usage_from(backend, blocking, desc, &isolation, max_latency, config)
}

/// [`infer_port_usage`] from an isolation profile the caller has already
/// measured with [`isolation_profile`] (step 0 of Algorithm 1).
///
/// # Errors
///
/// Returns an error if the instruction cannot be instantiated.
pub fn infer_port_usage_from<B: MeasurementBackend + ?Sized>(
    backend: &B,
    blocking: &BlockingInstructions,
    desc: &Arc<InstructionDesc>,
    isolation: &IsolationProfile,
    max_latency: u32,
    config: &MeasurementConfig,
) -> Result<PortUsage, CoreError> {
    let ctx = RunContext::default();
    let total_uops = isolation.rounded_uops();
    if total_uops == 0 {
        return Ok(PortUsage::new());
    }
    let isolated_ports = isolation.used_ports();

    // Port combinations sorted by size (subsets are processed before their
    // supersets).
    let mut combos: Vec<PortSet> = backend.config().port_combinations();
    combos.sort_by_key(|c| (c.len(), *c));

    // The number of blocking-instruction copies: proportional to the maximum
    // latency so that blocked ports stay saturated while the instruction's
    // µops wait for their operands (line 4 of Algorithm 1).
    let block_rep = (8 * max_latency.max(1)).clamp(16, 96) as usize;

    let mut usage = PortUsage::new();
    let mut attributed = 0u32;

    for combo in combos {
        if attributed >= total_uops {
            break;
        }
        // Only combinations whose ports are used in isolation can have µops
        // bound to them.
        if !combo.intersects(isolated_ports) {
            continue;
        }
        let Some(entry) = blocking.entry(combo) else { continue };

        // Build: blockRep copies of the blocking instruction, then the
        // instruction under test, with disjoint registers and memory cells.
        let mut pool = RegisterPool::new();
        let test_inst = instantiate(desc, &mut pool)?;
        for op in test_inst.operands() {
            if let Some(reg) = op.register() {
                pool.mark_used(reg);
            }
        }
        let blockers = blocking.blocking_code(combo, block_rep, &mut pool)?;
        let mut seq = CodeSequence::new();
        for b in blockers {
            seq.push(b);
        }
        seq.push(test_inst);

        let m = measure(backend, &seq, config, ctx);
        let mut uops_on_combo =
            m.uops_on_ports(combo) - (block_rep as f64) * f64::from(entry.uops_per_copy);

        // Subtract µops already attributed to strict subsets of this
        // combination (lines 8–10 of Algorithm 1).
        for (prev_ports, prev_uops) in usage.entries() {
            if prev_ports.is_strict_subset_of(combo) {
                uops_on_combo -= f64::from(*prev_uops);
            }
        }

        let rounded = uops_on_combo.round();
        if rounded >= 1.0 {
            let n = rounded as u32;
            let n = n.min(total_uops - attributed);
            if n > 0 {
                usage.add(combo, n);
                attributed += n;
            }
        }
    }

    usage.unattributed = total_uops.saturating_sub(attributed);
    Ok(usage)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::VectorWorld;
    use uops_isa::Catalog;
    use uops_measure::SimBackend;
    use uops_uarch::MicroArch;

    fn setup(arch: MicroArch) -> (SimBackend, Catalog, BlockingInstructions) {
        let backend = SimBackend::new(arch);
        let catalog = Catalog::intel_core();
        let blocking = BlockingInstructions::find(
            &backend,
            &catalog,
            &MeasurementConfig::fast(),
            VectorWorld::Sse,
        )
        .unwrap();
        (backend, catalog, blocking)
    }

    fn infer(
        backend: &SimBackend,
        catalog: &Catalog,
        blocking: &BlockingInstructions,
        mnemonic: &str,
        variant: &str,
    ) -> PortUsage {
        let desc = Arc::new(catalog.find_variant(mnemonic, variant).unwrap().clone());
        infer_port_usage(backend, blocking, &desc, 8, &MeasurementConfig::fast()).unwrap()
    }

    #[test]
    fn port_usage_notation_roundtrip() {
        let pu =
            PortUsage::from_entries(vec![(PortSet::of(&[0, 1, 5]), 3), (PortSet::of(&[2, 3]), 1)]);
        assert_eq!(pu.to_string(), "1*p23+3*p015");
        let parsed = PortUsage::parse("3*p015+1*p23").unwrap();
        assert_eq!(parsed, pu);
        assert_eq!(pu.total_uops(), 4);
        assert_eq!(pu.uops_for(PortSet::of(&[2, 3])), 1);
        assert_eq!(pu.uops_for(PortSet::of(&[4])), 0);
        assert!(PortUsage::parse("garbage").is_none());
    }

    #[test]
    fn simple_alu_instruction_on_skylake() {
        let (backend, catalog, blocking) = setup(MicroArch::Skylake);
        let pu = infer(&backend, &catalog, &blocking, "ADD", "R64, R64");
        assert_eq!(pu.to_string(), "1*p0156");
        assert_eq!(pu.unattributed(), 0);
    }

    #[test]
    fn load_instruction_uses_load_ports() {
        let (backend, catalog, blocking) = setup(MicroArch::Skylake);
        let pu = infer(&backend, &catalog, &blocking, "MOV", "R64, M64");
        assert_eq!(pu.to_string(), "1*p23");
    }

    #[test]
    fn store_instruction_uses_store_ports() {
        let (backend, catalog, blocking) = setup(MicroArch::Skylake);
        let pu = infer(&backend, &catalog, &blocking, "MOV", "M64, R64");
        assert_eq!(pu.uops_for(PortSet::of(&[4])), 1, "{pu}");
        assert_eq!(pu.uops_for(PortSet::of(&[2, 3, 7])), 1, "{pu}");
    }

    #[test]
    fn isolation_profile_reports_ports() {
        let backend = SimBackend::new(MicroArch::Skylake);
        let catalog = Catalog::intel_core();
        let desc = Arc::new(catalog.find_variant("PSHUFD", "XMM, XMM, I8").unwrap().clone());
        let profile = isolation_profile(&backend, &desc, &MeasurementConfig::fast()).unwrap();
        assert_eq!(profile.rounded_uops(), 1);
        assert!(profile.used_ports().contains(5));
    }

    #[test]
    fn eliminated_instruction_has_empty_port_usage() {
        let (backend, catalog, blocking) = setup(MicroArch::Skylake);
        let pu = infer(&backend, &catalog, &blocking, "NOP", "");
        assert!(pu.is_empty());
        assert_eq!(pu.to_string(), "0");
    }
}
