//! µop-level ground-truth description of an instruction instance.
//!
//! The simulator executes instructions as small dataflow graphs of µops. Each
//! [`UopSpec`] names the execution ports it may use, the functional-unit kind
//! (which determines pipelining behaviour and bypass domain), its latency, and
//! its dataflow inputs/outputs expressed in terms of the instruction's operand
//! indices and intra-instruction temporaries.
//!
//! This representation is the *hidden ground truth*: it is consumed only by
//! the pipeline simulator (`uops-pipeline`) and — in deliberately perturbed
//! form — by the IACA analogue (`uops-iaca`). The inference algorithms in
//! `uops-core` never see it.

use std::fmt;

use crate::port::PortSet;

/// The kind of functional unit a µop executes on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuKind {
    /// Simple integer ALU.
    Alu,
    /// Integer multiplier.
    Mul,
    /// The divider unit (not fully pipelined).
    Div,
    /// Branch unit.
    Branch,
    /// Load unit / load AGU.
    Load,
    /// Store-address AGU.
    StoreAddr,
    /// Store-data unit.
    StoreData,
    /// Vector integer unit.
    VecInt,
    /// Vector floating-point unit.
    VecFp,
    /// Vector shuffle unit.
    Shuffle,
    /// AES unit.
    Aes,
    /// Anything handled entirely by the renamer (no execution port).
    None,
}

impl FuKind {
    /// The bypass domain of the functional unit, used to model bypass delays
    /// between the integer-SIMD and floating-point domains (§5.2.1).
    #[must_use]
    pub fn domain(self) -> Domain {
        match self {
            FuKind::VecFp => Domain::VecFp,
            FuKind::VecInt | FuKind::Shuffle | FuKind::Aes => Domain::VecInt,
            _ => Domain::Int,
        }
    }

    /// Returns `true` if the functional unit is fully pipelined (can accept a
    /// new µop every cycle). Only the divider is not.
    #[must_use]
    pub fn fully_pipelined(self) -> bool {
        self != FuKind::Div
    }
}

/// Bypass domains for forwarding between µops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// General-purpose integer domain.
    Int,
    /// Vector integer domain.
    VecInt,
    /// Vector floating-point domain.
    VecFp,
}

/// A dataflow input of a µop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UopInput {
    /// The value of the instruction operand with the given index (for memory
    /// operands this means the loaded value; use [`UopInput::Addr`] for the
    /// address registers).
    Op(usize),
    /// The address registers of the memory operand with the given index.
    Addr(usize),
    /// An intra-instruction temporary produced by an earlier µop of the same
    /// instruction.
    Temp(u8),
}

/// A dataflow output of a µop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UopOutput {
    /// The instruction operand with the given index (a destination register,
    /// flag operand, or — for store-data µops — the stored memory value).
    Op(usize),
    /// An intra-instruction temporary consumed by a later µop of the same
    /// instruction.
    Temp(u8),
}

/// Ground-truth description of one µop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UopSpec {
    /// The ports this µop may be dispatched to.
    pub ports: PortSet,
    /// The functional-unit kind.
    pub fu: FuKind,
    /// The latency from operand availability to result availability, in
    /// cycles.
    pub latency: u32,
    /// Dataflow inputs.
    pub inputs: Vec<UopInput>,
    /// Dataflow outputs.
    pub outputs: Vec<UopOutput>,
}

impl UopSpec {
    /// Creates a µop spec.
    #[must_use]
    pub fn new(
        ports: PortSet,
        fu: FuKind,
        latency: u32,
        inputs: Vec<UopInput>,
        outputs: Vec<UopOutput>,
    ) -> UopSpec {
        UopSpec { ports, fu, latency, inputs, outputs }
    }
}

impl fmt::Display for UopSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({:?}, lat {})", self.ports, self.fu, self.latency)
    }
}

/// Ground-truth characterization of one instruction instance on one
/// microarchitecture.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InstrChar {
    /// The µops the instruction decomposes into (in dataflow order).
    pub uops: Vec<UopSpec>,
    /// The instruction is removed entirely by the renamer (NOPs, recognized
    /// zero idioms on microarchitectures where they need no execution port):
    /// it consumes front-end and retirement bandwidth but no execution ports,
    /// and its results are available immediately.
    pub eliminated: bool,
    /// A register-to-register move that the renamer may eliminate (move
    /// elimination succeeds only for a fraction of attempts at runtime).
    pub mov_elim_candidate: bool,
    /// The instruction breaks the dependency on its sources (zero idiom or
    /// other dependency-breaking idiom with identical source registers).
    pub dependency_breaking: bool,
    /// If the instruction uses the divider: the number of cycles the divider
    /// is occupied (and the µop's latency), as a (low, high) pair depending
    /// on operand values.
    pub divider_occupancy: Option<(u32, u32)>,
}

impl InstrChar {
    /// A characterization with the given µops and no special renamer
    /// behaviour.
    #[must_use]
    pub fn of_uops(uops: Vec<UopSpec>) -> InstrChar {
        InstrChar { uops, ..InstrChar::default() }
    }

    /// The number of µops (as counted by the performance counters, i.e. not
    /// counting eliminated instructions).
    #[must_use]
    pub fn uop_count(&self) -> usize {
        if self.eliminated {
            0
        } else {
            self.uops.len()
        }
    }

    /// The maximum µop latency (a lower bound on the instruction's critical
    /// path; the true per-operand-pair latency is the path sum).
    #[must_use]
    pub fn max_uop_latency(&self) -> u32 {
        self.uops.iter().map(|u| u.latency).max().unwrap_or(0)
    }

    /// The sum of the latencies along the longest dataflow path through the
    /// instruction's µops (an upper bound on any operand-pair latency).
    #[must_use]
    pub fn critical_path_latency(&self) -> u32 {
        // Longest path over temporaries; µops are in dataflow order, so a
        // single forward pass suffices.
        let mut temp_ready = std::collections::BTreeMap::new();
        let mut longest = 0;
        for uop in &self.uops {
            let start = uop
                .inputs
                .iter()
                .filter_map(|i| match i {
                    UopInput::Temp(t) => temp_ready.get(t).copied(),
                    _ => Some(0),
                })
                .max()
                .unwrap_or(0);
            let done = start + uop.latency;
            longest = longest.max(done);
            for out in &uop.outputs {
                if let UopOutput::Temp(t) = out {
                    temp_ready.insert(*t, done);
                }
            }
        }
        longest
    }

    /// Aggregated port usage: for each distinct port set used by the µops,
    /// the number of µops bound to exactly that set. Sorted by port set.
    #[must_use]
    pub fn port_usage(&self) -> Vec<(PortSet, u32)> {
        let mut map: std::collections::BTreeMap<PortSet, u32> = std::collections::BTreeMap::new();
        if self.eliminated {
            return Vec::new();
        }
        for uop in &self.uops {
            if uop.fu == FuKind::None || uop.ports.is_empty() {
                continue;
            }
            *map.entry(uop.ports).or_insert(0) += 1;
        }
        map.into_iter().collect()
    }
}

impl fmt::Display for InstrChar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.eliminated {
            return write!(f, "eliminated");
        }
        let usage = self.port_usage();
        let parts: Vec<String> = usage.iter().map(|(p, n)| format!("{n}*{p}")).collect();
        write!(f, "{}", parts.join("+"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(ports: &[u8]) -> PortSet {
        PortSet::of(ports)
    }

    #[test]
    fn uop_count_and_elimination() {
        let mut c = InstrChar::of_uops(vec![UopSpec::new(
            p(&[0, 1, 5]),
            FuKind::Alu,
            1,
            vec![UopInput::Op(1)],
            vec![UopOutput::Op(0)],
        )]);
        assert_eq!(c.uop_count(), 1);
        c.eliminated = true;
        assert_eq!(c.uop_count(), 0);
        assert!(c.port_usage().is_empty());
    }

    #[test]
    fn port_usage_aggregation() {
        let c = InstrChar::of_uops(vec![
            UopSpec::new(p(&[0, 1, 5]), FuKind::Alu, 1, vec![], vec![]),
            UopSpec::new(p(&[0, 1, 5]), FuKind::Alu, 1, vec![], vec![]),
            UopSpec::new(p(&[2, 3]), FuKind::Load, 5, vec![], vec![]),
        ]);
        let usage = c.port_usage();
        assert_eq!(usage.len(), 2);
        assert!(usage.contains(&(p(&[0, 1, 5]), 2)));
        assert!(usage.contains(&(p(&[2, 3]), 1)));
        assert_eq!(c.to_string(), "1*p23+2*p015");
    }

    #[test]
    fn critical_path_follows_temporaries() {
        // Load (5 cycles) feeding an ALU µop (1 cycle): path = 6.
        let c = InstrChar::of_uops(vec![
            UopSpec::new(
                p(&[2, 3]),
                FuKind::Load,
                5,
                vec![UopInput::Addr(1)],
                vec![UopOutput::Temp(0)],
            ),
            UopSpec::new(
                p(&[0, 1, 5]),
                FuKind::Alu,
                1,
                vec![UopInput::Temp(0), UopInput::Op(0)],
                vec![UopOutput::Op(0)],
            ),
        ]);
        assert_eq!(c.critical_path_latency(), 6);
        assert_eq!(c.max_uop_latency(), 5);
    }

    #[test]
    fn domains_and_pipelining() {
        assert_eq!(FuKind::Alu.domain(), Domain::Int);
        assert_eq!(FuKind::Shuffle.domain(), Domain::VecInt);
        assert_eq!(FuKind::VecFp.domain(), Domain::VecFp);
        assert!(FuKind::Alu.fully_pipelined());
        assert!(!FuKind::Div.fully_pipelined());
    }
}
