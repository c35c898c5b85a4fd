//! Hardware performance counters of the simulated CPU.
//!
//! The paper's measurements rely on exactly two kinds of counters (§3.3,
//! §6.2): the number of elapsed core cycles, and the number of µops executed
//! on each port. [`PerfCounters`] exposes the same information for a
//! simulated run.

use std::fmt;
use std::ops::Sub;

use uops_uarch::MAX_PORTS;

/// A snapshot of the performance counters after executing a code sequence.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PerfCounters {
    /// Elapsed core clock cycles.
    pub core_cycles: u64,
    /// Number of µops executed on each port (indexed by port number).
    pub uops_port: [u64; MAX_PORTS as usize],
    /// Total number of µops executed on any port.
    pub uops_total: u64,
    /// Number of instructions retired (including µop-less instructions such
    /// as NOPs and eliminated moves).
    pub instructions_retired: u64,
}

impl PerfCounters {
    /// An all-zero counter snapshot.
    #[must_use]
    pub fn zero() -> PerfCounters {
        PerfCounters::default()
    }

    /// The number of µops executed on the given port.
    #[must_use]
    pub fn port(&self, port: u8) -> u64 {
        self.uops_port.get(port as usize).copied().unwrap_or(0)
    }

    /// The sum of µops over a set of ports.
    #[must_use]
    pub fn uops_on_ports(&self, ports: uops_uarch::PortSet) -> u64 {
        ports.iter().map(|p| self.port(p)).sum()
    }

    /// Scales all counters by `1/divisor` (as floating-point averages), used
    /// when a measurement covers several copies of a code sequence.
    #[must_use]
    pub fn per_iteration(&self, divisor: f64) -> CounterAverages {
        assert!(divisor > 0.0, "divisor must be positive");
        CounterAverages {
            core_cycles: self.core_cycles as f64 / divisor,
            uops_port: self.uops_port.map(|v| v as f64 / divisor),
            uops_total: self.uops_total as f64 / divisor,
        }
    }
}

impl Sub for PerfCounters {
    type Output = PerfCounters;

    /// Element-wise saturating difference (end − start).
    fn sub(self, rhs: PerfCounters) -> PerfCounters {
        let mut uops_port = [0u64; MAX_PORTS as usize];
        for (i, slot) in uops_port.iter_mut().enumerate() {
            *slot = self.uops_port[i].saturating_sub(rhs.uops_port[i]);
        }
        PerfCounters {
            core_cycles: self.core_cycles.saturating_sub(rhs.core_cycles),
            uops_port,
            uops_total: self.uops_total.saturating_sub(rhs.uops_total),
            instructions_retired: self
                .instructions_retired
                .saturating_sub(rhs.instructions_retired),
        }
    }
}

impl fmt::Display for PerfCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles, {} µops [", self.core_cycles, self.uops_total)?;
        let mut first = true;
        for (p, &count) in self.uops_port.iter().enumerate() {
            if count > 0 {
                if !first {
                    write!(f, ", ")?;
                }
                write!(f, "p{p}: {count}")?;
                first = false;
            }
        }
        write!(f, "]")
    }
}

/// Per-iteration averages of the performance counters (fractional values).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CounterAverages {
    /// Average core cycles per iteration.
    pub core_cycles: f64,
    /// Average µops per port per iteration.
    pub uops_port: [f64; MAX_PORTS as usize],
    /// Average total µops per iteration.
    pub uops_total: f64,
}

impl CounterAverages {
    /// Average µops on the given port.
    #[must_use]
    pub fn port(&self, port: u8) -> f64 {
        self.uops_port.get(port as usize).copied().unwrap_or(0.0)
    }

    /// Sum of the average µops over a set of ports.
    #[must_use]
    pub fn uops_on_ports(&self, ports: uops_uarch::PortSet) -> f64 {
        ports.iter().map(|p| self.port(p)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uops_uarch::PortSet;

    #[test]
    fn difference_is_elementwise() {
        let mut end = PerfCounters::zero();
        end.core_cycles = 100;
        end.uops_port[0] = 10;
        end.uops_port[5] = 4;
        end.uops_total = 14;
        end.instructions_retired = 12;
        let mut start = PerfCounters::zero();
        start.core_cycles = 40;
        start.uops_port[0] = 3;
        start.uops_total = 3;
        start.instructions_retired = 2;
        let d = end - start;
        assert_eq!(d.core_cycles, 60);
        assert_eq!(d.port(0), 7);
        assert_eq!(d.port(5), 4);
        assert_eq!(d.uops_total, 11);
        assert_eq!(d.instructions_retired, 10);
    }

    #[test]
    fn per_iteration_scaling() {
        let mut c = PerfCounters::zero();
        c.core_cycles = 200;
        c.uops_port[1] = 100;
        c.uops_total = 100;
        let avg = c.per_iteration(100.0);
        assert!((avg.core_cycles - 2.0).abs() < 1e-9);
        assert!((avg.port(1) - 1.0).abs() < 1e-9);
        assert!((avg.uops_total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn port_set_summation() {
        let mut c = PerfCounters::zero();
        c.uops_port[0] = 2;
        c.uops_port[1] = 3;
        c.uops_port[5] = 5;
        assert_eq!(c.uops_on_ports(PortSet::of(&[0, 1, 5])), 10);
        assert_eq!(c.uops_on_ports(PortSet::of(&[2, 3])), 0);
    }

    #[test]
    #[should_panic(expected = "divisor must be positive")]
    fn zero_divisor_panics() {
        let _ = PerfCounters::zero().per_iteration(0.0);
    }

    #[test]
    fn display_lists_active_ports() {
        let mut c = PerfCounters::zero();
        c.core_cycles = 7;
        c.uops_port[2] = 1;
        c.uops_total = 1;
        let s = c.to_string();
        assert!(s.contains("7 cycles"));
        assert!(s.contains("p2: 1"));
    }
}
