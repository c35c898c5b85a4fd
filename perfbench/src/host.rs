//! Host-speed correction.
//!
//! The shared host's per-core speed drifts: identical characterization
//! passes in one process take between 0.27 s and 0.56 s, in phases of
//! seconds to tens of seconds, while CPU time per wall time stays 1.0 and
//! a pure ALU loop does not slow at all. What slows is allocation- and
//! hash-heavy code, which is what the simulator and the server run.
//!
//! So the timed loops of `characterize` and `query` also run [`probe`], a
//! fixed allocation-and-hashing kernel that is not part of the program
//! under test, every [`PERIOD`] (untimed), and divide each measured time by
//! the current slowdown: the probe's time over [`NOMINAL_NS`], its time on
//! the reference box in a quiet phase. Times there are therefore reported
//! at the reference host speed. A change to the program moves them fully;
//! a change of host phase mostly does not. The measured figures are printed
//! too. `ingest` reports measured times: with its own merges, fsyncs and a
//! second connection running, the probe tracked the host poorly there.

use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The probe's duration on the reference box in a quiet phase.
pub const NOMINAL_NS: f64 = 600_000.0;
/// How often a timed loop re-probes the host.
pub const PERIOD: Duration = Duration::from_millis(100);
/// Probe samples the slowdown is the median of.
const WINDOW: usize = 3;

/// Runs the probe kernel once and returns its duration in ns.
#[must_use]
pub fn probe() -> f64 {
    let t = Instant::now();
    let mut acc = 0u64;
    for k in 0..50u64 {
        let mut m: HashMap<u64, Vec<u64>> = HashMap::new();
        for i in 0..200u64 {
            m.entry((i.wrapping_mul(2_654_435_761) + k) % 97).or_default().push(i);
        }
        for i in 0..200u64 {
            acc = acc.wrapping_add(m.get(&(i % 97)).map_or(0, |v| v.len() as u64));
        }
    }
    std::hint::black_box(acc);
    t.elapsed().as_nanos() as f64
}

/// The current slowdown of the host, kept up to date by a timed loop.
#[derive(Debug)]
pub struct Drift {
    last: Instant,
    recent: Vec<f64>,
    /// Every slowdown sample of the run.
    pub samples: Vec<f64>,
}

impl Default for Drift {
    fn default() -> Self {
        Drift::new()
    }
}

impl Drift {
    /// Probes the host [`WINDOW`] times.
    #[must_use]
    pub fn new() -> Drift {
        let mut drift = Drift { last: Instant::now(), recent: Vec::new(), samples: Vec::new() };
        for _ in 0..WINDOW {
            drift.probe();
        }
        drift
    }

    /// Probes the host once.
    pub fn probe(&mut self) {
        let s = probe() / NOMINAL_NS;
        self.samples.push(s);
        self.recent.push(s);
        if self.recent.len() > WINDOW {
            self.recent.remove(0);
        }
        self.last = Instant::now();
    }

    /// Probes if the last probe is older than [`PERIOD`].
    pub fn tick(&mut self) {
        if self.last.elapsed() >= PERIOD {
            self.probe();
        }
    }

    /// Measured time over time at the reference speed (≥ 1 when slow).
    #[must_use]
    pub fn slowdown(&self) -> f64 {
        crate::stats::median(&self.recent)
    }

    /// `raw` at the reference host speed.
    #[must_use]
    pub fn correct(&self, raw: f64) -> f64 {
        raw / self.slowdown()
    }
}

/// Pins the calling thread to the CPU it runs on; threads and processes it
/// starts afterwards inherit the pin. Returns the CPU, or `None` if the
/// kernel refused (the run then goes on unpinned).
pub fn pin_to_current_cpu() -> Option<usize> {
    /// Bits in the kernel's `cpu_set_t`.
    const CPU_SETSIZE: usize = 1024;
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments and only returns a value.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok().filter(|&c| c < CPU_SETSIZE)?;
    let mut mask = [0u64; CPU_SETSIZE / 64];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialized `cpu_set_t` of exactly the size
    // passed, and the kernel only reads it; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}
