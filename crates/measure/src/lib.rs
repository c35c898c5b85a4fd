//! # uops-measure
//!
//! The measurement harness of the uops.info reproduction: it executes
//! generated microbenchmarks on a [`MeasurementBackend`] (by default the
//! cycle-level simulator) following the protocol of §6.2 of the paper
//! (warm-up run, two unroll factors, differencing to cancel the constant
//! measurement overhead, repetition and averaging). A backend whose runs
//! are deterministic and in program order, like the simulator, may answer
//! both unroll factors of a repetition from one execution
//! ([`MeasurementBackend::run_pair`]).
//!
//! ## Example
//!
//! ```rust
//! use std::collections::BTreeMap;
//! use uops_asm::{variant_arc, Inst, RegisterPool};
//! use uops_isa::Catalog;
//! use uops_measure::{measure_single, MeasurementConfig, RunContext, SimBackend};
//! use uops_uarch::MicroArch;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let catalog = Catalog::intel_core();
//! let desc = variant_arc(&catalog, "ADD", "R64, R64")?;
//! let mut pool = RegisterPool::new();
//! let inst = Inst::bind(&desc, &BTreeMap::new(), &mut pool)?;
//! let backend = SimBackend::new(MicroArch::Skylake);
//! let m = measure_single(&backend, inst, &MeasurementConfig::default(), RunContext::default());
//! assert!(m.uops_total > 0.5);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backend;
pub mod harness;

pub use backend::{MeasurementBackend, RunContext, SimBackend};
pub use harness::{measure, measure_single, Measurement, MeasurementConfig};
// Re-exported so implementors of `MeasurementBackend` can name the trait's
// counter type without depending on `uops-pipeline` directly.
pub use uops_pipeline::PerfCounters;
