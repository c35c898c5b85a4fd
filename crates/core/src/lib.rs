//! # uops-core
//!
//! The primary contribution of the paper *uops.info: Characterizing Latency,
//! Throughput, and Port Usage of Instructions on Intel Microarchitectures*
//! (Abel & Reineke, ASPLOS 2019), reimplemented as a Rust library:
//!
//! * automatic discovery of **blocking instructions** ([`blocking`], §5.1.1),
//! * **port-usage inference** with Algorithm 1 ([`port_usage`], §5.1.2),
//! * **latency inference** for every pair of source and destination operands,
//!   including implicit operands such as status flags ([`latency`], §4.1,
//!   §5.2),
//! * **throughput** measurement and computation from the port usage via a
//!   small linear program ([`throughput`], §4.2, §5.3),
//! * the **prior-work baseline** methodology for comparison ([`prior`]),
//! * a **characterization engine** that orchestrates all of the above over
//!   the instruction catalog ([`engine`]),
//! * the **ingestion bridge** into the `uops-db` snapshot/database layer
//!   ([`snapshot`]): reports become a [`uops_db::Snapshot`], which `uops-db`
//!   writes as the machine-readable output of §6.4 (XML, JSON, and a compact
//!   binary encoding).
//!
//! The algorithms interact with the processor **only** through the
//! [`uops_measure::MeasurementBackend`] interface (generated code in,
//! cycle/µop counters out); they never consult the simulator's ground truth.
//!
//! ## Example
//!
//! ```rust
//! use uops_core::{CharacterizationEngine, EngineConfig};
//! use uops_isa::Catalog;
//! use uops_measure::SimBackend;
//! use uops_uarch::MicroArch;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let catalog = Catalog::intel_core();
//! let backend = SimBackend::new(MicroArch::Skylake);
//! let engine = CharacterizationEngine::with_config(&catalog, MicroArch::Skylake, EngineConfig::fast());
//! let add = catalog.find_variant("ADD", "R64, R64").expect("ADD exists");
//! let profile = engine.characterize_variant(&backend, add)?;
//! assert_eq!(profile.uop_count(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod blocking;
pub mod codegen;
pub mod engine;
pub mod error;
pub mod latency;
pub mod port_usage;
pub mod predict;
pub mod prior;
pub mod snapshot;
pub mod throughput;

pub use blocking::{BlockingEntry, BlockingInstructions, VectorWorld};
pub use engine::{
    CharacterizationEngine, CharacterizationReport, EngineConfig, InstructionProfile,
};
pub use error::CoreError;
pub use latency::{ChainCalibration, LatencyAnalyzer, LatencyMap, LatencyValue};
pub use port_usage::{
    infer_port_usage, infer_port_usage_from, isolation_profile, IsolationProfile, PortUsage,
};
pub use predict::{Bottleneck, Prediction, Predictor};
pub use prior::{
    naive_from_isolation, naive_latency, naive_port_usage, NaiveLatency, NaivePortUsage,
};
pub use snapshot::{profile_to_record, report_to_snapshot, reports_to_snapshot};
pub use throughput::{measure_throughput, throughput_from_port_usage, Throughput};
pub use uops_pool::Parallelism;
