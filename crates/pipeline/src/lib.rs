//! # uops-pipeline
//!
//! A cycle-level out-of-order pipeline simulator of Intel Core
//! microarchitectures (Nehalem through Coffee Lake), standing in for the real
//! hardware the paper measures.
//!
//! The simulator consumes [`uops_asm::CodeSequence`]s, decodes each
//! instruction into µops using the hidden ground truth of [`uops_uarch`], and
//! models renaming (move elimination, zero idioms), dynamic scheduling onto
//! execution ports, functional-unit latencies, a non-pipelined divider,
//! loads/stores with store-to-load forwarding, bypass delays, and
//! partial-register stalls. Its only observable output is a
//! [`PerfCounters`] snapshot — elapsed core cycles and µops per port — which
//! is exactly the interface the paper's algorithms use on real hardware.
//!
//! A run is one pass over flat arrays (see [`sim`] for the details): the
//! sequence's body is decoded through the ground truth once per run, with
//! the registers, flags and memory cells it touches interned into dense
//! slots, and the renamer and scheduler then loop over the decoded body as
//! many times as the sequence is unrolled. The arrays belong to one buffer
//! set per thread that each run clears and reuses, so once they have grown
//! a run allocates nothing of its own, and no state survives it. The run can also hand back the
//! counters as they stood when a given iteration began
//! ([`Pipeline::execute_with_checkpoint`]), which equal a separate run of
//! the body unrolled that many times. Each port keeps a frontier below
//! which every reachable cycle is busy, so the search for a free cycle does
//! not rescan the saturated past of a port — the case Algorithm 1's
//! blocking sequences create on purpose.
//! A µop with no usable port panics with the mnemonic and uarch rather than
//! waiting forever.
//!
//! ## Example
//!
//! ```rust
//! use uops_pipeline::Pipeline;
//! use uops_uarch::MicroArch;
//! use uops_asm::CodeSequence;
//!
//! let sim = Pipeline::new(MicroArch::Skylake);
//! let counters = sim.execute(&CodeSequence::new());
//! assert!(counters.core_cycles > 0); // measurement overhead only
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod counters;
pub mod sim;

pub use counters::{CounterAverages, PerfCounters};
pub use sim::{Pipeline, SimOptions};
