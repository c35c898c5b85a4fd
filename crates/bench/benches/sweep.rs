//! Benchmark of the parallel characterization sweep: the same ~200-variant
//! catalog slice characterized serially and through the work-stealing pool
//! at 2 and 4 workers. The paper reports 50–110 minutes for a full-machine
//! characterization run (§7.1); the sweep is embarrassingly parallel per
//! variant, so this is the wall-clock lever for `build_db`-style rebuilds.
//!
//! Note: the speedup observed here scales with the *host's* core count —
//! on a single-core runner the parallel sweeps degrade gracefully to
//! roughly serial wall-clock (pool overhead is a few chunk handoffs).

use uops_bench::median_ns;
use uops_core::{CharacterizationEngine, EngineConfig, Parallelism};
use uops_isa::{Catalog, InstructionDesc};
use uops_measure::SimBackend;
use uops_uarch::MicroArch;

/// The benchmark slice: every 7th supported, non-system variant, capped at
/// `limit`. Returns the uids in ascending order.
fn slice_uids(catalog: &Catalog, arch: MicroArch, limit: usize) -> Vec<usize> {
    let mut uids: Vec<usize> = Vec::with_capacity(limit);
    for d in catalog.iter() {
        if uids.len() >= limit {
            break;
        }
        if d.uid % 7 == 0 && arch.supports(d.extension) && !d.attrs.system && !d.attrs.rep_prefix {
            uids.push(d.uid);
        }
    }
    uids
}

fn main() {
    let catalog = Catalog::intel_core();
    let arch = MicroArch::Skylake;
    let backend = SimBackend::new(arch);
    let uids = slice_uids(&catalog, arch, 200);
    let filter = |d: &InstructionDesc| uids.binary_search(&d.uid).is_ok();
    println!(
        "sweep slice: {} variants on {} ({} cores available)",
        uids.len(),
        arch.name(),
        Parallelism::Auto.thread_count()
    );

    let engine = CharacterizationEngine::with_config(&catalog, arch, EngineConfig::fast());
    // Build the one-time setup (blocking discovery + calibration) outside
    // the timed runs so serial and parallel sweeps are measured alone.
    let warm = engine.characterize_matching(&backend, |d| d.uid == uids[0]);
    assert!(warm.characterized_count() <= 1);

    let serial = engine.characterize_matching(&backend, filter);
    let parallel = engine.characterize_matching_parallel(&backend, filter, Parallelism::Fixed(4));
    assert_eq!(serial.profiles, parallel.profiles, "sweeps must agree");

    let serial_ns = median_ns(3, || engine.characterize_matching(&backend, filter));
    for threads in [2usize, 4] {
        let parallel_ns = median_ns(3, || {
            engine.characterize_matching_parallel(&backend, filter, Parallelism::Fixed(threads))
        });
        println!(
            "sweep: serial {:.1} ms, {threads} threads {:.1} ms => {:.2}x",
            serial_ns / 1e6,
            parallel_ns / 1e6,
            serial_ns / parallel_ns
        );
    }
}
