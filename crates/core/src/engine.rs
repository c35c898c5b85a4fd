//! The characterization engine: orchestrates blocking-instruction discovery,
//! latency, port-usage and throughput inference for individual instruction
//! variants or the whole catalog.
//!
//! Catalog sweeps are embarrassingly parallel once the per-architecture
//! setup (blocking instructions, chain calibration) has been built:
//! [`CharacterizationEngine::characterize_matching_parallel`] fans the
//! matching variants out over a work-stealing pool
//! ([`uops_pool::parallel_map_indexed_with`]) and reassembles the report in
//! deterministic catalog order, so serial and parallel sweeps produce
//! identical reports (and therefore byte-identical snapshots downstream).

use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use uops_isa::{Catalog, InstructionDesc};
use uops_measure::{MeasurementBackend, MeasurementConfig};
use uops_pool::{parallel_map_indexed_with, Parallelism};
use uops_uarch::{MicroArch, UarchConfig};

use crate::blocking::{BlockingInstructions, VectorWorld};
use crate::error::CoreError;
use crate::latency::{ChainCalibration, LatencyAnalyzer, LatencyMap};
use crate::port_usage::{infer_port_usage_from, isolation_profile, PortUsage};
use crate::prior::{naive_from_isolation, NaivePortUsage};
use crate::throughput::{measure_throughput, throughput_from_port_usage, Throughput};

/// Configuration of the characterization engine.
///
/// Every profile carries the prior-work baseline (the naive port usage of
/// §5.1) as well: it is read off the isolation measurement that Algorithm 1
/// takes anyway, so it costs no simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// The measurement configuration used for all microbenchmarks, including
    /// the one-time setup (blocking instructions, chain calibration).
    pub measurement: MeasurementConfig,
    /// Maximum latency assumed for Algorithm 1 if the latency could not be
    /// measured.
    pub default_max_latency: u32,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { measurement: MeasurementConfig::default(), default_max_latency: 12 }
    }
}

impl EngineConfig {
    /// A configuration tuned for large catalog sweeps.
    #[must_use]
    pub fn fast() -> EngineConfig {
        EngineConfig { measurement: MeasurementConfig::fast(), ..EngineConfig::default() }
    }
}

/// The complete characterization of one instruction variant on one
/// microarchitecture — the information the tool publishes in its
/// machine-readable output (§6.4).
#[derive(Debug, Clone, PartialEq)]
pub struct InstructionProfile {
    /// Catalog uid of the variant.
    pub uid: usize,
    /// The mnemonic.
    pub mnemonic: String,
    /// The variant string (explicit operand types).
    pub variant: String,
    /// The ISA extension.
    pub extension: String,
    /// The microarchitecture the profile was measured on.
    pub arch: MicroArch,
    /// Number of µops (from the isolation measurement).
    pub uop_count: u32,
    /// Port usage inferred by Algorithm 1.
    pub port_usage: PortUsage,
    /// Port usage concluded by the prior-work methodology (always present
    /// in profiles the engine makes).
    pub naive_port_usage: Option<NaivePortUsage>,
    /// Latency for every measured operand pair.
    pub latency: LatencyMap,
    /// Measured and computed throughput.
    pub throughput: Throughput,
}

impl InstructionProfile {
    /// The number of µops.
    #[must_use]
    pub fn uop_count(&self) -> u32 {
        self.uop_count
    }

    /// The classical single-value latency (maximum over operand pairs).
    #[must_use]
    pub fn latency_single_value(&self) -> Option<f64> {
        self.latency.single_value()
    }
}

/// Mnemonic → variant → profile index.
type VariantIndex = HashMap<String, HashMap<String, usize>>;

/// Lazily-built `(mnemonic, variant) → profile index` lookup table for
/// [`CharacterizationReport::find`]. Nested maps keyed by `String` so that
/// lookups with borrowed `&str` pairs allocate nothing. The `usize` outside
/// the map records `profiles.len()` at build time, so later mutations of the
/// (public) `profiles` field are detectable.
///
/// Cloning a report clones the built index if present; a report whose index
/// has not been demanded yet clones to an empty (lazily rebuilt) one.
#[derive(Debug, Default)]
pub(crate) struct FindIndex(OnceLock<(usize, VariantIndex)>);

impl Clone for FindIndex {
    fn clone(&self) -> Self {
        match self.0.get() {
            Some(built) => FindIndex(OnceLock::from(built.clone())),
            None => FindIndex::default(),
        }
    }
}

/// The result of characterizing (a part of) the catalog.
#[derive(Debug, Clone, Default)]
pub struct CharacterizationReport {
    /// The microarchitecture.
    pub arch: Option<MicroArch>,
    /// Successfully characterized variants.
    pub profiles: Vec<InstructionProfile>,
    /// Variants that were skipped, with the reason.
    pub skipped: Vec<(String, String)>,
    /// Wall-clock duration of the run.
    pub duration: Duration,
    pub(crate) index: FindIndex,
}

impl CharacterizationReport {
    /// The number of characterized variants.
    #[must_use]
    pub fn characterized_count(&self) -> usize {
        self.profiles.len()
    }

    /// Looks up a profile by mnemonic and variant string in O(1).
    ///
    /// The lookup table is built on the first call and reused afterwards
    /// (repeated lookups are what sweeps over a report do: comparing every
    /// profile against IACA probes the same report thousands of times). The
    /// table snapshots `profiles` at that moment. `profiles` is a public
    /// field, so mutation afterwards is possible but the table is not
    /// invalidated: length changes and rearrangements are detected and
    /// degrade the affected lookup to a correct linear scan, while an
    /// in-place overwrite that keeps the length may leave the overwriting
    /// profile invisible to `find` (a lookup of the *overwritten* entry
    /// still never returns a wrong profile). Treat `profiles` as read-only
    /// once `find` has been called.
    #[must_use]
    pub fn find(&self, mnemonic: &str, variant: &str) -> Option<&InstructionProfile> {
        let linear =
            || self.profiles.iter().find(|p| p.mnemonic == mnemonic && p.variant == variant);
        let (indexed_len, index) = self.index.0.get_or_init(|| {
            let mut map: HashMap<String, HashMap<String, usize>> = HashMap::new();
            for (i, p) in self.profiles.iter().enumerate() {
                // `or_insert` keeps the first match, mirroring the linear
                // scan this index replaced.
                map.entry(p.mnemonic.clone()).or_default().entry(p.variant.clone()).or_insert(i);
            }
            (self.profiles.len(), map)
        });
        if *indexed_len != self.profiles.len() {
            return linear();
        }
        match index.get(mnemonic).and_then(|m| m.get(variant)) {
            Some(&i) => match self.profiles.get(i) {
                Some(p) if p.mnemonic == mnemonic && p.variant == variant => Some(p),
                // `profiles` was rearranged under the index: degrade
                // gracefully.
                _ => linear(),
            },
            None => None,
        }
    }
}

/// One unit of sweep work: catalog uid plus the pre-computed skip reason
/// (`None` means the variant is characterized).
type SweepItem = (usize, Option<String>);

/// Per-variant sweep outcome: a profile, or a `(full name, reason)` skip
/// entry.
type SweepOutcome = Result<InstructionProfile, (String, String)>;

/// Cached per-backend state (blocking instructions and chain calibration),
/// with the backend configuration it was measured on.
struct Setup {
    blocking_sse: BlockingInstructions,
    blocking_avx: BlockingInstructions,
    calibration: ChainCalibration,
    config: UarchConfig,
}

/// The characterization engine for one catalog and one microarchitecture.
pub struct CharacterizationEngine<'a> {
    catalog: &'a Catalog,
    arch: MicroArch,
    config: EngineConfig,
    /// One-time setup, measured on the first backend that matches `arch`;
    /// every later backend must have the same configuration. `OnceLock`
    /// makes the steady-state read path lock-free, so parallel sweep workers
    /// never contend; `setup_init` only serializes the (rare, fallible)
    /// initialization itself.
    setup: OnceLock<Setup>,
    setup_init: Mutex<()>,
}

impl<'a> CharacterizationEngine<'a> {
    /// Creates an engine with the default configuration.
    #[must_use]
    pub fn new(catalog: &'a Catalog, arch: MicroArch) -> CharacterizationEngine<'a> {
        CharacterizationEngine::with_config(catalog, arch, EngineConfig::default())
    }

    /// Creates an engine with an explicit configuration.
    #[must_use]
    pub fn with_config(
        catalog: &'a Catalog,
        arch: MicroArch,
        config: EngineConfig,
    ) -> CharacterizationEngine<'a> {
        CharacterizationEngine {
            catalog,
            arch,
            config,
            setup: OnceLock::new(),
            setup_init: Mutex::new(()),
        }
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The catalog used by the engine.
    #[must_use]
    pub fn catalog(&self) -> &Catalog {
        self.catalog
    }

    /// Returns `true` if the variant can be characterized on this engine's
    /// microarchitecture (supported extension, not a system/REP instruction).
    #[must_use]
    pub fn supports(&self, desc: &InstructionDesc) -> Option<String> {
        if !self.arch.supports(desc.extension) {
            return Some(format!("extension {} not available on {}", desc.extension, self.arch));
        }
        if desc.attrs.system {
            return Some("system instruction".to_string());
        }
        if desc.attrs.serializing {
            return Some("serializing instruction".to_string());
        }
        if desc.attrs.rep_prefix {
            return Some("REP prefix (variable µop count)".to_string());
        }
        None
    }

    /// The one-time setup, after checking that `backend` measures this
    /// engine's microarchitecture with the configuration the setup was
    /// measured on. The check comes first, so a mismatched backend never
    /// fills the setup.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BackendMismatch`] for a mismatched backend, or
    /// the error of the setup's measurements.
    fn setup<B: MeasurementBackend + ?Sized>(&self, backend: &B) -> Result<&Setup, CoreError> {
        let mismatch = |reason| CoreError::BackendMismatch { engine: self.arch, reason };
        if backend.arch() != self.arch {
            return Err(mismatch(format!("it measures {}", backend.arch())));
        }
        let config = backend.config();
        // Fast path: already initialized, no lock, no contention.
        let setup = match self.setup.get() {
            Some(setup) => setup,
            None => self.init_setup(backend, config.clone())?,
        };
        if setup.config != config {
            return Err(mismatch(
                "its configuration differs from the one the setup was measured on".to_string(),
            ));
        }
        Ok(setup)
    }

    /// Measures the setup on `backend`, whose configuration is `config`,
    /// unless another thread got there first.
    fn init_setup<B: MeasurementBackend + ?Sized>(
        &self,
        backend: &B,
        config: UarchConfig,
    ) -> Result<&Setup, CoreError> {
        // Serialize initializers so the (expensive) blocking discovery and
        // calibration run at most once even under races.
        let _guard = self.setup_init.lock().expect("setup init mutex");
        if let Some(setup) = self.setup.get() {
            return Ok(setup);
        }
        let blocking_sse = BlockingInstructions::find(
            backend,
            self.catalog,
            &self.config.measurement,
            VectorWorld::Sse,
        )?;
        let blocking_avx = BlockingInstructions::find(
            backend,
            self.catalog,
            &self.config.measurement,
            VectorWorld::Avx,
        )?;
        let analyzer = LatencyAnalyzer::new(backend, self.catalog, self.config.measurement)?;
        let _ = self.setup.set(Setup {
            blocking_sse,
            blocking_avx,
            calibration: analyzer.calibration(),
            config,
        });
        Ok(self.setup.get().expect("setup was just initialized"))
    }

    /// Characterizes a single instruction variant.
    ///
    /// # Errors
    ///
    /// Returns an error if the variant is not supported on this
    /// microarchitecture, the backend does not match the engine
    /// ([`CoreError::BackendMismatch`]), or a microbenchmark could not be
    /// constructed.
    pub fn characterize_variant<B: MeasurementBackend + ?Sized>(
        &self,
        backend: &B,
        desc: &InstructionDesc,
    ) -> Result<InstructionProfile, CoreError> {
        if let Some(reason) = self.supports(desc) {
            return Err(CoreError::Unsupported { instruction: desc.full_name(), reason });
        }
        let setup = self.setup(backend)?;
        let analyzer = LatencyAnalyzer::with_calibration(
            backend,
            self.catalog,
            self.config.measurement,
            setup.calibration,
        );
        self.characterize_prepared(backend, &self.catalog.intern(desc), setup, &analyzer)
    }

    /// The per-variant hot path: all one-time state (setup, analyzer) is
    /// supplied by the caller, and the descriptor arrives as the catalog's
    /// interned `Arc` handle — no deep clone of mnemonic/operand strings per
    /// variant, no analyzer reconstruction per variant.
    fn characterize_prepared<B: MeasurementBackend + ?Sized>(
        &self,
        backend: &B,
        arc: &Arc<InstructionDesc>,
        setup: &Setup,
        analyzer: &LatencyAnalyzer<'_, B>,
    ) -> Result<InstructionProfile, CoreError> {
        let desc: &InstructionDesc = arc;

        // Isolation profile, measured once: µop count, the naive baseline,
        // and step 0 of Algorithm 1.
        let isolation = isolation_profile(backend, arc, &self.config.measurement)?;
        let uop_count = isolation.rounded_uops();
        let naive = naive_from_isolation(&isolation);

        // Latency.
        let latency = analyzer.infer(arc).unwrap_or_default();
        let max_latency = if latency.is_empty() {
            self.config.default_max_latency
        } else {
            latency.max_latency_cycles().min(24)
        };

        // Port usage (Algorithm 1), using the blocking set matching the
        // instruction's vector world.
        let blocking = match VectorWorld::of(desc) {
            VectorWorld::Sse => &setup.blocking_sse,
            VectorWorld::Avx => &setup.blocking_avx,
        };
        let port_usage = infer_port_usage_from(
            backend,
            blocking,
            arc,
            &isolation,
            max_latency,
            &self.config.measurement,
        )?;

        // Throughput: measured and, where possible, computed from the port
        // usage.
        let mut throughput =
            measure_throughput(backend, self.catalog, arc, &self.config.measurement)?;
        throughput.from_port_usage =
            throughput_from_port_usage(&port_usage, desc, setup.config.port_count);

        Ok(InstructionProfile {
            uid: desc.uid,
            mnemonic: desc.mnemonic.clone(),
            variant: desc.variant(),
            extension: desc.extension.to_string(),
            arch: self.arch,
            uop_count,
            port_usage,
            naive_port_usage: Some(naive),
            latency,
            throughput,
        })
    }

    /// Characterizes every supported variant in the catalog (variants for
    /// which `filter` returns `true`), serially on the calling thread.
    ///
    /// Produces exactly the report of [`characterize_matching_parallel`]
    /// with [`Parallelism::Serial`] — same per-item code path, same ordering
    /// — but without that method's `Sync` bound, so hardware backends with
    /// interior mutability (a perf-event fd, a ring buffer) can still run
    /// serial sweeps.
    ///
    /// [`characterize_matching_parallel`]: CharacterizationEngine::characterize_matching_parallel
    pub fn characterize_matching<B, F>(&self, backend: &B, filter: F) -> CharacterizationReport
    where
        B: MeasurementBackend + ?Sized,
        F: FnMut(&InstructionDesc) -> bool,
    {
        self.sweep_with(backend, filter, |items, setup| {
            let mut analyzer = self.analyzer_for(backend, setup);
            items
                .iter()
                .map(|item| self.sweep_item(backend, setup, analyzer.as_mut(), item))
                .collect()
        })
    }

    /// Characterizes every supported variant matching `filter`, fanning the
    /// variants out over a work-stealing thread pool.
    ///
    /// The filter runs serially (in catalog order) to select the work items;
    /// each worker then builds one latency analyzer from the cached
    /// calibration and characterizes its share of the variants. The report
    /// — `profiles`, `skipped`, and their ordering — is reassembled in
    /// **catalog order** regardless of worker interleaving, so a parallel
    /// sweep is indistinguishable from a serial one (only `duration`
    /// differs).
    pub fn characterize_matching_parallel<B, F>(
        &self,
        backend: &B,
        filter: F,
        parallelism: Parallelism,
    ) -> CharacterizationReport
    where
        B: MeasurementBackend + Sync + ?Sized,
        F: FnMut(&InstructionDesc) -> bool,
    {
        self.sweep_with(backend, filter, |items, setup| {
            parallel_map_indexed_with(
                parallelism,
                items.len(),
                || self.analyzer_for(backend, setup),
                |analyzer, i| self.sweep_item(backend, setup, analyzer.as_mut(), &items[i]),
            )
        })
    }

    /// The shared sweep driver: selects work items in catalog order, builds
    /// the one-time setup, hands the items to `run` (inline loop or thread
    /// pool), and reassembles the report from the in-order outcomes, so
    /// profiles and skip entries interleave identically however `run`
    /// schedules the work.
    fn sweep_with<B, F, R>(&self, backend: &B, mut filter: F, run: R) -> CharacterizationReport
    where
        B: MeasurementBackend + ?Sized,
        F: FnMut(&InstructionDesc) -> bool,
        R: FnOnce(&[SweepItem], Option<&Setup>) -> Vec<SweepOutcome>,
    {
        let start = Instant::now();
        let mut report = CharacterizationReport { arch: Some(self.arch), ..Default::default() };

        // Select work items serially: (uid, pre-computed skip reason).
        let items: Vec<SweepItem> = self
            .catalog
            .iter()
            .filter(|desc| filter(desc))
            .map(|desc| (desc.uid, self.supports(desc)))
            .collect();

        // Build the shared setup once, before running, so parallel workers
        // only ever hit the lock-free `OnceLock::get` path. If nothing needs
        // characterization the setup is skipped entirely; if it fails (or the
        // backend does not match the engine), every candidate records the
        // error.
        let setup = if items.iter().any(|(_, skip)| skip.is_none()) {
            match self.setup(backend) {
                Ok(setup) => Some(setup),
                Err(e) => {
                    let reason = e.to_string();
                    for (uid, skip) in items {
                        let name = self.catalog.get(uid).full_name();
                        report.skipped.push((name, skip.unwrap_or_else(|| reason.clone())));
                    }
                    report.duration = start.elapsed();
                    return report;
                }
            }
        } else {
            None
        };

        for outcome in run(&items, setup) {
            match outcome {
                Ok(profile) => report.profiles.push(profile),
                Err(skip) => report.skipped.push(skip),
            }
        }
        report.duration = start.elapsed();
        report
    }

    /// One latency analyzer per sweep worker, rebuilt from the cached
    /// calibration (no re-measurement).
    fn analyzer_for<'b, B: MeasurementBackend + ?Sized>(
        &'b self,
        backend: &'b B,
        setup: Option<&Setup>,
    ) -> Option<LatencyAnalyzer<'b, B>> {
        setup.map(|setup| {
            LatencyAnalyzer::with_calibration(
                backend,
                self.catalog,
                self.config.measurement,
                setup.calibration,
            )
        })
    }

    /// Characterizes (or skips) one sweep item. An item whose
    /// characterization panics (PAUSE: the simulator refuses to dispatch a
    /// µop with no execution port) becomes a skip entry carrying the panic
    /// message, so one variant never costs the sweep its report.
    fn sweep_item<B: MeasurementBackend + ?Sized>(
        &self,
        backend: &B,
        setup: Option<&Setup>,
        analyzer: Option<&mut LatencyAnalyzer<'_, B>>,
        item: &SweepItem,
    ) -> SweepOutcome {
        let (uid, ref skip) = *item;
        let arc = self.catalog.get_arc(uid);
        if let Some(reason) = skip {
            return Err((arc.full_name(), reason.clone()));
        }
        let setup = setup.expect("setup exists for characterized items");
        let analyzer = analyzer.expect("analyzer exists for characterized items");
        let characterize =
            AssertUnwindSafe(|| self.characterize_prepared(backend, arc, setup, analyzer));
        match std::panic::catch_unwind(characterize) {
            Ok(result) => result.map_err(|e| (arc.full_name(), e.to_string())),
            Err(payload) => {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "unknown panic payload".to_string());
                Err((arc.full_name(), format!("characterization panicked: {message}")))
            }
        }
    }

    /// Scans for dependency-breaking idioms (§7.3.6): instructions with two
    /// identical register source operands whose same-register latency chain
    /// collapses (the result does not depend on the source).
    ///
    /// Returns the uids of the detected idioms.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BackendMismatch`] if the backend does not match
    /// the engine, or the error of the one-time setup.
    pub fn zero_idiom_scan<B: MeasurementBackend + ?Sized>(
        &self,
        backend: &B,
        candidates: impl Iterator<Item = &'a InstructionDesc>,
    ) -> Result<Vec<usize>, CoreError> {
        let setup = self.setup(backend)?;
        let analyzer = LatencyAnalyzer::with_calibration(
            backend,
            self.catalog,
            self.config.measurement,
            setup.calibration,
        );
        let mut found = Vec::new();
        for desc in candidates {
            if self.supports(desc).is_some() {
                continue;
            }
            let arc = self.catalog.intern(desc);
            let Ok(map) = analyzer.infer(&arc) else { continue };
            // The instruction is dependency-breaking if the same-register
            // measurement of some register pair shows (almost) no latency
            // even though the distinct-register latency is at least a cycle.
            let breaking = map.iter().any(|(_, v)| {
                v.same_register_cycles.map(|s| s < 0.6 && v.cycles >= 0.6).unwrap_or(false)
            });
            if breaking {
                found.push(desc.uid);
            }
        }
        Ok(found)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uops_measure::SimBackend;
    use uops_uarch::PortSet;

    #[test]
    fn characterize_add_on_skylake() {
        let catalog = Catalog::intel_core();
        let backend = SimBackend::new(MicroArch::Skylake);
        let engine =
            CharacterizationEngine::with_config(&catalog, MicroArch::Skylake, EngineConfig::fast());
        let desc = catalog.find_variant("ADD", "R64, R64").unwrap();
        let profile = engine.characterize_variant(&backend, desc).unwrap();
        assert_eq!(profile.uop_count(), 1);
        assert_eq!(profile.port_usage.to_string(), "1*p0156");
        assert!((profile.latency_single_value().unwrap() - 1.0).abs() < 0.4);
        assert!(profile.throughput.measured <= 0.5);
        let computed = profile.throughput.from_port_usage.unwrap();
        assert!((computed - 0.25).abs() < 1e-9);
        assert!(profile.naive_port_usage.is_some());
    }

    #[test]
    fn a_mismatched_backend_is_an_error_and_leaves_the_setup_empty() {
        let catalog = Catalog::intel_core();
        let engine =
            CharacterizationEngine::with_config(&catalog, MicroArch::Skylake, EngineConfig::fast());
        let add = catalog.find_variant("ADD", "R64, R64").unwrap();
        let nehalem = SimBackend::new(MicroArch::Nehalem);
        let reason = engine.characterize_variant(&nehalem, add).unwrap_err();
        assert!(
            matches!(reason, CoreError::BackendMismatch { engine: MicroArch::Skylake, .. }),
            "{reason}"
        );
        assert_eq!(engine.zero_idiom_scan(&nehalem, std::iter::once(add)), Err(reason.clone()));
        let add_and_sub = |d: &InstructionDesc| {
            matches!(d.mnemonic.as_str(), "ADD" | "SUB") && d.variant() == "R64, R64"
        };
        for report in [
            engine.characterize_matching(&nehalem, add_and_sub),
            engine.characterize_matching_parallel(&nehalem, add_and_sub, Parallelism::Fixed(2)),
        ] {
            assert_eq!(report.characterized_count(), 0);
            let reasons: Vec<String> = report.skipped.into_iter().map(|(_, r)| r).collect();
            assert_eq!(reasons, vec![reason.to_string(); 2]);
        }

        // The setup is measured on the first matching backend.
        let skylake = SimBackend::new(MicroArch::Skylake);
        let profile = engine.characterize_variant(&skylake, add).unwrap();
        assert_eq!(profile.port_usage.to_string(), "1*p0156");

        // A Skylake backend with another configuration does not match it.
        struct Widened(SimBackend);
        impl MeasurementBackend for Widened {
            fn arch(&self) -> MicroArch {
                self.0.arch()
            }
            fn config(&self) -> UarchConfig {
                UarchConfig { issue_width: 6, ..self.0.config() }
            }
            fn run(
                &self,
                code: &uops_asm::CodeSequence,
                ctx: uops_measure::RunContext,
            ) -> uops_measure::PerfCounters {
                self.0.run(code, ctx)
            }
        }
        let widened = Widened(skylake);
        assert!(matches!(
            engine.characterize_variant(&widened, add),
            Err(CoreError::BackendMismatch { engine: MicroArch::Skylake, .. })
        ));
    }

    #[test]
    fn unsupported_variants_are_rejected() {
        let catalog = Catalog::intel_core();
        let backend = SimBackend::new(MicroArch::Nehalem);
        let engine =
            CharacterizationEngine::with_config(&catalog, MicroArch::Nehalem, EngineConfig::fast());
        // AVX does not exist on Nehalem.
        let desc = catalog.find_variant("VADDPS", "XMM, XMM, XMM").unwrap();
        assert!(engine.characterize_variant(&backend, desc).is_err());
        // System instructions are always rejected.
        let desc = catalog.find_variant("RDMSR", "").unwrap();
        assert!(engine.supports(desc).is_some());
    }

    #[test]
    fn characterize_matching_produces_report() {
        let catalog = Catalog::intel_core();
        let backend = SimBackend::new(MicroArch::Haswell);
        let engine =
            CharacterizationEngine::with_config(&catalog, MicroArch::Haswell, EngineConfig::fast());
        let report = engine.characterize_matching(&backend, |d| {
            d.mnemonic == "ADC" && d.variant() == "R64, R64"
                || d.mnemonic == "PBLENDVB" && d.variant() == "XMM, XMM"
        });
        assert_eq!(report.characterized_count(), 2);
        assert!(report.find("ADC", "R64, R64").is_some());
        let adc = report.find("ADC", "R64, R64").unwrap();
        assert_eq!(adc.port_usage.uops_for(PortSet::of(&[0, 6])), 1);
        assert!(report.duration > Duration::from_millis(0));
    }

    #[test]
    fn parallel_sweep_is_deterministic_and_identical_to_serial() {
        // A deliberately small slice — the heavyweight determinism coverage
        // (big slice, snapshot byte-identity, release mode) lives in the
        // root `tests/parallel_sweep.rs` suite.
        let catalog = Catalog::intel_core();
        let backend = SimBackend::new(MicroArch::Skylake);
        let filter = |d: &InstructionDesc| {
            matches!(
                (d.mnemonic.as_str(), d.variant().as_str()),
                ("ADD", "R64, R64")
                    | ("SHLD", "R64, R64, I8")
                    | ("PADDD", "XMM, XMM")
                    | ("RDMSR", _)
            )
        };

        let engine =
            CharacterizationEngine::with_config(&catalog, MicroArch::Skylake, EngineConfig::fast());
        let serial = engine.characterize_matching(&backend, filter);

        // A fresh engine, so the parallel sweep also exercises the one-time
        // setup path, with workers racing on the OnceLock read side.
        let engine =
            CharacterizationEngine::with_config(&catalog, MicroArch::Skylake, EngineConfig::fast());
        let parallel =
            engine.characterize_matching_parallel(&backend, filter, Parallelism::Fixed(4));

        assert_eq!(serial.characterized_count(), 3);
        assert!(!serial.skipped.is_empty(), "RDMSR must be skipped");
        assert_eq!(serial.arch, parallel.arch);
        assert_eq!(serial.profiles, parallel.profiles, "profiles must match in catalog order");
        assert_eq!(serial.skipped, parallel.skipped, "skip list must match in catalog order");
    }

    #[test]
    fn a_panicking_variant_is_a_skip_entry_not_a_lost_sweep() {
        let catalog = Catalog::intel_core();
        let backend = SimBackend::new(MicroArch::Skylake);
        let filter = |d: &InstructionDesc| {
            d.mnemonic == "PAUSE" || (d.mnemonic == "ADD" && d.variant() == "R64, R64")
        };
        let engine =
            CharacterizationEngine::with_config(&catalog, MicroArch::Skylake, EngineConfig::fast());
        let serial = engine.characterize_matching(&backend, filter);
        let parallel =
            engine.characterize_matching_parallel(&backend, filter, Parallelism::Fixed(2));
        for report in [&serial, &parallel] {
            assert_eq!(report.characterized_count(), 1);
            assert!(report.find("ADD", "R64, R64").is_some());
            let (name, reason) = report
                .skipped
                .iter()
                .find(|(name, _)| name.starts_with("PAUSE"))
                .expect("PAUSE is a skip entry");
            assert!(reason.contains("no execution port"), "{name}: {reason}");
        }
        assert_eq!(serial.profiles, parallel.profiles);
        assert_eq!(serial.skipped, parallel.skipped);
    }

    /// A `!Sync` backend (interior mutability, as a perf-event/hardware
    /// backend would have) must still be able to run serial sweeps — only
    /// `characterize_matching_parallel` requires `Sync`.
    #[test]
    fn serial_sweep_accepts_non_sync_backends() {
        struct CountingBackend {
            inner: SimBackend,
            runs: std::cell::Cell<usize>, // Cell makes this !Sync
        }
        impl uops_measure::MeasurementBackend for CountingBackend {
            fn arch(&self) -> MicroArch {
                self.inner.arch()
            }
            fn run(
                &self,
                code: &uops_asm::CodeSequence,
                ctx: uops_measure::RunContext,
            ) -> uops_measure::PerfCounters {
                self.runs.set(self.runs.get() + 1);
                self.inner.run(code, ctx)
            }
        }

        let catalog = Catalog::intel_core();
        let backend = CountingBackend {
            inner: SimBackend::new(MicroArch::Skylake),
            runs: std::cell::Cell::new(0),
        };
        let engine =
            CharacterizationEngine::with_config(&catalog, MicroArch::Skylake, EngineConfig::fast());
        let report = engine
            .characterize_matching(&backend, |d| d.mnemonic == "ADD" && d.variant() == "R64, R64");
        assert_eq!(report.characterized_count(), 1);
        assert!(backend.runs.get() > 0, "the wrapped backend must have been used");
    }

    #[test]
    fn report_find_uses_the_index() {
        let catalog = Catalog::intel_core();
        let backend = SimBackend::new(MicroArch::Haswell);
        let engine =
            CharacterizationEngine::with_config(&catalog, MicroArch::Haswell, EngineConfig::fast());
        let report =
            engine.characterize_matching(&backend, |d| d.mnemonic == "ADD" || d.mnemonic == "SUB");
        // Repeated lookups (hitting the built index) and misses both work,
        // and a clone keeps a working lookup.
        for _ in 0..3 {
            assert!(report.find("ADD", "R64, R64").is_some());
            assert!(report.find("SUB", "R32, R32").is_some());
            assert!(report.find("ADD", "R64, M999").is_none());
            assert!(report.find("NOPE", "R64, R64").is_none());
        }
        let cloned = report.clone();
        assert_eq!(
            cloned.find("ADD", "R64, R64").map(|p| p.uid),
            report.find("ADD", "R64, R64").map(|p| p.uid)
        );
    }
}
