//! # uops-info
//!
//! A Rust reproduction of the system described in *uops.info: Characterizing
//! Latency, Throughput, and Port Usage of Instructions on Intel
//! Microarchitectures* (Abel & Reineke, ASPLOS 2019).
//!
//! This facade crate re-exports the public API of all workspace crates so that
//! downstream users (and the examples/integration tests in this repository)
//! can depend on a single crate.
//!
//! ## Quickstart: characterize an instruction
//!
//! ```rust
//! use uops_info::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Build the instruction catalog (the analogue of the XED-derived XML).
//! let catalog = Catalog::intel_core();
//! // Pick a microarchitecture and create a simulated measurement backend.
//! let uarch = MicroArch::Skylake;
//! let backend = SimBackend::new(uarch);
//! // Characterize a single instruction variant.
//! let engine = CharacterizationEngine::with_config(&catalog, uarch, EngineConfig::fast());
//! let variant = catalog.find_variant("ADD", "R64, R64").expect("variant exists");
//! let result = engine.characterize_variant(&backend, variant)?;
//! assert!(result.uop_count() >= 1);
//! # Ok(())
//! # }
//! ```
//!
//! ## Quickstart: parallel catalog sweeps
//!
//! Catalog sweeps are embarrassingly parallel per variant; fan them out
//! over the built-in work-stealing pool with a [`Parallelism`] setting.
//! Parallel sweeps are deterministic: the report (and any snapshot built
//! from it) is identical to a serial sweep's, byte for byte.
//!
//! [`Parallelism`]: uops_pool::Parallelism
//!
//! ```rust
//! use uops_info::prelude::*;
//!
//! let catalog = Catalog::intel_core();
//! let backend = SimBackend::new(MicroArch::Skylake);
//! let engine =
//!     CharacterizationEngine::with_config(&catalog, MicroArch::Skylake, EngineConfig::fast());
//! // Parallelism::Auto uses all cores; Fixed(n) pins the worker count;
//! // Serial runs inline (characterize_matching delegates to it).
//! let report = engine.characterize_matching_parallel(
//!     &backend,
//!     |d| d.mnemonic == "ADD",
//!     Parallelism::Auto,
//! );
//! assert!(report.characterized_count() > 0);
//! // O(1) indexed lookup by (mnemonic, variant):
//! assert!(report.find("ADD", "R64, R64").is_some());
//! ```
//!
//! ## Quickstart: persist and query the database
//!
//! Characterization results become a [`uops_db::Snapshot`] — the canonical
//! serialized representation, with lossless binary and JSON encodings — and
//! are queried from a zero-copy [`uops_db::Segment`]:
//!
//! ```rust
//! use uops_info::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let catalog = Catalog::intel_core();
//! let mut reports = Vec::new();
//! for uarch in [MicroArch::Haswell, MicroArch::Skylake] {
//!     let backend = SimBackend::new(uarch);
//!     let engine = CharacterizationEngine::with_config(&catalog, uarch, EngineConfig::fast());
//!     reports.push(engine.characterize_matching(&backend, |d| {
//!         d.mnemonic == "ADD" && d.variant() == "R64, R64"
//!     }));
//! }
//!
//! // Reports → snapshot → bytes → snapshot → segment.
//! let snapshot = uops_info::core_::reports_to_snapshot(&reports);
//! let bytes = uops_info::db::codec::encode(&snapshot);
//! let restored = uops_info::db::codec::decode(&bytes)?;
//! let segment = Segment::from_bytes(Segment::encode(&restored))?;
//! let db = segment.db();
//!
//! // Indexed query: which instructions may use port 6 on Skylake?
//! let hits = Query::new().uarch("Skylake").uses_port(6).run(&db);
//! assert_eq!(hits.rows[0].mnemonic(), "ADD");
//!
//! // Cross-generation diff (the paper's §5 findings).
//! let report = diff_uarches(&db, "Haswell", "Skylake");
//! assert_eq!(report.compared(), 1);
//! # Ok(())
//! # }
//! ```
//!
//! ## Quickstart: zero-copy segments for serving
//!
//! The TLV snapshot is the interchange format; for *serving*, write the
//! [`uops_db::Segment`] to disk. Opening a segment validates only the
//! header and section table — no record is decoded — and the zero-copy
//! reader ([`uops_db::SegmentDb`]) answers every [`uops_db::Query`]
//! straight from the image. Shards written independently (one per
//! microarchitecture, as `build_db --merge` does) are combined with
//! [`uops_db::Segment::merge`] without re-decoding:
//!
//! ```rust
//! use uops_info::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut snapshot = Snapshot::new("quickstart");
//! snapshot.records.push(uops_info::db::VariantRecord {
//!     mnemonic: "ADD".into(),
//!     variant: "R64, R64".into(),
//!     extension: "BASE".into(),
//!     uarch: "Skylake".into(),
//!     uop_count: 1,
//!     ports: vec![(0b0110_0011, 1)],
//!     tp_measured: 0.25,
//!     ..Default::default()
//! });
//!
//! // Segment::write(&snapshot, "uops.seg")? / Segment::open("uops.seg")?
//! // do the same through the filesystem.
//! let segment = Segment::from_bytes(Segment::encode(&snapshot))?;
//! let db = segment.db(); // zero-copy: no records decoded
//! let hits = Query::new().uarch("Skylake").uses_port(6).run(&db);
//! assert_eq!(hits.rows[0].mnemonic(), "ADD");
//!
//! // Incremental ingestion: later shards win on conflicting records.
//! let merged = Segment::merge(&[segment.clone(), segment]);
//! assert_eq!(merged.len(), 1);
//! # Ok(())
//! # }
//! ```
//!
//! ## Quickstart: serve the database over HTTP
//!
//! The serving stack ([`uops_serve`]) layers a transport-agnostic
//! [`uops_serve::QueryService`] — `Arc`-shared segment + **two cache
//! tiers** of encoded responses: a fingerprint tier keyed by the
//! canonical plan (a hit skips planning, execution, and encoding) and a
//! raw fast lane keyed by the verbatim request target (a hit additionally
//! skips percent-decoding, parsing, and fingerprinting) — under a
//! std-only, allocation-free HTTP/1.1 server on epoll reactor shards
//! (Linux only). Responses carry strong `ETag`s
//! (plan fingerprint ⊕ segment content hash), so `If-None-Match`
//! revalidations answer `304 Not Modified` without a body, and `HEAD`
//! mirrors `GET` headers for free. In production use the `serve` binary
//! (`cargo run --release -p uops-serve --bin serve -- --segment uops.seg`).
//! `--threads N` sets the shard count
//! (default: the CPU count): each shard is an edge-triggered epoll event
//! loop with its own `SO_REUSEPORT` listener and timer-wheel idle
//! eviction, answering each request inline on the shard that owns its
//! connection (only an ingest's publish runs on a separate thread), and
//! parking ~10k idle connections in bounded memory (see
//! `crates/server/README.md` for shard guidance). Two protocol
//! extensions amortize or bound per-request costs: `POST /v1/batch`
//! carries N plans per request (newline-delimited or TLV body, one
//! framed multi-response out — misses share one batch-executor pass and
//! a 1000-plan batch is CI-gated at ≤ 10% of the per-plan cost of
//! sequential singles), results past `--stream-threshold` rows leave as
//! `Transfer-Encoding: chunked` in bounded ~64 KiB chunks (a
//! tens-of-MB export grows server RSS ≤ 16 MiB); the "Protocol" section
//! of the server README has the framing details. Overload control is
//! opt-in per mechanism: `--max-inflight` rejects excess connections
//! with a preformatted `503` + `Retry-After` instead of queueing them
//! invisibly, `--max-uncached` / `--deadline-ms` shed
//! *uncached* work first while both cache tiers keep serving, and
//! `SIGTERM`/`SIGINT` drain in-flight requests gracefully within
//! `--drain-timeout` seconds before exiting 0 (the "Overload & limits"
//! section of the server README covers the full contract). Embedded:
//!
//! ```rust
//! use std::sync::Arc;
//! use uops_info::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut snapshot = Snapshot::new("serve quickstart");
//! snapshot.records.push(uops_info::db::VariantRecord {
//!     mnemonic: "ADD".into(),
//!     variant: "R64, R64".into(),
//!     extension: "BASE".into(),
//!     uarch: "Skylake".into(),
//!     uop_count: 1,
//!     ports: vec![(0b0110_0011, 1)],
//!     tp_measured: 0.25,
//!     ..Default::default()
//! });
//! let segment = Arc::new(Segment::from_bytes(Segment::encode(&snapshot))?);
//! let service = Arc::new(QueryService::from_segment(segment, 64 << 20));
//!
//! // Transport-agnostic requests: a canonical QueryPlan in, encoded
//! // bytes out. The same bytes are served verbatim over HTTP.
//! let plan = Query::new().uarch("Skylake").uses_port(6).into_plan();
//! let cold = service.query(&plan, Encoding::Json);
//! let warm = service.query(&plan, Encoding::Json); // cache hit
//! assert_eq!(cold.body, warm.body);
//! assert_eq!(service.stats().executions, 1, "the hit skipped the executor");
//!
//! // Batch: N plans in one call — misses share one executor pass, and
//! // every frame lands in the same cache singles probe. Over HTTP this
//! // is `POST /v1/batch`; uops_info::serve::encode_batch_request /
//! // decode_batch_response are the client-side codec.
//! let mut frames = uops_info::serve::http::BatchBody::default();
//! let mut scratch = uops_info::serve::service::BatchScratch::default();
//! service
//!     .batch(b"uarch=Skylake&port=6\nuarch=Skylake", Encoding::Json, &mut frames, &mut scratch)
//!     .map_err(|response| format!("batch rejected: {}", response.status))?;
//! assert_eq!(frames.parts.len(), 2, "one frame per plan, in request order");
//! assert_eq!(&*frames.parts[0].body, &*warm.body, "frame 0 was the cache hit");
//! assert_eq!(service.stats().executions, 2, "only the new plan executed");
//!
//! // HTTP on top: Server::bind("127.0.0.1:8080", service, 4)?.run()
//! // then `curl 'http://127.0.0.1:8080/v1/query?uarch=Skylake&port=6'`.
//! # Ok(())
//! # }
//! ```
//!
//! ## Quickstart: live ingestion and generation swaps
//!
//! With `--data-dir`, the served dataset is no longer frozen at boot: a
//! crash-safe [`uops_db::GenerationStore`] owns numbered generations on
//! disk (segment images plus a `MANIFEST`, each published via
//! temp-file + fsync + rename + dir-fsync, so a crash mid-publish leaves
//! the old or the new generation intact — never a torn one), and
//! `POST /v1/ingest` merges a TLV snapshot or segment image with the
//! live data, publishes it durably, and atomically swaps it in. Readers
//! never block on a swap: each request pins the generation it started
//! on, both cache tiers flush generation-stamped, and ETags re-derive
//! from the new content hash so clients revalidate correctly for free.
//!
//! ```text
//! serve --segment uops.seg --data-dir /var/lib/uops
//! curl --data-binary @update.tlv http://127.0.0.1:8080/v1/ingest
//! # → {"generation": 2, "ingested_records": 17, "live_records": 3141, "swapped": true}
//! ```
//!
//! The same store embeds directly:
//!
//! ```rust
//! use std::sync::Arc;
//! use uops_info::db::{GenerationStore, RealStoreIo};
//! use uops_info::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let mut snapshot = Snapshot::new("ingest quickstart");
//! # snapshot.records.push(uops_info::db::VariantRecord {
//! #     mnemonic: "ADD".into(),
//! #     variant: "R64, R64".into(),
//! #     extension: "BASE".into(),
//! #     uarch: "Skylake".into(),
//! #     uop_count: 1,
//! #     ports: vec![(0b0110_0011, 1)],
//! #     tp_measured: 0.25,
//! #     ..Default::default()
//! # });
//! let dir = std::env::temp_dir().join(format!("uops_quickstart_{}", std::process::id()));
//! let segment = Arc::new(Segment::from_bytes(Segment::encode(&snapshot))?);
//!
//! // Bootstrap publishes the boot segment as generation 1.
//! let store = GenerationStore::bootstrap(&dir, Arc::clone(&segment), &RealStoreIo)?;
//! let service = Arc::new(QueryService::from_segment(Arc::clone(&segment), 64 << 20));
//! service.swap_segment(store.current().segment.clone(), store.current().id);
//!
//! // An update arrives (over HTTP this is the /v1/ingest body).
//! let mut update = Snapshot::new("update");
//! update.records.push(uops_info::db::VariantRecord {
//!     mnemonic: "XOR".into(),
//!     variant: "R64, R64".into(),
//!     extension: "BASE".into(),
//!     uarch: "Skylake".into(),
//!     uop_count: 1,
//!     ports: vec![(0b0110_0011, 1)],
//!     tp_measured: 0.25,
//!     ..Default::default()
//! });
//! let incoming = Segment::from_bytes(Segment::encode(&update))?;
//!
//! // Merge with live, publish durably, swap atomically. In-flight
//! // requests finish on generation 1; new ones see generation 2.
//! let published = store.publish_merged(&incoming, &RealStoreIo)?;
//! assert_eq!(published.id, 2);
//! assert!(service.swap_segment(Arc::clone(&published.segment), published.id));
//! assert_eq!(service.generation(), 2);
//!
//! // A reboot recovers the last durable generation (and quarantines
//! // any image a crash left unnamed by the manifest).
//! let recovered = GenerationStore::open(&dir)?.expect("manifest exists");
//! assert_eq!(recovered.store.current().id, 2);
//! # std::fs::remove_dir_all(&dir)?;
//! # Ok(())
//! # }
//! ```
//!
//! Crash safety is tested end to end: the chaos suite scripts
//! ENOSPC/EIO/stall faults into every filesystem edge of the publish
//! (`--features fault-injection`, `UOPS_FAULT_FS`), and a kill(9)
//! landed mid-publish must reboot into the previous generation
//! byte-identically (`crates/server/tests/kill9_recovery.rs`).
//!
//! ## Quickstart: observing a running server
//!
//! Telemetry ([`uops_telemetry`]) is on by default and its recording side
//! is allocation-free — the counting-allocator proof in
//! `crates/server/tests/alloc_free.rs` runs with every metric live. The
//! server keeps per-route latency [`uops_telemetry::Histogram`]s (64
//! log₂ buckets: bucket *k* covers `[2^(k-1), 2^k - 1]` nanoseconds, so
//! quantiles carry ≤ 2x relative error), status-class and byte
//! [`uops_telemetry::Counter`]s, connection [`uops_telemetry::Gauge`]s,
//! cache hit/miss/eviction counters per tier, executor stage timings
//! (parse/execute/encode), and per-shard connection gauges and accept
//! counters.
//!
//! Scrape `GET /metrics` for the Prometheus text exposition — rendered on
//! the cold path, never cached by either response tier, so every scrape
//! is fresh. `serve` prints the URL next to its bound address;
//! `--no-telemetry` turns recording off (then `/metrics` answers 404) and
//! `--access-log[=every-N]` emits sampled JSON request lines to stderr
//! from a background writer thread (route, status, bytes, cache tier, and
//! per-stage microseconds). `/v1/stats` additionally reports stage
//! latency percentiles derived from the same histograms:
//!
//! ```rust
//! use std::sync::Arc;
//! use uops_info::prelude::*;
//! use uops_info::serve::{render_metrics, ServerOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let mut snapshot = Snapshot::new("observability quickstart");
//! # snapshot.records.push(uops_info::db::VariantRecord {
//! #     mnemonic: "ADD".into(),
//! #     variant: "R64, R64".into(),
//! #     extension: "BASE".into(),
//! #     uarch: "Skylake".into(),
//! #     uop_count: 1,
//! #     ports: vec![(0b0110_0011, 1)],
//! #     tp_measured: 0.25,
//! #     ..Default::default()
//! # });
//! let segment = Arc::new(Segment::from_bytes(Segment::encode(&snapshot))?);
//! let service = Arc::new(QueryService::from_segment(segment, 64 << 20));
//! let server = Server::bind_with("127.0.0.1:0", service.clone(), 2, ServerOptions::default())?;
//!
//! // The same exposition `GET /metrics` serves, rendered in-process.
//! let text = render_metrics(&service, &server.metrics());
//! assert!(text.contains("# TYPE uops_http_requests_total counter"));
//! assert!(text.contains("uops_cache_entries{tier=\"raw\"}"));
//! assert!(text.contains("uops_http_shard_connections{shard=\"0\"}"));
//!
//! // The raw primitives compose outside the server, too.
//! let latency = uops_info::telemetry::Histogram::new();
//! latency.record(1_250); // wait-free, allocation-free
//! // Quantiles answer the bucket's upper bound, clamped to the observed max.
//! assert_eq!(latency.quantile(0.5), 1_250);
//! # Ok(())
//! # }
//! ```

pub use uops_asm as asm;
pub use uops_core as core_;
pub use uops_db as db;
pub use uops_iaca as iaca;
pub use uops_isa as isa;
pub use uops_lp as lp;
pub use uops_measure as measure;
pub use uops_pipeline as pipeline;
pub use uops_pool as pool;
pub use uops_serve as serve;
pub use uops_telemetry as telemetry;
pub use uops_uarch as uarch;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use uops_asm::{variant_arc, CodeSequence, Inst, Op, RegisterPool};
    pub use uops_core::{
        blocking::{BlockingInstructions, VectorWorld},
        latency::{LatencyAnalyzer, LatencyMap},
        port_usage::{infer_port_usage, PortUsage},
        snapshot::{report_to_snapshot, reports_to_snapshot},
        throughput::{measure_throughput, Throughput},
        CharacterizationEngine, CharacterizationReport, EngineConfig, InstructionProfile,
    };
    pub use uops_db::{
        diff_uarches, BinaryEncoder, DiffReport, JsonEncoder, Query, QueryExec, QueryPlan,
        QueryResult, ResultEncoder, Segment, SegmentDb, Snapshot, SortKey, VariantRecord,
    };
    pub use uops_iaca::{compare_against_iaca, IacaAnalyzer, IacaVersion, MeasuredInstruction};
    pub use uops_isa::{Catalog, InstructionDesc, OperandDesc, OperandKind, Register, Width};
    pub use uops_measure::{
        Measurement, MeasurementBackend, MeasurementConfig, RunContext, SimBackend,
    };
    pub use uops_pipeline::{PerfCounters, Pipeline};
    pub use uops_pool::{parallel_map, parallel_map_indexed, Parallelism};
    pub use uops_serve::{Encoding, QueryService, ResponseCache, Server};
    pub use uops_telemetry::{Counter, Gauge, Histogram, Registry, Span};
    pub use uops_uarch::{MicroArch, Port, PortSet, UarchConfig};
}
