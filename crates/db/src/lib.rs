//! # uops-db
//!
//! The persistence and serving layer of the uops.info reproduction: the
//! paper's end product is not the measurement algorithms alone but a
//! *queryable database* of latency, throughput, and port-usage results
//! across microarchitectures. This crate turns characterization output into
//! exactly that:
//!
//! * a **versioned snapshot format** ([`Snapshot`]) with two lossless,
//!   forward-compatible encodings — a compact binary stream ([`codec`]) and
//!   JSON ([`json`]) — so datasets can be written, shipped, merged, and read
//!   back by newer and older tools alike;
//! * a **zero-copy segment format** ([`segment`]) — the query store: a
//!   single-file, columnar, alignment-padded image — string table, SoA
//!   record columns, side arrays, sorted posting lists by mnemonic, ISA
//!   extension, microarchitecture, and (microarchitecture, port) — opened
//!   in O(header + section table) and queried in place from a `&[u8]`
//!   through [`SegmentDb`] without decoding a single record, plus
//!   **incremental merge ingestion** ([`Segment::merge`]) for
//!   independently written shards;
//! * a **layered query pipeline**: the source-compatible [`Query`] builder
//!   produces a canonical, hashable [`QueryPlan`] ([`plan`]) — the cache
//!   key and the wire request, with a strict query-string codec — which
//!   [`QueryExec`] ([`exec`]) runs over the segment's posting lists (the
//!   smallest list drives, the rest are gallop-intersected, and sort keys
//!   are computed once per result set), yielding borrowed [`RecordView`]s;
//! * **result encoders** ([`encode`]): a [`ResultEncoder`] trait with
//!   deterministic JSON, compact-binary, and grouped-XML implementations
//!   sharing the snapshot codecs' machinery — what a response cache stores
//!   and a server sends;
//! * **cross-microarchitecture diffing** ([`diff_uarches`]): which variants
//!   changed latency, port usage, µop count, or throughput between two
//!   generations (the paper's §5 findings, e.g. SHLD across generations);
//! * a **crash-safe generation store** ([`store`]) that publishes segment
//!   images durably and swaps the live one without blocking readers.
//!
//! The crate is deliberately free of dependencies — including the rest of
//! the workspace, apart from the telemetry primitives — so every layer
//! above it (characterization, serving, caching) can produce or consume
//! snapshots without pulling in the measurement stack. `uops-core`
//! provides the `CharacterizationReport` → [`Snapshot`] ingestion bridge.
//!
//! ## Quickstart
//!
//! A [`Snapshot`] is the interchange form; TLV ([`codec`]) is compact and
//! streaming, for shipping and archival. To query, write the snapshot as a
//! **segment**: opening one never decodes records (O(header + section
//! table), benchmarked ≥ 10x faster than TLV-decoding the same data on the
//! `build_db` dataset), and shards written independently merge without
//! re-decoding — see [`segment`] for the layout and the full trade-off.
//!
//! ```rust
//! use uops_db::{diff_uarches, Query, Segment, Snapshot, VariantRecord};
//!
//! # fn main() -> Result<(), uops_db::DbError> {
//! let mut snapshot = Snapshot::new("example");
//! snapshot.records.push(VariantRecord {
//!     mnemonic: "ADD".into(),
//!     variant: "R64, R64".into(),
//!     extension: "BASE".into(),
//!     uarch: "Skylake".into(),
//!     uop_count: 1,
//!     ports: vec![(0b0110_0011, 1)], // 1*p0156
//!     tp_measured: 0.25,
//!     ..Default::default()
//! });
//!
//! // Round-trip through the TLV interchange encoding.
//! let bytes = uops_db::codec::encode(&snapshot);
//! let restored = uops_db::codec::decode(&bytes)?;
//! assert_eq!(restored, snapshot);
//!
//! // Segment::write(&restored, "uops.seg")? persists the same image.
//! let segment = Segment::from_bytes(Segment::encode(&restored))?;
//! let db = segment.db(); // zero-copy reader, no records decoded
//! let hits = Query::new().uarch("Skylake").uses_port(6).run(&db);
//! assert_eq!(hits.total_matches, 1);
//! assert_eq!(hits.rows[0].mnemonic(), "ADD");
//! assert_eq!(diff_uarches(&db, "Haswell", "Skylake").compared(), 0);
//!
//! // Shards merge last-writer-wins without decoding:
//! let merged = Segment::merge(&[segment.clone(), segment]);
//! assert_eq!(merged.len(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backend;
pub mod codec;
pub mod diff;
pub mod encode;
pub mod error;
pub mod exec;
pub mod intern;
pub mod json;
pub mod plan;
pub mod query;
pub mod segment;
pub mod snapshot;
pub mod store;
pub mod xml;

pub use backend::{IdList, RecordView, Views};
pub use diff::{diff_uarches, Change, DiffReport, VariantDelta, CYCLE_TOLERANCE};
pub use encode::{BinaryEncoder, JsonEncoder, ResultEncoder, XmlEncoder};
pub use error::DbError;
pub use exec::{BatchExec, ExecStageMetrics, QueryExec};
pub use intern::Sym;
pub use plan::{fnv1a_64, fnv1a_64_parts, QueryPlan};
pub use query::{Query, QueryResult, SortKey};
pub use segment::{Segment, SegmentDb};
pub use snapshot::{
    notation_to_ports, ports_to_notation, LatencyEdge, Snapshot, UarchMeta, VariantRecord,
    SCHEMA_VERSION,
};
pub use store::{Generation, GenerationStore, RealStoreIo, RecoveredStore, StoreIo, SwapCell};
