//! The zero-copy snapshot segment format.
//!
//! A **segment** is the serving-oriented sibling of the TLV snapshot
//! encoding ([`crate::codec`]): a single-file, alignment-padded, columnar
//! image that a reader can serve queries from **without decoding a single
//! record**. Where the TLV codec is a streaming interchange format —
//! compact, forward-compatible, but requiring a full `decode` pass before
//! the first lookup — a segment *is* the database: the string table, the columnar
//! record arrays, the side arrays for port usage and latency edges, and the
//! sorted posting lists of every secondary index are all stored in their
//! query-ready form and read in place from a `&[u8]`.
//!
//! * [`Segment`] owns a validated image — a buffer read with
//!   [`std::fs::read`]: the layout is 8-aligned and offset-validated, so
//!   the reader needs nothing but a byte slice.
//! * [`SegmentDb`] is the borrowed, zero-copy reader that
//!   [`crate::Query`], [`crate::RecordView`], the result encoders, and
//!   [`crate::diff_uarches`] run over.
//! * [`Segment::merge`] k-way-merges independently written shards
//!   last-writer-wins by (mnemonic, variant, uarch) without re-decoding:
//!   it remaps the shards' symbols into one merged string table and copies
//!   the surviving records' columns across — incremental ingestion for
//!   datasets produced arch-by-arch and for live ingests.
//! * [`Segment::content_hash`] is the [`image_hash`] of the image (four
//!   interleaved FNV-style lanes over 64-bit words), computed at most once
//!   per segment: the generation store's manifest, recovery's check and
//!   the server's ETags share it.
//!
//! Opening a segment costs O(header + section table) plus the tiny,
//! record-count-independent string table and µarch metadata — benchmarked
//! (and gated) at ≥ 10x faster than TLV-decoding the same data
//! (`cargo bench -p uops-bench --bench db_query`).
//!
//! ## When to choose segment vs TLV
//!
//! * **Segment**: serving and analytics — open instantly, query in place,
//!   merge shards incrementally. Larger on disk (padding, posting lists,
//!   precomputed columns).
//! * **TLV** ([`crate::codec`]): interchange and archival — compact,
//!   streaming, schema-evolution-friendly at field granularity.
//!
//! ## Example
//!
//! ```rust
//! use uops_db::{Query, Segment, Snapshot, VariantRecord};
//!
//! let mut snapshot = Snapshot::new("example");
//! snapshot.records.push(VariantRecord {
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
//! // Encode, reopen in place, query — no record is decoded.
//! let segment = Segment::from_bytes(Segment::encode(&snapshot)).unwrap();
//! let db = segment.db();
//! let hits = Query::new().uarch("Skylake").uses_port(6).run(&db);
//! assert_eq!(hits.total_matches, 1);
//! assert_eq!(hits.rows[0].mnemonic(), "ADD");
//! ```

pub mod layout;
mod merge;
mod read;
mod writer;

use std::path::Path;
use std::sync::OnceLock;

use crate::error::DbError;
use crate::hash::image_hash;
use crate::snapshot::Snapshot;

pub use read::SegmentDb;

/// An owned, validated segment image.
///
/// Construction always validates ([`Segment::from_bytes`] /
/// [`Segment::open`]) and caches the parse, so [`Segment::db`] hands out
/// readers infallibly *and* without re-validating. The content hash is
/// cached too, on first use ([`Segment::content_hash`]). Equality compares
/// the image bytes only.
#[derive(Debug, Clone)]
pub struct Segment {
    bytes: Vec<u8>,
    parsed: read::ParsedSegment,
    content_hash: OnceLock<u64>,
}

impl PartialEq for Segment {
    fn eq(&self, other: &Segment) -> bool {
        self.bytes == other.bytes
    }
}

impl Segment {
    /// Encodes a snapshot as a segment image. Duplicate (mnemonic,
    /// variant, uarch) keys keep the last occurrence, as in
    /// [`Segment::merge`]; records are stored in canonical key order, so
    /// encoding is deterministic regardless of input order.
    #[must_use]
    pub fn encode(snapshot: &Snapshot) -> Vec<u8> {
        writer::encode_snapshot(snapshot)
    }

    /// Validates an image and takes ownership of it.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Segment`] on structural corruption and
    /// [`DbError::UnsupportedSchema`] for images written under a newer
    /// breaking schema version.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Segment, DbError> {
        let parsed = SegmentDb::open(&bytes)?.into_parsed();
        Ok(Segment { bytes, parsed, content_hash: OnceLock::new() })
    }

    /// [`Segment::from_bytes`] for an image whose [`image_hash`] the
    /// caller has just computed, so [`Segment::content_hash`] never hashes
    /// it again. Only an [`image_hash`] may seed the cache: the generation
    /// store's recovery of a `v1` manifest, which checks images with
    /// FNV-1a, opens them with [`Segment::from_bytes`] instead.
    pub(crate) fn from_hashed_bytes(bytes: Vec<u8>, content_hash: u64) -> Result<Segment, DbError> {
        let segment = Segment::from_bytes(bytes)?;
        segment.content_hash.get_or_init(|| content_hash);
        Ok(segment)
    }

    /// The [`image_hash`] of the image: what the generation store records
    /// in its `v2` manifest and checks on recovery, and what the server
    /// folds into every ETag. Computed on the first call and cached, so
    /// each image is hashed at most once however many layers ask.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        *self.content_hash.get_or_init(|| image_hash(&self.bytes))
    }

    /// Encodes `snapshot` and writes the image to `path`, returning the
    /// in-memory segment.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Io`] when the file cannot be written.
    pub fn write(snapshot: &Snapshot, path: impl AsRef<Path>) -> Result<Segment, DbError> {
        let path = path.as_ref();
        let bytes = Segment::encode(snapshot);
        std::fs::write(path, &bytes).map_err(|e| DbError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        Segment::from_bytes(bytes)
    }

    /// Reads and validates the image at `path`. The records themselves are
    /// not decoded — open cost is independent of the record count.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Io`] when the file cannot be read, plus the
    /// validation errors of [`Segment::from_bytes`].
    pub fn open(path: impl AsRef<Path>) -> Result<Segment, DbError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| DbError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        Segment::from_bytes(bytes)
    }

    /// K-way-merges segment shards into a new segment,
    /// last-writer-wins by (mnemonic, variant, uarch): on duplicate keys
    /// the shard latest in `parts` supplies the surviving record. No shard
    /// is decoded into a snapshot: the shards' string tables merge into
    /// one, and the surviving records' columns are copied across with
    /// their symbols remapped. The image equals [`Segment::encode`] of the
    /// last-writer-wins snapshot of the shards: µarch metadata also keeps
    /// the last entry per name, the generator is the last non-empty one
    /// and the schema version the highest.
    #[must_use]
    pub fn merge(parts: &[Segment]) -> Segment {
        Segment::merge_refs(&parts.iter().collect::<Vec<_>>())
    }

    /// [`Segment::merge`] over borrowed segments — same semantics, for
    /// callers holding `Arc<Segment>` handles they cannot move out of.
    #[must_use]
    pub fn merge_refs(parts: &[&Segment]) -> Segment {
        let dbs: Vec<SegmentDb<'_>> = parts.iter().map(|s| s.db()).collect();
        let bytes = merge::merge_images(&dbs);
        Segment::from_bytes(bytes).expect("merge emits valid segments")
    }

    /// Whether [`Segment::content_hash`] is already cached.
    #[cfg(test)]
    pub(crate) fn is_hashed(&self) -> bool {
        self.content_hash.get().is_some()
    }

    /// The zero-copy reader for this image. Cheap: the validated parse is
    /// cached at construction, so this neither re-validates nor touches
    /// the record columns.
    #[must_use]
    pub fn db(&self) -> SegmentDb<'_> {
        SegmentDb::reopen_trusted(&self.bytes, &self.parsed)
    }

    /// Number of records in the segment.
    #[must_use]
    pub fn len(&self) -> usize {
        self.parsed.record_count() as usize
    }

    /// Returns `true` if the segment holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The raw image.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the segment, returning the raw image.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Query, SortKey};
    use crate::snapshot::{LatencyEdge, UarchMeta, VariantRecord};

    fn record(mnemonic: &str, variant: &str, uarch: &str, mask: u16) -> VariantRecord {
        VariantRecord {
            mnemonic: mnemonic.into(),
            variant: variant.into(),
            extension: "BASE".into(),
            uarch: uarch.into(),
            uop_count: 1,
            ports: vec![(mask, 1)],
            tp_measured: 0.25,
            tp_ports: Some(0.0),
            latency: vec![LatencyEdge {
                source: 0,
                target: 1,
                cycles: 1.5,
                upper_bound: true,
                same_reg_cycles: Some(3.0),
                low_value_cycles: None,
            }],
            ..Default::default()
        }
    }

    /// The `(offset, len)` of section `id` in `image`.
    fn section_range(image: &[u8], id: u32) -> (usize, usize) {
        let count = super::layout::u32_at(image, 16) as usize;
        (0..count)
            .map(|i| super::layout::HEADER_LEN + i * super::layout::SECTION_ENTRY_LEN)
            .find(|&e| super::layout::u32_at(image, e) == id)
            .map(|e| {
                (
                    super::layout::u64_at(image, e + 8) as usize,
                    super::layout::u64_at(image, e + 16) as usize,
                )
            })
            .expect("section present")
    }

    fn sample() -> Snapshot {
        let mut s = Snapshot::new("segment tests");
        s.uarches.push(UarchMeta {
            name: "Skylake".into(),
            processor: "Core i7-6500U".into(),
            year: 2015,
            ports: 8,
            characterized: 3,
            skipped: 1,
        });
        s.records.push(record("SHLD", "R64, R64, I8", "Skylake", 0b0000_0010));
        s.records.push(record("ADD", "R64, R64", "Skylake", 0b0110_0011));
        s.records.push(record("ADD", "R64, R64", "Haswell", 0b0110_0011));
        s
    }

    #[test]
    fn roundtrip_preserves_snapshot() {
        let mut snapshot = sample();
        let segment = Segment::from_bytes(Segment::encode(&snapshot)).expect("valid");
        snapshot.canonicalize();
        assert_eq!(segment.db().export_snapshot(), snapshot);
        assert_eq!(segment.len(), 3);
    }

    #[test]
    fn encoding_is_canonical() {
        let mut snapshot = sample();
        let a = Segment::encode(&snapshot);
        snapshot.records.reverse();
        snapshot.records.rotate_left(1);
        let b = Segment::encode(&snapshot);
        assert_eq!(a, b, "record order must not affect the image");
    }

    #[test]
    fn duplicate_keys_keep_last() {
        let mut snapshot = sample();
        let mut updated = record("ADD", "R64, R64", "Skylake", 0b0000_0001);
        updated.uop_count = 7;
        snapshot.records.push(updated);
        let segment = Segment::from_bytes(Segment::encode(&snapshot)).expect("valid");
        let db = segment.db();
        assert_eq!(segment.len(), 3);
        let id = db.find_id("ADD", "R64, R64", "Skylake").expect("present");
        assert_eq!(db.uop_count(id), 7);
        assert_eq!(db.port_union(id), 0b0000_0001);
    }

    #[test]
    fn zero_copy_accessors_return_the_written_fields() {
        let snapshot = sample();
        let segment = Segment::from_bytes(Segment::encode(&snapshot)).expect("valid");
        let db = segment.db();
        assert_eq!(db.len(), 3);
        for (mnemonic, variant, uarch, mask) in
            [("ADD", "R64, R64", "Skylake", 0b0110_0011), ("SHLD", "R64, R64, I8", "Skylake", 0b10)]
        {
            let want = record(mnemonic, variant, uarch, mask);
            let id = db.find_id(mnemonic, variant, uarch).expect("segment hit");
            assert_eq!(db.uop_count(id), want.uop_count);
            assert_eq!(db.port_union(id), mask);
            assert_eq!(db.ports_vec(id), want.ports);
            assert_eq!(db.latency_vec(id), want.latency);
            assert_eq!(db.tp_ports(id), Some(0.0), "present-but-zero survives");
            assert_eq!(db.max_latency(id), Some(1.5));
            assert_eq!(db.view(id).to_variant_record(), want);
        }
        assert_eq!(db.uarch_metas(), snapshot.uarches);
        assert_eq!(db.generator(), "segment tests");
    }

    #[test]
    fn queries_answer_in_canonical_order() {
        let segment = Segment::from_bytes(Segment::encode(&sample())).expect("valid");
        let db = segment.db();
        let add_hsw = ("ADD", "Haswell");
        let add_skl = ("ADD", "Skylake");
        let shld_skl = ("SHLD", "Skylake");
        for (query, want) in [
            (Query::new(), vec![add_hsw, add_skl, shld_skl]),
            (Query::new().uarch("Skylake"), vec![add_skl, shld_skl]),
            (Query::new().uarch("Skylake").uses_port(5), vec![add_skl]),
            // Equal latencies tie-break on the name order, then reverse.
            (Query::new().mnemonic("ADD").sort_by_desc(SortKey::Latency), vec![add_skl, add_hsw]),
            (Query::new().mnemonic_prefix("SH").min_uops(1), vec![shld_skl]),
        ] {
            let result = query.run(&db);
            assert_eq!(result.total_matches, want.len(), "{query:?}");
            let rows: Vec<_> = result.rows.iter().map(|v| (v.mnemonic(), v.uarch())).collect();
            assert_eq!(rows, want, "{query:?}");
        }
    }

    #[test]
    fn merge_is_equivalent_to_single_pass() {
        let mut all = Snapshot::new("merged");
        let mut shards = Vec::new();
        for uarch in ["Nehalem", "Haswell", "Skylake"] {
            let mut shard = Snapshot::new("merged");
            shard.upsert_uarch(UarchMeta { name: uarch.into(), year: 2010, ..Default::default() });
            shard.records.push(record("ADD", "R64, R64", uarch, 0b11));
            shard.records.push(record("SUB", "R64, R64", uarch, 0b101));
            for r in &shard.records {
                all.records.push(r.clone());
            }
            all.upsert_uarch(shard.uarches[0].clone());
            shards.push(Segment::from_bytes(Segment::encode(&shard)).expect("valid shard"));
        }
        let merged = Segment::merge(&shards);
        let single = Segment::from_bytes(Segment::encode(&all)).expect("valid");
        assert_eq!(merged.as_bytes(), single.as_bytes(), "merge must be byte-identical");
    }

    #[test]
    fn merge_resolves_conflicts_last_writer_wins() {
        let mut base = Snapshot::new("base");
        base.records.push(record("ADD", "R64, R64", "Skylake", 0b11));
        let mut fix = Snapshot::new("fix");
        let mut better = record("ADD", "R64, R64", "Skylake", 0b1111);
        better.uop_count = 2;
        fix.records.push(better);
        let merged = Segment::merge(&[
            Segment::from_bytes(Segment::encode(&base)).unwrap(),
            Segment::from_bytes(Segment::encode(&fix)).unwrap(),
        ]);
        let db = merged.db();
        assert_eq!(db.len(), 1);
        let id = db.find_id("ADD", "R64, R64", "Skylake").expect("present");
        assert_eq!(db.uop_count(id), 2);
        assert_eq!(db.port_union(id), 0b1111);
        assert_eq!(db.generator(), "fix");
    }

    #[test]
    fn merge_drops_strings_only_overwritten_records_used() {
        let mut base = Snapshot::new("base");
        let mut old = record("ADD", "R64, R64 (old form)", "Skylake", 0b11);
        old.extension = "RETIRED_EXT".into();
        base.records.push(old);
        base.records.push(record("SUB", "R64, R64", "Skylake", 0b11));
        base.uarches.push(UarchMeta {
            name: "Skylake".into(),
            processor: "Old CPU".into(),
            year: 2015,
            ..Default::default()
        });
        let mut fix = Snapshot::new("fix");
        fix.records.push(record("ADD", "R64, R64 (old form)", "Skylake", 0b1111));
        fix.uarches.push(UarchMeta {
            name: "Skylake".into(),
            processor: "New CPU".into(),
            year: 2015,
            ..Default::default()
        });
        let merged = Segment::merge(&[
            Segment::from_bytes(Segment::encode(&base)).unwrap(),
            Segment::from_bytes(Segment::encode(&fix)).unwrap(),
        ]);
        let db = merged.db();
        assert_eq!(db.lookup_sym("RETIRED_EXT"), None, "overwritten extension must vanish");
        assert_eq!(db.lookup_sym("Old CPU"), None, "overwritten processor must vanish");
        assert!(db.lookup_sym("New CPU").is_some());
        let id = db.find_id("ADD", "R64, R64 (old form)", "Skylake").expect("present");
        assert_eq!(db.resolve(db.extension_sym(id)), "BASE");

        let mut latest = Snapshot::new("fix");
        latest.records = [base.records, fix.records].concat();
        latest.uarches = [base.uarches, fix.uarches].concat();
        assert_eq!(merged.as_bytes(), Segment::encode(&latest).as_slice());
    }

    #[test]
    fn merge_reads_out_of_range_symbols_as_empty_strings() {
        // Open validates the string table, not every record's symbols (that
        // would cost O(records)), so an ingested image can name a string
        // that does not exist. The reader resolves it to "", and the merge
        // must treat it the same way, not panic.
        let mut image = Segment::encode(&sample());
        let (column, _) = section_range(&image, super::layout::section::COL_EXTENSION);
        image[column..column + 4].copy_from_slice(&999u32.to_le_bytes());
        let crafted = Segment::from_bytes(image).expect("structurally valid");
        assert_eq!(crafted.db().resolve(crafted.db().extension_sym(0)), "");

        let merged = Segment::merge(&[crafted.clone()]);
        let db = merged.db();
        assert_eq!(db.resolve(db.extension_sym(0)), "");
        assert!(db.lookup_sym("").is_some());
        assert_eq!(
            merged,
            Segment::from_bytes(Segment::encode(&crafted.db().export_snapshot())).unwrap()
        );
    }

    #[test]
    fn merge_of_empty_inputs() {
        let empty = Segment::from_bytes(Segment::encode(&Snapshot::new(""))).unwrap();
        assert!(empty.is_empty());
        let merged = Segment::merge(&[]);
        assert!(merged.is_empty());
        let merged = Segment::merge(&[empty.clone(), empty]);
        assert!(merged.is_empty());
    }

    #[test]
    fn corruption_is_rejected_never_panics() {
        // Bad magic.
        assert!(matches!(
            Segment::from_bytes(b"not a segment".to_vec()),
            Err(DbError::Segment { .. })
        ));
        // Truncated header.
        let image = Segment::encode(&sample());
        assert!(matches!(Segment::from_bytes(image[..16].to_vec()), Err(DbError::Segment { .. })));
        // Truncated anywhere below the last section's payload end: every
        // such prefix must error, never panic. (Bytes past that point are
        // alignment padding, which a reader legitimately ignores.)
        let section_count = super::layout::u32_at(&image, 16) as usize;
        let payload_end = (0..section_count)
            .map(|i| {
                let entry = super::layout::HEADER_LEN + i * super::layout::SECTION_ENTRY_LEN;
                (super::layout::u64_at(&image, entry + 8)
                    + super::layout::u64_at(&image, entry + 16)) as usize
            })
            .max()
            .expect("sections exist");
        for len in 0..payload_end {
            assert!(
                Segment::from_bytes(image[..len].to_vec()).is_err(),
                "prefix of {len} bytes must be rejected"
            );
        }
        // Out-of-range section offset.
        let mut bad = image.clone();
        let entry = super::layout::HEADER_LEN; // first section-table entry
        bad[entry + 8..entry + 16].copy_from_slice(&(u64::MAX - 7).to_le_bytes());
        match Segment::from_bytes(bad) {
            Err(DbError::Segment { message, .. }) => {
                assert!(message.contains("overflow") || message.contains("out of bounds"));
            }
            other => panic!("expected segment error, got {other:?}"),
        }
        // Misaligned section offset.
        let mut bad = image.clone();
        bad[entry + 8..entry + 16].copy_from_slice(&1u64.to_le_bytes());
        assert!(Segment::from_bytes(bad).is_err());
        // Posting key entry pointing outside the posting array: must be an
        // open error, never a silently empty posting list.
        let mut bad = image.clone();
        let (idx_off, idx_len) = section_range(&bad, super::layout::section::IDX_MNEMONIC);
        assert!(idx_len >= super::layout::IDX_ENTRY_LEN, "sample has mnemonic keys");
        bad[idx_off + 4..idx_off + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        match Segment::from_bytes(bad) {
            Err(DbError::Segment { message, .. }) => {
                assert!(message.contains("posting range"), "{message}");
            }
            other => panic!("expected posting-range error, got {other:?}"),
        }
        // A corrupt *intermediate* prefix-sum entry passes open (only the
        // final total is validated there) but must degrade to a short
        // range on access — never an oversized allocation or a panic.
        let mut bad = image.clone();
        let (ranges_off, _) = section_range(&bad, super::layout::section::PORTS_RANGE);
        bad[ranges_off..ranges_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let segment = Segment::from_bytes(bad).expect("final total still consistent");
        let db = segment.db();
        for id in 0..db.len() as u32 {
            assert!(db.ports_len(id) <= 8, "clamped range for record {id}");
            let _ = db.ports_vec(id);
            let _ = db.view(id).ports_notation();
        }
        // Newer breaking schema version.
        let mut bad = image;
        bad[12..16].copy_from_slice(&(crate::snapshot::SCHEMA_VERSION + 1).to_le_bytes());
        assert!(matches!(Segment::from_bytes(bad), Err(DbError::UnsupportedSchema { .. })));
    }

    #[test]
    fn string_blob_must_be_utf8_cut_on_character_boundaries() {
        let mut snapshot = sample();
        snapshot.uarches[0].processor = "Core™ i7".into();
        let image = Segment::encode(&snapshot);
        let segment = Segment::from_bytes(image.clone()).expect("valid");
        let db = segment.db();
        let sym = db.lookup_sym("Core™ i7").expect("interned");
        assert_eq!(db.resolve(sym), "Core™ i7");
        assert_eq!(db.resolve(crate::intern::Sym(u32::MAX)), "");

        let (offsets, _) = section_range(&image, super::layout::section::STR_OFFSETS);
        let (blob, _) = section_range(&image, super::layout::section::STR_BYTES);
        let start = super::layout::u32_at(&image, offsets + sym.0 as usize * 4) as usize;
        // One byte into "™" (three bytes at offset 4 of the string).
        let mut split = image.clone();
        let at = offsets + sym.0 as usize * 4 + 4;
        split[at..at + 4].copy_from_slice(&(start as u32 + 5).to_le_bytes());
        match Segment::from_bytes(split) {
            Err(DbError::Segment { message, .. }) => {
                assert!(message.contains("splits a UTF-8 character"), "{message}");
            }
            other => panic!("expected a split-character error, got {other:?}"),
        }
        let mut invalid = image;
        invalid[blob + start + 4] = 0xff;
        match Segment::from_bytes(invalid) {
            Err(DbError::Segment { message, offset }) => {
                assert!(message.contains("not UTF-8"), "{message}");
                assert_eq!(offset, blob + start + 4);
            }
            other => panic!("expected a UTF-8 error, got {other:?}"),
        }
    }

    #[test]
    fn check_records_rejects_disorder_repeats_and_unknown_symbols() {
        let image = Segment::encode(&sample());
        let segment = Segment::from_bytes(image.clone()).expect("valid");
        assert!(segment.db().check_records().is_ok());
        assert!(Segment::from_bytes(Segment::encode(&Snapshot::new("")))
            .expect("valid")
            .db()
            .check_records()
            .is_ok());

        // Records 0 and 1 are (ADD, Haswell) and (ADD, Skylake).
        let (uarch, _) = section_range(&image, super::layout::section::COL_UARCH);
        let (first, second) = (uarch..uarch + 4, uarch + 4..uarch + 8);
        let mut swapped = image.clone();
        swapped[first.clone()].copy_from_slice(&image[second.clone()]);
        swapped[second.clone()].copy_from_slice(&image[first.clone()]);
        let mut repeated = image.clone();
        repeated[second.clone()].copy_from_slice(&image[first]);
        for (what, bad, record) in [("swapped", swapped, 1), ("repeated", repeated, 1)] {
            let segment = Segment::from_bytes(bad).expect("structurally valid");
            match segment.db().check_records() {
                Err(DbError::Segment { message, .. }) => {
                    assert!(message.starts_with(&format!("record {record} ")), "{what}: {message}");
                }
                other => panic!("{what}: expected a key-order error, got {other:?}"),
            }
        }
        for column in [
            super::layout::section::COL_MNEMONIC,
            super::layout::section::COL_VARIANT,
            super::layout::section::COL_EXTENSION,
            super::layout::section::COL_UARCH,
        ] {
            let mut bad = image.clone();
            let (at, _) = section_range(&bad, column);
            bad[at + 8..at + 12].copy_from_slice(&999u32.to_le_bytes());
            let segment = Segment::from_bytes(bad).expect("structurally valid");
            match segment.db().check_records() {
                Err(DbError::Segment { message, .. }) => {
                    assert!(message.contains("outside the string table"), "{column}: {message}");
                }
                other => panic!("column {column}: expected a symbol error, got {other:?}"),
            }
        }
    }

    #[test]
    fn open_cost_is_independent_of_record_count() {
        let small = sample();
        let mut large = sample();
        for i in 0..500 {
            large.records.push(record(&format!("OP{i:04}"), "R64, R64", "Skylake", 0b11));
        }
        let seg_small = Segment::from_bytes(Segment::encode(&small)).unwrap();
        let seg_large = Segment::from_bytes(Segment::encode(&large)).unwrap();
        let small_cost = seg_small.db().open_cost_bytes();
        let large_cost = seg_large.db().open_cost_bytes();
        // The large image only pays for its larger string table and the
        // matching mnemonic index keys — the 500 extra records' columns,
        // side arrays, and posting ids themselves cost nothing to open.
        let string_growth: usize = (0..500).map(|i| format!("OP{i:04}").len() + 4).sum::<usize>();
        let key_growth = 500 * super::layout::IDX_ENTRY_LEN;
        assert!(
            large_cost <= small_cost + string_growth + key_growth,
            "open cost {large_cost} must not scale with records (small {small_cost})"
        );
        assert!(seg_large.as_bytes().len() > seg_small.as_bytes().len() * 10);
    }

    #[test]
    fn unknown_sections_are_skipped() {
        // Append an unknown section id to the table, as a future writer
        // might: the image must still open.
        let image = Segment::encode(&sample());
        let section_count = super::layout::u32_at(&image, 16) as usize;
        let old_table_end =
            super::layout::HEADER_LEN + section_count * super::layout::SECTION_ENTRY_LEN;
        let mut extended = Vec::new();
        extended.extend_from_slice(&image[..old_table_end]);
        // New entry: unknown id 900, pointing at an 8-aligned empty range.
        extended.extend_from_slice(&900u32.to_le_bytes());
        extended.extend_from_slice(&0u32.to_le_bytes());
        extended.extend_from_slice(&0u64.to_le_bytes());
        extended.extend_from_slice(&0u64.to_le_bytes());
        // Shift every existing section by the table growth (re-aligned).
        let shift = super::layout::align8(old_table_end + super::layout::SECTION_ENTRY_LEN)
            - super::layout::align8(old_table_end);
        extended.resize(super::layout::align8(extended.len()), 0);
        extended.extend_from_slice(&image[super::layout::align8(old_table_end)..]);
        extended[16..20].copy_from_slice(&(section_count as u32 + 1).to_le_bytes());
        for i in 0..section_count {
            let entry = super::layout::HEADER_LEN + i * super::layout::SECTION_ENTRY_LEN;
            let offset = super::layout::u64_at(&extended, entry + 8) + shift as u64;
            extended[entry + 8..entry + 16].copy_from_slice(&offset.to_le_bytes());
        }
        let segment = Segment::from_bytes(extended).expect("unknown sections are skipped");
        assert_eq!(segment.len(), 3);
        assert!(segment.db().find_id("ADD", "R64, R64", "Skylake").is_some());
    }
}
