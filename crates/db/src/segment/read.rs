//! The zero-copy segment reader.
//!
//! [`SegmentDb`] serves every record accessor directly out of a borrowed
//! byte image. Opening validates the header, the section table,
//! and the (tiny, record-count-independent) string table and µarch
//! metadata — **no per-record work** — so open time is O(header + section
//! table) regardless of how many records the segment holds. All structural
//! corruption is reported as [`DbError::Segment`]; validation and access
//! never panic.

use std::borrow::Cow;

use crate::backend::{IdList, RecordView, Views};
use crate::error::DbError;
use crate::intern::Sym;
use crate::snapshot::{LatencyEdge, Snapshot, UarchMeta, SCHEMA_VERSION};

use super::layout::{
    bit_at, f64_at, section, u16_at, u32_at, u64_at, FORMAT_VERSION, HEADER_LEN, IDX_ENTRY_LEN,
    IDX_PORT_ENTRY_LEN, LAT_FLAG_LOW_VALUE, LAT_FLAG_SAME_REG, LAT_FLAG_UPPER_BOUND, MAGIC,
    MAX_SECTION_ID, SECTION_ENTRY_LEN, UARCH_META_LEN,
};

/// Upper bound on the section-table length accepted by the reader; real
/// images have [`MAX_SECTION_ID`] sections plus room for future additive
/// ones.
const MAX_SECTIONS: u32 = 4096;

/// A borrowed, zero-copy view of a segment image — the store every query,
/// record view, encoder, and diff runs over.
///
/// Construction ([`SegmentDb::open`]) validates structure but decodes no
/// records; every accessor afterwards reads little-endian values in place.
#[derive(Debug, Clone)]
pub struct SegmentDb<'a> {
    bytes: &'a [u8],
    /// `(offset, len)` per known section id (index 0 unused).
    sections: [(usize, usize); MAX_SECTION_ID as usize + 1],
    record_count: u32,
    string_count: u32,
    schema_version: u32,
    generator: &'a str,
    /// The string blob (section `STR_BYTES`), validated as UTF-8 once, so
    /// resolving a symbol is a slice by offset.
    strings: &'a str,
    /// Owned when opened from bytes; borrowed from the cached parse when
    /// rebuilt by [`SegmentDb::reopen_trusted`], so that costs no allocation.
    uarch_meta: Cow<'a, [UarchMeta]>,
    open_cost_bytes: usize,
    /// Validated totals of the port-entry and latency-edge side arrays;
    /// `range` clamps against them so a corrupt intermediate prefix-sum
    /// entry can never drive an oversized allocation.
    ports_total: usize,
    lat_total: usize,
}

fn corrupt(offset: usize, message: impl Into<String>) -> DbError {
    DbError::Segment { offset, message: message.into() }
}

/// The lifetime-free result of validating an image: everything a reader
/// needs besides the bytes themselves. [`crate::Segment`] caches one so
/// repeated [`crate::Segment::db`] calls skip re-validation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ParsedSegment {
    sections: [(usize, usize); MAX_SECTION_ID as usize + 1],
    record_count: u32,
    string_count: u32,
    schema_version: u32,
    /// A copy of the validated string blob, which readers rebuilt by
    /// [`SegmentDb::reopen_trusted`] borrow instead of re-checking UTF-8.
    strings: Box<str>,
    uarch_meta: Vec<UarchMeta>,
    open_cost_bytes: usize,
    ports_total: usize,
    lat_total: usize,
}

impl ParsedSegment {
    /// Number of records in the parsed image.
    pub(crate) fn record_count(&self) -> u32 {
        self.record_count
    }
}

impl<'a> SegmentDb<'a> {
    /// Opens a segment image in place.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Segment`] for structural corruption (bad magic,
    /// truncated header or sections, offsets outside the image,
    /// inconsistent section sizes, a malformed string table) and
    /// [`DbError::UnsupportedSchema`] when the segment was written under a
    /// newer breaking schema version.
    pub fn open(bytes: &'a [u8]) -> Result<SegmentDb<'a>, DbError> {
        if bytes.len() < HEADER_LEN {
            return Err(corrupt(bytes.len(), "truncated header"));
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(corrupt(0, "bad magic (not a segment)"));
        }
        let format_version = u32_at(bytes, 8);
        if format_version != FORMAT_VERSION {
            return Err(corrupt(8, format!("unsupported segment format version {format_version}")));
        }
        let schema_version = u32_at(bytes, 12);
        if schema_version > SCHEMA_VERSION {
            return Err(DbError::UnsupportedSchema {
                found: schema_version,
                supported: SCHEMA_VERSION,
            });
        }
        let section_count = u32_at(bytes, 16);
        let record_count = u32_at(bytes, 20);
        let string_count = u32_at(bytes, 24);
        if section_count > MAX_SECTIONS {
            return Err(corrupt(16, format!("implausible section count {section_count}")));
        }
        let table_end = HEADER_LEN + section_count as usize * SECTION_ENTRY_LEN;
        if table_end > bytes.len() {
            return Err(corrupt(HEADER_LEN, "section table extends past end of image"));
        }

        let mut sections = [(0usize, 0usize); MAX_SECTION_ID as usize + 1];
        let mut present = [false; MAX_SECTION_ID as usize + 1];
        for i in 0..section_count as usize {
            let entry = HEADER_LEN + i * SECTION_ENTRY_LEN;
            let id = u32_at(bytes, entry);
            let offset = u64_at(bytes, entry + 8);
            let len = u64_at(bytes, entry + 16);
            let offset = usize::try_from(offset)
                .map_err(|_| corrupt(entry + 8, "section offset overflows usize"))?;
            let len = usize::try_from(len)
                .map_err(|_| corrupt(entry + 16, "section length overflows usize"))?;
            let end = offset
                .checked_add(len)
                .ok_or_else(|| corrupt(entry + 8, "section range overflows"))?;
            if end > bytes.len() {
                return Err(corrupt(
                    entry + 8,
                    format!("section {id} range {offset}..{end} is out of bounds"),
                ));
            }
            if offset % 8 != 0 {
                return Err(corrupt(entry + 8, format!("section {id} offset is not 8-aligned")));
            }
            // Unknown ids are skipped — additive sections stay readable.
            if (1..=MAX_SECTION_ID).contains(&id) {
                if present[id as usize] {
                    return Err(corrupt(entry, format!("duplicate section {id}")));
                }
                present[id as usize] = true;
                sections[id as usize] = (offset, len);
            }
        }
        for id in 1..=MAX_SECTION_ID {
            if !present[id as usize] {
                return Err(corrupt(table_end, format!("missing required section {id}")));
            }
        }

        let rc = record_count as usize;
        let expect = |id: u32, want: usize, what: &str| -> Result<(), DbError> {
            let (offset, len) = sections[id as usize];
            if len != want {
                return Err(corrupt(
                    offset,
                    format!("section {id} ({what}) holds {len} bytes, expected {want}"),
                ));
            }
            Ok(())
        };
        expect(section::STR_OFFSETS, (string_count as usize + 1) * 4, "string offsets")?;
        for (id, what) in [
            (section::COL_MNEMONIC, "mnemonic column"),
            (section::COL_VARIANT, "variant column"),
            (section::COL_EXTENSION, "extension column"),
            (section::COL_UARCH, "uarch column"),
            (section::COL_UOPS, "uop column"),
            (section::COL_UNATTRIBUTED, "unattributed column"),
        ] {
            expect(id, rc * 4, what)?;
        }
        expect(section::COL_PORT_UNION, rc * 2, "port-union column")?;
        for (id, what) in [
            (section::COL_TP_MEASURED, "throughput column"),
            (section::COL_TP_PORTS, "port-throughput column"),
            (section::COL_TP_LOW, "low-value-throughput column"),
            (section::COL_TP_BREAKING, "breaking-throughput column"),
            (section::COL_MAX_LATENCY, "max-latency column"),
        ] {
            expect(id, rc * 8, what)?;
        }
        for id in [
            section::BITS_TP_PORTS,
            section::BITS_TP_LOW,
            section::BITS_TP_BREAKING,
            section::BITS_MAX_LATENCY,
        ] {
            expect(id, rc.div_ceil(8), "presence bitmap")?;
        }
        expect(section::PORTS_RANGE, (rc + 1) * 4, "port ranges")?;
        expect(section::LAT_RANGE, (rc + 1) * 4, "latency ranges")?;
        // Side arrays: sized by the final prefix sum — an O(1) read.
        let ports_total =
            u32_at(bytes, sections[section::PORTS_RANGE as usize].0 + rc * 4) as usize;
        expect(section::PORTS_MASK, ports_total * 2, "port masks")?;
        expect(section::PORTS_UOPS, ports_total * 4, "port µop counts")?;
        let lat_total = u32_at(bytes, sections[section::LAT_RANGE as usize].0 + rc * 4) as usize;
        expect(section::LAT_SOURCE, lat_total * 4, "latency sources")?;
        expect(section::LAT_TARGET, lat_total * 4, "latency targets")?;
        expect(section::LAT_CYCLES, lat_total * 8, "latency cycles")?;
        expect(section::LAT_FLAGS, lat_total, "latency flags")?;
        expect(section::LAT_SAME_REG, lat_total * 8, "same-register latencies")?;
        expect(section::LAT_LOW_VALUE, lat_total * 8, "low-value latencies")?;
        let (off, len) = sections[section::POSTINGS as usize];
        if len % 4 != 0 {
            return Err(corrupt(off, "posting array is not whole u32s"));
        }
        // Posting key tables: whole entries, and every (start, len) range
        // within the shared posting array — so a corrupt entry is an open
        // error, not a silently empty posting list. O(#index keys), which
        // is bounded by the (tiny) string table, not by record payloads.
        let postings_count = len / 4;
        let mut idx_bytes = 0usize;
        for (id, entry_len, range_at) in [
            (section::IDX_MNEMONIC, IDX_ENTRY_LEN, 4),
            (section::IDX_EXTENSION, IDX_ENTRY_LEN, 4),
            (section::IDX_UARCH, IDX_ENTRY_LEN, 4),
            (section::IDX_UARCH_PORT, IDX_PORT_ENTRY_LEN, 8),
        ] {
            let (offset, len) = sections[id as usize];
            if len % entry_len != 0 {
                return Err(corrupt(offset, format!("section {id} is not whole index entries")));
            }
            idx_bytes += len;
            for i in 0..len / entry_len {
                let entry = offset + i * entry_len;
                let start = u32_at(bytes, entry + range_at) as usize;
                let ids = u32_at(bytes, entry + range_at + 4) as usize;
                match start.checked_add(ids) {
                    Some(end) if end <= postings_count => {}
                    _ => {
                        return Err(corrupt(
                            entry,
                            format!("section {id} posting range {start}+{ids} is out of bounds"),
                        ))
                    }
                }
            }
        }
        let (off, len) = sections[section::UARCH_META as usize];
        if len % UARCH_META_LEN != 0 {
            return Err(corrupt(off, "uarch metadata is not whole entries"));
        }

        // String table: the blob valid UTF-8, offsets ascending, in range
        // and on character boundaries, and strings strictly sorted (symbol
        // order == string order; lookups binary-search on that).
        // O(strings), not O(records).
        let (str_off, _) = sections[section::STR_OFFSETS as usize];
        let (blob_off, blob_len) = sections[section::STR_BYTES as usize];
        let strings = std::str::from_utf8(&bytes[blob_off..blob_off + blob_len])
            .map_err(|e| corrupt(blob_off + e.valid_up_to(), "string blob is not UTF-8"))?;
        let mut prev_end = 0usize;
        let mut prev_str: Option<&str> = None;
        for i in 0..string_count as usize {
            let start = u32_at(bytes, str_off + i * 4) as usize;
            let end = u32_at(bytes, str_off + i * 4 + 4) as usize;
            if start != prev_end || end < start || end > blob_len {
                return Err(corrupt(str_off + i * 4, format!("string {i} range is malformed")));
            }
            let s = strings.get(start..end).ok_or_else(|| {
                corrupt(blob_off + start, format!("string {i} splits a UTF-8 character"))
            })?;
            if let Some(prev) = prev_str {
                if prev >= s {
                    return Err(corrupt(str_off + i * 4, "string table is not strictly sorted"));
                }
            }
            prev_str = Some(s);
            prev_end = end;
        }
        if prev_end != blob_len {
            return Err(corrupt(str_off, "string blob has trailing bytes"));
        }

        let (gen_off, gen_len) = sections[section::GENERATOR as usize];
        let generator = std::str::from_utf8(&bytes[gen_off..gen_off + gen_len])
            .map_err(|_| corrupt(gen_off, "generator is not UTF-8"))?;

        let mut db = SegmentDb {
            bytes,
            sections,
            record_count,
            string_count,
            schema_version,
            generator,
            strings,
            uarch_meta: Cow::Borrowed(&[]),
            open_cost_bytes: 0,
            ports_total,
            lat_total,
        };
        let (meta_off, meta_len) = sections[section::UARCH_META as usize];
        let mut metas = Vec::with_capacity(meta_len / UARCH_META_LEN);
        for i in 0..meta_len / UARCH_META_LEN {
            let entry = meta_off + i * UARCH_META_LEN;
            let name_sym = u32_at(bytes, entry);
            let processor_sym = u32_at(bytes, entry + 4);
            if name_sym >= string_count || processor_sym >= string_count {
                return Err(corrupt(entry, "uarch metadata references unknown string"));
            }
            metas.push(UarchMeta {
                name: db.resolve(Sym(name_sym)).to_string(),
                processor: db.resolve(Sym(processor_sym)).to_string(),
                year: u32_at(bytes, entry + 8),
                ports: u32_at(bytes, entry + 12) as u8,
                characterized: u32_at(bytes, entry + 16),
                skipped: u32_at(bytes, entry + 20),
            });
        }
        db.uarch_meta = Cow::Owned(metas);
        db.open_cost_bytes = HEADER_LEN
            + section_count as usize * SECTION_ENTRY_LEN
            + (string_count as usize + 1) * 4
            + blob_len
            + gen_len
            + meta_len
            + idx_bytes;
        Ok(db)
    }

    /// Turns the reader into the lifetime-free parse state for
    /// [`crate::Segment`] to cache, so repeated reader construction skips
    /// re-validation.
    pub(crate) fn into_parsed(self) -> ParsedSegment {
        ParsedSegment {
            sections: self.sections,
            record_count: self.record_count,
            string_count: self.string_count,
            schema_version: self.schema_version,
            strings: self.strings.into(),
            uarch_meta: self.uarch_meta.into_owned(),
            open_cost_bytes: self.open_cost_bytes,
            ports_total: self.ports_total,
            lat_total: self.lat_total,
        }
    }

    /// Rebuilds a reader over `bytes` from the already-validated parse of
    /// the *same* image, skipping every open-time check. Used by
    /// [`crate::Segment`], which validated at construction. Allocates
    /// nothing: the µarch metadata is borrowed from `parsed`.
    pub(crate) fn reopen_trusted(bytes: &'a [u8], parsed: &'a ParsedSegment) -> SegmentDb<'a> {
        let (gen_off, gen_len) = parsed.sections[section::GENERATOR as usize];
        SegmentDb {
            bytes,
            sections: parsed.sections,
            record_count: parsed.record_count,
            string_count: parsed.string_count,
            schema_version: parsed.schema_version,
            generator: std::str::from_utf8(&bytes[gen_off..gen_off + gen_len])
                .expect("validated at open"),
            strings: &parsed.strings,
            uarch_meta: Cow::Borrowed(&parsed.uarch_meta),
            open_cost_bytes: parsed.open_cost_bytes,
            ports_total: parsed.ports_total,
            lat_total: parsed.lat_total,
        }
    }

    /// Bytes actually read and validated while opening: header, section
    /// table, string table, generator, µarch metadata, and posting-list
    /// key tables — everything *except* the record columns, which stay
    /// untouched until queried.
    #[must_use]
    pub fn open_cost_bytes(&self) -> usize {
        self.open_cost_bytes
    }

    /// The raw image this reader serves from.
    #[must_use]
    pub fn as_bytes(&self) -> &'a [u8] {
        self.bytes
    }

    fn sect(&self, id: u32) -> &'a [u8] {
        let (offset, len) = self.sections[id as usize];
        &self.bytes[offset..offset + len]
    }

    fn u32_col(&self, id: u32, record: u32) -> u32 {
        u32_at(self.sect(id), record as usize * 4)
    }

    fn opt_f64_col(&self, col: u32, bits: u32, record: u32) -> Option<f64> {
        if bit_at(self.sect(bits), record as usize) {
            Some(f64_at(self.sect(col), record as usize * 8))
        } else {
            None
        }
    }

    fn range(&self, id: u32, record: u32) -> (usize, usize) {
        // Intermediate prefix-sum entries are not individually validated
        // at open (only the final total is), so clamp both ends against
        // the validated side-array total: a corrupt entry degrades to an
        // empty or short range instead of an absurd length that callers
        // would try to allocate.
        let total = if id == section::PORTS_RANGE { self.ports_total } else { self.lat_total };
        let ranges = self.sect(id);
        let start = (u32_at(ranges, record as usize * 4) as usize).min(total);
        let end = (u32_at(ranges, record as usize * 4 + 4) as usize).min(total);
        if end >= start {
            (start, end - start)
        } else {
            (start, 0)
        }
    }

    fn record_key(&self, id: u32) -> (u32, u32, u32) {
        (
            self.u32_col(section::COL_MNEMONIC, id),
            self.u32_col(section::COL_VARIANT, id),
            self.u32_col(section::COL_UARCH, id),
        )
    }

    /// Binary search over a posting key table whose entries are
    /// `entry_len` bytes, keyed by `key_of(table, entry_offset)`, with the
    /// `(start, len)` posting range `range_at` bytes into each entry.
    fn postings_search(
        &self,
        table_id: u32,
        entry_len: usize,
        range_at: usize,
        key: u64,
        key_of: impl Fn(&[u8], usize) -> u64,
    ) -> IdList<'a> {
        let table = self.sect(table_id);
        let n = table.len() / entry_len;
        let (mut lo, mut hi) = (0usize, n);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if key_of(table, mid * entry_len) < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo < n && key_of(table, lo * entry_len) == key {
            let start = u32_at(table, lo * entry_len + range_at) as usize;
            let len = u32_at(table, lo * entry_len + range_at + 4) as usize;
            self.postings_slice(start, len)
        } else {
            IdList::empty()
        }
    }

    /// Lookup in one of the `{ sym, start, len }` key tables.
    fn postings_keyed(&self, table_id: u32, sym: u32) -> IdList<'a> {
        self.postings_search(table_id, IDX_ENTRY_LEN, 4, u64::from(sym), |t, o| {
            u64::from(u32_at(t, o))
        })
    }

    fn postings_slice(&self, start: usize, len: usize) -> IdList<'a> {
        self.sect(section::POSTINGS)
            .get(start * 4..(start + len) * 4)
            .map_or_else(IdList::empty, IdList::from_le)
    }
}

/// Record access. Ids are dense (`0..len()`) and stored in canonical
/// (mnemonic, variant, uarch) order, so a record's id is also its rank in
/// the name sort. Posting lists are sorted ascending by id, which the
/// query planner's galloping intersection relies on.
impl<'a> SegmentDb<'a> {
    /// Number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.record_count as usize
    }

    /// Returns `true` if the segment holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schema version the data was written under.
    #[must_use]
    pub fn schema_version(&self) -> u32 {
        self.schema_version
    }

    /// Free-form producer string.
    #[must_use]
    pub fn generator(&self) -> &'a str {
        self.generator
    }

    /// Resolves a symbol to its string (`""` for a symbol outside the
    /// string table).
    #[must_use]
    pub fn resolve(&self, sym: Sym) -> &'a str {
        let i = sym.0 as usize;
        if i >= self.string_count as usize {
            return "";
        }
        let offsets = self.sect(section::STR_OFFSETS);
        let start = u32_at(offsets, i * 4) as usize;
        let end = u32_at(offsets, i * 4 + 4) as usize;
        self.strings.get(start..end).unwrap_or("")
    }

    /// The raw bytes of string `sym` (empty for a symbol outside the
    /// string table). Byte order equals string order, so the merge
    /// compares these.
    pub(crate) fn str_bytes(&self, sym: u32) -> &'a [u8] {
        self.resolve(Sym(sym)).as_bytes()
    }

    /// Number of strings in the string table.
    pub(crate) fn string_count(&self) -> usize {
        self.string_count as usize
    }

    /// The raw (mnemonic, variant, uarch) key of record `id`.
    pub(crate) fn key_bytes(&self, id: u32) -> (&'a [u8], &'a [u8], &'a [u8]) {
        let (m, v, u) = self.record_key(id);
        (self.str_bytes(m), self.str_bytes(v), self.str_bytes(u))
    }

    /// The µarch metadata entries with the symbols of their name and
    /// processor strings, in stored order.
    pub(crate) fn uarch_meta_entries(&self) -> impl Iterator<Item = (u32, u32, &UarchMeta)> {
        let table = self.sect(section::UARCH_META);
        self.uarch_meta.iter().enumerate().map(move |(i, meta)| {
            let at = i * UARCH_META_LEN;
            (u32_at(table, at), u32_at(table, at + 4), meta)
        })
    }

    /// Looks up the symbol for `s` (`None` if the string never occurs in
    /// the segment). Allocation-free.
    #[must_use]
    pub fn lookup_sym(&self, s: &str) -> Option<Sym> {
        // The string table is sorted (validated at open), so symbol lookup
        // is a binary search over in-place slices — no hashing, no
        // allocation.
        let (mut lo, mut hi) = (0u32, self.string_count);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.resolve(Sym(mid)) < s {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        (lo < self.string_count && self.resolve(Sym(lo)) == s).then_some(Sym(lo))
    }

    /// Mnemonic symbol of record `id`.
    #[must_use]
    pub fn mnemonic_sym(&self, id: u32) -> Sym {
        Sym(self.u32_col(section::COL_MNEMONIC, id))
    }

    /// Variant-string symbol of record `id`.
    #[must_use]
    pub fn variant_sym(&self, id: u32) -> Sym {
        Sym(self.u32_col(section::COL_VARIANT, id))
    }

    /// ISA-extension symbol of record `id`.
    #[must_use]
    pub fn extension_sym(&self, id: u32) -> Sym {
        Sym(self.u32_col(section::COL_EXTENSION, id))
    }

    /// Microarchitecture symbol of record `id`.
    #[must_use]
    pub fn uarch_sym(&self, id: u32) -> Sym {
        Sym(self.u32_col(section::COL_UARCH, id))
    }

    /// µop count of record `id`.
    #[must_use]
    pub fn uop_count(&self, id: u32) -> u32 {
        self.u32_col(section::COL_UOPS, id)
    }

    /// µops of record `id` not attributed to any port combination.
    #[must_use]
    pub fn unattributed(&self, id: u32) -> u32 {
        self.u32_col(section::COL_UNATTRIBUTED, id)
    }

    /// Union of all port masks of record `id` (precomputed).
    #[must_use]
    pub fn port_union(&self, id: u32) -> u16 {
        u16_at(self.sect(section::COL_PORT_UNION), id as usize * 2)
    }

    /// Measured throughput of record `id`.
    #[must_use]
    pub fn tp_measured(&self, id: u32) -> f64 {
        f64_at(self.sect(section::COL_TP_MEASURED), id as usize * 8)
    }

    /// Throughput computed from the port usage, if available.
    #[must_use]
    pub fn tp_ports(&self, id: u32) -> Option<f64> {
        self.opt_f64_col(section::COL_TP_PORTS, section::BITS_TP_PORTS, id)
    }

    /// Measured throughput with low-latency divider values, if applicable.
    #[must_use]
    pub fn tp_low_values(&self, id: u32) -> Option<f64> {
        self.opt_f64_col(section::COL_TP_LOW, section::BITS_TP_LOW, id)
    }

    /// Measured throughput with dependency-breaking instructions, if
    /// applicable.
    #[must_use]
    pub fn tp_breaking(&self, id: u32) -> Option<f64> {
        self.opt_f64_col(section::COL_TP_BREAKING, section::BITS_TP_BREAKING, id)
    }

    /// Maximum latency over operand pairs (precomputed; `None` when the
    /// record has no latency edges).
    #[must_use]
    pub fn max_latency(&self, id: u32) -> Option<f64> {
        self.opt_f64_col(section::COL_MAX_LATENCY, section::BITS_MAX_LATENCY, id)
    }

    /// Number of `(port mask, µops)` entries of record `id`.
    #[must_use]
    pub fn ports_len(&self, id: u32) -> usize {
        self.range(section::PORTS_RANGE, id).1
    }

    /// The `i`-th `(port mask, µops)` entry of record `id`.
    #[must_use]
    pub fn port_entry(&self, id: u32, i: usize) -> (u16, u32) {
        let (start, _) = self.range(section::PORTS_RANGE, id);
        self.port_at(start + i)
    }

    fn port_at(&self, at: usize) -> (u16, u32) {
        (
            u16_at(self.sect(section::PORTS_MASK), at * 2),
            u32_at(self.sect(section::PORTS_UOPS), at * 4),
        )
    }

    /// Number of latency edges of record `id`.
    #[must_use]
    pub fn latency_len(&self, id: u32) -> usize {
        self.range(section::LAT_RANGE, id).1
    }

    fn edge_at(&self, at: usize) -> LatencyEdge {
        let flags = self.sect(section::LAT_FLAGS).get(at).copied().unwrap_or(0);
        LatencyEdge {
            source: u32_at(self.sect(section::LAT_SOURCE), at * 4),
            target: u32_at(self.sect(section::LAT_TARGET), at * 4),
            cycles: f64_at(self.sect(section::LAT_CYCLES), at * 8),
            upper_bound: flags & LAT_FLAG_UPPER_BOUND != 0,
            same_reg_cycles: (flags & LAT_FLAG_SAME_REG != 0)
                .then(|| f64_at(self.sect(section::LAT_SAME_REG), at * 8)),
            low_value_cycles: (flags & LAT_FLAG_LOW_VALUE != 0)
                .then(|| f64_at(self.sect(section::LAT_LOW_VALUE), at * 8)),
        }
    }

    /// The `(port mask, µops)` entries of record `id`, in order.
    pub(crate) fn port_entries(&self, id: u32) -> impl Iterator<Item = (u16, u32)> + '_ {
        let (start, len) = self.range(section::PORTS_RANGE, id);
        (start..start + len).map(|at| self.port_at(at))
    }

    /// The latency edges of record `id`, in order.
    pub(crate) fn latency_edges(&self, id: u32) -> impl Iterator<Item = LatencyEdge> + '_ {
        let (start, len) = self.range(section::LAT_RANGE, id);
        (start..start + len).map(|at| self.edge_at(at))
    }

    /// The `(port mask, µops)` entries of record `id`, materialized.
    #[must_use]
    pub fn ports_vec(&self, id: u32) -> Vec<(u16, u32)> {
        self.port_entries(id).collect()
    }

    /// The latency edges of record `id`, materialized.
    #[must_use]
    pub fn latency_vec(&self, id: u32) -> Vec<LatencyEdge> {
        self.latency_edges(id).collect()
    }

    /// Posting list of records with the given mnemonic symbol.
    #[must_use]
    pub fn postings_by_mnemonic(&self, sym: Sym) -> IdList<'a> {
        self.postings_keyed(section::IDX_MNEMONIC, sym.0)
    }

    /// Posting list of records with the given extension symbol.
    #[must_use]
    pub fn postings_by_extension(&self, sym: Sym) -> IdList<'a> {
        self.postings_keyed(section::IDX_EXTENSION, sym.0)
    }

    /// Posting list of records on the given microarchitecture.
    #[must_use]
    pub fn postings_by_uarch(&self, sym: Sym) -> IdList<'a> {
        self.postings_keyed(section::IDX_UARCH, sym.0)
    }

    /// Posting list of records on the given microarchitecture whose µops
    /// may use `port`.
    #[must_use]
    pub fn postings_by_uarch_port(&self, sym: Sym, port: u8) -> IdList<'a> {
        let key = (u64::from(sym.0) << 8) | u64::from(port);
        self.postings_search(section::IDX_UARCH_PORT, IDX_PORT_ENTRY_LEN, 8, key, u64_at)
    }

    /// Point lookup by (mnemonic, variant, microarchitecture).
    #[must_use]
    pub fn find_id(&self, mnemonic: &str, variant: &str, uarch: &str) -> Option<u32> {
        // Records are stored in canonical (mnemonic, variant, uarch)
        // order and symbol order equals string order, so a point lookup
        // is a binary search comparing symbol triples.
        let target =
            (self.lookup_sym(mnemonic)?.0, self.lookup_sym(variant)?.0, self.lookup_sym(uarch)?.0);
        let (mut lo, mut hi) = (0u32, self.record_count);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.record_key(mid) < target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        (lo < self.record_count && self.record_key(lo) == target).then_some(lo)
    }

    /// Checks what [`SegmentDb::open`] leaves out to stay independent of
    /// the record count: every record's symbols name strings of the table,
    /// and the (mnemonic, variant, uarch) keys strictly ascend, i.e. are in
    /// canonical order without a repeat. Point lookups and
    /// [`crate::Segment::merge`] rely on that order, so an image from
    /// outside the program must pass this before it is merged. O(records).
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Segment`] naming the first record that breaks
    /// either rule.
    pub fn check_records(&self) -> Result<(), DbError> {
        let mut previous = None;
        for id in 0..self.record_count {
            for column in [
                section::COL_MNEMONIC,
                section::COL_VARIANT,
                section::COL_EXTENSION,
                section::COL_UARCH,
            ] {
                let sym = self.u32_col(column, id);
                if sym >= self.string_count {
                    return Err(corrupt(
                        self.sections[column as usize].0 + id as usize * 4,
                        format!("record {id} names string {sym}, outside the string table"),
                    ));
                }
            }
            let key = self.record_key(id);
            if previous.is_some_and(|previous| previous >= key) {
                return Err(corrupt(
                    self.sections[section::COL_MNEMONIC as usize].0 + id as usize * 4,
                    format!("record {id} repeats or precedes the key of record {}", id - 1),
                ));
            }
            previous = Some(key);
        }
        Ok(())
    }

    /// Metadata of the contributing microarchitectures.
    #[must_use]
    pub fn uarch_metas(&self) -> Vec<UarchMeta> {
        self.uarch_meta.to_vec()
    }

    /// The view for a record id.
    #[must_use]
    pub fn view(&self, id: u32) -> RecordView<'_> {
        RecordView { db: self, id }
    }

    /// All records, as views, in id (canonical) order.
    pub fn views(&self) -> Views<'_> {
        Views::new(self)
    }

    /// Exports the segment back into a canonical snapshot (records sorted
    /// by mnemonic, variant, uarch).
    #[must_use]
    pub fn export_snapshot(&self) -> Snapshot {
        let mut snapshot = Snapshot::new(self.generator());
        if self.schema_version() != 0 {
            snapshot.schema_version = self.schema_version();
        }
        snapshot.uarches = self.uarch_metas();
        snapshot.records = self.views().map(|v| v.to_variant_record()).collect();
        snapshot.canonicalize();
        snapshot
    }
}
