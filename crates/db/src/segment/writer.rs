//! Building segment images: two string-table builders, one column writer.
//!
//! Both producers — snapshot encoding ([`crate::Segment::encode`]) and
//! incremental merge ([`crate::Segment::merge`], in `merge.rs`) — reduce
//! their input to the same three things before anything is written:
//!
//! * a [`StringTable`] of unique, sorted strings. [`encode_snapshot`]
//!   builds it by sort + dedup of the records' strings; the merge builds
//!   it by k-way merging the symbols its inputs still use out of their
//!   already sorted tables;
//! * one [`RowKeys`] per record: the record's symbols in that table, its
//!   port-mask union and its side-array lengths;
//! * the µarch metadata entries, with symbols.
//!
//! [`ImageWriter::new`] turns those into the whole layout: every section's
//! size is known at that point, so the image is one buffer allocated once,
//! and the string table, key columns, side-array ranges and posting lists
//! are written into it straight away. The producer then hands the
//! numeric payload of each record, in id order, to [`ImageWriter::record`].
//! Merged shards and a single-pass build therefore go through the same
//! emission path and give byte-identical images for identical logical
//! content.
//!
//! Writer invariants (the reader and query planner rely on all of them):
//!
//! * strings are unique and sorted, so symbol order equals string order;
//! * records are deduplicated last-writer-wins by (mnemonic, variant,
//!   uarch) and stored in canonical key order, so record id order equals
//!   canonical name order (`name_rank(id) == id`) and every posting list —
//!   filled in id order — is sorted ascending;
//! * µarch metadata is sorted by (year, name), matching
//!   [`crate::Snapshot::canonicalize`];
//! * sections are emitted in ascending id order, 8-aligned, with zeroed
//!   padding, making the encoding deterministic.

use super::layout::{
    align8, section, FORMAT_VERSION, HEADER_LEN, IDX_ENTRY_LEN, IDX_PORT_ENTRY_LEN,
    LAT_FLAG_LOW_VALUE, LAT_FLAG_SAME_REG, LAT_FLAG_UPPER_BOUND, MAGIC, MAX_SECTION_ID,
    SECTION_ENTRY_LEN, UARCH_META_LEN,
};
use crate::snapshot::{LatencyEdge, Snapshot, UarchMeta, VariantRecord};

/// A string table under construction: strings pushed in ascending order,
/// each once, so a string's push index is its symbol.
#[derive(Debug, Default)]
pub(crate) struct StringTable {
    /// `len() + 1` end offsets into `bytes`, leading with 0.
    offsets: Vec<u32>,
    bytes: Vec<u8>,
}

impl StringTable {
    pub(crate) fn with_capacity(strings: usize, bytes: usize) -> StringTable {
        let mut offsets = Vec::with_capacity(strings + 1);
        offsets.push(0);
        StringTable { offsets, bytes: Vec::with_capacity(bytes) }
    }

    /// Appends the next string; returns its symbol.
    pub(crate) fn push(&mut self, s: &[u8]) -> u32 {
        self.bytes.extend_from_slice(s);
        self.offsets.push(self.bytes.len() as u32);
        (self.offsets.len() - 2) as u32
    }

    pub(crate) fn len(&self) -> usize {
        self.offsets.len() - 1
    }
}

/// What the writer needs of a record before its payload: the symbols of
/// its mnemonic, variant, extension and uarch, the union of its port
/// masks (for the (µarch, port) index) and its side-array lengths.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowKeys {
    pub(crate) mnemonic: u32,
    pub(crate) variant: u32,
    pub(crate) extension: u32,
    pub(crate) uarch: u32,
    pub(crate) port_union: u16,
    pub(crate) ports: u32,
    pub(crate) edges: u32,
}

/// The numeric payload of one record.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Numbers {
    pub(crate) uop_count: u32,
    pub(crate) unattributed: u32,
    pub(crate) tp_measured: f64,
    pub(crate) tp_ports: Option<f64>,
    pub(crate) tp_low_values: Option<f64>,
    pub(crate) tp_breaking: Option<f64>,
}

/// One µarch metadata entry with its strings as symbols.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MetaEntry {
    pub(crate) name: u32,
    pub(crate) processor: u32,
    pub(crate) year: u32,
    pub(crate) ports: u8,
    pub(crate) characterized: u32,
    pub(crate) skipped: u32,
}

impl MetaEntry {
    fn words(&self) -> [u32; 6] {
        [
            self.name,
            self.processor,
            self.year,
            u32::from(self.ports),
            self.characterized,
            self.skipped,
        ]
    }
}

/// Encodes a snapshot as a segment image. Records with duplicate
/// (mnemonic, variant, uarch) keys keep the *last* occurrence, matching
/// [`crate::Snapshot::merge`] replacement semantics.
#[must_use]
pub(crate) fn encode_snapshot(snapshot: &Snapshot) -> Vec<u8> {
    // A stable sort keeps duplicates in input order, so the last of each
    // run of equal keys is the last writer.
    fn key(r: &VariantRecord) -> (&str, &str, &str) {
        (&r.mnemonic, &r.variant, &r.uarch)
    }
    let mut records: Vec<&VariantRecord> = snapshot.records.iter().collect();
    records.sort_by(|a, b| key(a).cmp(&key(b)));
    let records = last_of_each_run(records, |a, b| key(a) == key(b));
    let metas = canonical_metas(snapshot.uarches.iter().collect(), |m| *m);

    let mut all: Vec<&str> = Vec::with_capacity(records.len() * 4 + metas.len() * 2);
    for r in &records {
        all.extend([&*r.mnemonic, &*r.variant, &*r.extension, &*r.uarch]);
    }
    for m in &metas {
        all.extend([&*m.name, &*m.processor]);
    }
    all.sort_unstable();
    all.dedup();
    let mut strings = StringTable::with_capacity(all.len(), all.iter().map(|s| s.len()).sum());
    for s in &all {
        strings.push(s.as_bytes());
    }
    let sym = |s: &str| all.binary_search(&s).expect("every string is in the table") as u32;

    let rows: Vec<RowKeys> = records
        .iter()
        .map(|r| RowKeys {
            mnemonic: sym(&r.mnemonic),
            variant: sym(&r.variant),
            extension: sym(&r.extension),
            uarch: sym(&r.uarch),
            port_union: r.ports.iter().fold(0, |acc, &(mask, _)| acc | mask),
            ports: r.ports.len() as u32,
            edges: r.latency.len() as u32,
        })
        .collect();
    let metas: Vec<MetaEntry> = metas
        .iter()
        .map(|m| MetaEntry {
            name: sym(&m.name),
            processor: sym(&m.processor),
            year: m.year,
            ports: m.ports,
            characterized: m.characterized,
            skipped: m.skipped,
        })
        .collect();

    let mut writer = ImageWriter::new(
        snapshot.generator.as_bytes(),
        snapshot.schema_version,
        &strings,
        &metas,
        rows,
    );
    for r in &records {
        let numbers = Numbers {
            uop_count: r.uop_count,
            unattributed: r.unattributed,
            tp_measured: r.tp_measured,
            tp_ports: r.tp_ports,
            tp_low_values: r.tp_low_values,
            tp_breaking: r.tp_breaking,
        };
        writer.record(&numbers, r.ports.iter().copied(), r.latency.iter().cloned());
    }
    writer.finish()
}

/// Deduplicates µarch metadata by name, the last entry winning, and puts
/// the survivors in canonical (year, name) order.
pub(crate) fn canonical_metas<T: Copy>(
    mut metas: Vec<T>,
    meta: impl Fn(&T) -> &UarchMeta,
) -> Vec<T> {
    metas.sort_by(|a, b| meta(a).name.cmp(&meta(b).name));
    let mut metas = last_of_each_run(metas, |a, b| meta(a).name == meta(b).name);
    metas.sort_unstable_by(|a, b| {
        let (a, b) = (meta(a), meta(b));
        (a.year, &a.name).cmp(&(b.year, &b.name))
    });
    metas
}

/// Keeps the last element of every run of `same` neighbours.
fn last_of_each_run<T: Copy>(items: Vec<T>, same: impl Fn(&T, &T) -> bool) -> Vec<T> {
    let mut kept = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        if items.get(i + 1).is_none_or(|next| !same(item, next)) {
            kept.push(*item);
        }
    }
    kept
}

/// One secondary index: record counts per key slot, from which the key
/// table and the index's run of the flat posting array are laid out.
struct Index {
    /// Records per slot; a slot is a symbol, or `uarch rank * 16 + port`
    /// for the (µarch, port) index.
    counts: Vec<u32>,
    /// Slots holding at least one record — the key-table entries.
    keys: usize,
    /// Where this index's lists start in the flat posting array (in ids).
    base: u32,
}

impl Index {
    fn count(slots: usize, base: u32, ids: impl Iterator<Item = usize>) -> Index {
        let mut counts = vec![0u32; slots];
        for slot in ids {
            counts[slot] += 1;
        }
        let keys = counts.iter().filter(|&&c| c > 0).count();
        Index { counts, keys, base }
    }

    /// Writes the key table (`key_of(slot)`, start, len per used slot, in
    /// slot order) at `table`, and returns each slot's first free
    /// position in the posting array.
    fn write_keys(
        &self,
        out: &mut [u8],
        table: usize,
        wide: bool,
        key_of: impl Fn(usize) -> u64,
    ) -> Vec<u32> {
        let mut next = Vec::with_capacity(self.counts.len());
        let (mut start, mut at) = (self.base, table);
        for (slot, &len) in self.counts.iter().enumerate() {
            next.push(start);
            if len == 0 {
                continue;
            }
            if wide {
                put(out, at, &key_of(slot).to_le_bytes());
                at += 8;
            } else {
                put(out, at, &(key_of(slot) as u32).to_le_bytes());
                at += 4;
            }
            put(out, at, &start.to_le_bytes());
            put(out, at + 4, &len.to_le_bytes());
            at += 8;
            start += len;
        }
        next
    }
}

/// The four secondary indexes. Mnemonic, extension and uarch lists are
/// indexed by symbol; the (µarch, port) lists by the uarch's rank among the
/// used uarch symbols, times 16, plus the port — so slot order is the
/// on-disk key order `(sym << 8) | port`. The flat posting array holds the
/// four runs in that order.
struct Postings {
    mnemonic: Index,
    extension: Index,
    uarch: Index,
    uarch_port: Index,
    /// The uarch symbols that have records, ascending.
    uarch_syms: Vec<u32>,
    /// Rank of each uarch symbol in `uarch_syms`.
    rank: Vec<u32>,
}

impl Postings {
    fn count(rows: &[RowKeys], symbols: usize) -> Postings {
        let n = rows.len() as u32;
        let mnemonic = Index::count(symbols, 0, rows.iter().map(|r| r.mnemonic as usize));
        let extension = Index::count(symbols, n, rows.iter().map(|r| r.extension as usize));
        let uarch = Index::count(symbols, 2 * n, rows.iter().map(|r| r.uarch as usize));
        let uarch_syms: Vec<u32> =
            (0..symbols as u32).filter(|&s| uarch.counts[s as usize] > 0).collect();
        let mut rank = vec![0u32; symbols];
        for (i, &s) in uarch_syms.iter().enumerate() {
            rank[s as usize] = i as u32;
        }
        let port_slots = rows.iter().flat_map(|r| {
            let base = rank[r.uarch as usize] as usize * 16;
            ports(r.port_union).map(move |p| base + p)
        });
        let uarch_port = Index::count(uarch_syms.len() * 16, 3 * n, port_slots);
        Postings { mnemonic, extension, uarch, uarch_port, uarch_syms, rank }
    }

    /// Length of the flat posting array, in ids.
    fn ids(&self) -> usize {
        (self.uarch_port.base + self.uarch_port.counts.iter().sum::<u32>()) as usize
    }

    /// Writes the key tables, then the ids: rows arrive in id order, so
    /// every list fills ascending.
    fn write(&self, out: &mut [u8], at: &[usize], rows: &[RowKeys]) {
        let sym = |s: usize| s as u64;
        let mut next_m =
            self.mnemonic.write_keys(out, at[section::IDX_MNEMONIC as usize], false, sym);
        let mut next_e =
            self.extension.write_keys(out, at[section::IDX_EXTENSION as usize], false, sym);
        let mut next_u = self.uarch.write_keys(out, at[section::IDX_UARCH as usize], false, sym);
        let mut next_up =
            self.uarch_port.write_keys(out, at[section::IDX_UARCH_PORT as usize], true, |slot| {
                (u64::from(self.uarch_syms[slot / 16]) << 8) | (slot % 16) as u64
            });
        let postings_at = at[section::POSTINGS as usize];
        let post = |out: &mut [u8], next: &mut u32, id: usize| {
            put(out, postings_at + *next as usize * 4, &(id as u32).to_le_bytes());
            *next += 1;
        };
        for (id, r) in rows.iter().enumerate() {
            post(out, &mut next_m[r.mnemonic as usize], id);
            post(out, &mut next_e[r.extension as usize], id);
            post(out, &mut next_u[r.uarch as usize], id);
            let base = self.rank[r.uarch as usize] as usize * 16;
            for port in ports(r.port_union) {
                post(out, &mut next_up[base + port], id);
            }
        }
    }
}

/// The ports set in a port mask, ascending.
fn ports(mut mask: u16) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let port = (mask != 0).then(|| mask.trailing_zeros() as usize)?;
        mask &= mask - 1;
        Some(port)
    })
}

fn put(out: &mut [u8], at: usize, bytes: &[u8]) {
    out[at..at + bytes.len()].copy_from_slice(bytes);
}

/// Writes one image into a buffer sized up front: the layout, string
/// table, metadata, key columns, ranges and posting lists in
/// [`ImageWriter::new`], then one [`ImageWriter::record`] per record in id
/// order for the numeric columns and side arrays.
pub(crate) struct ImageWriter {
    out: Vec<u8>,
    /// Byte offset of each section (index = section id).
    at: [usize; MAX_SECTION_ID as usize + 1],
    rows: Vec<RowKeys>,
    row: usize,
    port: usize,
    edge: usize,
}

impl ImageWriter {
    pub(crate) fn new(
        generator: &[u8],
        schema_version: u32,
        strings: &StringTable,
        metas: &[MetaEntry],
        rows: Vec<RowKeys>,
    ) -> ImageWriter {
        let n = rows.len();
        let symbols = strings.len();
        let ports: usize = rows.iter().map(|r| r.ports as usize).sum();
        let edges: usize = rows.iter().map(|r| r.edges as usize).sum();

        let postings = Postings::count(&rows, symbols);
        let mut lens = [0usize; MAX_SECTION_ID as usize + 1];
        for (id, len) in [
            (section::STR_OFFSETS, (symbols + 1) * 4),
            (section::STR_BYTES, strings.bytes.len()),
            (section::GENERATOR, generator.len()),
            (section::UARCH_META, metas.len() * UARCH_META_LEN),
            (section::COL_MNEMONIC, n * 4),
            (section::COL_VARIANT, n * 4),
            (section::COL_EXTENSION, n * 4),
            (section::COL_UARCH, n * 4),
            (section::COL_UOPS, n * 4),
            (section::COL_UNATTRIBUTED, n * 4),
            (section::COL_PORT_UNION, n * 2),
            (section::COL_TP_MEASURED, n * 8),
            (section::COL_TP_PORTS, n * 8),
            (section::BITS_TP_PORTS, n.div_ceil(8)),
            (section::COL_TP_LOW, n * 8),
            (section::BITS_TP_LOW, n.div_ceil(8)),
            (section::COL_TP_BREAKING, n * 8),
            (section::BITS_TP_BREAKING, n.div_ceil(8)),
            (section::COL_MAX_LATENCY, n * 8),
            (section::BITS_MAX_LATENCY, n.div_ceil(8)),
            (section::PORTS_RANGE, (n + 1) * 4),
            (section::PORTS_MASK, ports * 2),
            (section::PORTS_UOPS, ports * 4),
            (section::LAT_RANGE, (n + 1) * 4),
            (section::LAT_SOURCE, edges * 4),
            (section::LAT_TARGET, edges * 4),
            (section::LAT_CYCLES, edges * 8),
            (section::LAT_FLAGS, edges),
            (section::LAT_SAME_REG, edges * 8),
            (section::LAT_LOW_VALUE, edges * 8),
            (section::IDX_MNEMONIC, postings.mnemonic.keys * IDX_ENTRY_LEN),
            (section::IDX_EXTENSION, postings.extension.keys * IDX_ENTRY_LEN),
            (section::IDX_UARCH, postings.uarch.keys * IDX_ENTRY_LEN),
            (section::IDX_UARCH_PORT, postings.uarch_port.keys * IDX_PORT_ENTRY_LEN),
            (section::POSTINGS, postings.ids() * 4),
        ] {
            lens[id as usize] = len;
        }

        // Header, section table, then each section 8-aligned in id order.
        let sections = MAX_SECTION_ID as usize;
        let mut at = [0usize; MAX_SECTION_ID as usize + 1];
        let mut end = align8(HEADER_LEN + sections * SECTION_ENTRY_LEN);
        for id in 1..=sections {
            at[id] = end;
            end = align8(end + lens[id]);
        }
        let mut out = vec![0u8; end];
        put(&mut out, 0, &MAGIC);
        for (i, v) in [FORMAT_VERSION, schema_version, sections as u32, n as u32, symbols as u32, 0]
            .into_iter()
            .enumerate()
        {
            put(&mut out, MAGIC.len() + i * 4, &v.to_le_bytes());
        }
        for id in 1..=sections {
            let entry = HEADER_LEN + (id - 1) * SECTION_ENTRY_LEN;
            put(&mut out, entry, &(id as u32).to_le_bytes());
            put(&mut out, entry + 8, &(at[id] as u64).to_le_bytes());
            put(&mut out, entry + 16, &(lens[id] as u64).to_le_bytes());
        }

        let sect = |id: u32| at[id as usize];
        for (i, offset) in strings.offsets.iter().enumerate() {
            put(&mut out, sect(section::STR_OFFSETS) + i * 4, &offset.to_le_bytes());
        }
        put(&mut out, sect(section::STR_BYTES), &strings.bytes);
        put(&mut out, sect(section::GENERATOR), generator);
        for (i, meta) in metas.iter().enumerate() {
            for (k, v) in meta.words().into_iter().enumerate() {
                put(
                    &mut out,
                    sect(section::UARCH_META) + i * UARCH_META_LEN + k * 4,
                    &v.to_le_bytes(),
                );
            }
        }

        let (mut ports_end, mut edges_end) = (0u32, 0u32);
        for (id, r) in rows.iter().enumerate() {
            for (col, v) in [
                (section::COL_MNEMONIC, r.mnemonic),
                (section::COL_VARIANT, r.variant),
                (section::COL_EXTENSION, r.extension),
                (section::COL_UARCH, r.uarch),
            ] {
                put(&mut out, sect(col) + id * 4, &v.to_le_bytes());
            }
            put(&mut out, sect(section::COL_PORT_UNION) + id * 2, &r.port_union.to_le_bytes());
            ports_end += r.ports;
            edges_end += r.edges;
            put(&mut out, sect(section::PORTS_RANGE) + (id + 1) * 4, &ports_end.to_le_bytes());
            put(&mut out, sect(section::LAT_RANGE) + (id + 1) * 4, &edges_end.to_le_bytes());
        }

        postings.write(&mut out, &at, &rows);

        ImageWriter { out, at, rows, row: 0, port: 0, edge: 0 }
    }

    fn sect(&self, id: u32) -> usize {
        self.at[id as usize]
    }

    fn put_opt_f64(&mut self, col: u32, bits: u32, v: Option<f64>) {
        let (id, col, bits) = (self.row, self.sect(col), self.sect(bits));
        put(&mut self.out, col + id * 8, &v.unwrap_or(0.0).to_le_bytes());
        if v.is_some() {
            self.out[bits + id / 8] |= 1 << (id % 8);
        }
    }

    /// Writes the next record's numeric columns, port entries and latency
    /// edges. `ports` and `edges` must yield exactly as many items as its
    /// [`RowKeys`] declared.
    pub(crate) fn record(
        &mut self,
        numbers: &Numbers,
        ports: impl Iterator<Item = (u16, u32)>,
        edges: impl Iterator<Item = LatencyEdge>,
    ) {
        let (id, keys, at) = (self.row, self.rows[self.row], self.at);
        let sect = |id: u32| at[id as usize];
        let out = &mut self.out;
        put(out, sect(section::COL_UOPS) + id * 4, &numbers.uop_count.to_le_bytes());
        put(out, sect(section::COL_UNATTRIBUTED) + id * 4, &numbers.unattributed.to_le_bytes());
        put(out, sect(section::COL_TP_MEASURED) + id * 8, &numbers.tp_measured.to_le_bytes());
        self.put_opt_f64(section::COL_TP_PORTS, section::BITS_TP_PORTS, numbers.tp_ports);
        self.put_opt_f64(section::COL_TP_LOW, section::BITS_TP_LOW, numbers.tp_low_values);
        self.put_opt_f64(section::COL_TP_BREAKING, section::BITS_TP_BREAKING, numbers.tp_breaking);

        let out = &mut self.out;
        let first_port = self.port;
        for (mask, uops) in ports {
            let p = self.port;
            put(out, sect(section::PORTS_MASK) + p * 2, &mask.to_le_bytes());
            put(out, sect(section::PORTS_UOPS) + p * 4, &uops.to_le_bytes());
            self.port += 1;
        }
        assert_eq!(self.port - first_port, keys.ports as usize, "record {id}: port entry count");

        let first_edge = self.edge;
        let mut max_latency: Option<f64> = None;
        for edge in edges {
            let e = self.edge;
            max_latency = Some(match max_latency {
                Some(acc) if acc >= edge.cycles => acc,
                _ => edge.cycles,
            });
            let mut flags = 0u8;
            if edge.upper_bound {
                flags |= LAT_FLAG_UPPER_BOUND;
            }
            if edge.same_reg_cycles.is_some() {
                flags |= LAT_FLAG_SAME_REG;
            }
            if edge.low_value_cycles.is_some() {
                flags |= LAT_FLAG_LOW_VALUE;
            }
            put(out, sect(section::LAT_SOURCE) + e * 4, &edge.source.to_le_bytes());
            put(out, sect(section::LAT_TARGET) + e * 4, &edge.target.to_le_bytes());
            put(out, sect(section::LAT_CYCLES) + e * 8, &edge.cycles.to_le_bytes());
            out[sect(section::LAT_FLAGS) + e] = flags;
            let same_reg = edge.same_reg_cycles.unwrap_or(0.0);
            put(out, sect(section::LAT_SAME_REG) + e * 8, &same_reg.to_le_bytes());
            let low_value = edge.low_value_cycles.unwrap_or(0.0);
            put(out, sect(section::LAT_LOW_VALUE) + e * 8, &low_value.to_le_bytes());
            self.edge += 1;
        }
        assert_eq!(self.edge - first_edge, keys.edges as usize, "record {id}: latency edge count");
        self.put_opt_f64(section::COL_MAX_LATENCY, section::BITS_MAX_LATENCY, max_latency);
        self.row += 1;
    }

    /// The finished image. Every record must have been written.
    pub(crate) fn finish(self) -> Vec<u8> {
        assert_eq!(self.row, self.rows.len(), "every record is written");
        self.out
    }
}
