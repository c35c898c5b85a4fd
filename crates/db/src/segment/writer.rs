//! Building segment images.
//!
//! The writer is shared by the two producers — snapshot encoding
//! ([`crate::Segment::encode`]) and incremental merge
//! ([`crate::Segment::merge`]) — via the [`SourceRecord`] abstraction, so
//! merged shards go through exactly the same emission path as a single-pass
//! build and produce byte-identical images for identical logical content.
//!
//! Writer invariants (the reader and query planner rely on all of them):
//!
//! * strings are unique and sorted, so symbol order equals string order;
//! * records are deduplicated last-writer-wins by (mnemonic, variant,
//!   uarch) and stored in canonical key order, so record id order equals
//!   canonical name order (`name_rank(id) == id`) and every posting list —
//!   emitted in id order — is sorted ascending;
//! * µarch metadata is sorted by (year, name), matching
//!   [`crate::Snapshot::canonicalize`];
//! * sections are emitted in ascending id order, 8-aligned, with zeroed
//!   padding, making the encoding deterministic.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use super::layout::{
    align8, section, HEADER_LEN, LAT_FLAG_LOW_VALUE, LAT_FLAG_SAME_REG, LAT_FLAG_UPPER_BOUND,
    MAGIC, SECTION_ENTRY_LEN,
};
use crate::snapshot::{LatencyEdge, Snapshot, UarchMeta, VariantRecord};

/// Field access for one record being written, regardless of where it
/// currently lives (a [`VariantRecord`] or another segment).
pub(crate) trait SourceRecord {
    fn mnemonic(&self) -> &str;
    fn variant(&self) -> &str;
    fn uarch(&self) -> &str;
    fn extension(&self) -> &str;
    fn uop_count(&self) -> u32;
    fn unattributed(&self) -> u32;
    fn tp_measured(&self) -> f64;
    fn tp_ports(&self) -> Option<f64>;
    fn tp_low_values(&self) -> Option<f64>;
    fn tp_breaking(&self) -> Option<f64>;
    fn ports_len(&self) -> usize;
    fn port_entry(&self, i: usize) -> (u16, u32);
    fn latency_len(&self) -> usize;
    fn latency_edge(&self, i: usize) -> LatencyEdge;
}

impl SourceRecord for &VariantRecord {
    fn mnemonic(&self) -> &str {
        &self.mnemonic
    }
    fn variant(&self) -> &str {
        &self.variant
    }
    fn uarch(&self) -> &str {
        &self.uarch
    }
    fn extension(&self) -> &str {
        &self.extension
    }
    fn uop_count(&self) -> u32 {
        self.uop_count
    }
    fn unattributed(&self) -> u32 {
        self.unattributed
    }
    fn tp_measured(&self) -> f64 {
        self.tp_measured
    }
    fn tp_ports(&self) -> Option<f64> {
        self.tp_ports
    }
    fn tp_low_values(&self) -> Option<f64> {
        self.tp_low_values
    }
    fn tp_breaking(&self) -> Option<f64> {
        self.tp_breaking
    }
    fn ports_len(&self) -> usize {
        self.ports.len()
    }
    fn port_entry(&self, i: usize) -> (u16, u32) {
        self.ports[i]
    }
    fn latency_len(&self) -> usize {
        self.latency.len()
    }
    fn latency_edge(&self, i: usize) -> LatencyEdge {
        self.latency[i].clone()
    }
}

/// Encodes a snapshot as a segment image. Records with duplicate
/// (mnemonic, variant, uarch) keys keep the *last* occurrence, matching
/// [`crate::Snapshot::merge`] replacement semantics.
#[must_use]
pub(crate) fn encode_snapshot(snapshot: &Snapshot) -> Vec<u8> {
    // Last-writer-wins dedup, then canonical (mnemonic, variant, uarch)
    // order.
    let mut by_key: HashMap<(&str, &str, &str), &VariantRecord> = HashMap::new();
    for record in &snapshot.records {
        by_key.insert((&record.mnemonic, &record.variant, &record.uarch), record);
    }
    let mut records: Vec<&VariantRecord> = by_key.into_values().collect();
    records.sort_unstable_by_key(|r| (&r.mnemonic, &r.variant, &r.uarch));
    emit(&snapshot.generator, snapshot.schema_version, &snapshot.uarches, &records)
}

/// Emits a segment image from deduplicated records already in canonical
/// (mnemonic, variant, uarch) order.
pub(crate) fn emit<R: SourceRecord>(
    generator: &str,
    schema_version: u32,
    uarches: &[UarchMeta],
    records: &[R],
) -> Vec<u8> {
    // ---- string table: unique + sorted, so sym order == string order ----
    let mut strings: BTreeSet<&str> = BTreeSet::new();
    for r in records {
        strings.insert(r.mnemonic());
        strings.insert(r.variant());
        strings.insert(r.extension());
        strings.insert(r.uarch());
    }
    // Deduplicate metadata by name (last wins), then canonical order.
    let mut meta_by_name: HashMap<&str, &UarchMeta> = HashMap::new();
    for meta in uarches {
        meta_by_name.insert(&meta.name, meta);
    }
    let mut metas: Vec<&UarchMeta> = meta_by_name.into_values().collect();
    metas.sort_unstable_by_key(|m| (m.year, &m.name));
    for meta in &metas {
        strings.insert(&meta.name);
        strings.insert(&meta.processor);
    }
    let ordered: Vec<&str> = strings.into_iter().collect();
    let sym_of: HashMap<&str, u32> =
        ordered.iter().enumerate().map(|(i, &s)| (s, i as u32)).collect();
    let sym = |s: &str| sym_of[s];

    let mut str_offsets = Vec::with_capacity((ordered.len() + 1) * 4);
    let mut str_bytes = Vec::new();
    str_offsets.extend_from_slice(&0u32.to_le_bytes());
    for s in &ordered {
        str_bytes.extend_from_slice(s.as_bytes());
        str_offsets.extend_from_slice(&(str_bytes.len() as u32).to_le_bytes());
    }

    // ---- µarch metadata ----
    let mut uarch_meta = Vec::with_capacity(metas.len() * 24);
    for meta in &metas {
        for v in [
            sym(&meta.name),
            sym(&meta.processor),
            meta.year,
            u32::from(meta.ports),
            meta.characterized,
            meta.skipped,
        ] {
            uarch_meta.extend_from_slice(&v.to_le_bytes());
        }
    }

    // ---- columnar record arrays + side arrays + posting lists ----
    let n = records.len();
    let mut col = Columns::with_capacity(n);
    let mut postings = Postings::default();
    for (id, r) in records.iter().enumerate() {
        let id = id as u32;
        let (m, v, u) = (sym(r.mnemonic()), sym(r.variant()), sym(r.uarch()));
        let e = sym(r.extension());
        col.push_u32(Col::Mnemonic, m);
        col.push_u32(Col::Variant, v);
        col.push_u32(Col::Extension, e);
        col.push_u32(Col::Uarch, u);
        col.push_u32(Col::Uops, r.uop_count());
        col.push_u32(Col::Unattributed, r.unattributed());
        col.push_f64(Col::TpMeasured, r.tp_measured());
        col.push_opt_f64(Col::TpPorts, id, r.tp_ports());
        col.push_opt_f64(Col::TpLow, id, r.tp_low_values());
        col.push_opt_f64(Col::TpBreaking, id, r.tp_breaking());

        let mut union = 0u16;
        for i in 0..r.ports_len() {
            let (mask, uops) = r.port_entry(i);
            union |= mask;
            col.ports_mask.extend_from_slice(&mask.to_le_bytes());
            col.ports_uops.extend_from_slice(&uops.to_le_bytes());
            col.ports_total += 1;
        }
        col.port_union.extend_from_slice(&union.to_le_bytes());
        col.ports_range.extend_from_slice(&col.ports_total.to_le_bytes());

        let mut max_latency: Option<f64> = None;
        for i in 0..r.latency_len() {
            let edge = r.latency_edge(i);
            max_latency = Some(match max_latency {
                Some(acc) if acc >= edge.cycles => acc,
                _ => edge.cycles,
            });
            col.lat_source.extend_from_slice(&edge.source.to_le_bytes());
            col.lat_target.extend_from_slice(&edge.target.to_le_bytes());
            col.lat_cycles.extend_from_slice(&edge.cycles.to_le_bytes());
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
            col.lat_flags.push(flags);
            col.lat_same_reg.extend_from_slice(&edge.same_reg_cycles.unwrap_or(0.0).to_le_bytes());
            col.lat_low_value
                .extend_from_slice(&edge.low_value_cycles.unwrap_or(0.0).to_le_bytes());
            col.lat_total += 1;
        }
        col.push_opt_f64(Col::MaxLatency, id, max_latency);
        col.lat_range.extend_from_slice(&col.lat_total.to_le_bytes());

        postings.mnemonic.entry(m).or_default().push(id);
        postings.extension.entry(e).or_default().push(id);
        postings.uarch.entry(u).or_default().push(id);
        for port in 0..16u16 {
            if union & (1 << port) != 0 {
                postings
                    .uarch_port
                    .entry((u64::from(u) << 8) | u64::from(port))
                    .or_default()
                    .push(id);
            }
        }
    }

    // ---- posting-list serialization: keys sorted, ids ascending ----
    let mut flat = Vec::new();
    let mut serialize_u32_keys = |lists: &BTreeMap<u32, Vec<u32>>| -> Vec<u8> {
        let mut table = Vec::with_capacity(lists.len() * 12);
        for (&key, ids) in lists {
            table.extend_from_slice(&key.to_le_bytes());
            table.extend_from_slice(&((flat.len() / 4) as u32).to_le_bytes());
            table.extend_from_slice(&(ids.len() as u32).to_le_bytes());
            for &id in ids {
                flat.extend_from_slice(&id.to_le_bytes());
            }
        }
        table
    };
    let idx_mnemonic = serialize_u32_keys(&postings.mnemonic);
    let idx_extension = serialize_u32_keys(&postings.extension);
    let idx_uarch = serialize_u32_keys(&postings.uarch);
    let mut idx_uarch_port = Vec::with_capacity(postings.uarch_port.len() * 16);
    for (&key, ids) in &postings.uarch_port {
        idx_uarch_port.extend_from_slice(&key.to_le_bytes());
        idx_uarch_port.extend_from_slice(&((flat.len() / 4) as u32).to_le_bytes());
        idx_uarch_port.extend_from_slice(&(ids.len() as u32).to_le_bytes());
        for &id in ids {
            flat.extend_from_slice(&id.to_le_bytes());
        }
    }

    // ---- assemble: header, section table, 8-aligned sections ----
    let sections: Vec<(u32, Vec<u8>)> = vec![
        (section::STR_OFFSETS, str_offsets),
        (section::STR_BYTES, str_bytes),
        (section::GENERATOR, generator.as_bytes().to_vec()),
        (section::UARCH_META, uarch_meta),
        (section::COL_MNEMONIC, col.take(Col::Mnemonic)),
        (section::COL_VARIANT, col.take(Col::Variant)),
        (section::COL_EXTENSION, col.take(Col::Extension)),
        (section::COL_UARCH, col.take(Col::Uarch)),
        (section::COL_UOPS, col.take(Col::Uops)),
        (section::COL_UNATTRIBUTED, col.take(Col::Unattributed)),
        (section::COL_PORT_UNION, std::mem::take(&mut col.port_union)),
        (section::COL_TP_MEASURED, col.take(Col::TpMeasured)),
        (section::COL_TP_PORTS, col.take(Col::TpPorts)),
        (section::BITS_TP_PORTS, col.take_bits(Col::TpPorts)),
        (section::COL_TP_LOW, col.take(Col::TpLow)),
        (section::BITS_TP_LOW, col.take_bits(Col::TpLow)),
        (section::COL_TP_BREAKING, col.take(Col::TpBreaking)),
        (section::BITS_TP_BREAKING, col.take_bits(Col::TpBreaking)),
        (section::COL_MAX_LATENCY, col.take(Col::MaxLatency)),
        (section::BITS_MAX_LATENCY, col.take_bits(Col::MaxLatency)),
        (section::PORTS_RANGE, std::mem::take(&mut col.ports_range)),
        (section::PORTS_MASK, std::mem::take(&mut col.ports_mask)),
        (section::PORTS_UOPS, std::mem::take(&mut col.ports_uops)),
        (section::LAT_RANGE, std::mem::take(&mut col.lat_range)),
        (section::LAT_SOURCE, std::mem::take(&mut col.lat_source)),
        (section::LAT_TARGET, std::mem::take(&mut col.lat_target)),
        (section::LAT_CYCLES, std::mem::take(&mut col.lat_cycles)),
        (section::LAT_FLAGS, std::mem::take(&mut col.lat_flags)),
        (section::LAT_SAME_REG, std::mem::take(&mut col.lat_same_reg)),
        (section::LAT_LOW_VALUE, std::mem::take(&mut col.lat_low_value)),
        (section::IDX_MNEMONIC, idx_mnemonic),
        (section::IDX_EXTENSION, idx_extension),
        (section::IDX_UARCH, idx_uarch),
        (section::IDX_UARCH_PORT, idx_uarch_port),
        (section::POSTINGS, flat),
    ];

    let table_end = HEADER_LEN + sections.len() * SECTION_ENTRY_LEN;
    let mut out = Vec::with_capacity(
        align8(table_end) + sections.iter().map(|(_, b)| align8(b.len())).sum::<usize>(),
    );
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&super::layout::FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&schema_version.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    out.extend_from_slice(&(n as u32).to_le_bytes());
    out.extend_from_slice(&(ordered.len() as u32).to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    // Section table with placeholder offsets, patched after placement.
    let mut offset = align8(table_end);
    for (id, bytes) in &sections {
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&(offset as u64).to_le_bytes());
        out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        offset = align8(offset + bytes.len());
    }
    out.resize(align8(table_end), 0);
    for (_, bytes) in &sections {
        out.extend_from_slice(bytes);
        out.resize(align8(out.len()), 0);
    }
    out
}

/// Per-record optional/required column identifiers within [`Columns`].
#[derive(Clone, Copy)]
enum Col {
    Mnemonic,
    Variant,
    Extension,
    Uarch,
    Uops,
    Unattributed,
    TpMeasured,
    TpPorts,
    TpLow,
    TpBreaking,
    MaxLatency,
}

/// Accumulators for every per-record column and side array.
#[derive(Default)]
struct Columns {
    u32s: [Vec<u8>; 6],
    f64s: [Vec<u8>; 5],
    bits: [Vec<u8>; 4],
    port_union: Vec<u8>,
    ports_range: Vec<u8>,
    ports_mask: Vec<u8>,
    ports_uops: Vec<u8>,
    ports_total: u32,
    lat_range: Vec<u8>,
    lat_source: Vec<u8>,
    lat_target: Vec<u8>,
    lat_cycles: Vec<u8>,
    lat_flags: Vec<u8>,
    lat_same_reg: Vec<u8>,
    lat_low_value: Vec<u8>,
    lat_total: u32,
}

impl Columns {
    fn with_capacity(n: usize) -> Columns {
        let mut col = Columns::default();
        for buf in &mut col.u32s {
            buf.reserve(n * 4);
        }
        for buf in &mut col.f64s {
            buf.reserve(n * 8);
        }
        for buf in &mut col.bits {
            buf.resize(n.div_ceil(8), 0);
        }
        col.port_union.reserve(n * 2);
        // Prefix-sum arrays lead with the initial 0.
        col.ports_range.extend_from_slice(&0u32.to_le_bytes());
        col.lat_range.extend_from_slice(&0u32.to_le_bytes());
        col
    }

    fn u32_slot(col: Col) -> usize {
        match col {
            Col::Mnemonic => 0,
            Col::Variant => 1,
            Col::Extension => 2,
            Col::Uarch => 3,
            Col::Uops => 4,
            Col::Unattributed => 5,
            _ => unreachable!("not a u32 column"),
        }
    }

    fn f64_slot(col: Col) -> usize {
        match col {
            Col::TpMeasured => 0,
            Col::TpPorts => 1,
            Col::TpLow => 2,
            Col::TpBreaking => 3,
            Col::MaxLatency => 4,
            _ => unreachable!("not an f64 column"),
        }
    }

    fn bits_slot(col: Col) -> usize {
        Columns::f64_slot(col) - 1
    }

    fn push_u32(&mut self, col: Col, v: u32) {
        self.u32s[Columns::u32_slot(col)].extend_from_slice(&v.to_le_bytes());
    }

    fn push_f64(&mut self, col: Col, v: f64) {
        self.f64s[Columns::f64_slot(col)].extend_from_slice(&v.to_le_bytes());
    }

    fn push_opt_f64(&mut self, col: Col, id: u32, v: Option<f64>) {
        self.push_f64(col, v.unwrap_or(0.0));
        if v.is_some() {
            self.bits[Columns::bits_slot(col)][id as usize / 8] |= 1 << (id % 8);
        }
    }

    fn take(&mut self, col: Col) -> Vec<u8> {
        match col {
            Col::Mnemonic
            | Col::Variant
            | Col::Extension
            | Col::Uarch
            | Col::Uops
            | Col::Unattributed => std::mem::take(&mut self.u32s[Columns::u32_slot(col)]),
            _ => std::mem::take(&mut self.f64s[Columns::f64_slot(col)]),
        }
    }

    fn take_bits(&mut self, col: Col) -> Vec<u8> {
        std::mem::take(&mut self.bits[Columns::bits_slot(col)])
    }
}

/// Posting-list accumulators, keyed so BTreeMap iteration order matches the
/// on-disk sorted key order.
#[derive(Default)]
struct Postings {
    mnemonic: BTreeMap<u32, Vec<u32>>,
    extension: BTreeMap<u32, Vec<u32>>,
    uarch: BTreeMap<u32, Vec<u32>>,
    uarch_port: BTreeMap<u64, Vec<u32>>,
}
