//! The versioned snapshot model: the canonical serialized representation of
//! a set of instruction characterizations across microarchitectures.
//!
//! A [`Snapshot`] is what the characterization pipeline exports and what the
//! database ingests. Its one lossless, read-back encoding is the compact
//! binary format ([`crate::codec`]), which is forward-compatible: the decoder
//! skips fields it does not know, so snapshots written by newer tools remain
//! readable. JSON ([`crate::json`]) and XML ([`crate::xml`]) are export-only
//! views of the same tree.

use std::fmt::Write as _;

/// The schema version written by this library. Bump on breaking layout
/// changes; additive fields do *not* require a bump (decoders skip unknown
/// fields).
pub const SCHEMA_VERSION: u32 = 1;

/// A self-contained, versioned set of characterization results.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Schema version of the producer (see [`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Free-form producer string, e.g. `"uops-info 0.1"`.
    pub generator: String,
    /// Metadata for each microarchitecture contributing records.
    pub uarches: Vec<UarchMeta>,
    /// One record per (instruction variant, microarchitecture) pair.
    pub records: Vec<VariantRecord>,
}

/// Metadata about one characterized microarchitecture.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UarchMeta {
    /// Canonical name, e.g. `"Skylake"`.
    pub name: String,
    /// The processor the data was measured on, e.g. `"Core i7-6500U"`.
    pub processor: String,
    /// Release year of the generation.
    pub year: u32,
    /// Number of execution ports.
    pub ports: u8,
    /// Number of successfully characterized variants.
    pub characterized: u32,
    /// Number of skipped variants.
    pub skipped: u32,
}

/// One measured latency value between a source and a destination operand.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LatencyEdge {
    /// Index of the source operand.
    pub source: u32,
    /// Index of the destination operand.
    pub target: u32,
    /// Latency in cycles.
    pub cycles: f64,
    /// `true` if the value is only an upper bound.
    pub upper_bound: bool,
    /// Latency when source and destination use the same register, if it
    /// differs (e.g. SHLD, §7.3.2).
    pub same_reg_cycles: Option<f64>,
    /// Latency with low-latency divider operand values, if applicable.
    pub low_value_cycles: Option<f64>,
}

/// The characterization of one instruction variant on one microarchitecture.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct VariantRecord {
    /// Mnemonic, e.g. `"ADD"`.
    pub mnemonic: String,
    /// Variant string (explicit operand types), e.g. `"R64, R64"`.
    pub variant: String,
    /// ISA extension, e.g. `"AVX2"`.
    pub extension: String,
    /// Microarchitecture name; must match a [`UarchMeta::name`].
    pub uarch: String,
    /// Number of µops.
    pub uop_count: u32,
    /// Port usage: `(port bitmask, µops on exactly those ports)`, sorted by
    /// mask. Bit `i` of the mask means port `i`.
    pub ports: Vec<(u16, u32)>,
    /// µops that could not be attributed to a port combination.
    pub unattributed: u32,
    /// Measured throughput (cycles per instruction).
    pub tp_measured: f64,
    /// Throughput computed from the port usage, if available.
    pub tp_ports: Option<f64>,
    /// Measured throughput with low-latency divider values, if applicable.
    pub tp_low_values: Option<f64>,
    /// Measured throughput with dependency-breaking instructions inserted
    /// for implicit read-write operands, if applicable.
    pub tp_breaking: Option<f64>,
    /// Per-operand-pair latencies.
    pub latency: Vec<LatencyEdge>,
}

impl Snapshot {
    /// Creates an empty snapshot with the current schema version.
    #[must_use]
    pub fn new(generator: impl Into<String>) -> Snapshot {
        Snapshot {
            schema_version: SCHEMA_VERSION,
            generator: generator.into(),
            uarches: Vec::new(),
            records: Vec::new(),
        }
    }

    /// Adds (or replaces) the metadata for one microarchitecture.
    pub fn upsert_uarch(&mut self, meta: UarchMeta) {
        match self.uarches.iter_mut().find(|m| m.name == meta.name) {
            Some(existing) => *existing = meta,
            None => self.uarches.push(meta),
        }
    }

    /// Appends the records and uarch metadata of `other` to this snapshot.
    /// Records for the same (mnemonic, variant, uarch) key in `other`
    /// replace existing ones. Runs in linear time in the total record count.
    pub fn merge(&mut self, other: Snapshot) {
        for meta in other.uarches {
            self.upsert_uarch(meta);
        }
        let mut index: std::collections::HashMap<(String, String, String), usize> = self
            .records
            .iter()
            .enumerate()
            .map(|(i, r)| ((r.mnemonic.clone(), r.variant.clone(), r.uarch.clone()), i))
            .collect();
        for record in other.records {
            let key = (record.mnemonic.clone(), record.variant.clone(), record.uarch.clone());
            match index.entry(key) {
                std::collections::hash_map::Entry::Occupied(slot) => {
                    self.records[*slot.get()] = record;
                }
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(self.records.len());
                    self.records.push(record);
                }
            }
        }
    }

    /// Sorts records and uarches into the canonical order (by mnemonic,
    /// variant, then uarch), making the encoded form deterministic
    /// regardless of ingestion order.
    pub fn canonicalize(&mut self) {
        self.uarches.sort_by(|a, b| a.year.cmp(&b.year).then_with(|| a.name.cmp(&b.name)));
        self.records.sort_by(|a, b| {
            (&a.mnemonic, &a.variant, &a.uarch).cmp(&(&b.mnemonic, &b.variant, &b.uarch))
        });
    }

    /// Approximate number of heap-plus-inline bytes this decoded snapshot
    /// occupies: struct footprints plus owned string and vector payloads.
    /// This is what a TLV `decode` materializes before the first query can
    /// run — the segment format exists to avoid exactly this cost, so
    /// tools report the two side by side.
    #[must_use]
    pub fn approx_heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut bytes = size_of::<Snapshot>() + self.generator.len();
        for meta in &self.uarches {
            bytes += size_of::<UarchMeta>() + meta.name.len() + meta.processor.len();
        }
        for r in &self.records {
            bytes += size_of::<VariantRecord>()
                + r.mnemonic.len()
                + r.variant.len()
                + r.extension.len()
                + r.uarch.len()
                + r.ports.len() * size_of::<(u16, u32)>()
                + r.latency.len() * size_of::<LatencyEdge>();
        }
        bytes
    }

    /// Number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if the snapshot holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

impl VariantRecord {
    /// The paper's port-usage notation, e.g. `"1*p0156+1*p06"`.
    #[must_use]
    pub fn ports_notation(&self) -> String {
        ports_to_notation(&self.ports, self.unattributed)
    }

    /// The classical single latency value: the maximum over operand pairs.
    #[must_use]
    pub fn max_latency(&self) -> Option<f64> {
        self.latency.iter().map(|e| e.cycles).fold(None, |acc, c| match acc {
            Some(a) if a >= c => Some(a),
            _ => Some(c),
        })
    }
}

/// Formats `(mask, µops)` pairs in the paper's notation (`"2*p05"`). An
/// empty usage formats as `"0"`.
#[must_use]
pub fn ports_to_notation(ports: &[(u16, u32)], unattributed: u32) -> String {
    let mut out = String::new();
    if ports.is_empty() {
        out.push('0');
    } else {
        for (i, (mask, uops)) in ports.iter().enumerate() {
            if i > 0 {
                out.push('+');
            }
            let _ = write!(out, "{uops}*p");
            for port in 0..16u32 {
                if mask & (1 << port) != 0 {
                    // Ports 10–15 are written as the hex digits A–F so that
                    // the per-port encoding stays one character and the
                    // notation stays unambiguous (the paper's uarches only
                    // reach port 9, so their output is unchanged).
                    out.push(char::from_digit(port, 16).expect("port < 16").to_ascii_uppercase());
                }
            }
        }
    }
    if unattributed > 0 {
        let _ = write!(out, " (+{unattributed} unattributed)");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(mnemonic: &str, variant: &str, uarch: &str) -> VariantRecord {
        VariantRecord {
            mnemonic: mnemonic.into(),
            variant: variant.into(),
            extension: "BASE".into(),
            uarch: uarch.into(),
            uop_count: 1,
            ports: vec![(0b0110_0011, 1)],
            tp_measured: 0.25,
            ..Default::default()
        }
    }

    #[test]
    fn notation_known_answers() {
        assert_eq!(ports_to_notation(&[(0b0000_0011, 1), (0b0010_0000, 2)], 0), "1*p01+2*p5");
        assert_eq!(ports_to_notation(&[], 0), "0");
        assert_eq!(ports_to_notation(&[], 3), "0 (+3 unattributed)");
        assert_eq!(ports_to_notation(&[(0b1, 1)], 2), "1*p0 (+2 unattributed)");
    }

    #[test]
    fn notation_high_ports_are_hex_digits() {
        // Ports 10–15 use hex digits so each port stays one character for
        // the full u16 mask (a future uarch with more than 10 ports).
        assert_eq!(
            ports_to_notation(&[(1 << 9 | 1 << 11, 3), (1 << 10 | 1 << 15, 1)], 0),
            "3*p9B+1*pAF"
        );
        assert_eq!(ports_to_notation(&[(0xfc00, 1)], 0), "1*pABCDEF");
    }

    #[test]
    fn merge_replaces_matching_records() {
        let mut a = Snapshot::new("test");
        a.records.push(record("ADD", "R64, R64", "Skylake"));
        let mut b = Snapshot::new("test");
        let mut updated = record("ADD", "R64, R64", "Skylake");
        updated.uop_count = 2;
        b.records.push(updated);
        b.records.push(record("SUB", "R64, R64", "Skylake"));
        a.merge(b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.records[0].uop_count, 2);
    }

    #[test]
    fn canonicalize_orders_records() {
        let mut s = Snapshot::new("test");
        s.records.push(record("SUB", "R64, R64", "Skylake"));
        s.records.push(record("ADD", "R64, R64", "Skylake"));
        s.records.push(record("ADD", "R64, R64", "Haswell"));
        s.canonicalize();
        let keys: Vec<_> =
            s.records.iter().map(|r| (r.mnemonic.as_str(), r.uarch.as_str())).collect();
        assert_eq!(keys, vec![("ADD", "Haswell"), ("ADD", "Skylake"), ("SUB", "Skylake")]);
    }

    #[test]
    fn max_latency_over_edges() {
        let mut r = record("ADD", "R64, R64", "Skylake");
        assert_eq!(r.max_latency(), None);
        r.latency.push(LatencyEdge { source: 0, target: 1, cycles: 1.0, ..Default::default() });
        r.latency.push(LatencyEdge { source: 1, target: 1, cycles: 3.0, ..Default::default() });
        assert_eq!(r.max_latency(), Some(3.0));
    }
}
