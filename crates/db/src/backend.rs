//! Borrowed record access over the zero-copy segment reader
//! ([`crate::SegmentDb`]).
//!
//! [`RecordView`] is one record with its strings resolved, [`Views`]
//! iterates over all of them in id order, and [`IdList`] is one sorted
//! posting list read in place. The query engine ([`crate::Query`],
//! [`crate::QueryExec`]), the result encoders, and the cross-µarch diff
//! ([`crate::diff_uarches`]) all speak these types; none of them
//! materializes a record unless asked to.

use crate::segment::SegmentDb;
use crate::snapshot::{ports_to_notation, LatencyEdge, VariantRecord};

/// A sorted (ascending) list of record ids backing one posting list: the
/// little-endian `u32`s of a segment's posting array, read in place. It
/// supports O(1) indexed access, which is all the galloping intersection
/// needs.
#[derive(Debug, Clone, Copy)]
pub struct IdList<'a>(&'a [u8]);

impl<'a> IdList<'a> {
    /// A list over little-endian `u32` bytes (`len % 4 == 0`; a trailing
    /// partial id is ignored).
    pub(crate) fn from_le(bytes: &'a [u8]) -> IdList<'a> {
        IdList(bytes)
    }

    /// The empty list.
    #[must_use]
    pub fn empty() -> IdList<'a> {
        IdList(&[])
    }

    /// Number of ids in the list.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len() / 4
    }

    /// Returns `true` if the list holds no ids.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The id at position `i` (0 if out of range; lists are validated at
    /// segment-open time, so in-range access never observes this).
    #[must_use]
    pub fn get(&self, i: usize) -> u32 {
        self.0
            .get(i * 4..i * 4 + 4)
            .map_or(0, |b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Iterates over the ids in order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }
}

/// Iterator over all records of a segment, as views.
pub struct Views<'db> {
    db: &'db SegmentDb<'db>,
    next: u32,
    len: u32,
}

impl<'db> Views<'db> {
    pub(crate) fn new(db: &'db SegmentDb<'db>) -> Views<'db> {
        Views { db, next: 0, len: db.len() as u32 }
    }
}

impl<'db> Iterator for Views<'db> {
    type Item = RecordView<'db>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.next >= self.len {
            return None;
        }
        let view = self.db.view(self.next);
        self.next += 1;
        Some(view)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest = (self.len - self.next) as usize;
        (rest, Some(rest))
    }
}

impl ExactSizeIterator for Views<'_> {}

/// A borrowed view of one record with its strings resolved.
#[derive(Clone, Copy)]
pub struct RecordView<'db> {
    pub(crate) db: &'db SegmentDb<'db>,
    /// Index of the record within the segment.
    pub id: u32,
}

impl std::fmt::Debug for RecordView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecordView")
            .field("id", &self.id)
            .field("mnemonic", &self.mnemonic())
            .field("variant", &self.variant())
            .field("uarch", &self.uarch())
            .finish()
    }
}

impl<'db> RecordView<'db> {
    /// The mnemonic.
    #[must_use]
    pub fn mnemonic(&self) -> &'db str {
        self.db.resolve(self.db.mnemonic_sym(self.id))
    }

    /// The variant string.
    #[must_use]
    pub fn variant(&self) -> &'db str {
        self.db.resolve(self.db.variant_sym(self.id))
    }

    /// The ISA extension.
    #[must_use]
    pub fn extension(&self) -> &'db str {
        self.db.resolve(self.db.extension_sym(self.id))
    }

    /// The microarchitecture name.
    #[must_use]
    pub fn uarch(&self) -> &'db str {
        self.db.resolve(self.db.uarch_sym(self.id))
    }

    /// Number of µops.
    #[must_use]
    pub fn uop_count(&self) -> u32 {
        self.db.uop_count(self.id)
    }

    /// µops not attributed to any port combination.
    #[must_use]
    pub fn unattributed(&self) -> u32 {
        self.db.unattributed(self.id)
    }

    /// Union of all port masks.
    #[must_use]
    pub fn port_union(&self) -> u16 {
        self.db.port_union(self.id)
    }

    /// Measured throughput.
    #[must_use]
    pub fn tp_measured(&self) -> f64 {
        self.db.tp_measured(self.id)
    }

    /// Throughput computed from the port usage, if available.
    #[must_use]
    pub fn tp_ports(&self) -> Option<f64> {
        self.db.tp_ports(self.id)
    }

    /// Measured throughput with low-latency divider values, if applicable.
    #[must_use]
    pub fn tp_low_values(&self) -> Option<f64> {
        self.db.tp_low_values(self.id)
    }

    /// Measured throughput with dependency-breaking instructions, if
    /// applicable.
    #[must_use]
    pub fn tp_breaking(&self) -> Option<f64> {
        self.db.tp_breaking(self.id)
    }

    /// Maximum latency over operand pairs.
    #[must_use]
    pub fn max_latency(&self) -> Option<f64> {
        self.db.max_latency(self.id)
    }

    /// The `(port mask, µops)` entries, materialized.
    #[must_use]
    pub fn ports(&self) -> Vec<(u16, u32)> {
        self.db.ports_vec(self.id)
    }

    /// The latency edges, materialized.
    #[must_use]
    pub fn latency(&self) -> Vec<LatencyEdge> {
        self.db.latency_vec(self.id)
    }

    /// The port usage in the paper's notation (allocates the string).
    #[must_use]
    pub fn ports_notation(&self) -> String {
        ports_to_notation(&self.ports(), self.unattributed())
    }

    /// Materializes the view into an owned [`VariantRecord`] — the shape
    /// the snapshot export and the result encoders share.
    #[must_use]
    pub fn to_variant_record(&self) -> VariantRecord {
        VariantRecord {
            mnemonic: self.mnemonic().to_string(),
            variant: self.variant().to_string(),
            extension: self.extension().to_string(),
            uarch: self.uarch().to_string(),
            uop_count: self.uop_count(),
            ports: self.ports(),
            unattributed: self.unattributed(),
            tp_measured: self.tp_measured(),
            tp_ports: self.tp_ports(),
            tp_low_values: self.tp_low_values(),
            tp_breaking: self.tp_breaking(),
            latency: self.latency(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_list_reads_little_endian_ids() {
        let ids = [3u32, 7, 2000, 65536];
        let mut le = Vec::new();
        for id in ids {
            le.extend_from_slice(&id.to_le_bytes());
        }
        let list = IdList::from_le(&le);
        assert_eq!(list.len(), ids.len());
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(list.get(i), id);
        }
        assert_eq!(list.iter().collect::<Vec<_>>(), ids);
        assert_eq!(list.get(99), 0, "out-of-range reads are defensive, not panics");
        assert!(IdList::empty().is_empty());
    }
}
