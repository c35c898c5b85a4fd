//! Cross-microarchitecture diffing.
//!
//! The paper's §5 findings include variants whose latency or port usage
//! changed between generations (e.g. SHLD dropping from 4 to 1 µop after
//! Sandy Bridge, or the ADC port set widening on Skylake). [`diff_uarches`]
//! computes exactly this: for two microarchitectures in one database, the
//! variants whose µop count, port usage, latency, or throughput differ.

use crate::backend::IdList;
use crate::segment::SegmentDb;
use crate::snapshot::ports_to_notation;

/// Tolerance below which two cycle values are considered equal (measured
/// values carry sub-0.05-cycle noise).
pub const CYCLE_TOLERANCE: f64 = 0.05;

/// One changed field of a variant, with the value on each side.
#[derive(Debug, Clone, PartialEq)]
pub enum Change {
    /// The µop count changed.
    UopCount(u32, u32),
    /// The port usage changed (paper notation on each side).
    Ports(String, String),
    /// The maximum latency changed (cycles on each side); `None` means no
    /// latency data on that side.
    Latency(Option<f64>, Option<f64>),
    /// The measured throughput changed.
    Throughput(f64, f64),
}

/// All changes for one instruction variant between two microarchitectures.
#[derive(Debug, Clone, PartialEq)]
pub struct VariantDelta {
    /// Mnemonic of the variant.
    pub mnemonic: String,
    /// Variant string.
    pub variant: String,
    /// The individual field changes (never empty).
    pub changes: Vec<Change>,
}

/// The result of diffing two microarchitectures.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// The base (left) microarchitecture.
    pub base: String,
    /// The other (right) microarchitecture.
    pub other: String,
    /// Variants present on both sides with at least one changed field,
    /// sorted by (mnemonic, variant).
    pub changed: Vec<VariantDelta>,
    /// Number of variants present on both sides with no changes.
    pub unchanged: usize,
    /// `(mnemonic, variant)` keys present only on the base side.
    pub only_in_base: Vec<(String, String)>,
    /// `(mnemonic, variant)` keys present only on the other side.
    pub only_in_other: Vec<(String, String)>,
}

impl DiffReport {
    /// Total number of variants compared (changed + unchanged).
    #[must_use]
    pub fn compared(&self) -> usize {
        self.changed.len() + self.unchanged
    }
}

/// Returns whether the port usage of two records differs (exact compare,
/// entry by entry, without materializing either side).
fn ports_differ(db: &SegmentDb<'_>, a: u32, b: u32) -> bool {
    let n = db.ports_len(a);
    if n != db.ports_len(b) {
        return true;
    }
    (0..n).any(|i| db.port_entry(a, i) != db.port_entry(b, i))
}

/// Compares every variant characterized on both `base` and `other`.
///
/// Latency and throughput comparisons use [`CYCLE_TOLERANCE`]; µop counts
/// and port usages are compared exactly.
#[must_use]
pub fn diff_uarches(db: &SegmentDb<'_>, base: &str, other: &str) -> DiffReport {
    let mut report =
        DiffReport { base: base.to_string(), other: other.to_string(), ..Default::default() };
    let base_ids = match db.lookup_sym(base) {
        Some(sym) => db.postings_by_uarch(sym),
        None => IdList::empty(),
    };
    let other_sym = db.lookup_sym(other);

    for a in base_ids.iter() {
        let a_view = db.view(a);
        let Some(b) = db.find_id(a_view.mnemonic(), a_view.variant(), other) else {
            report.only_in_base.push((a_view.mnemonic().to_string(), a_view.variant().to_string()));
            continue;
        };
        let mut changes = Vec::new();
        if db.uop_count(a) != db.uop_count(b) {
            changes.push(Change::UopCount(db.uop_count(a), db.uop_count(b)));
        }
        if ports_differ(db, a, b) || db.unattributed(a) != db.unattributed(b) {
            changes.push(Change::Ports(
                ports_to_notation(&db.ports_vec(a), db.unattributed(a)),
                ports_to_notation(&db.ports_vec(b), db.unattributed(b)),
            ));
        }
        let latency_differs = match (db.max_latency(a), db.max_latency(b)) {
            (Some(x), Some(y)) => (x - y).abs() > CYCLE_TOLERANCE,
            (None, None) => false,
            _ => true,
        };
        if latency_differs {
            changes.push(Change::Latency(db.max_latency(a), db.max_latency(b)));
        }
        if (db.tp_measured(a) - db.tp_measured(b)).abs() > CYCLE_TOLERANCE {
            changes.push(Change::Throughput(db.tp_measured(a), db.tp_measured(b)));
        }
        if changes.is_empty() {
            report.unchanged += 1;
        } else {
            report.changed.push(VariantDelta {
                mnemonic: a_view.mnemonic().to_string(),
                variant: a_view.variant().to_string(),
                changes,
            });
        }
    }

    // Variants only present on the other side.
    if let Some(sym) = other_sym {
        for id in db.postings_by_uarch(sym).iter() {
            let b_view = db.view(id);
            if db.find_id(b_view.mnemonic(), b_view.variant(), base).is_none() {
                report
                    .only_in_other
                    .push((b_view.mnemonic().to_string(), b_view.variant().to_string()));
            }
        }
    }

    report.changed.sort_by(|a, b| (&a.mnemonic, &a.variant).cmp(&(&b.mnemonic, &b.variant)));
    report.only_in_base.sort();
    report.only_in_other.sort();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::Segment;
    use crate::snapshot::{LatencyEdge, Snapshot, VariantRecord};

    fn record(mnemonic: &str, uarch: &str, uops: u32, mask: u16, latency: f64) -> VariantRecord {
        VariantRecord {
            mnemonic: mnemonic.into(),
            variant: "R64, R64".into(),
            extension: "BASE".into(),
            uarch: uarch.into(),
            uop_count: uops,
            ports: vec![(mask, uops)],
            tp_measured: 0.5,
            latency: vec![LatencyEdge {
                source: 0,
                target: 1,
                cycles: latency,
                ..Default::default()
            }],
            ..Default::default()
        }
    }

    #[test]
    fn detects_port_and_uop_changes() {
        let mut s = Snapshot::new("test");
        // ADC: 2 µops on p06 (Haswell) → 1 µop on p06 (Broadwell-style).
        s.records.push(record("ADC", "Haswell", 2, 0b0100_0001, 2.0));
        s.records.push(record("ADC", "Skylake", 1, 0b0100_0001, 1.0));
        // ADD unchanged.
        s.records.push(record("ADD", "Haswell", 1, 0b0110_0011, 1.0));
        s.records.push(record("ADD", "Skylake", 1, 0b0110_0011, 1.0));
        // AESDEC only on Skylake.
        s.records.push(record("AESDEC", "Skylake", 1, 0b0000_0001, 4.0));
        let segment = Segment::from_bytes(Segment::encode(&s)).expect("valid");
        let db = segment.db();
        let report = diff_uarches(&db, "Haswell", "Skylake");
        assert_eq!(report.unchanged, 1);
        assert_eq!(report.changed.len(), 1);
        let delta = &report.changed[0];
        assert_eq!(delta.mnemonic, "ADC");
        assert!(delta.changes.contains(&Change::UopCount(2, 1)));
        assert!(delta.changes.contains(&Change::Ports("2*p06".into(), "1*p06".into())));
        assert!(delta.changes.contains(&Change::Latency(Some(2.0), Some(1.0))));
        assert_eq!(report.only_in_other, vec![("AESDEC".to_string(), "R64, R64".to_string())]);
        assert!(report.only_in_base.is_empty());
        assert_eq!(report.compared(), 2);
    }

    #[test]
    fn tolerance_suppresses_noise() {
        let mut s = Snapshot::new("test");
        s.records.push(record("MULPS", "Haswell", 1, 0b1, 5.0));
        let mut r = record("MULPS", "Skylake", 1, 0b1, 5.04);
        r.tp_measured = 0.52;
        s.records.push(r);
        let segment = Segment::from_bytes(Segment::encode(&s)).expect("valid");
        let db = segment.db();
        let report = diff_uarches(&db, "Haswell", "Skylake");
        assert_eq!(report.unchanged, 1, "sub-tolerance deltas are not changes");
        assert!(report.changed.is_empty());
    }

    #[test]
    fn unknown_uarch_yields_empty_report() {
        let segment = Segment::from_bytes(Segment::encode(&Snapshot::new("test"))).unwrap();
        let db = segment.db();
        let report = diff_uarches(&db, "Haswell", "Skylake");
        assert_eq!(report.compared(), 0);
        assert!(report.only_in_base.is_empty() && report.only_in_other.is_empty());
    }
}
