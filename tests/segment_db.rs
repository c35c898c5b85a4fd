//! Property tests of the zero-copy segment store: for arbitrary snapshots
//! and arbitrary queries, [`SegmentDb`] must answer exactly like a
//! brute-force oracle over the snapshot's records (same matches, same
//! order, same pagination), shard merges must reproduce single-pass
//! builds, and corrupt images must be rejected with an error — never a
//! panic.

use std::collections::BTreeMap;

use proptest::prelude::*;

use uops_info::db::{
    ports_to_notation, Change, DbError, DiffReport, LatencyEdge, Query, RecordView, Segment,
    SegmentDb, Snapshot, SortKey, UarchMeta, VariantDelta, VariantRecord, CYCLE_TOLERANCE,
};

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

const MNEMONICS: [&str; 7] = ["ADD", "ADC", "SHLD", "VPADDD", "DIV", "Ä\"Q\"", "MULPS"];
const VARIANTS: [&str; 4] = ["R64, R64", "XMM, XMM", "", "R64, M64 \\ esc"];
const EXTENSIONS: [&str; 3] = ["BASE", "AVX2", "AES"];
const UARCHES: [&str; 3] = ["Nehalem", "Haswell", "Skylake"];

/// Strategy: an optional float with a present-but-zero case.
fn arb_opt_f64() -> impl Strategy<Value = Option<f64>> {
    (0u8..3, 0.0f64..8.0).prop_map(|(tag, v)| match tag {
        0 => None,
        1 => Some(0.0),
        _ => Some(v),
    })
}

/// Strategy: a latency edge exercising every optional field.
fn arb_edge() -> impl Strategy<Value = LatencyEdge> {
    ((0u32..4, 0u32..4, 0.0f64..30.0, 0u8..2), (arb_opt_f64(), arb_opt_f64())).prop_map(
        |((source, target, cycles, upper), (same, low))| LatencyEdge {
            source,
            target,
            cycles,
            upper_bound: upper == 1,
            same_reg_cycles: same,
            low_value_cycles: low,
        },
    )
}

/// Strategy: one variant record drawn from small string pools.
fn arb_record() -> impl Strategy<Value = VariantRecord> {
    (
        (0usize..7, 0usize..4, 0usize..3, 0usize..3, 0u32..5),
        prop::collection::vec((1u16..0x100, 1u32..4), 0..4),
        (0u32..3, 0.0f64..8.0, arb_opt_f64(), arb_opt_f64(), arb_opt_f64()),
        prop::collection::vec(arb_edge(), 0..3),
    )
        .prop_map(
            |(
                (m, v, e, u, uops),
                mut ports,
                (unattributed, tp, tp_ports, tp_low, tp_breaking),
                latency,
            )| {
                ports.sort_unstable();
                ports.dedup_by_key(|(mask, _)| *mask);
                VariantRecord {
                    mnemonic: MNEMONICS[m].to_string(),
                    variant: VARIANTS[v].to_string(),
                    extension: EXTENSIONS[e].to_string(),
                    uarch: UARCHES[u].to_string(),
                    uop_count: uops,
                    ports,
                    unattributed,
                    tp_measured: tp,
                    tp_ports,
                    tp_low_values: tp_low,
                    tp_breaking,
                    latency,
                }
            },
        )
}

/// Strategy: a whole snapshot, including duplicate-key records (the
/// last-writer-wins path) and µarch metadata.
fn arb_snapshot() -> impl Strategy<Value = Snapshot> {
    (
        prop::collection::vec((0u8..3, 2008u32..2020, 1u32..400, 0u32..50), 0..3),
        prop::collection::vec(arb_record(), 0..12),
    )
        .prop_map(|(metas, records)| {
            let mut snapshot = Snapshot::new("uops-info segment proptest");
            for (u, year, characterized, skipped) in metas {
                snapshot.upsert_uarch(UarchMeta {
                    name: UARCHES[u as usize].to_string(),
                    processor: format!("CPU-{year}"),
                    year,
                    ports: if year >= 2013 { 8 } else { 6 },
                    characterized,
                    skipped,
                });
            }
            snapshot.records = records;
            snapshot
        })
}

/// One generated query: the filters, sort, direction, and pagination, kept
/// as plain values so the oracle below reads them without going through
/// the plan the segment executes.
#[derive(Debug, Clone)]
struct QuerySpec {
    mnemonic: Option<&'static str>,
    prefix: Option<&'static str>,
    extension: Option<&'static str>,
    uarch: Option<&'static str>,
    port: Option<u8>,
    min_uops: Option<u32>,
    sort: SortKey,
    descending: bool,
    offset: usize,
    limit: Option<usize>,
}

impl QuerySpec {
    fn query(&self) -> Query {
        let mut q = Query::new();
        if let Some(m) = self.mnemonic {
            q = q.mnemonic(m);
        }
        if let Some(p) = self.prefix {
            q = q.mnemonic_prefix(p);
        }
        if let Some(e) = self.extension {
            q = q.extension(e);
        }
        if let Some(u) = self.uarch {
            q = q.uarch(u);
        }
        if let Some(port) = self.port {
            q = q.uses_port(port);
        }
        if let Some(n) = self.min_uops {
            q = q.min_uops(n);
        }
        q = if self.descending { q.sort_by_desc(self.sort) } else { q.sort_by(self.sort) };
        if let Some(limit) = self.limit {
            q = q.limit(limit);
        }
        q.offset(self.offset)
    }

    fn matches(&self, r: &VariantRecord) -> bool {
        let port_union = r.ports.iter().fold(0u16, |acc, &(mask, _)| acc | mask);
        self.mnemonic.is_none_or(|m| r.mnemonic == m)
            && self.prefix.is_none_or(|p| r.mnemonic.starts_with(p))
            && self.extension.is_none_or(|e| r.extension == e)
            && self.uarch.is_none_or(|u| r.uarch == u)
            && self.port.is_none_or(|p| p < 16 && port_union & (1 << p) != 0)
            && self.min_uops.is_none_or(|n| r.uop_count >= n)
    }

    /// The reference answer: filter the canonical records, sort on the key
    /// with the name as tiebreak, reverse for descending, then offset and
    /// limit. Shares no index or executor code with the segment.
    fn oracle(&self, records: &[VariantRecord]) -> (usize, Vec<RowKey>) {
        let mut hits: Vec<&VariantRecord> = records.iter().filter(|r| self.matches(r)).collect();
        let name = |r: &VariantRecord| (r.mnemonic.clone(), r.variant.clone(), r.uarch.clone());
        hits.sort_by(|a, b| {
            let key = match self.sort {
                SortKey::Mnemonic => std::cmp::Ordering::Equal,
                SortKey::Latency => {
                    let lat = |r: &VariantRecord| r.max_latency().unwrap_or(f64::NEG_INFINITY);
                    lat(a).total_cmp(&lat(b))
                }
                SortKey::Throughput => a.tp_measured.total_cmp(&b.tp_measured),
                SortKey::UopCount => a.uop_count.cmp(&b.uop_count),
            };
            key.then_with(|| name(a).cmp(&name(b)))
        });
        if self.descending {
            hits.reverse();
        }
        let page = hits
            .iter()
            .skip(self.offset)
            .take(self.limit.unwrap_or(usize::MAX))
            .map(|r| (r.mnemonic.clone(), r.variant.clone(), r.uarch.clone(), r.uop_count))
            .collect();
        (hits.len(), page)
    }
}

/// Strategy: an arbitrary query — filters, sort, direction, pagination.
/// Each string filter is present in about a third of the queries (half
/// for the uarch), so most queries match some of the ≤ 12 records and
/// the sort and page checks see real rows.
fn arb_query() -> impl Strategy<Value = QuerySpec> {
    (
        (0usize..21, 0usize..12, 0usize..9, 0usize..6),
        (0u8..12, 0u8..3, 0u32..4, 0u8..2),
        (0u8..4, 0u8..2, 0usize..6, 0usize..8),
    )
        .prop_map(
            |((m, pfx, e, u), (port, port_on, min_uops, uops_on), (sort, desc, offset, limit))| {
                QuerySpec {
                    mnemonic: MNEMONICS.get(m).copied(),
                    prefix: ["A", "V", "SH", ""].get(pfx).copied(),
                    extension: EXTENSIONS.get(e).copied(),
                    uarch: UARCHES.get(u).copied(),
                    port: (port_on == 0).then_some(port),
                    min_uops: (uops_on == 0).then_some(min_uops),
                    sort: [
                        SortKey::Mnemonic,
                        SortKey::Latency,
                        SortKey::Throughput,
                        SortKey::UopCount,
                    ][sort as usize],
                    descending: desc != 0,
                    offset,
                    limit: (limit < 7).then_some(limit),
                }
            },
        )
}

/// The observable content of a result row.
type RowKey = (String, String, String, u32);

fn row_key(v: &RecordView<'_>) -> RowKey {
    (v.mnemonic().to_string(), v.variant().to_string(), v.uarch().to_string(), v.uop_count())
}

/// The snapshot as the segment must hold it: the last record per
/// (mnemonic, variant, uarch) key, in canonical order.
fn canonical(snapshot: &Snapshot) -> Snapshot {
    let mut latest = BTreeMap::new();
    for r in &snapshot.records {
        latest.insert((r.mnemonic.clone(), r.variant.clone(), r.uarch.clone()), r.clone());
    }
    let mut canonical = snapshot.clone();
    canonical.records = latest.into_values().collect();
    canonical.canonicalize();
    canonical
}

/// The reference diff: every changed field of every (mnemonic, variant)
/// present on both µarches, plus the keys present on one side only.
fn diff_oracle(records: &[VariantRecord], base: &str, other: &str) -> DiffReport {
    let side = |uarch: &str| -> BTreeMap<(String, String), &VariantRecord> {
        records
            .iter()
            .filter(|r| r.uarch == uarch)
            .map(|r| ((r.mnemonic.clone(), r.variant.clone()), r))
            .collect()
    };
    let (base_side, other_side) = (side(base), side(other));
    let mut report =
        DiffReport { base: base.to_string(), other: other.to_string(), ..Default::default() };
    for (key, a) in &base_side {
        let Some(b) = other_side.get(key) else {
            report.only_in_base.push(key.clone());
            continue;
        };
        let mut changes = Vec::new();
        if a.uop_count != b.uop_count {
            changes.push(Change::UopCount(a.uop_count, b.uop_count));
        }
        if a.ports != b.ports || a.unattributed != b.unattributed {
            changes.push(Change::Ports(
                ports_to_notation(&a.ports, a.unattributed),
                ports_to_notation(&b.ports, b.unattributed),
            ));
        }
        let (la, lb) = (a.max_latency(), b.max_latency());
        let latency_differs = match (la, lb) {
            (Some(x), Some(y)) => (x - y).abs() > CYCLE_TOLERANCE,
            (x, y) => x.is_some() != y.is_some(),
        };
        if latency_differs {
            changes.push(Change::Latency(la, lb));
        }
        if (a.tp_measured - b.tp_measured).abs() > CYCLE_TOLERANCE {
            changes.push(Change::Throughput(a.tp_measured, b.tp_measured));
        }
        if changes.is_empty() {
            report.unchanged += 1;
        } else {
            report.changed.push(VariantDelta {
                mnemonic: key.0.clone(),
                variant: key.1.clone(),
                changes,
            });
        }
    }
    report.only_in_other =
        other_side.keys().filter(|key| !base_side.contains_key(*key)).cloned().collect();
    report
}

// ---------------------------------------------------------------------------
// Oracle properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any query over any snapshot: the segment returns what a brute-force
    /// scan of the canonical records returns — same total, same rows, same
    /// order, same page.
    #[test]
    fn segment_answers_every_query_like_a_linear_scan(
        snapshot in arb_snapshot(),
        queries in prop::collection::vec(arb_query(), 1..6),
    ) {
        let canonical = canonical(&snapshot);
        let segment = Segment::from_bytes(Segment::encode(&snapshot)).expect("valid image");
        let seg = segment.db();
        prop_assert_eq!(seg.len(), canonical.records.len());
        for spec in &queries {
            let result = spec.query().run(&seg);
            let (total, rows) = spec.oracle(&canonical.records);
            prop_assert_eq!(result.total_matches, total, "{:?}", spec);
            let got: Vec<RowKey> = result.rows.iter().map(row_key).collect();
            prop_assert_eq!(got, rows, "{:?}", spec);
        }
    }

    /// The segment round-trips the snapshot losslessly (modulo canonical
    /// ordering and last-writer-wins dedup), and its diff reports match a
    /// record-by-record comparison.
    #[test]
    fn segment_roundtrip_and_diff_match(snapshot in arb_snapshot()) {
        let canonical = canonical(&snapshot);
        let segment = Segment::from_bytes(Segment::encode(&snapshot)).expect("valid image");
        let seg = segment.db();
        prop_assert_eq!(seg.export_snapshot(), canonical.clone());
        for (base, other) in [("Haswell", "Skylake"), ("Nehalem", "Haswell")] {
            let report = uops_info::db::diff_uarches(&seg, base, other);
            let expected = diff_oracle(&canonical.records, base, other);
            prop_assert_eq!(report.changed, expected.changed);
            prop_assert_eq!(report.unchanged, expected.unchanged);
            prop_assert_eq!(report.only_in_base, expected.only_in_base);
            prop_assert_eq!(report.only_in_other, expected.only_in_other);
        }
    }

    /// Splitting a snapshot into per-uarch shards and merging the shard
    /// segments reproduces the single-pass image byte for byte.
    #[test]
    fn shard_merge_equals_single_pass(snapshot in arb_snapshot()) {
        let shards: Vec<Segment> = UARCHES
            .iter()
            .map(|uarch| {
                let mut shard = Snapshot::new(&*snapshot.generator);
                shard.records =
                    snapshot.records.iter().filter(|r| &r.uarch == uarch).cloned().collect();
                shard.uarches =
                    snapshot.uarches.iter().filter(|m| &m.name == uarch).cloned().collect();
                Segment::from_bytes(Segment::encode(&shard)).expect("valid shard")
            })
            .collect();
        let merged = Segment::merge(&shards);
        let single = Segment::encode(&snapshot);
        prop_assert_eq!(merged.as_bytes(), single.as_slice());
    }

    /// Merging 2–4 parts whose keys overlap (one of them possibly empty)
    /// is byte-identical to encoding the last-writer-wins snapshot: later
    /// parts overwrite records and µarch metadata of earlier ones, the
    /// generator is the last non-empty one, and the schema version is the
    /// highest. Strings only overwritten records or metadata used vanish.
    #[test]
    fn overlapping_merge_equals_last_writer_wins_encode(
        parts in prop::collection::vec((arb_snapshot(), 0u8..3, 0u32..2, 0u8..4), 2..5),
    ) {
        let parts: Vec<Snapshot> = parts
            .into_iter()
            .map(|(mut part, generator, schema_version, empty)| {
                if empty == 0 {
                    part.records.clear();
                    part.uarches.clear();
                }
                part.generator = ["", "shard-a", "shard-b"][generator as usize].to_string();
                part.schema_version = schema_version;
                part
            })
            .collect();
        let segments: Vec<Segment> = parts
            .iter()
            .map(|part| Segment::from_bytes(Segment::encode(part)).expect("valid part"))
            .collect();
        let mut latest = Snapshot::new(
            parts.iter().rev().map(|p| p.generator.as_str()).find(|g| !g.is_empty()).unwrap_or(""),
        );
        latest.schema_version = parts.iter().map(|p| p.schema_version).max().unwrap_or(0);
        for part in &parts {
            latest.uarches.extend(part.uarches.iter().cloned());
            latest.records.extend(part.records.iter().cloned());
        }
        let merged = Segment::merge(&segments);
        prop_assert_eq!(merged.as_bytes(), Segment::encode(&latest).as_slice());
        let refs: Vec<&Segment> = segments.iter().collect();
        prop_assert_eq!(Segment::merge_refs(&refs), merged);
    }

    /// Truncating a valid image anywhere below its payload end yields an
    /// error — never a panic, never a silently shorter database.
    #[test]
    fn truncated_segments_error_not_panic(snapshot in arb_snapshot(), cut in 0.0f64..1.0) {
        let image = Segment::encode(&snapshot);
        let len = ((image.len() as f64) * cut) as usize;
        // Only whole-image (plus trailing padding) prefixes may validate.
        if let Ok(segment) = Segment::from_bytes(image[..len].to_vec()) {
            prop_assert_eq!(segment.db().len(), SegmentDb::open(&image).expect("valid").len());
        }
    }
}

// ---------------------------------------------------------------------------
// Targeted corruption (deterministic)
// ---------------------------------------------------------------------------

fn sample_image() -> Vec<u8> {
    let mut snapshot = Snapshot::new("corruption tests");
    snapshot.records.push(VariantRecord {
        mnemonic: "ADD".into(),
        variant: "R64, R64".into(),
        extension: "BASE".into(),
        uarch: "Skylake".into(),
        uop_count: 1,
        ports: vec![(0b11, 1)],
        tp_measured: 0.25,
        ..Default::default()
    });
    Segment::encode(&snapshot)
}

#[test]
fn bad_magic_is_rejected() {
    let mut image = sample_image();
    image[0] ^= 0xff;
    assert!(matches!(Segment::from_bytes(image), Err(DbError::Segment { offset: 0, .. })));
    assert!(matches!(
        Segment::from_bytes(b"UDB\x01 but not a segment".to_vec()),
        Err(DbError::Segment { .. })
    ));
}

#[test]
fn truncated_header_is_rejected() {
    for len in 0..32 {
        let image = sample_image();
        assert!(
            matches!(Segment::from_bytes(image[..len].to_vec()), Err(DbError::Segment { .. })),
            "header prefix of {len} bytes must be rejected"
        );
    }
}

#[test]
fn out_of_range_section_offsets_are_rejected() {
    let image = sample_image();
    let section_count = u32::from_le_bytes(image[16..20].try_into().unwrap()) as usize;
    // Point each section in turn far past the end of the image (8-aligned
    // so the alignment check cannot mask the bounds check).
    for i in 0..section_count {
        let mut bad = image.clone();
        let entry = 32 + i * 24;
        let huge = (image.len() as u64 + 8).next_multiple_of(8);
        bad[entry + 8..entry + 16].copy_from_slice(&huge.to_le_bytes());
        match Segment::from_bytes(bad) {
            Err(DbError::Segment { .. }) => {}
            other => panic!("section {i} with offset past EOF must error, got {other:?}"),
        }
    }
}

#[test]
fn oversized_section_lengths_are_rejected() {
    let image = sample_image();
    let mut bad = image.clone();
    // First section: length larger than the whole file.
    bad[32 + 16..32 + 24].copy_from_slice(&(image.len() as u64 + 1).to_le_bytes());
    assert!(matches!(Segment::from_bytes(bad), Err(DbError::Segment { .. })));
}

#[test]
fn unsupported_schema_is_rejected() {
    let mut image = sample_image();
    let newer = uops_info::db::SCHEMA_VERSION + 1;
    image[12..16].copy_from_slice(&newer.to_le_bytes());
    assert_eq!(
        Segment::from_bytes(image),
        Err(DbError::UnsupportedSchema { found: newer, supported: uops_info::db::SCHEMA_VERSION })
    );
}
