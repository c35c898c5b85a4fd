//! Parity tests for the `mmap` segment backend: for arbitrary snapshots,
//! a segment opened with [`Segment::open_mmap`] must answer every query
//! byte-identically to the portable read-into-memory [`Segment::open`]
//! path — same image bytes, same exported snapshot, same encoded query
//! results.
//!
//! Compiled only with `--features mmap` (CI runs a dedicated leg).

#![cfg(all(feature = "mmap", unix, target_pointer_width = "64"))]

use std::path::PathBuf;

use proptest::prelude::*;

use uops_db::{
    JsonEncoder, Query, QueryExec, QueryPlan, ResultEncoder, Segment, Snapshot, SortKey,
    VariantRecord,
};

const MNEMONICS: [&str; 6] = ["ADD", "ADC", "SHLD", "VPADDD", "DIV", "MULPS"];
const VARIANTS: [&str; 3] = ["R64, R64", "XMM, XMM", "R64, M64"];
const EXTENSIONS: [&str; 3] = ["BASE", "AVX2", "AES"];
const UARCHES: [&str; 3] = ["Nehalem", "Haswell", "Skylake"];

fn arb_record() -> impl Strategy<Value = VariantRecord> {
    ((0usize..6, 0usize..3, 0usize..3, 0usize..3), (1u32..5, 1u16..0x100, 0.0f64..8.0)).prop_map(
        |((m, v, e, u), (uops, mask, tp))| VariantRecord {
            mnemonic: MNEMONICS[m].to_string(),
            variant: VARIANTS[v].to_string(),
            extension: EXTENSIONS[e].to_string(),
            uarch: UARCHES[u].to_string(),
            uop_count: uops,
            ports: vec![(mask, uops)],
            tp_measured: tp,
            ..Default::default()
        },
    )
}

fn arb_snapshot() -> impl Strategy<Value = Snapshot> {
    prop::collection::vec(arb_record(), 1..32).prop_map(|records| {
        let mut snapshot = Snapshot::new("mmap backend proptest");
        snapshot.records = records;
        snapshot
    })
}

/// A temp segment file removed on drop, unique per call so concurrently
/// running tests never truncate each other's files mid-map.
struct TempSegment(PathBuf);

impl TempSegment {
    fn write(snapshot: &Snapshot) -> (TempSegment, Segment) {
        static WRITES: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = WRITES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("uops_mmap_test_{}_{n}.seg", std::process::id()));
        let segment = Segment::write(snapshot, &path).expect("write segment");
        (TempSegment(path), segment)
    }
}

impl Drop for TempSegment {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn plans() -> Vec<QueryPlan> {
    vec![
        Query::new().into_plan(),
        Query::new().uarch("Skylake").into_plan(),
        Query::new().uarch("Haswell").uses_port(0).into_plan(),
        Query::new().mnemonic("ADD").sort_by(SortKey::Latency).into_plan(),
        Query::new().mnemonic_prefix("V").min_uops(2).into_plan(),
        Query::new().sort_by_desc(SortKey::Throughput).limit(3).into_plan(),
        Query::new().extension("AVX2").offset(1).limit(2).into_plan(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn mmap_backend_is_byte_identical_to_owned(snapshot in arb_snapshot()) {
        let (_guard, written) = TempSegment::write(&snapshot);
        let owned = Segment::open(&_guard.0).expect("open owned");
        let mapped = Segment::open_mmap(&_guard.0).expect("open mmap");

        // Identical image bytes, metadata, and exported snapshot.
        prop_assert_eq!(owned.as_bytes(), mapped.as_bytes());
        prop_assert_eq!(written.as_bytes(), mapped.as_bytes());
        prop_assert_eq!(owned.len(), mapped.len());
        prop_assert_eq!(owned.db().export_snapshot(), mapped.db().export_snapshot());
        prop_assert_eq!(owned.db().open_cost_bytes(), mapped.db().open_cost_bytes());

        // Identical encoded query results over every plan shape.
        for plan in plans() {
            let owned_db = owned.db();
            let mapped_db = mapped.db();
            let a = JsonEncoder.encode_result(&QueryExec::new().run(&plan, &owned_db));
            let b = JsonEncoder.encode_result(&QueryExec::new().run(&plan, &mapped_db));
            prop_assert_eq!(a, b, "{}", plan.to_query_string());
        }
    }
}

#[test]
fn mmap_segment_clone_is_owned_and_equal() {
    let mut snapshot = Snapshot::new("mmap clone");
    snapshot.records.push(VariantRecord {
        mnemonic: "ADD".into(),
        variant: "R64, R64".into(),
        extension: "BASE".into(),
        uarch: "Skylake".into(),
        uop_count: 1,
        ports: vec![(0b0110_0011, 1)],
        tp_measured: 0.25,
        ..Default::default()
    });
    let (guard, _written) = TempSegment::write(&snapshot);
    let mapped = Segment::open_mmap(&guard.0).expect("open mmap");
    let cloned = mapped.clone();
    assert_eq!(mapped, cloned, "clone must compare equal to the mapping");
    // The clone owns its bytes: it must survive the file disappearing.
    drop(guard);
    drop(mapped);
    assert_eq!(cloned.db().find_id("ADD", "R64, R64", "Skylake"), Some(0));
    assert_eq!(cloned.into_bytes().len() % 8, 0, "images are 8-aligned");
}

#[test]
fn mmap_open_rejects_corruption_like_owned_open() {
    let (guard, written) = TempSegment::write(&{
        let mut s = Snapshot::new("mmap corruption");
        s.records.push(VariantRecord {
            mnemonic: "ADD".into(),
            variant: "R64, R64".into(),
            extension: "BASE".into(),
            uarch: "Skylake".into(),
            uop_count: 1,
            ports: vec![(0b11, 1)],
            tp_measured: 0.25,
            ..Default::default()
        });
        s
    });
    // Truncated file: both paths must reject it, never panic.
    let image = written.as_bytes().to_vec();
    std::fs::write(&guard.0, &image[..16]).expect("truncate");
    assert!(Segment::open_mmap(&guard.0).is_err());
    assert!(Segment::open(&guard.0).is_err());
    // Bad magic likewise.
    let mut bad = image;
    bad[0] ^= 0xFF;
    std::fs::write(&guard.0, &bad).expect("corrupt");
    assert!(Segment::open_mmap(&guard.0).is_err());
    // Missing file is an Io error.
    drop(guard);
    assert!(matches!(
        Segment::open_mmap("/nonexistent/uops.seg"),
        Err(uops_db::DbError::Io { .. })
    ));
}
