//! Integration test of the `build_db --merge` pipeline: per-architecture
//! segment shards written independently and k-way-merged must produce a
//! database byte-identical to the single-pass build, holding exactly the
//! records of the TLV snapshot written beside it. Drives the real binary
//! end to end.

use std::path::PathBuf;
use std::process::Command;

use uops_db::Segment;

#[test]
fn merged_shards_equal_single_pass_build() {
    let dir = std::env::temp_dir().join(format!("uops_build_db_merge_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let prefix: PathBuf = dir.join("db");
    let prefix = prefix.to_str().expect("utf-8 path");

    // One process, both formats, merged segment. The binary itself asserts
    // the merged image is byte-identical to the single-pass encode; a
    // failed assertion fails the run.
    let output = Command::new(env!("CARGO_BIN_EXE_build_db"))
        .args(["--serial", "--merge", "--format", "both", prefix])
        .output()
        .expect("run build_db");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "build_db --merge failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(stdout.contains("byte-identical to single-pass"), "merge verification ran:\n{stdout}");
    assert!(stdout.contains("segment reader verified"), "segment export check ran:\n{stdout}");

    // Reload both artifacts and cross-check from the outside: the merged
    // segment must hold exactly the records of the TLV snapshot.
    let merged = Segment::open(format!("{prefix}.seg")).expect("open merged segment");
    let mut snapshot =
        uops_db::codec::decode(&std::fs::read(format!("{prefix}.bin")).expect("read"))
            .expect("decode TLV");
    snapshot.canonicalize();
    let seg = merged.db();
    assert_eq!(seg.len(), snapshot.len());
    assert!(seg.len() >= 50, "expected a multi-uarch database, got {}", seg.len());
    assert_eq!(seg.export_snapshot(), snapshot, "logical content must match");

    // Per-arch shards exist and re-merge to the same image.
    let shards: Vec<Segment> = std::fs::read_dir(&dir)
        .expect("list temp dir")
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().contains(".shard-"))
        .map(|e| Segment::open(e.path()).expect("open shard"))
        .collect();
    assert!(shards.len() >= 5, "expected one shard per uarch, got {}", shards.len());
    // Merge order is not the on-disk listing order; merging sorted shards
    // must still reproduce the canonical image (shard keys are disjoint).
    let remerged = Segment::merge(&shards);
    assert_eq!(remerged.as_bytes(), merged.as_bytes());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_flags_exit_nonzero_with_usage() {
    // build_db shares the declarative CLI helper with `serve`; a typo'd
    // flag must fail loudly, not be silently ignored.
    let output = Command::new(env!("CARGO_BIN_EXE_build_db"))
        .args(["--serail"])
        .output()
        .expect("run build_db");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown option: --serail"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");

    let output = Command::new(env!("CARGO_BIN_EXE_build_db"))
        .args(["--merge", "--format", "tlv"])
        .output()
        .expect("run build_db");
    assert_eq!(output.status.code(), Some(2), "--merge needs the segment format");
    assert!(String::from_utf8_lossy(&output.stderr).contains("--merge requires"));
}
