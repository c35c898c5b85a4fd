//! Incremental merge ingestion: k-way merging of segment shards.
//!
//! Shards written independently (e.g. one per microarchitecture by a
//! parallel `build_db` run) are combined **without decoding records into
//! snapshots**: each shard already stores its records in canonical
//! (mnemonic, variant, uarch) order, so the merge is a k-way sorted merge
//! over borrowed readers, copying surviving records straight into the
//! shared segment writer. Records with the same key are resolved
//! last-writer-wins — the shard latest in the argument list supplies the
//! surviving payload — matching [`crate::Snapshot::merge`] semantics.

use crate::snapshot::{LatencyEdge, UarchMeta};

use super::read::SegmentDb;
use super::writer::{emit, SourceRecord};

/// One surviving record, borrowed from the shard it lives in.
struct SegRecord<'a, 'b> {
    db: &'a SegmentDb<'b>,
    id: u32,
}

impl SourceRecord for SegRecord<'_, '_> {
    fn mnemonic(&self) -> &str {
        self.db.resolve(self.db.mnemonic_sym(self.id))
    }
    fn variant(&self) -> &str {
        self.db.resolve(self.db.variant_sym(self.id))
    }
    fn uarch(&self) -> &str {
        self.db.resolve(self.db.uarch_sym(self.id))
    }
    fn extension(&self) -> &str {
        self.db.resolve(self.db.extension_sym(self.id))
    }
    fn uop_count(&self) -> u32 {
        self.db.uop_count(self.id)
    }
    fn unattributed(&self) -> u32 {
        self.db.unattributed(self.id)
    }
    fn tp_measured(&self) -> f64 {
        self.db.tp_measured(self.id)
    }
    fn tp_ports(&self) -> Option<f64> {
        self.db.tp_ports(self.id)
    }
    fn tp_low_values(&self) -> Option<f64> {
        self.db.tp_low_values(self.id)
    }
    fn tp_breaking(&self) -> Option<f64> {
        self.db.tp_breaking(self.id)
    }
    fn ports_len(&self) -> usize {
        self.db.ports_len(self.id)
    }
    fn port_entry(&self, i: usize) -> (u16, u32) {
        self.db.port_entry(self.id, i)
    }
    fn latency_len(&self) -> usize {
        self.db.latency_len(self.id)
    }
    fn latency_edge(&self, i: usize) -> LatencyEdge {
        self.db.latency_edge(self.id, i)
    }
}

/// The canonical key of record `id` in `db`, borrowed from the reader.
fn key_of<'a>(db: &'a SegmentDb<'_>, id: u32) -> (&'a str, &'a str, &'a str) {
    (db.resolve(db.mnemonic_sym(id)), db.resolve(db.variant_sym(id)), db.resolve(db.uarch_sym(id)))
}

/// Merges shard readers into a fresh segment image.
pub(crate) fn merge_images(parts: &[SegmentDb<'_>]) -> Vec<u8> {
    // K-way merge over per-shard cursors. Each shard is in canonical key
    // order, so at every step the minimum current key across shards is the
    // next output key; among shards tied on that key, the last one wins.
    let mut cursors: Vec<u32> = vec![0; parts.len()];
    let mut survivors: Vec<SegRecord<'_, '_>> = Vec::new();
    loop {
        let mut min_key: Option<(&str, &str, &str)> = None;
        let mut winner: Option<usize> = None;
        for (i, part) in parts.iter().enumerate() {
            if cursors[i] as usize >= part.len() {
                continue;
            }
            let key = key_of(part, cursors[i]);
            match min_key {
                Some(min) if key > min => {}
                Some(min) if key == min => winner = Some(i),
                _ => {
                    min_key = Some(key);
                    winner = Some(i);
                }
            }
        }
        let Some(min) = min_key else { break };
        let winner = winner.expect("a shard supplied the minimum key");
        survivors.push(SegRecord { db: &parts[winner], id: cursors[winner] });
        // Advance every shard past this key, not just the winner —
        // overwritten duplicates are consumed here and never re-surface.
        for (i, part) in parts.iter().enumerate() {
            while (cursors[i] as usize) < part.len() && key_of(part, cursors[i]) == min {
                cursors[i] += 1;
            }
        }
    }

    // Microarchitecture metadata in shard order: the writer deduplicates
    // by name with the same last-writer-wins rule.
    let metas: Vec<UarchMeta> = parts.iter().flat_map(SegmentDb::uarch_metas).collect();
    let generator = parts.iter().rev().map(|p| p.generator()).find(|g| !g.is_empty()).unwrap_or("");
    let schema_version = parts.iter().map(SegmentDb::schema_version).max().unwrap_or(0);
    emit(generator, schema_version, &metas, &survivors)
}
