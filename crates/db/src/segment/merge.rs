//! Incremental merge ingestion: k-way merging of segment shards.
//!
//! Shards written independently (one per microarchitecture by a parallel
//! `build_db` run, or a live generation plus an ingested shard) are
//! combined without decoding records into snapshots, and without
//! re-deriving anything the shards already hold:
//!
//! 1. **Survivors.** Each shard stores its records in canonical
//!    (mnemonic, variant, uarch) order, so a k-way merge over per-shard
//!    cursors picks them, comparing keys as raw string-table bytes (byte
//!    order is string order). Records with the same key are resolved
//!    last-writer-wins — the shard latest in the argument list supplies
//!    the surviving payload — matching [`crate::Snapshot::merge`]
//!    semantics. µarch metadata is deduplicated by name the same way.
//! 2. **String table.** Each shard's table is already sorted and unique.
//!    The merge marks the symbols the survivors and the kept metadata use,
//!    k-way merges those strings into the new table, and builds one
//!    `old symbol → new symbol` array per shard. Strings that only
//!    overwritten records or metadata used vanish.
//! 3. **Columns.** The shared [`ImageWriter`] lays out the image from the
//!    survivors' remapped symbols, then copies each survivor's numeric
//!    columns, port entries and latency edges across.
//!
//! The output is byte-identical to [`crate::Segment::encode`] of the
//! last-writer-wins snapshot of the shards.

use crate::intern::Sym;
use crate::snapshot::UarchMeta;

use super::read::SegmentDb;
use super::writer::{canonical_metas, ImageWriter, MetaEntry, Numbers, RowKeys, StringTable};

/// Marks a shard symbol the merged image does not use.
const UNUSED: u32 = u32::MAX;

/// Marks a shard symbol the merged image uses, until the string merge
/// gives it its new symbol.
const USED: u32 = 0;

/// The remap slot of `sym` in a shard with `count` strings. A symbol
/// outside the table reads as the empty string (as
/// [`SegmentDb::resolve`] does), so all of them share the extra slot
/// `count`.
fn slot(sym: u32, count: usize) -> usize {
    (sym as usize).min(count)
}

/// The bytes of remap slot `slot` of shard `db`.
fn slot_bytes<'a>(db: &SegmentDb<'a>, slot: usize) -> &'a [u8] {
    if slot == db.string_count() {
        &[]
    } else {
        db.str_bytes(slot as u32)
    }
}

/// Merges shard readers into a fresh segment image.
pub(crate) fn merge_images(parts: &[SegmentDb<'_>]) -> Vec<u8> {
    let survivors = survivors(parts);
    let metas = canonical_metas(
        parts
            .iter()
            .enumerate()
            .flat_map(|(p, db)| db.uarch_meta_entries().map(move |(n, c, meta)| (p, n, c, meta)))
            .collect(),
        |&(_, _, _, meta): &(usize, u32, u32, &UarchMeta)| meta,
    );

    // Mark every symbol the output uses, then give each its new symbol.
    let mut remap: Vec<Vec<u32>> =
        parts.iter().map(|db| vec![UNUSED; db.string_count() + 1]).collect();
    for &(p, id) in &survivors {
        let db = &parts[p];
        for sym in [db.mnemonic_sym(id), db.variant_sym(id), db.extension_sym(id), db.uarch_sym(id)]
        {
            remap[p][slot(sym.0, db.string_count())] = USED;
        }
    }
    for &(p, name, processor, _) in &metas {
        remap[p][name as usize] = USED;
        remap[p][processor as usize] = USED;
    }
    let strings = merge_strings(parts, &mut remap);

    let rows: Vec<RowKeys> = survivors
        .iter()
        .map(|&(p, id)| {
            let db = &parts[p];
            let new_sym = |sym: Sym| remap[p][slot(sym.0, db.string_count())];
            RowKeys {
                mnemonic: new_sym(db.mnemonic_sym(id)),
                variant: new_sym(db.variant_sym(id)),
                extension: new_sym(db.extension_sym(id)),
                uarch: new_sym(db.uarch_sym(id)),
                port_union: db.port_entries(id).fold(0, |acc, (mask, _)| acc | mask),
                ports: db.ports_len(id) as u32,
                edges: db.latency_len(id) as u32,
            }
        })
        .collect();
    let metas: Vec<MetaEntry> = metas
        .iter()
        .map(|&(p, name, processor, meta)| MetaEntry {
            name: remap[p][name as usize],
            processor: remap[p][processor as usize],
            year: meta.year,
            ports: meta.ports,
            characterized: meta.characterized,
            skipped: meta.skipped,
        })
        .collect();

    let generator = parts.iter().rev().map(|p| p.generator()).find(|g| !g.is_empty()).unwrap_or("");
    let schema_version = parts.iter().map(SegmentDb::schema_version).max().unwrap_or(0);
    let mut writer = ImageWriter::new(generator.as_bytes(), schema_version, &strings, &metas, rows);
    for &(p, id) in &survivors {
        let db = &parts[p];
        let numbers = Numbers {
            uop_count: db.uop_count(id),
            unattributed: db.unattributed(id),
            tp_measured: db.tp_measured(id),
            tp_ports: db.tp_ports(id),
            tp_low_values: db.tp_low_values(id),
            tp_breaking: db.tp_breaking(id),
        };
        writer.record(&numbers, db.port_entries(id), db.latency_edges(id));
    }
    writer.finish()
}

/// The surviving `(shard, record id)` pairs in canonical key order. At
/// every step the minimum current key across shards is the next output
/// key; among shards tied on it, the last one wins, and every shard
/// advances past it — overwritten duplicates never re-surface.
fn survivors(parts: &[SegmentDb<'_>]) -> Vec<(usize, u32)> {
    let head = |p: usize, id: u32| (id < parts[p].len() as u32).then(|| parts[p].key_bytes(id));
    let mut cursors = vec![0u32; parts.len()];
    let mut heads: Vec<_> = (0..parts.len()).map(|p| head(p, 0)).collect();
    let mut out = Vec::with_capacity(parts.iter().map(SegmentDb::len).sum());
    loop {
        let mut winner: Option<usize> = None;
        for (p, key) in heads.iter().enumerate() {
            match (key, winner) {
                (None, _) => {}
                (Some(key), Some(w)) if heads[w].is_some_and(|min| *key > min) => {}
                _ => winner = Some(p),
            }
        }
        let Some(w) = winner else { break };
        let min = heads[w];
        out.push((w, cursors[w]));
        for p in 0..parts.len() {
            while heads[p].is_some() && heads[p] == min {
                cursors[p] += 1;
                heads[p] = head(p, cursors[p]);
            }
        }
    }
    out
}

/// Builds the merged string table from the marked slots of every shard
/// (`remap[p][slot] != UNUSED`), overwriting each mark with the string's
/// symbol in the new table. Each shard's marked strings are already in
/// ascending order, so this is a k-way merge; equal strings from several
/// shards become one symbol.
fn merge_strings(parts: &[SegmentDb<'_>], remap: &mut [Vec<u32>]) -> StringTable {
    // The extra empty-string slot sorts first.
    let marked: Vec<Vec<usize>> = remap
        .iter()
        .map(|slots| {
            let count = slots.len() - 1;
            std::iter::once(count).chain(0..count).filter(|&s| slots[s] != UNUSED).collect()
        })
        .collect();
    let bytes: usize = marked
        .iter()
        .zip(parts)
        .map(|(slots, db)| slots.iter().map(|&s| slot_bytes(db, s).len()).sum::<usize>())
        .sum();
    let mut table = StringTable::with_capacity(marked.iter().map(Vec::len).sum(), bytes);
    let mut cursors = vec![0usize; parts.len()];
    let current = |p: usize, at: usize| marked[p].get(at).map(|&s| slot_bytes(&parts[p], s));
    loop {
        let min = (0..parts.len()).filter_map(|p| current(p, cursors[p])).min();
        let Some(min) = min else { break };
        let sym = table.push(min);
        for (p, cursor) in cursors.iter_mut().enumerate() {
            while current(p, *cursor) == Some(min) {
                remap[p][marked[p][*cursor]] = sym;
                *cursor += 1;
            }
        }
    }
    table
}
