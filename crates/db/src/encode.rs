//! Result encoding: turning query results and diff reports into bytes.
//!
//! Before this module, every consumer of a [`QueryResult`] hand-rolled its
//! own output (println tables in the experiment binaries, ad-hoc JSON in
//! examples). [`ResultEncoder`] centralizes that: one trait, three
//! deterministic implementations —
//!
//! * [`JsonEncoder`]: records in exactly the shape of the snapshot JSON
//!   document's `records` entries (shared writer, [`crate::json`]);
//! * [`BinaryEncoder`]: a compact TLV stream reusing the snapshot codec's
//!   record messages ([`crate::codec`]), with a decoder for round-trips;
//! * [`XmlEncoder`]: the uops.info-style grouped XML view
//!   ([`crate::xml`]).
//!
//! Determinism matters operationally: the serving layer caches **encoded
//! bytes** keyed by [`crate::QueryPlan`] fingerprint, so for one database
//! a plan must always produce the same bytes — which these encoders (and
//! the deterministic executor under them) guarantee. That is also what
//! makes "cached and uncached responses are byte-identical" testable.

use std::fmt::Write as _;

use crate::backend::RecordView;
use crate::codec::{
    decode_record, encode_record, expect_wire, put_msg_field, put_opt_f64_field, put_str_field,
    put_u64_field, Reader, WIRE_LEN, WIRE_VARINT,
};
use crate::diff::{Change, DiffReport, VariantDelta};
use crate::error::DbError;
use crate::exec::QueryResult;
use crate::json;
use crate::snapshot::VariantRecord;
use crate::xml;

/// Magic bytes identifying a binary query-result stream (`"UQR\x01"`).
pub const RESULT_MAGIC: [u8; 4] = *b"UQR\x01";

/// Encodes query results and diff reports as bytes.
///
/// Implementations must be deterministic: the same result on the same
/// database must encode to the same bytes (the response cache stores and
/// replays encoder output verbatim).
pub trait ResultEncoder {
    /// The MIME type of the encoded bytes.
    fn content_type(&self) -> &'static str;

    /// Encodes a page of rows plus the pre-pagination match count.
    fn encode_rows(&self, total_matches: usize, rows: &[RecordView<'_>]) -> Vec<u8>;

    /// Encodes a full query result.
    fn encode_result(&self, result: &QueryResult<'_>) -> Vec<u8> {
        self.encode_rows(result.total_matches, &result.rows)
    }

    /// Encodes a cross-microarchitecture diff report.
    fn encode_diff(&self, report: &DiffReport) -> Vec<u8>;
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

/// JSON result encoding. Rows use exactly the record shape of the snapshot
/// JSON document, so existing snapshot tooling parses them unchanged.
#[derive(Debug, Clone, Copy, Default)]
pub struct JsonEncoder;

impl ResultEncoder for JsonEncoder {
    fn content_type(&self) -> &'static str {
        "application/json"
    }

    fn encode_rows(&self, total_matches: usize, rows: &[RecordView<'_>]) -> Vec<u8> {
        let mut out = String::with_capacity(64 + rows.len() * 160);
        JsonEncoder::begin_stream(total_matches, &mut out);
        for (i, row) in rows.iter().enumerate() {
            JsonEncoder::stream_row(i, row, &mut out);
        }
        JsonEncoder::end_stream(rows.len(), &mut out);
        out.into_bytes()
    }

    fn encode_diff(&self, report: &DiffReport) -> Vec<u8> {
        let mut out = String::with_capacity(128 + report.changed.len() * 160);
        out.push_str("{\n  \"base\": ");
        json::escape_into(&mut out, &report.base);
        out.push_str(",\n  \"other\": ");
        json::escape_into(&mut out, &report.other);
        let _ = write!(out, ",\n  \"unchanged\": {},\n  \"changed\": [", report.unchanged);
        for (i, delta) in report.changed.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    {\"mnemonic\": ");
            json::escape_into(&mut out, &delta.mnemonic);
            out.push_str(", \"variant\": ");
            json::escape_into(&mut out, &delta.variant);
            out.push_str(", \"changes\": [");
            for (j, change) in delta.changes.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                write_change_json(&mut out, change);
            }
            out.push_str("]}");
        }
        out.push_str(if report.changed.is_empty() { "],\n" } else { "\n  ],\n" });
        write_key_list(&mut out, "only_in_base", &report.only_in_base);
        out.push_str(",\n");
        write_key_list(&mut out, "only_in_other", &report.only_in_other);
        out.push_str("\n}\n");
        out.into_bytes()
    }
}

impl JsonEncoder {
    /// Streaming prologue: everything before the first row. The three
    /// stream pieces concatenate to exactly the bytes of
    /// [`ResultEncoder::encode_rows`], so a chunked emission is
    /// byte-identical to a buffered one after de-chunking.
    pub fn begin_stream(total_matches: usize, out: &mut String) {
        let _ = write!(out, "{{\n  \"total_matches\": {total_matches},\n  \"rows\": [");
    }

    /// Streaming row `index` (0-based; the index drives the separator).
    pub fn stream_row(index: usize, row: &RecordView<'_>, out: &mut String) {
        out.push_str(if index == 0 { "\n" } else { ",\n" });
        out.push_str("    ");
        json::write_record(out, &row.to_variant_record());
    }

    /// Streaming epilogue after `row_count` rows.
    pub fn end_stream(row_count: usize, out: &mut String) {
        out.push_str(if row_count == 0 { "]\n" } else { "\n  ]\n" });
        out.push_str("}\n");
    }
}

fn write_key_list(out: &mut String, key: &str, entries: &[(String, String)]) {
    let _ = write!(out, "  \"{key}\": [");
    for (i, (mnemonic, variant)) in entries.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push('[');
        json::escape_into(out, mnemonic);
        out.push_str(", ");
        json::escape_into(out, variant);
        out.push(']');
    }
    out.push(']');
}

fn write_change_json(out: &mut String, change: &Change) {
    let opt = |v: Option<f64>| v.map_or_else(|| "null".to_string(), json::fmt_f64);
    match change {
        Change::UopCount(a, b) => {
            let _ = write!(out, "{{\"field\": \"uops\", \"base\": {a}, \"other\": {b}}}");
        }
        Change::Ports(a, b) => {
            out.push_str("{\"field\": \"ports\", \"base\": ");
            json::escape_into(out, a);
            out.push_str(", \"other\": ");
            json::escape_into(out, b);
            out.push('}');
        }
        Change::Latency(a, b) => {
            let _ = write!(
                out,
                "{{\"field\": \"latency\", \"base\": {}, \"other\": {}}}",
                opt(*a),
                opt(*b)
            );
        }
        Change::Throughput(a, b) => {
            let _ = write!(
                out,
                "{{\"field\": \"tp_measured\", \"base\": {}, \"other\": {}}}",
                json::fmt_f64(*a),
                json::fmt_f64(*b)
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Compact binary
// ---------------------------------------------------------------------------

/// Compact binary result encoding: [`RESULT_MAGIC`], then a TLV stream in
/// the snapshot codec's dialect — field 1 is the varint pre-pagination
/// match count, each field-2 message is one record (byte-identical to the
/// record messages of [`crate::codec::encode`]), and for diffs field
/// numbers 1–6 carry base/other/unchanged/changed/only-lists. Unknown
/// fields are skipped on decode, so the result stream inherits the snapshot
/// codec's forward compatibility.
#[derive(Debug, Clone, Copy, Default)]
pub struct BinaryEncoder;

impl ResultEncoder for BinaryEncoder {
    fn content_type(&self) -> &'static str {
        "application/x-uops-result"
    }

    fn encode_rows(&self, total_matches: usize, rows: &[RecordView<'_>]) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + rows.len() * 96);
        BinaryEncoder::begin_stream(total_matches, &mut out);
        for row in rows {
            BinaryEncoder::stream_row(row, &mut out);
        }
        out
    }

    fn encode_diff(&self, report: &DiffReport) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + report.changed.len() * 64);
        out.extend_from_slice(&RESULT_MAGIC);
        put_str_field(&mut out, 1, &report.base);
        put_str_field(&mut out, 2, &report.other);
        put_u64_field(&mut out, 3, report.unchanged as u64);
        for delta in &report.changed {
            put_msg_field(&mut out, 4, &encode_delta(delta));
        }
        for (mnemonic, variant) in &report.only_in_base {
            put_msg_field(&mut out, 5, &encode_key(mnemonic, variant));
        }
        for (mnemonic, variant) in &report.only_in_other {
            put_msg_field(&mut out, 6, &encode_key(mnemonic, variant));
        }
        out
    }
}

fn encode_key(mnemonic: &str, variant: &str) -> Vec<u8> {
    let mut out = Vec::new();
    put_str_field(&mut out, 1, mnemonic);
    put_str_field(&mut out, 2, variant);
    out
}

fn encode_delta(delta: &VariantDelta) -> Vec<u8> {
    let mut out = Vec::new();
    put_str_field(&mut out, 1, &delta.mnemonic);
    put_str_field(&mut out, 2, &delta.variant);
    for change in &delta.changes {
        let mut body = Vec::new();
        match change {
            Change::UopCount(a, b) => {
                put_u64_field(&mut body, 1, 0);
                put_u64_field(&mut body, 2, u64::from(*a));
                put_u64_field(&mut body, 3, u64::from(*b));
            }
            Change::Ports(a, b) => {
                put_u64_field(&mut body, 1, 1);
                put_str_field(&mut body, 4, a);
                put_str_field(&mut body, 5, b);
            }
            Change::Latency(a, b) => {
                put_u64_field(&mut body, 1, 2);
                put_opt_f64_field(&mut body, 6, *a);
                put_opt_f64_field(&mut body, 7, *b);
            }
            Change::Throughput(a, b) => {
                put_u64_field(&mut body, 1, 3);
                put_opt_f64_field(&mut body, 6, Some(*a));
                put_opt_f64_field(&mut body, 7, Some(*b));
            }
        }
        put_msg_field(&mut out, 3, &body);
    }
    out
}

impl BinaryEncoder {
    /// Streaming prologue (magic + the pre-pagination match count). As
    /// with [`JsonEncoder::begin_stream`], the stream pieces concatenate
    /// to exactly the buffered [`ResultEncoder::encode_rows`] bytes; the
    /// TLV dialect needs no epilogue.
    pub fn begin_stream(total_matches: usize, out: &mut Vec<u8>) {
        out.extend_from_slice(&RESULT_MAGIC);
        put_u64_field(out, 1, total_matches as u64);
    }

    /// Streaming row: one field-2 record message.
    pub fn stream_row(row: &RecordView<'_>, out: &mut Vec<u8>) {
        put_msg_field(out, 2, &encode_record(&row.to_variant_record()));
    }

    /// Decodes a binary result stream back into the match count and the
    /// materialized rows.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Decode`] on bad magic or malformed fields.
    /// Unknown field numbers are skipped.
    pub fn decode_rows(bytes: &[u8]) -> Result<(usize, Vec<VariantRecord>), DbError> {
        let body = strip_result_magic(bytes)?;
        let mut r = Reader { buf: body, pos: 0 };
        let mut total_matches = 0usize;
        let mut rows = Vec::new();
        while !r.done() {
            let (field, wire) = r.tag()?;
            match field {
                1 => {
                    expect_wire(&r, wire, WIRE_VARINT, "result.total_matches")?;
                    total_matches = r.varint()? as usize;
                }
                2 => {
                    expect_wire(&r, wire, WIRE_LEN, "result.row")?;
                    rows.push(decode_record(r.bytes()?)?);
                }
                _ => r.skip(wire)?,
            }
        }
        Ok((total_matches, rows))
    }
}

fn strip_result_magic(bytes: &[u8]) -> Result<&[u8], DbError> {
    if bytes.len() < RESULT_MAGIC.len() || bytes[..RESULT_MAGIC.len()] != RESULT_MAGIC {
        return Err(DbError::Decode {
            offset: 0,
            message: "bad magic (not a query result)".into(),
        });
    }
    Ok(&bytes[RESULT_MAGIC.len()..])
}

// ---------------------------------------------------------------------------
// XML
// ---------------------------------------------------------------------------

/// XML result encoding in the uops.info document style: rows grouped by
/// (mnemonic, variant) with one `<architecture>` element per record, in
/// sorted group order (export-only, like [`crate::xml::to_xml`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct XmlEncoder;

impl ResultEncoder for XmlEncoder {
    fn content_type(&self) -> &'static str {
        "application/xml"
    }

    fn encode_rows(&self, total_matches: usize, rows: &[RecordView<'_>]) -> Vec<u8> {
        use std::collections::BTreeMap;
        let records: Vec<VariantRecord> = rows.iter().map(RecordView::to_variant_record).collect();
        let mut groups: BTreeMap<(&str, &str), (&str, Vec<&VariantRecord>)> = BTreeMap::new();
        for record in &records {
            groups
                .entry((&record.mnemonic, &record.variant))
                .or_insert_with(|| (&record.extension, Vec::new()))
                .1
                .push(record);
        }
        let mut out = String::with_capacity(128 + records.len() * 200);
        out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
        let _ = writeln!(out, "<uops total_matches=\"{total_matches}\">");
        for ((mnemonic, variant), (extension, group)) in groups {
            let _ = writeln!(
                out,
                "  <instruction mnemonic=\"{}\" variant=\"{}\" extension=\"{}\">",
                xml::escape(mnemonic),
                xml::escape(variant),
                xml::escape(extension)
            );
            for record in group {
                xml::write_architecture(&mut out, record);
            }
            out.push_str("  </instruction>\n");
        }
        out.push_str("</uops>\n");
        out.into_bytes()
    }

    fn encode_diff(&self, report: &DiffReport) -> Vec<u8> {
        let mut out = String::with_capacity(128 + report.changed.len() * 120);
        out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
        let _ = writeln!(
            out,
            "<diff base=\"{}\" other=\"{}\" unchanged=\"{}\">",
            xml::escape(&report.base),
            xml::escape(&report.other),
            report.unchanged
        );
        for delta in &report.changed {
            let _ = writeln!(
                out,
                "  <changed mnemonic=\"{}\" variant=\"{}\">",
                xml::escape(&delta.mnemonic),
                xml::escape(&delta.variant)
            );
            for change in &delta.changes {
                let (field, base, other) = match change {
                    Change::UopCount(a, b) => ("uops", a.to_string(), b.to_string()),
                    Change::Ports(a, b) => ("ports", a.clone(), b.clone()),
                    Change::Latency(a, b) => {
                        let f =
                            |v: &Option<f64>| v.map_or_else(|| "none".to_string(), json::fmt_f64);
                        ("latency", f(a), f(b))
                    }
                    Change::Throughput(a, b) => {
                        ("tp_measured", json::fmt_f64(*a), json::fmt_f64(*b))
                    }
                };
                let _ = writeln!(
                    out,
                    "    <change field=\"{field}\" base=\"{}\" other=\"{}\"/>",
                    xml::escape(&base),
                    xml::escape(&other)
                );
            }
            out.push_str("  </changed>\n");
        }
        for (mnemonic, variant) in &report.only_in_base {
            let _ = writeln!(
                out,
                "  <only_in_base mnemonic=\"{}\" variant=\"{}\"/>",
                xml::escape(mnemonic),
                xml::escape(variant)
            );
        }
        for (mnemonic, variant) in &report.only_in_other {
            let _ = writeln!(
                out,
                "  <only_in_other mnemonic=\"{}\" variant=\"{}\"/>",
                xml::escape(mnemonic),
                xml::escape(variant)
            );
        }
        out.push_str("</diff>\n");
        out.into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::diff_uarches;
    use crate::segment::Segment;
    use crate::snapshot::{LatencyEdge, Snapshot};
    use crate::Query;

    fn segment() -> Segment {
        let mut s = Snapshot::new("encode test");
        for (m, uarch, uops, mask, lat) in [
            ("ADD", "Skylake", 1u32, 0b0110_0011u16, 1.0),
            ("ADC", "Skylake", 1, 0b0100_0001, 1.0),
            ("ADC", "Haswell", 2, 0b0100_0001, 2.0),
            ("DIV", "Skylake", 10, 0b0000_0001, 23.0),
        ] {
            s.records.push(VariantRecord {
                mnemonic: m.into(),
                variant: "R64, R64".into(),
                extension: "BASE".into(),
                uarch: uarch.into(),
                uop_count: uops,
                ports: vec![(mask, uops)],
                tp_measured: 0.5,
                tp_ports: Some(0.5),
                latency: vec![LatencyEdge {
                    source: 0,
                    target: 1,
                    cycles: lat,
                    ..Default::default()
                }],
                ..Default::default()
            });
        }
        Segment::from_bytes(Segment::encode(&s)).expect("valid")
    }

    #[test]
    fn json_rows_are_snapshot_records() {
        let segment = segment();
        let db = segment.db();
        let result = Query::new().uarch("Skylake").run(&db);
        let bytes = JsonEncoder.encode_result(&result);
        let text = String::from_utf8(bytes).expect("utf-8");
        // Each row is exactly the snapshot document's record object.
        let mut expected = String::from("{\n  \"total_matches\": 3,\n  \"rows\": [");
        for (i, row) in result.rows.iter().enumerate() {
            expected.push_str(if i == 0 { "\n    " } else { ",\n    " });
            json::write_record(&mut expected, &row.to_variant_record());
        }
        expected.push_str("\n  ]\n}\n");
        assert_eq!(text, expected);
        assert_eq!(result.rows.len(), 3);
        assert_eq!(result.rows[0].mnemonic(), "ADC");
    }

    #[test]
    fn json_empty_result() {
        let segment = segment();
        let db = segment.db();
        let result = Query::new().uarch("Nehalem").run(&db);
        let text = String::from_utf8(JsonEncoder.encode_result(&result)).expect("utf-8");
        assert!(text.contains("\"total_matches\": 0"));
        assert!(text.contains("\"rows\": []"));
    }

    #[test]
    fn binary_roundtrip_is_lossless() {
        let segment = segment();
        let db = segment.db();
        let result = Query::new().uarch("Skylake").limit(2).run(&db);
        let bytes = BinaryEncoder.encode_result(&result);
        assert_eq!(&bytes[..4], &RESULT_MAGIC);
        let (total, rows) = BinaryEncoder::decode_rows(&bytes).expect("decode");
        assert_eq!(total, 3, "pre-pagination count survives");
        assert_eq!(rows.len(), 2);
        let expected: Vec<VariantRecord> =
            result.rows.iter().map(|v| v.to_variant_record()).collect();
        assert_eq!(rows, expected);
        assert!(BinaryEncoder::decode_rows(b"nope").is_err());
    }

    #[test]
    fn encoders_are_deterministic() {
        let segment = segment();
        let db = segment.db();
        let result = Query::new().run(&db);
        assert_eq!(JsonEncoder.encode_result(&result), JsonEncoder.encode_result(&result));
        assert_eq!(BinaryEncoder.encode_result(&result), BinaryEncoder.encode_result(&result));
        assert_eq!(XmlEncoder.encode_result(&result), XmlEncoder.encode_result(&result));
    }

    #[test]
    fn xml_groups_rows() {
        let segment = segment();
        let db = segment.db();
        let result = Query::new().mnemonic("ADC").run(&db);
        let text = String::from_utf8(XmlEncoder.encode_result(&result)).expect("utf-8");
        assert_eq!(text.matches("<instruction mnemonic=\"ADC\"").count(), 1);
        assert_eq!(text.matches("<architecture").count(), 2);
        assert!(text.contains("total_matches=\"2\""));
    }

    #[test]
    fn diff_encodings_cover_all_change_kinds() {
        let segment = segment();
        let db = segment.db();
        let report = diff_uarches(&db, "Haswell", "Skylake");
        assert_eq!(report.changed.len(), 1, "ADC changed");
        let json_text = String::from_utf8(JsonEncoder.encode_diff(&report)).expect("utf-8");
        assert!(json_text.contains("\"field\": \"uops\""));
        assert!(json_text.contains("\"field\": \"latency\""));
        assert!(json_text.contains("\"only_in_other\""));
        let xml_text = String::from_utf8(XmlEncoder.encode_diff(&report)).expect("utf-8");
        assert!(xml_text.contains("<changed mnemonic=\"ADC\""));
        assert!(xml_text.contains("field=\"uops\""));
        let binary = BinaryEncoder.encode_diff(&report);
        assert_eq!(&binary[..4], &RESULT_MAGIC);
        assert_ne!(binary, BinaryEncoder.encode_diff(&diff_uarches(&db, "Skylake", "Haswell")));
    }
}
