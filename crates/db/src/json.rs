//! The JSON snapshot encoding.
//!
//! The JSON form is an export: it carries the same information as the
//! binary form (see [`crate::codec`]) in a human- and tool-friendly
//! document, and nothing in the workspace reads it back. TLV stays the
//! lossless interchange. The writer is deterministic (fixed key order,
//! shortest round-trip float formatting, absent optional fields omitted), so
//! one snapshot always produces the same bytes.

use std::fmt::Write as _;

use crate::snapshot::{LatencyEdge, Snapshot, VariantRecord};

/// Appends `s` to `out` as a JSON string literal (quotes included) with
/// the canonical escaping rules shared by every JSON writer in the
/// workspace (snapshot documents, result encoders, the server's error
/// bodies).
pub fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

pub(crate) fn fmt_f64(v: f64) -> String {
    // Rust's `Display` for f64 prints the shortest string that parses back
    // to the same value and never uses exponent notation, so it is both
    // JSON-valid and round-trip exact. Non-finite values cannot appear in
    // measurements; map them to 0 defensively.
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

pub(crate) fn write_edge(out: &mut String, edge: &LatencyEdge) {
    let _ = write!(
        out,
        "{{\"source\": {}, \"target\": {}, \"cycles\": {}",
        edge.source,
        edge.target,
        fmt_f64(edge.cycles)
    );
    if edge.upper_bound {
        out.push_str(", \"upper_bound\": true");
    }
    if let Some(v) = edge.same_reg_cycles {
        let _ = write!(out, ", \"same_reg_cycles\": {}", fmt_f64(v));
    }
    if let Some(v) = edge.low_value_cycles {
        let _ = write!(out, ", \"low_value_cycles\": {}", fmt_f64(v));
    }
    out.push('}');
}

/// Writes one record as its canonical JSON object — the shape shared by
/// snapshot documents and query-result responses ([`crate::JsonEncoder`]).
pub(crate) fn write_record(out: &mut String, record: &VariantRecord) {
    out.push_str("{\"mnemonic\": ");
    escape_into(out, &record.mnemonic);
    out.push_str(", \"variant\": ");
    escape_into(out, &record.variant);
    out.push_str(", \"extension\": ");
    escape_into(out, &record.extension);
    out.push_str(", \"architecture\": ");
    escape_into(out, &record.uarch);
    let _ = write!(out, ", \"uops\": {}, \"ports\": ", record.uop_count);
    escape_into(out, &record.ports_notation());
    let _ = write!(out, ", \"tp_measured\": {}", fmt_f64(record.tp_measured));
    if let Some(v) = record.tp_ports {
        let _ = write!(out, ", \"tp_ports\": {}", fmt_f64(v));
    }
    if let Some(v) = record.tp_low_values {
        let _ = write!(out, ", \"tp_low_values\": {}", fmt_f64(v));
    }
    if let Some(v) = record.tp_breaking {
        let _ = write!(out, ", \"tp_breaking\": {}", fmt_f64(v));
    }
    out.push_str(", \"latency_pairs\": [");
    for (j, edge) in record.latency.iter().enumerate() {
        if j > 0 {
            out.push_str(", ");
        }
        write_edge(out, edge);
    }
    out.push_str("]}");
}

/// Serializes a snapshot to the canonical JSON document.
#[must_use]
pub fn to_json(snapshot: &Snapshot) -> String {
    let mut out = String::with_capacity(128 + snapshot.records.len() * 160);
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema_version\": {},", snapshot.schema_version);
    out.push_str("  \"generator\": ");
    escape_into(&mut out, &snapshot.generator);
    out.push_str(",\n  \"uarches\": [");
    for (i, meta) in snapshot.uarches.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("    {\"architecture\": ");
        escape_into(&mut out, &meta.name);
        out.push_str(", \"processor\": ");
        escape_into(&mut out, &meta.processor);
        let _ = write!(
            out,
            ", \"year\": {}, \"ports\": {}, \"characterized\": {}, \"skipped\": {}}}",
            meta.year, meta.ports, meta.characterized, meta.skipped
        );
    }
    out.push_str(if snapshot.uarches.is_empty() { "],\n" } else { "\n  ],\n" });
    out.push_str("  \"records\": [");
    for (i, record) in snapshot.records.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("    ");
        write_record(&mut out, record);
    }
    out.push_str(if snapshot.records.is_empty() { "]\n" } else { "\n  ]\n" });
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::UarchMeta;

    fn sample() -> Snapshot {
        let mut s = Snapshot::new("uops-info \"json\" \\ test\n\tµ\u{1}");
        s.uarches.push(UarchMeta {
            name: "Haswell".into(),
            processor: "Xeon E3-1225 v3".into(),
            year: 2013,
            ports: 8,
            characterized: 1,
            skipped: 0,
        });
        s.records.push(VariantRecord {
            mnemonic: "SHLD\"\\\n\t\u{1}µ".into(),
            variant: "R64, R64, I8".into(),
            extension: "BASE".into(),
            uarch: "Haswell".into(),
            uop_count: 1,
            ports: vec![(0b0000_0010, 1)],
            unattributed: 0,
            tp_measured: 1.0,
            tp_ports: Some(1.0),
            tp_low_values: None,
            tp_breaking: Some(0.75),
            latency: vec![
                LatencyEdge {
                    source: 1,
                    target: 0,
                    cycles: 3.0,
                    upper_bound: true,
                    same_reg_cycles: Some(1.5),
                    low_value_cycles: None,
                },
                LatencyEdge { source: 2, target: 0, cycles: 0.25, ..Default::default() },
            ],
        });
        s
    }

    #[test]
    fn sample_document_is_known_answer() {
        // One line per entry; `\u0001` is the one control character without
        // a short escape.
        let expected = [
            r#"{"#,
            r#"  "schema_version": 1,"#,
            r#"  "generator": "uops-info \"json\" \\ test\n\tµ\u0001","#,
            r#"  "uarches": ["#,
            concat!(
                r#"    {"architecture": "Haswell", "processor": "Xeon E3-1225 v3", "#,
                r#""year": 2013, "ports": 8, "characterized": 1, "skipped": 0}"#,
            ),
            r#"  ],"#,
            r#"  "records": ["#,
            concat!(
                r#"    {"mnemonic": "SHLD\"\\\n\t\u0001µ", "variant": "R64, R64, I8", "#,
                r#""extension": "BASE", "architecture": "Haswell", "uops": 1, "ports": "1*p1", "#,
                r#""tp_measured": 1, "tp_ports": 1, "tp_breaking": 0.75, "latency_pairs": ["#,
                r#"{"source": 1, "target": 0, "cycles": 3, "upper_bound": true, "#,
                r#""same_reg_cycles": 1.5}, {"source": 2, "target": 0, "cycles": 0.25}]}"#,
            ),
            r#"  ]"#,
            r#"}"#,
            "",
        ]
        .join("\n");
        assert_eq!(to_json(&sample()), expected);
    }

    #[test]
    fn empty_snapshot_is_known_answer() {
        assert_eq!(
            to_json(&Snapshot::new("g")),
            "{\n  \"schema_version\": 1,\n  \"generator\": \"g\",\n  \"uarches\": [],\n  \"records\": []\n}\n"
        );
    }
}
