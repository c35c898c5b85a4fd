//! The XML snapshot encoding (§6.4), in the style of the uops.info file:
//! instruction variants are grouped so that each `<instruction>` element
//! contains one `<architecture>` element per microarchitecture that
//! characterized it.
//!
//! XML is an *export-only* view for downstream consumers (simulators,
//! compilers), as is [`crate::json`]; the lossless interchange format is
//! [`crate::codec`].

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::snapshot::{Snapshot, VariantRecord};

pub(crate) fn escape(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;").replace('"', "&quot;")
}

pub(crate) fn write_architecture(out: &mut String, record: &VariantRecord) {
    let _ = writeln!(out, "    <architecture name=\"{}\">", escape(&record.uarch));
    let _ = write!(
        out,
        "      <measurement uops=\"{}\" ports=\"{}\" tp-measured=\"{:.2}\"",
        record.uop_count,
        record.ports_notation(),
        record.tp_measured
    );
    if let Some(tp) = record.tp_ports {
        let _ = write!(out, " tp-ports=\"{tp:.2}\"");
    }
    if let Some(tp) = record.tp_low_values {
        let _ = write!(out, " tp-low-values=\"{tp:.2}\"");
    }
    out.push_str(">\n");
    for edge in &record.latency {
        let _ = write!(
            out,
            "        <latency start_op=\"{}\" target_op=\"{}\" cycles=\"{:.2}\"",
            edge.source, edge.target, edge.cycles
        );
        if edge.upper_bound {
            out.push_str(" upper_bound=\"1\"");
        }
        if let Some(same) = edge.same_reg_cycles {
            let _ = write!(out, " same_reg_cycles=\"{same:.2}\"");
        }
        if let Some(low) = edge.low_value_cycles {
            let _ = write!(out, " low_value_cycles=\"{low:.2}\"");
        }
        out.push_str("/>\n");
    }
    out.push_str("      </measurement>\n");
    out.push_str("    </architecture>\n");
}

/// Serializes a snapshot to the grouped XML document. Within each
/// instruction element, architectures appear in the order of
/// [`Snapshot::uarches`] (any record whose uarch has no metadata entry
/// follows, in record order).
#[must_use]
pub fn to_xml(snapshot: &Snapshot) -> String {
    let mut out = String::with_capacity(128 + snapshot.records.len() * 200);
    out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    out.push_str("<uops>\n");

    // Group records by (mnemonic, variant), keeping the extension.
    let mut groups: BTreeMap<(&str, &str), (&str, Vec<&VariantRecord>)> = BTreeMap::new();
    for record in &snapshot.records {
        groups
            .entry((&record.mnemonic, &record.variant))
            .or_insert_with(|| (&record.extension, Vec::new()))
            .1
            .push(record);
    }

    let uarch_rank = |name: &str| -> usize {
        snapshot.uarches.iter().position(|m| m.name == name).unwrap_or(snapshot.uarches.len())
    };

    for ((mnemonic, variant), (extension, mut records)) in groups {
        let _ = writeln!(
            out,
            "  <instruction mnemonic=\"{}\" variant=\"{}\" extension=\"{}\">",
            escape(mnemonic),
            escape(variant),
            escape(extension)
        );
        records.sort_by_key(|r| uarch_rank(&r.uarch));
        for record in records {
            write_architecture(&mut out, record);
        }
        out.push_str("  </instruction>\n");
    }
    out.push_str("</uops>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{LatencyEdge, UarchMeta};

    #[test]
    fn groups_architectures_under_one_instruction() {
        let mut s = Snapshot::new("test");
        s.uarches.push(UarchMeta { name: "Skylake".into(), ..Default::default() });
        s.uarches.push(UarchMeta { name: "Nehalem".into(), ..Default::default() });
        for uarch in ["Nehalem", "Skylake"] {
            s.records.push(VariantRecord {
                mnemonic: "ADD".into(),
                variant: "R64, R64".into(),
                extension: "BASE".into(),
                uarch: uarch.into(),
                uop_count: 1,
                ports: vec![(0b0110_0011, 1)],
                tp_measured: 0.25,
                tp_ports: Some(0.25),
                latency: vec![LatencyEdge {
                    source: 0,
                    target: 1,
                    cycles: 1.0,
                    upper_bound: true,
                    same_reg_cycles: Some(1.0),
                    ..Default::default()
                }],
                ..Default::default()
            });
        }
        let xml = to_xml(&s);
        assert_eq!(xml.matches("<instruction mnemonic=\"ADD\"").count(), 1);
        assert_eq!(xml.matches("<architecture").count(), 2);
        // Architecture order follows the uarch metadata order.
        let skylake = xml.find("name=\"Skylake\"").unwrap();
        let nehalem = xml.find("name=\"Nehalem\"").unwrap();
        assert!(skylake < nehalem);
        assert!(xml.contains("ports=\"1*p0156\""));
        assert!(xml.contains("upper_bound=\"1\""));
        assert!(xml.contains("same_reg_cycles=\"1.00\""));
    }

    #[test]
    fn escaping_special_characters() {
        let mut s = Snapshot::new("test");
        s.records.push(VariantRecord {
            mnemonic: "A<B>&\"C\"".into(),
            variant: "R64".into(),
            ..Default::default()
        });
        let xml = to_xml(&s);
        assert!(xml.contains("A&lt;B&gt;&amp;&quot;C&quot;"));
    }
}
