//! Machine-readable XML representation of the instruction catalog.
//!
//! The paper converts Intel XED's configuration files into "a simpler XML
//! representation that contains enough information for generating assembler
//! code for each instruction variant, and that also includes information on
//! implicit operands" (§6.1). This module writes the same representation of
//! this repository's catalog, with a small, dependency-free XML writer. It
//! is an export: the catalog itself is generated in code ([`crate::gen`]),
//! never read back from XML.
//!
//! The format looks like:
//!
//! ```xml
//! <catalog>
//!   <instruction mnemonic="ADD" extension="BASE" category="IntAlu" uid="0">
//!     <operand kind="R64" read="1" write="1" implicit="0"/>
//!     <operand kind="R64" read="1" write="0" implicit="0"/>
//!     <operand kind="FLAGS" read="0" write="1" implicit="1" flags="CF|PF|AF|ZF|SF|OF"/>
//!   </instruction>
//! </catalog>
//! ```

use std::fmt::Write as _;

use crate::catalog::Catalog;
use crate::descriptor::InstructionDesc;
use crate::operand::{OperandDesc, OperandKind};

/// Serializes a catalog to XML.
#[must_use]
pub fn catalog_to_xml(catalog: &Catalog) -> String {
    let mut out = String::with_capacity(catalog.len() * 256);
    out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    out.push_str("<catalog>\n");
    for desc in catalog.iter() {
        write_instruction(&mut out, desc);
    }
    out.push_str("</catalog>\n");
    out
}

fn write_instruction(out: &mut String, desc: &InstructionDesc) {
    let _ = write!(
        out,
        "  <instruction mnemonic=\"{}\" extension=\"{}\" category=\"{:?}\" uid=\"{}\"",
        escape(&desc.mnemonic),
        desc.extension,
        desc.category,
        desc.uid
    );
    let a = &desc.attrs;
    let attr_flags: &[(&str, bool)] = &[
        ("system", a.system),
        ("serializing", a.serializing),
        ("zeroLatency", a.may_be_zero_latency),
        ("zeroIdiom", a.zero_idiom),
        ("depBreaking", a.dependency_breaking_same_reg),
        ("controlFlow", a.control_flow),
        ("locked", a.locked),
        ("rep", a.rep_prefix),
        ("divider", a.uses_divider),
        ("pause", a.pause),
    ];
    for (name, value) in attr_flags {
        if *value {
            let _ = write!(out, " {name}=\"1\"");
        }
    }
    out.push_str(">\n");
    for op in &desc.operands {
        write_operand(out, op);
    }
    out.push_str("  </instruction>\n");
}

fn write_operand(out: &mut String, op: &OperandDesc) {
    let _ = write!(
        out,
        "    <operand kind=\"{}\" read=\"{}\" write=\"{}\" implicit=\"{}\"",
        op.kind.type_name(),
        u8::from(op.read),
        u8::from(op.write),
        u8::from(op.implicit)
    );
    if let OperandKind::Flags(set) = op.kind {
        let _ = write!(out, " flags=\"{set}\"");
    }
    out.push_str("/>\n");
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;").replace('"', "&quot;")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_instruction_is_known_answer() {
        let full = Catalog::intel_core();
        let mut catalog = Catalog::new();
        for (mnemonic, variant) in [("ADD", "R64, R64"), ("DIV", "R32")] {
            catalog.add(full.find_variant(mnemonic, variant).expect("variant exists").clone());
        }
        let expected = [
            r#"<?xml version="1.0" encoding="UTF-8"?>"#,
            r#"<catalog>"#,
            r#"  <instruction mnemonic="ADD" extension="BASE" category="IntAlu" uid="0">"#,
            r#"    <operand kind="R64" read="1" write="1" implicit="0"/>"#,
            r#"    <operand kind="R64" read="1" write="0" implicit="0"/>"#,
            r#"    <operand kind="FLAGS" read="0" write="1" implicit="1" flags="CF|PF|AF|ZF|SF|OF"/>"#,
            r#"  </instruction>"#,
            r#"  <instruction mnemonic="DIV" extension="BASE" category="IntDiv" uid="1" divider="1">"#,
            r#"    <operand kind="R32" read="1" write="0" implicit="0"/>"#,
            r#"    <operand kind="EAX" read="1" write="1" implicit="1"/>"#,
            r#"    <operand kind="EDX" read="1" write="1" implicit="1"/>"#,
            r#"    <operand kind="FLAGS" read="0" write="1" implicit="1" flags="CF|PF|AF|ZF|SF|OF"/>"#,
            r#"  </instruction>"#,
            r#"</catalog>"#,
            "",
        ]
        .join("\n");
        assert_eq!(catalog_to_xml(&catalog), expected);
    }

    #[test]
    fn xml_contains_implicit_operands() {
        let mut catalog = Catalog::new();
        crate::gen::populate(&mut catalog);
        let xml = catalog_to_xml(&catalog);
        assert!(xml.contains("implicit=\"1\""));
        assert!(xml.contains("flags=\""));
        assert!(xml.contains("mnemonic=\"AESDEC\""));
    }

    #[test]
    fn escape_is_known_answer() {
        assert_eq!(escape("a<b>&\"c\""), "a&lt;b&gt;&amp;&quot;c&quot;");
        assert_eq!(escape("&lt;"), "&amp;lt;");
        assert_eq!(escape("R64, R64"), "R64, R64");
    }
}
