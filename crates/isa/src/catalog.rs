//! The instruction catalog: the machine-readable list of all instruction
//! variants known to the tool.
//!
//! The catalog plays the role of the XML representation that the paper
//! derives from Intel XED's configuration files (§6.1): it is the sole input
//! of the benchmark-generation algorithms besides the measurement interface.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::descriptor::InstructionDesc;
use crate::extension::{Category, Extension};

/// A catalog of instruction variants.
///
/// Variants are stored in a stable order and indexed by their `uid`; the
/// catalog additionally maintains a mnemonic index for lookups.
///
/// Descriptors are interned behind [`Arc`] at insertion time: consumers that
/// need a shared handle for repeated instantiation (the assembler's `Inst`
/// stores one per instruction instance) clone the interned `Arc` via
/// [`Catalog::get_arc`] / [`Catalog::find_variant_arc`] instead of
/// deep-cloning mnemonic and operand strings on every use — the
/// characterization hot path does this once per generated microbenchmark
/// instruction.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    descriptors: Vec<Arc<InstructionDesc>>,
    by_mnemonic: BTreeMap<String, Vec<usize>>,
}

impl Catalog {
    /// Creates an empty catalog.
    #[must_use]
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Builds the full Intel Core catalog used throughout this repository.
    ///
    /// The catalog contains the base integer instruction set, the SSE family
    /// up to SSE4.2, AES-NI, carry-less multiplication, AVX/AVX2/FMA, and the
    /// BMI/ADX extensions — a few thousand instruction variants in total.
    #[must_use]
    pub fn intel_core() -> Catalog {
        let mut catalog = Catalog::new();
        crate::gen::populate(&mut catalog);
        catalog
    }

    /// Adds a descriptor, assigning its `uid`. Returns the assigned uid.
    pub fn add(&mut self, mut desc: InstructionDesc) -> usize {
        let uid = self.descriptors.len();
        desc.uid = uid;
        self.by_mnemonic.entry(desc.mnemonic.clone()).or_default().push(uid);
        self.descriptors.push(Arc::new(desc));
        uid
    }

    /// Rebuilds the mnemonic index (used after deserialization).
    pub fn rebuild_index(&mut self) {
        self.by_mnemonic.clear();
        for (i, d) in self.descriptors.iter().enumerate() {
            self.by_mnemonic.entry(d.mnemonic.clone()).or_default().push(i);
        }
    }

    /// The number of instruction variants in the catalog.
    #[must_use]
    pub fn len(&self) -> usize {
        self.descriptors.len()
    }

    /// Returns `true` if the catalog contains no variants.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.descriptors.is_empty()
    }

    /// Returns the descriptor with the given uid.
    ///
    /// # Panics
    ///
    /// Panics if `uid` is out of range.
    #[must_use]
    pub fn get(&self, uid: usize) -> &InstructionDesc {
        &self.descriptors[uid]
    }

    /// Returns the descriptor with the given uid, or `None` if out of range.
    #[must_use]
    pub fn try_get(&self, uid: usize) -> Option<&InstructionDesc> {
        self.descriptors.get(uid).map(Arc::as_ref)
    }

    /// Returns the interned shared handle for the descriptor with the given
    /// uid. Cloning the returned `Arc` is the allocation-free way to obtain
    /// an owned handle for instruction instantiation.
    ///
    /// # Panics
    ///
    /// Panics if `uid` is out of range.
    #[must_use]
    pub fn get_arc(&self, uid: usize) -> &Arc<InstructionDesc> {
        &self.descriptors[uid]
    }

    /// Returns the interned shared handle with the given uid, or `None` if
    /// out of range.
    #[must_use]
    pub fn try_get_arc(&self, uid: usize) -> Option<&Arc<InstructionDesc>> {
        self.descriptors.get(uid)
    }

    /// Iterates over all variants.
    pub fn iter(&self) -> impl Iterator<Item = &InstructionDesc> {
        self.descriptors.iter().map(Arc::as_ref)
    }

    /// Iterates over the interned shared handles of all variants.
    pub fn iter_arcs(&self) -> impl Iterator<Item = &Arc<InstructionDesc>> {
        self.descriptors.iter()
    }

    /// Interned handles of all variants of the given mnemonic (the single
    /// walk of the mnemonic index backing the lookups below).
    fn variant_arcs_of(&self, mnemonic: &str) -> impl Iterator<Item = &Arc<InstructionDesc>> {
        self.by_mnemonic
            .get(mnemonic)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
            .iter()
            .map(move |&i| &self.descriptors[i])
    }

    /// All variants of the given mnemonic.
    pub fn variants_of(&self, mnemonic: &str) -> impl Iterator<Item = &InstructionDesc> {
        self.variant_arcs_of(mnemonic).map(Arc::as_ref)
    }

    /// Finds a variant by mnemonic and variant string (e.g. `"R64, R64"`).
    #[must_use]
    pub fn find_variant(&self, mnemonic: &str, variant: &str) -> Option<&InstructionDesc> {
        self.find_variant_arc(mnemonic, variant).map(Arc::as_ref)
    }

    /// Finds a variant's interned shared handle by mnemonic and variant
    /// string. Cloning the result is cheap (reference-count bump).
    #[must_use]
    pub fn find_variant_arc(&self, mnemonic: &str, variant: &str) -> Option<&Arc<InstructionDesc>> {
        let normalized = normalize_variant(variant);
        self.variant_arcs_of(mnemonic).find(|d| normalize_variant(&d.variant()) == normalized)
    }

    /// Returns the interned handle for a descriptor that was obtained from
    /// this catalog (matched by uid and identity), or a freshly allocated
    /// clone for foreign descriptors.
    #[must_use]
    pub fn intern(&self, desc: &InstructionDesc) -> Arc<InstructionDesc> {
        match self.descriptors.get(desc.uid) {
            Some(arc) if std::ptr::eq(arc.as_ref(), desc) => Arc::clone(arc),
            _ => Arc::new(desc.clone()),
        }
    }

    /// All distinct mnemonics in the catalog.
    pub fn mnemonics(&self) -> impl Iterator<Item = &str> {
        self.by_mnemonic.keys().map(String::as_str)
    }

    /// Iterates over variants of a given category.
    pub fn by_category(&self, category: Category) -> impl Iterator<Item = &InstructionDesc> {
        self.iter().filter(move |d| d.category == category)
    }

    /// Iterates over variants of a given extension.
    pub fn by_extension(&self, extension: Extension) -> impl Iterator<Item = &InstructionDesc> {
        self.iter().filter(move |d| d.extension == extension)
    }

    /// Counts variants per extension (useful for reporting).
    #[must_use]
    pub fn extension_histogram(&self) -> BTreeMap<String, usize> {
        let mut map = BTreeMap::new();
        for d in &self.descriptors {
            *map.entry(d.extension.to_string()).or_insert(0) += 1;
        }
        map
    }
}

impl fmt::Display for Catalog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Catalog with {} variants of {} mnemonics", self.len(), self.by_mnemonic.len())
    }
}

impl<'a> IntoIterator for &'a Catalog {
    type Item = &'a InstructionDesc;
    type IntoIter = std::iter::Map<
        std::slice::Iter<'a, Arc<InstructionDesc>>,
        fn(&'a Arc<InstructionDesc>) -> &'a InstructionDesc,
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.descriptors.iter().map(Arc::as_ref)
    }
}

/// Normalizes a variant string for comparison (whitespace-insensitive,
/// case-insensitive).
fn normalize_variant(v: &str) -> String {
    v.chars().filter(|c| !c.is_whitespace()).collect::<String>().to_ascii_uppercase()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::DescBuilder;
    use crate::flags::FlagSet;
    use crate::operand::shorthand::*;
    use crate::operand::OperandDesc;
    use crate::register::Width;

    fn small_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add(
            DescBuilder::new("ADD", Category::IntAlu, Extension::Base)
                .operand(OperandDesc::read_write(r(Width::W64)))
                .operand(OperandDesc::read(r(Width::W64)))
                .writes_flags(FlagSet::ALL)
                .build(),
        );
        c.add(
            DescBuilder::new("ADD", Category::IntAlu, Extension::Base)
                .operand(OperandDesc::read_write(r(Width::W32)))
                .operand(OperandDesc::read(r(Width::W32)))
                .writes_flags(FlagSet::ALL)
                .build(),
        );
        c.add(
            DescBuilder::new("PADDD", Category::VecIntAlu, Extension::Sse2)
                .operand(OperandDesc::read_write(xmm()))
                .operand(OperandDesc::read(xmm()))
                .build(),
        );
        c
    }

    #[test]
    fn add_assigns_sequential_uids() {
        let c = small_catalog();
        assert_eq!(c.len(), 3);
        for (i, d) in c.iter().enumerate() {
            assert_eq!(d.uid, i);
        }
    }

    #[test]
    fn find_variant_is_whitespace_and_case_insensitive() {
        let c = small_catalog();
        assert!(c.find_variant("ADD", "R64, R64").is_some());
        assert!(c.find_variant("ADD", "r64,r64").is_some());
        assert!(c.find_variant("ADD", "R64 , R64").is_some());
        assert!(c.find_variant("ADD", "R64, M64").is_none());
        assert!(c.find_variant("NOPE", "R64, R64").is_none());
    }

    #[test]
    fn variants_of_and_mnemonics() {
        let c = small_catalog();
        assert_eq!(c.variants_of("ADD").count(), 2);
        assert_eq!(c.variants_of("PADDD").count(), 1);
        let mnemonics: Vec<&str> = c.mnemonics().collect();
        assert_eq!(mnemonics, vec!["ADD", "PADDD"]);
    }

    #[test]
    fn category_and_extension_filters() {
        let c = small_catalog();
        assert_eq!(c.by_category(Category::IntAlu).count(), 2);
        assert_eq!(c.by_category(Category::VecIntAlu).count(), 1);
        assert_eq!(c.by_extension(Extension::Sse2).count(), 1);
        let hist = c.extension_histogram();
        assert_eq!(hist.get("BASE"), Some(&2));
        assert_eq!(hist.get("SSE2"), Some(&1));
    }

    #[test]
    fn interned_arcs_are_shared_not_cloned() {
        let c = small_catalog();
        let desc = c.find_variant("ADD", "R64, R64").unwrap();
        // The interned handle for a catalog-borrowed descriptor aliases the
        // stored Arc (no deep clone)...
        let interned = c.intern(desc);
        assert!(std::ptr::eq(interned.as_ref(), desc));
        assert!(std::ptr::eq(interned.as_ref(), c.get(desc.uid)));
        assert!(std::ptr::eq(c.get_arc(desc.uid).as_ref(), desc));
        assert!(std::ptr::eq(c.find_variant_arc("ADD", "R64, R64").unwrap().as_ref(), desc));
        // ...while a foreign descriptor falls back to a fresh allocation.
        let mut foreign = desc.clone();
        foreign.uid = desc.uid;
        let fresh = c.intern(&foreign);
        assert!(!std::ptr::eq(fresh.as_ref(), desc));
        assert!(c.try_get_arc(usize::MAX).is_none());
    }

    #[test]
    fn rebuild_index_restores_lookup() {
        let mut c = small_catalog();
        c.by_mnemonic.clear();
        assert_eq!(c.variants_of("ADD").count(), 0);
        c.rebuild_index();
        assert_eq!(c.variants_of("ADD").count(), 2);
    }

    #[test]
    fn intel_core_catalog_is_large_and_consistent() {
        let c = Catalog::intel_core();
        assert!(c.len() > 1000, "expected a large catalog, got {}", c.len());
        // Every uid must match its position.
        for (i, d) in c.iter().enumerate() {
            assert_eq!(d.uid, i);
            assert!(!d.mnemonic.is_empty());
        }
        // Spot-check a few well-known variants.
        assert!(c.find_variant("ADD", "R64, R64").is_some());
        assert!(c.find_variant("AESDEC", "XMM, XMM").is_some());
        assert!(c.find_variant("SHLD", "R64, R64, I8").is_some());
        assert!(c.find_variant("MOVQ2DQ", "XMM, MM").is_some());
        assert!(c.find_variant("MOVDQ2Q", "MM, XMM").is_some());
    }
}
