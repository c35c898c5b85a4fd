//! Code sequences: ordered lists of instruction instances forming the body of
//! a microbenchmark.

use std::fmt;
use std::iter::{Flatten, RepeatN};

use crate::inst::Inst;

/// An ordered sequence of instruction instances, stored as a *body* that is
/// unrolled a number of times.
///
/// A code sequence is what the measurement harness executes (the `AsmCode`
/// of Algorithm 2 in the paper): the sequence is unrolled a configurable
/// number of times and wrapped in the measurement prologue/epilogue by the
/// backend. [`CodeSequence::repeat`] records the unroll count instead of
/// copying the body, so an unrolled sequence costs one copy of its body.
/// [`CodeSequence::len`], [`CodeSequence::iter`] and
/// [`CodeSequence::listing`] walk the body [`CodeSequence::unroll`] times, so
/// every consumer sees the unrolled instruction stream; a simulator can use
/// [`CodeSequence::body`] and [`CodeSequence::unroll`] to prepare the body
/// once. [`CodeSequence::push`] and [`CodeSequence::extend_from`] on an
/// unrolled sequence first copy the body out into one flat body.
#[derive(Debug, Clone)]
pub struct CodeSequence {
    body: Vec<Inst>,
    /// How many times `body` runs; at least 1 (an empty sequence has an
    /// empty body and an unroll count of 1).
    unroll: usize,
}

impl Default for CodeSequence {
    fn default() -> CodeSequence {
        CodeSequence { body: Vec::new(), unroll: 1 }
    }
}

impl CodeSequence {
    /// Creates an empty sequence.
    #[must_use]
    pub fn new() -> CodeSequence {
        CodeSequence::default()
    }

    /// Creates a sequence from a list of instructions.
    #[must_use]
    pub fn from_instructions(instructions: Vec<Inst>) -> CodeSequence {
        CodeSequence { body: instructions, unroll: 1 }
    }

    /// Copies an unrolled body out into one flat body, so that appending
    /// goes after the last unrolled copy.
    fn materialize(&mut self) {
        if self.unroll > 1 {
            let mut flat = Vec::with_capacity(self.len());
            for _ in 0..self.unroll {
                flat.extend_from_slice(&self.body);
            }
            self.body = flat;
            self.unroll = 1;
        }
    }

    /// Appends an instruction.
    pub fn push(&mut self, inst: Inst) {
        self.materialize();
        self.body.push(inst);
    }

    /// Appends all instructions of another sequence.
    pub fn extend_from(&mut self, other: &CodeSequence) {
        self.materialize();
        self.body.extend(other.iter().cloned());
    }

    /// Returns a new sequence consisting of `n` copies of this sequence.
    /// Only the body is copied; the result runs it `n` times as often.
    #[must_use]
    pub fn repeat(&self, n: usize) -> CodeSequence {
        if n == 0 || self.body.is_empty() {
            return CodeSequence::new();
        }
        CodeSequence { body: self.body.clone(), unroll: self.unroll * n }
    }

    /// The number of instructions in the sequence, counting every unrolled
    /// copy of the body.
    #[must_use]
    pub fn len(&self) -> usize {
        self.body.len() * self.unroll
    }

    /// Returns `true` if the sequence contains no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.body.is_empty()
    }

    /// The instructions of one copy of the body.
    #[must_use]
    pub fn body(&self) -> &[Inst] {
        &self.body
    }

    /// How many times the body runs (at least 1).
    #[must_use]
    pub fn unroll(&self) -> usize {
        self.unroll
    }

    /// Iterates over the instructions, body after body.
    pub fn iter(&self) -> Flatten<RepeatN<&[Inst]>> {
        std::iter::repeat_n(&self.body[..], self.unroll).flatten()
    }

    /// A multi-line Intel-syntax listing of the sequence.
    #[must_use]
    pub fn listing(&self) -> String {
        let mut out = String::new();
        for inst in self {
            out.push_str(&inst.to_intel_syntax());
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for CodeSequence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.listing())
    }
}

impl FromIterator<Inst> for CodeSequence {
    fn from_iter<T: IntoIterator<Item = Inst>>(iter: T) -> CodeSequence {
        CodeSequence::from_instructions(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a CodeSequence {
    type Item = &'a Inst;
    type IntoIter = Flatten<RepeatN<&'a [Inst]>>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::variant_arc;
    use crate::operand::Op;
    use crate::pool::RegisterPool;
    use std::collections::BTreeMap;
    use uops_isa::{gpr, Catalog, Register, Width};

    fn movsx_chain(len: usize) -> CodeSequence {
        // MOVSX RBX, CX ; MOVSX RCX, BX ; ... a classic latency chain.
        let c = Catalog::intel_core();
        let desc = variant_arc(&c, "MOVSX", "R64, R16").unwrap();
        let mut pool = RegisterPool::new();
        let a = Register::gpr(gpr::RBX, Width::W64);
        let b = Register::gpr(gpr::RCX, Width::W64);
        let mut seq = CodeSequence::new();
        for i in 0..len {
            let (dst, src) = if i % 2 == 0 { (a, b) } else { (b, a) };
            let mut assign = BTreeMap::new();
            assign.insert(0, Op::Reg(dst));
            assign.insert(1, Op::Reg(src.with_width(Width::W16)));
            seq.push(crate::inst::Inst::bind(&desc, &assign, &mut pool).unwrap());
        }
        seq
    }

    /// `ADD RAX, RAX`: an instruction distinguishable from the MOVSX body.
    fn add() -> Inst {
        let c = Catalog::intel_core();
        let desc = variant_arc(&c, "ADD", "R64, R64").unwrap();
        let rax = Register::gpr(gpr::RAX, Width::W64);
        let mut assign = BTreeMap::new();
        assign.insert(0, Op::Reg(rax));
        assign.insert(1, Op::Reg(rax));
        Inst::bind(&desc, &assign, &mut RegisterPool::new()).unwrap()
    }

    /// The listing a sequence would have with its body written out `n` times.
    fn flat_listing(body: &CodeSequence, n: usize) -> String {
        body.listing().repeat(n)
    }

    #[test]
    fn repeat_multiplies_length_without_copying_the_body() {
        let seq = movsx_chain(2);
        let repeated = seq.repeat(10);
        assert_eq!(repeated.len(), 20);
        assert_eq!(repeated.body().len(), 2);
        assert_eq!(repeated.unroll(), 10);
        assert_eq!(repeated.iter().filter(|i| i.mnemonic() == "MOVSX").count(), 20);
        let nested = seq.repeat(3).repeat(4);
        assert_eq!((nested.body().len(), nested.unroll(), nested.len()), (2, 12, 24));
    }

    #[test]
    fn len_iter_and_listing_agree_with_the_unrolled_body() {
        let body = movsx_chain(3);
        for n in [1, 2, 7] {
            let seq = body.repeat(n);
            let mut pushed = CodeSequence::new();
            for _ in 0..n {
                for inst in body.body() {
                    pushed.push(inst.clone());
                }
            }
            assert_eq!(seq.len(), pushed.len());
            assert_eq!(seq.iter().count(), seq.len());
            assert_eq!((&seq).into_iter().count(), seq.len());
            assert_eq!(seq.listing(), pushed.listing());
            assert_eq!(seq.listing(), flat_listing(&body, n));
            let walked: String = seq.iter().map(|i| i.to_intel_syntax() + "\n").collect();
            assert_eq!(walked, seq.listing());
        }
    }

    #[test]
    fn repeat_zero_is_empty() {
        let seq = movsx_chain(4);
        for empty in [seq.repeat(0), seq.repeat(3).repeat(0), CodeSequence::new().repeat(5)] {
            assert!(empty.is_empty());
            assert_eq!(empty.len(), 0);
            assert_eq!(empty.iter().count(), 0);
            assert_eq!(empty.listing(), "");
            assert_eq!(empty.unroll(), 1);
        }
    }

    #[test]
    fn push_after_repeat_appends_after_the_last_copy() {
        let body = movsx_chain(2);
        let mut seq = body.repeat(3);
        seq.push(add());
        assert_eq!(seq.len(), 7);
        assert_eq!(seq.unroll(), 1);
        assert_eq!(seq.listing(), flat_listing(&body, 3) + "ADD RAX, RAX\n");

        // Appending a sequence keeps the order of both sides, and the
        // appended side is walked unrolled.
        let mut front = CodeSequence::from_instructions(vec![add()]).repeat(2);
        front.extend_from(&body.repeat(2));
        assert_eq!(front.len(), 6);
        assert_eq!(front.listing(), "ADD RAX, RAX\n".repeat(2) + &flat_listing(&body, 2));

        // An empty sequence built by repeat(0) still takes pushes.
        let mut empty = body.repeat(0);
        empty.push(add());
        assert_eq!(empty.listing(), "ADD RAX, RAX\n");
    }

    #[test]
    fn listing_contains_all_instructions() {
        let seq = movsx_chain(3);
        let listing = seq.listing();
        assert_eq!(listing.lines().count(), 3);
        assert!(listing.lines().all(|l| l.starts_with("MOVSX ")));
        assert_eq!(seq.to_string(), listing);
        assert_eq!(seq.repeat(2).to_string(), listing.repeat(2));
    }

    #[test]
    fn from_iterator_collects() {
        let seq = movsx_chain(5);
        let collected: CodeSequence = seq.iter().cloned().collect();
        assert_eq!(collected.len(), 5);
        let unrolled: CodeSequence = seq.repeat(2).iter().cloned().collect();
        assert_eq!((unrolled.body().len(), unrolled.unroll()), (10, 1));
    }
}
