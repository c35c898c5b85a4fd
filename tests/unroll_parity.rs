//! An unrolled sequence simulates exactly like its written-out copy.
//!
//! `CodeSequence::repeat` records an unroll count instead of copying the
//! body, and `Pipeline::execute` decodes that body once and loops over it.
//! These tests build the same instruction stream both ways, once with
//! `repeat` and once by `push`ing every copy into a flat body, and require
//! identical counters on every microarchitecture, for every unroll factor
//! from 1 to 29 and for nested repeats.

use std::collections::BTreeMap;

use uops_info::core_::codegen::independent_copies;
use uops_info::pipeline::SimOptions;
use uops_info::prelude::*;

/// Every `STRIDE`-th bindable catalog variant is sampled.
const STRIDE: usize = 97;

/// Variants whose runs exercise the renamer's special paths (move
/// elimination draws from the RNG, zero idioms, the divider, forwarding
/// through memory), sampled in addition to the stride.
const NAMED: [(&str, &str); 6] = [
    ("MOV", "R64, R64"),
    ("XOR", "R64, R64"),
    ("DIV", "R32"),
    ("MOV", "M64, R64"),
    ("MOVSX", "R64, R16"),
    ("ADDPS", "XMM, XMM"),
];

/// The bodies under test: single sampled instructions (which chain through
/// their own operands) and bodies of eight independent copies.
fn bodies(catalog: &Catalog) -> Vec<CodeSequence> {
    let mut out = Vec::new();
    for (i, desc) in catalog.iter_arcs().enumerate() {
        let named = NAMED.iter().any(|&(m, v)| desc.mnemonic == m && desc.variant() == v);
        if desc.attrs.pause || !(named || i % STRIDE == 0) {
            continue;
        }
        let Ok(inst) = Inst::bind(desc, &BTreeMap::new(), &mut RegisterPool::new()) else {
            continue;
        };
        out.push(CodeSequence::from_instructions(vec![inst]));
        if let Ok(copies) = independent_copies(desc, 8, &mut RegisterPool::new()) {
            out.push(CodeSequence::from_instructions(copies));
        }
    }
    out
}

/// `body` written out `n` times by pushing every instruction.
fn pushed(body: &CodeSequence, n: usize) -> CodeSequence {
    let mut seq = CodeSequence::new();
    for _ in 0..n {
        for inst in body.body() {
            seq.push(inst.clone());
        }
    }
    seq
}

#[test]
fn repeated_bodies_simulate_like_pushed_copies() {
    let catalog = Catalog::intel_core();
    let bodies = bodies(&catalog);
    assert!(bodies.len() > 20, "sampled only {} bodies", bodies.len());
    parallel_map(Parallelism::Auto, &MicroArch::ALL, |&arch| {
        let sims = [
            Pipeline::new(arch),
            Pipeline::with_options(
                arch,
                SimOptions { divider_low_latency: true, seed: 7, ..SimOptions::default() },
            ),
        ];
        for body in &bodies {
            for sim in &sims {
                for n in 1..30 {
                    let unrolled = body.repeat(n);
                    assert_eq!(unrolled.body().len(), body.len());
                    assert_eq!(
                        sim.execute(&unrolled),
                        sim.execute(&pushed(body, n)),
                        "{arch:?}, {n} x\n{body}"
                    );
                }
                for (a, b) in [(2, 3), (5, 5), (3, 7)] {
                    assert_eq!(
                        sim.execute(&body.repeat(a).repeat(b)),
                        sim.execute(&pushed(body, a * b)),
                        "{arch:?}, {a} x {b} x\n{body}"
                    );
                }
            }
        }
    });
}
