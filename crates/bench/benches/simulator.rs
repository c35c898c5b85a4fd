//! Criterion benchmarks of the pipeline simulator: dependent chains,
//! independent ALU sequences, and a body that saturates a single port, each
//! at two lengths on a 6-port and an 8-port microarchitecture.
//!
//! The single-port body is what Algorithm 1's blocking sequences look like:
//! every µop competes for the same port, so the scheduler's search for a free
//! cycle is the cost that grows with the body length.

use std::collections::BTreeMap;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use uops_asm::{variant_arc, CodeSequence, Inst, Op, RegisterPool};
use uops_isa::{gpr, Catalog, Register, Width};
use uops_pipeline::Pipeline;
use uops_uarch::MicroArch;

fn dependent_chain(catalog: &Catalog, len: usize) -> CodeSequence {
    let desc = variant_arc(catalog, "MOVSX", "R64, R16").unwrap();
    let a = Register::gpr(gpr::RBX, Width::W64);
    let b = Register::gpr(gpr::RCX, Width::W64);
    let mut pool = RegisterPool::new();
    let mut seq = CodeSequence::new();
    for i in 0..len {
        let (dst, src) = if i % 2 == 0 { (a, b) } else { (b, a) };
        let mut assign = BTreeMap::new();
        assign.insert(0, Op::Reg(dst));
        assign.insert(1, Op::Reg(src.with_width(Width::W16)));
        seq.push(Inst::bind(&desc, &assign, &mut pool).unwrap());
    }
    seq
}

/// `len` independent copies of one variant.
fn independent(catalog: &Catalog, mnemonic: &str, variant: &str, len: usize) -> CodeSequence {
    let desc = variant_arc(catalog, mnemonic, variant).unwrap();
    let mut pool = RegisterPool::new();
    uops_core::codegen::independent_copies(&desc, len, &mut pool).unwrap().into_iter().collect()
}

fn bench_simulator(c: &mut Criterion) {
    let catalog = Catalog::intel_core();
    let mut group = c.benchmark_group("simulator");
    group.sample_size(20).measurement_time(Duration::from_secs(3));

    for &len in &[64usize, 512] {
        let chain = dependent_chain(&catalog, len);
        let independent_alu = independent(&catalog, "ADD", "R64, R64", len);
        // PSHUFD's only µop runs on the shuffle port (p5).
        let single_port = independent(&catalog, "PSHUFD", "XMM, XMM, I8", len);
        for arch in [MicroArch::Nehalem, MicroArch::Skylake] {
            let sim = Pipeline::new(arch);
            group.bench_with_input(
                BenchmarkId::new(format!("dependent_chain_{}", arch.name()), len),
                &chain,
                |b, seq| b.iter(|| sim.execute(seq)),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("independent_alu_{}", arch.name()), len),
                &independent_alu,
                |b, seq| b.iter(|| sim.execute(seq)),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("single_port_{}", arch.name()), len),
                &single_port,
                |b, seq| b.iter(|| sim.execute(seq)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_simulator);
criterion_main!(benches);
