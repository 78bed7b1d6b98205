//! Criterion bench for the PR 3 BDD kernel overhaul: the fused ∀-AND
//! `check()` against the legacy build-then-quantify path, plus a
//! manager-level microbench of `and_forall` against `forall(and(..))`.
//!
//! The `kernel` scenario of the `trajectory` binary gates the same small
//! Table 1 functions' deterministic counters; this bench gives
//! statistically robust timings for both `check()` paths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qsyn_bdd::Manager;
use qsyn_core::{synthesize, Engine, GateLibrary, SynthesisOptions};
use qsyn_revlogic::benchmarks;

const FAST: &[&str] = &["3_17", "rd32-v0", "rd32-v1", "decod24-v0"];

fn bench_fused_vs_legacy(c: &mut Criterion) {
    let mut group = c.benchmark_group("bdd_kernels/check");
    group.sample_size(10);
    for name in FAST {
        let bench = benchmarks::by_name(name).expect("known benchmark");
        let configs: [(&str, SynthesisOptions); 2] = [
            (
                "fused",
                SynthesisOptions::new(GateLibrary::mct(), Engine::Bdd),
            ),
            (
                "legacy",
                SynthesisOptions::new(GateLibrary::mct(), Engine::Bdd)
                    .with_fused_quantification(false),
            ),
        ];
        for (mode, options) in configs {
            group.bench_with_input(BenchmarkId::new(mode, name), &options, |b, options| {
                b.iter(|| {
                    let r = synthesize(&bench.spec, options).expect("synthesizes");
                    assert!(r.depth() > 0);
                    r.depth()
                })
            });
        }
    }
    group.finish();
}

/// A dense conjunction over shared variables, quantified over half of
/// them — the access pattern of `check()` boiled down to one manager call.
/// The operands form a variable matching with the quantified block on top
/// of the order, so the raw product is exponential in the block size while
/// the quantified result collapses — exactly the shape where fusing the ∧
/// into the ∀ descent avoids materializing the intermediate.
fn bench_and_forall_kernel(c: &mut Criterion) {
    const VARS: u32 = 20;
    let quantified: Vec<u32> = (0..VARS / 2).collect();
    let mut group = c.benchmark_group("bdd_kernels/and_forall");
    group.sample_size(20);
    group.bench_function("fused", |b| {
        b.iter(|| {
            let (mut m, f, g) = operands(VARS);
            m.and_forall(f, g, &quantified)
        })
    });
    group.bench_function("unfused", |b| {
        b.iter(|| {
            let (mut m, f, g) = operands(VARS);
            let fg = m.and(f, g);
            m.forall(fg, &quantified)
        })
    });
    group.finish();
}

fn operands(vars: u32) -> (Manager, qsyn_bdd::Bdd, qsyn_bdd::Bdd) {
    let mut m = Manager::new(vars);
    let mut f = qsyn_bdd::Bdd::ONE;
    let mut g = qsyn_bdd::Bdd::ZERO;
    let half = vars / 2;
    for v in 0..half {
        let x = m.var(v);
        let y = m.var(v + half);
        let xy = m.xor(x, y);
        f = m.and(f, xy);
        let and = m.and(x, y);
        g = m.or(g, and);
    }
    (m, f, g)
}

criterion_group!(benches, bench_fused_vs_legacy, bench_and_forall_kernel);
criterion_main!(benches);
