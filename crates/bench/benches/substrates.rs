//! Microbenchmarks of the substrates: BDD operations, CDCL solving and QBF
//! solving — the building blocks whose constants decide where the paper's
//! crossovers fall.

use criterion::{criterion_group, criterion_main, Criterion};
use qsyn_bdd::Manager;
use qsyn_core::{Engine, GateLibrary, SatEngine, SynthesisOptions};
use qsyn_qbf::{ExpansionSolver, QbfFormula, QdpllSolver, Quantifier};
use qsyn_revlogic::benchmarks;
use qsyn_sat::{CnfFormula, Lit, Solver};

/// n-queens as CNF — a classic CDCL workload.
fn queens_cnf(n: u32) -> CnfFormula {
    let var = |r: u32, c: u32| r * n + c;
    let mut f = CnfFormula::new(n * n);
    for r in 0..n {
        f.add_clause((0..n).map(|c| Lit::pos(var(r, c))));
        for c1 in 0..n {
            for c2 in (c1 + 1)..n {
                f.add_clause([Lit::neg(var(r, c1)), Lit::neg(var(r, c2))]);
            }
        }
    }
    for c in 0..n {
        for r1 in 0..n {
            for r2 in (r1 + 1)..n {
                f.add_clause([Lit::neg(var(r1, c)), Lit::neg(var(r2, c))]);
                let d = r2 - r1;
                if c + d < n {
                    f.add_clause([Lit::neg(var(r1, c)), Lit::neg(var(r2, c + d))]);
                }
                if c >= d {
                    f.add_clause([Lit::neg(var(r1, c)), Lit::neg(var(r2, c - d))]);
                }
            }
        }
    }
    f
}

fn bench_bdd_ops(c: &mut Criterion) {
    c.bench_function("bdd/build_16bit_adder_carry", |b| {
        b.iter(|| {
            // Carry chain of a 16-bit adder: classic BDD stress test.
            let mut m = Manager::new(32);
            let mut carry = m.zero();
            for i in 0..16 {
                let x = m.var(2 * i);
                let y = m.var(2 * i + 1);
                let xy = m.and(x, y);
                let xor = m.xor(x, y);
                let through = m.and(xor, carry);
                carry = m.or(xy, through);
            }
            assert!(m.node_count() > 16);
            m.node_count()
        })
    });
    c.bench_function("bdd/forall_quantification", |b| {
        let mut m = Manager::new(20);
        let mut f = m.one();
        for i in 0..10 {
            let x = m.var(i);
            let y = m.var(i + 10);
            let eq = m.xnor(x, y);
            f = m.and(f, eq);
        }
        let vars: Vec<u32> = (0..10).collect();
        b.iter(|| {
            m.clear_caches();
            m.forall(f, &vars)
        })
    });
}

fn bench_sat(c: &mut Criterion) {
    c.bench_function("sat/queens8_sat", |b| {
        let f = queens_cnf(8);
        b.iter(|| {
            let mut s = Solver::from_formula(&f);
            assert!(s.solve().is_sat());
        })
    });
    c.bench_function("sat/queens3_unsat", |b| {
        let f = queens_cnf(3);
        b.iter(|| {
            let mut s = Solver::from_formula(&f);
            assert!(!s.solve().is_sat());
        })
    });
    // A real Table 1 instance: decod24-v3's row-wise encoding one gate
    // short of its minimum of 6, refuted after about 3.8k conflicts and
    // 0.4M propagations, so the propagation kernel dominates.
    let Some(decod) = benchmarks::by_name("decod24-v3") else {
        panic!("decod24-v3 is a built-in benchmark");
    };
    let options = SynthesisOptions::new(GateLibrary::mct(), Engine::Sat);
    let f = SatEngine::new(&decod.spec, &options).encode(5);
    let mut group = c.benchmark_group("sat");
    group.sample_size(5);
    group.bench_function("decod24-v3_depth5_unsat", |b| {
        b.iter(|| {
            let mut s = Solver::from_formula(&f);
            assert!(!s.solve().is_sat());
        })
    });
    group.finish();
}

fn bench_qbf(c: &mut Criterion) {
    // ∀x₁..x₆ ∃y₁..y₆ : yᵢ = xᵢ ⊕ x_{i+1 mod 6} — true, forces real search.
    let mut qbf = QbfFormula::new(12);
    qbf.add_block(Quantifier::Forall, 0..6);
    qbf.add_block(Quantifier::Exists, 6..12);
    for i in 0..6u32 {
        let x1 = i;
        let x2 = (i + 1) % 6;
        let y = 6 + i;
        qbf.add_clause([Lit::neg(y), Lit::pos(x1), Lit::pos(x2)]);
        qbf.add_clause([Lit::neg(y), Lit::neg(x1), Lit::neg(x2)]);
        qbf.add_clause([Lit::pos(y), Lit::neg(x1), Lit::pos(x2)]);
        qbf.add_clause([Lit::pos(y), Lit::pos(x1), Lit::neg(x2)]);
    }
    c.bench_function("qbf/qdpll_xor_game", |b| {
        b.iter(|| {
            let mut s = QdpllSolver::new(&qbf);
            assert!(s.solve());
        })
    });
    c.bench_function("qbf/expansion_xor_game", |b| {
        b.iter(|| {
            let mut s = ExpansionSolver::new(&qbf);
            assert!(s.solve());
        })
    });
}

criterion_group!(benches, bench_bdd_ops, bench_sat, bench_qbf);
criterion_main!(benches);
