//! Encoding-size scaling — the paper's central claim made measurable:
//! the QBF formulation encodes the cascade **once** (polynomial in `d` and
//! `|G|`, plus the unavoidable `2ⁿ·n` specification minterms), while the
//! row-wise SAT encoding of \[9\]/\[22\] duplicates the cascade for each of
//! the `2ⁿ` truth-table rows.
//!
//! Two series are printed:
//!
//! 1. instance size vs line count `n` at fixed depth `d` (QBF vs SAT),
//! 2. per-depth wall-clock of the BDD engine on a reference benchmark
//!    (the iterative checks of Figure 1).
//!
//! ```text
//! cargo run --release -p qsyn-bench --bin gen_scaling
//! ```

use qsyn_bench::format_secs;
use qsyn_core::{synthesize, Engine, GateLibrary, QbfEngine, SatEngine, SynthesisOptions};
use qsyn_revlogic::{benchmarks::random_permutation, Spec};

fn main() {
    let d = 3;
    println!("Series 1: encoding size at depth d = {d} (MCT library, random spec)");
    println!(
        "{:>2} {:>6} | {:>10} {:>12} | {:>10} {:>12} | {:>14}",
        "n", "rows", "QBF vars", "QBF clauses", "SAT vars", "SAT clauses", "clause ratio"
    );
    for n in 2..=6u32 {
        let spec = Spec::from_permutation(&random_permutation(n, 7));
        let options = SynthesisOptions::new(GateLibrary::mct(), Engine::Qbf);
        let qbf_engine = QbfEngine::new(&spec, &options);
        let instance = qbf_engine.instance(d);
        let (qv, qc) = (instance.num_vars(), instance.matrix().len());

        let sat_options = SynthesisOptions::new(GateLibrary::mct(), Engine::Sat);
        let formula = SatEngine::new(&spec, &sat_options).encode(d);
        let (sv, sc) = (formula.num_vars(), formula.len());

        println!(
            "{:>2} {:>6} | {:>10} {:>12} | {:>10} {:>12} | {:>14.2}",
            n,
            1u64 << n,
            qv,
            qc,
            sv,
            sc,
            sc as f64 / qc as f64
        );
    }
    println!();
    println!("Expected shape: the SAT/QBF clause ratio grows with 2^n — the QBF");
    println!("instance encodes the network once, the SAT instance once per row.");
    println!();

    println!("Series 2: per-depth time of the BDD engine on 3_17 (Figure 1 loop)");
    let bench = qsyn_revlogic::benchmarks::by_name("3_17").expect("known benchmark");
    let result = synthesize(
        &bench.spec,
        &SynthesisOptions::new(GateLibrary::mct(), Engine::Bdd),
    )
    .expect("3_17 synthesizes");
    println!("{:>5} {:>12} {:>10}", "d", "outcome", "time");
    // Deepening starts at the spec's depth lower bound, not at 0.
    let times = result.depth_times();
    let first = result.depth() + 1 - times.len() as u32;
    for (d, t) in (first..).zip(times) {
        let outcome = if d == result.depth() { "SAT" } else { "unsat" };
        println!("{:>5} {:>12} {:>10}", d, outcome, format_secs(*t));
    }
    println!(
        "minimal depth {} found in {} total",
        result.depth(),
        format_secs(result.total_time())
    );
}
