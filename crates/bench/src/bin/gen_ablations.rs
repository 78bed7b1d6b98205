//! Ablations of the design choices called out in `DESIGN.md`:
//!
//! * **A — variable order**: `X,Y` (the paper's fixed order) vs `Y,X`
//!   (predicted to blow the BDD up, Section 5.2),
//! * **B — incremental `F_d`**: carrying the cascade BDD across depth
//!   iterations vs rebuilding it from scratch each depth,
//! * **C — gate-select encoding** in the SAT baseline: one-hot \[9\] vs
//!   binary \[22\]-style.
//!
//! ```text
//! cargo run --release -p qsyn-bench --bin gen_ablations
//! ```

use qsyn_bench::{format_secs, run_budgeted, timeout_from_env, RunOutcome};
use qsyn_core::{
    synthesize, Engine, GateLibrary, Resource, SatSelectEncoding, SynthesisError, SynthesisOptions,
    VarOrder,
};
use qsyn_revlogic::benchmarks;
use qsyn_revlogic::Spec;
use std::time::{Duration, Instant};

const ABLATION_BENCHES: &[&str] = &["3_17", "rd32-v0", "decod24-v0", "mod5d1"];

fn cell(out: &RunOutcome, budget: Duration) -> String {
    out.time_cell(budget)
}

/// One ablation-A run: its depth (if solved) and its time and peak-node
/// cells. A run the node budget stops shows its wall-clock time and the
/// live-node count that tripped the budget, marked `!`; a run the time
/// budget stops shows `>Ns` and no node count (the manager is gone).
fn order_run(spec: &Spec, order: VarOrder, budget: Duration) -> (Option<u32>, String) {
    let options = SynthesisOptions::new(GateLibrary::mct(), Engine::Bdd)
        .with_var_order(order)
        .with_time_budget(budget);
    let start = Instant::now();
    let outcome = synthesize(spec, &options);
    let time = format_secs(start.elapsed());
    let (depth, time, nodes) = match outcome {
        Ok(r) => {
            let peak = r.bdd_stats().expect("the BDD engine reports manager stats");
            (Some(r.depth()), time, peak.peak_live.to_string())
        }
        Err(SynthesisError::BudgetExceeded {
            resource: Resource::BddNodes,
            spent,
            ..
        }) => (None, time, format!("{spent}!")),
        Err(SynthesisError::BudgetExceeded {
            resource: Resource::WallClock,
            ..
        }) => (None, format!(">{}s", budget.as_secs()), "-".to_string()),
        Err(e) => (None, e.to_string(), "-".to_string()),
    };
    (depth, format!("{time:>10} {nodes:>12}"))
}

fn main() {
    let budget = timeout_from_env();

    println!("Ablation A: BDD variable order X,Y vs Y,X (time and peak BDD nodes)");
    println!(
        "{:<12} {:>2} {:>10} {:>12} {:>10} {:>12}",
        "BENCH", "D", "X,Y time", "X,Y nodes", "Y,X time", "Y,X nodes"
    );
    let node_limit = SynthesisOptions::new(GateLibrary::mct(), Engine::Bdd).bdd_node_limit;
    for name in ABLATION_BENCHES {
        let bench = benchmarks::by_name(name).expect("known benchmark");
        let mut cells = Vec::new();
        let mut depth_cell = "-".to_string();
        for order in [VarOrder::XThenY, VarOrder::YThenX] {
            let (depth, run_cells) = order_run(&bench.spec, order, budget);
            if let Some(d) = depth {
                depth_cell = d.to_string();
            }
            cells.push(run_cells);
        }
        println!("{:<12} {:>2} {} {}", name, depth_cell, cells[0], cells[1]);
    }
    println!("`!`: stopped by the BDD node budget ({node_limit} live nodes) at that count.");
    println!("Expected: the Y,X order needs strictly more nodes and time (the sub-");
    println!("diagrams over X enumerate every function synthesizable with <= d gates).");
    println!();

    println!("Ablation B: incremental F_d vs rebuild-per-depth (BDD engine)");
    println!(
        "{:<12} {:>12} {:>14}",
        "BENCH", "incremental", "from-scratch"
    );
    for name in ABLATION_BENCHES {
        let bench = benchmarks::by_name(name).expect("known benchmark");
        let inc = run_budgeted(
            &bench.spec,
            &SynthesisOptions::new(GateLibrary::mct(), Engine::Bdd),
            budget,
        );
        let scratch = run_budgeted(
            &bench.spec,
            &SynthesisOptions::new(GateLibrary::mct(), Engine::Bdd).with_incremental(false),
            budget,
        );
        println!(
            "{:<12} {:>12} {:>14}",
            name,
            cell(&inc, budget),
            cell(&scratch, budget)
        );
    }
    println!("Expected: rebuilding pays the cascade construction once per depth and");
    println!("loses node/cache sharing across iterations.");
    println!();

    println!("Ablation C: SAT baseline select encoding, one-hot [9] vs binary [22]");
    println!("{:<12} {:>12} {:>12}", "BENCH", "one-hot", "binary");
    for name in ABLATION_BENCHES {
        let bench = benchmarks::by_name(name).expect("known benchmark");
        let one_hot = run_budgeted(
            &bench.spec,
            &SynthesisOptions::new(GateLibrary::mct(), Engine::Sat)
                .with_sat_encoding(SatSelectEncoding::OneHot),
            budget,
        );
        let binary = run_budgeted(
            &bench.spec,
            &SynthesisOptions::new(GateLibrary::mct(), Engine::Sat)
                .with_sat_encoding(SatSelectEncoding::Binary),
            budget,
        );
        println!(
            "{:<12} {:>12} {:>12}",
            name,
            cell(&one_hot, budget),
            cell(&binary, budget)
        );
    }
}
