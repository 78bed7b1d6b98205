//! Regenerates every results table of the paper's Section 6 into one
//! directory: `table1.txt`, `table2.txt`, `table3.txt`, `ablations.txt`
//! and `scaling.txt`.
//!
//! It plans the distinct `(function, options)` runs the tables read (see
//! [`plan`]), runs each once, and renders every table from those
//! outcomes: Table 2, ablation A's `X,Y` column, ablation B's incremental
//! column, ablation C and scaling series 2 all read Table 1's runs.
//!
//! ```text
//! cargo run --release -p qsyn-bench --bin paper -- results
//! QSYN_FULL=1 QSYN_TIMEOUT=2000 cargo run --release -p qsyn-bench --bin paper -- results
//! ```

use qsyn_bench::{
    bench_names, format_secs, improvement_cell, is_complete_bench, qc_cell, run_budgeted,
    timeout_from_env, RunOutcome,
};
use qsyn_core::{
    Engine, GateLibrary, QbfEngine, Resource, SatEngine, SatSelectEncoding, SynthesisError,
    SynthesisOptions, VarOrder,
};
use qsyn_revlogic::{benchmarks, Spec};
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

const ABLATION_BENCHES: &[&str] = &["3_17", "rd32-v0", "decod24-v0", "mod5d1"];

/// One synthesis configuration a table reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Config {
    /// Row-wise SAT, one-hot select encoding \[9\].
    SatOneHot,
    /// Row-wise SAT, binary select encoding (SWORD* \[22\]).
    SatBinary,
    /// The prenex QBF instance.
    Qbf,
    /// BDD, `X,Y` order, incremental `F_d`, with this library.
    Bdd(GateLibrary),
    /// BDD with the `Y,X` order (ablation A).
    BddYThenX,
    /// BDD rebuilding `F_d` at every depth (ablation B).
    BddRebuild,
}

impl Config {
    fn options(self) -> SynthesisOptions {
        let mct = GateLibrary::mct();
        match self {
            Config::SatOneHot => {
                SynthesisOptions::new(mct, Engine::Sat).with_sat_encoding(SatSelectEncoding::OneHot)
            }
            Config::SatBinary => {
                SynthesisOptions::new(mct, Engine::Sat).with_sat_encoding(SatSelectEncoding::Binary)
            }
            Config::Qbf => SynthesisOptions::new(mct, Engine::Qbf),
            Config::Bdd(library) => SynthesisOptions::new(library, Engine::Bdd),
            Config::BddYThenX => {
                SynthesisOptions::new(mct, Engine::Bdd).with_var_order(VarOrder::YThenX)
            }
            Config::BddRebuild => SynthesisOptions::new(mct, Engine::Bdd).with_incremental(false),
        }
    }

    fn label(self) -> String {
        match self {
            Config::SatOneHot => "SAT one-hot".into(),
            Config::SatBinary => "SAT binary".into(),
            Config::Qbf => "QBF".into(),
            Config::Bdd(library) => format!("BDD [{}]", library.label()),
            Config::BddYThenX => "BDD Y,X".into(),
            Config::BddRebuild => "BDD rebuild".into(),
        }
    }
}

fn table3_libraries() -> [GateLibrary; 3] {
    [
        GateLibrary::mct_mcf(),
        GateLibrary::mct_peres(),
        GateLibrary::all(),
    ]
}

/// Every run the tables read, each `(function, configuration)` once.
fn plan(names: &[&'static str]) -> Vec<(&'static str, Config)> {
    let mut jobs = Vec::new();
    for &name in names {
        let table1 = [
            Config::SatOneHot,
            Config::SatBinary,
            Config::Qbf,
            Config::Bdd(GateLibrary::mct()),
        ];
        jobs.extend(table1.map(|c| (name, c)));
        jobs.extend(table3_libraries().map(|lib| (name, Config::Bdd(lib))));
        if ABLATION_BENCHES.contains(&name) {
            jobs.extend([(name, Config::BddYThenX), (name, Config::BddRebuild)]);
        }
    }
    jobs
}

/// The planned run of one function under one configuration.
type Lookup<'a> = dyn Fn(&'static str, Config) -> &'a RunOutcome + 'a;

/// One row per function, under the paper's complete/incomplete headers.
fn section_rows(names: &[&'static str], row: impl Fn(&'static str) -> String) -> Vec<String> {
    let mut lines = Vec::new();
    let mut section = "";
    for &name in names {
        let header = if is_complete_bench(name) {
            "COMPLETELY SPECIFIED FUNCTIONS"
        } else {
            "INCOMPLETELY SPECIFIED FUNCTIONS"
        };
        if header != section {
            section = header;
            lines.push(format!("--- {section}"));
        }
        lines.push(row(name));
    }
    lines
}

/// The `D TIME #SOL QC` cells of an all-solutions BDD run (Tables 2 and
/// 3); `#SOL` is starred when the circuit list was truncated.
fn solution_cells(out: &RunOutcome, budget: Duration) -> [String; 4] {
    let time = out.time_cell(budget);
    match out.result() {
        Some(r) => {
            let sols = r.solutions();
            let star = if sols.is_exhaustive() { "" } else { "*" };
            [
                r.depth().to_string(),
                time,
                format!("{}{star}", sols.count()),
                qc_cell(sols.quantum_cost_range()),
            ]
        }
        None => ["-".into(), time, "-".into(), "-".into()],
    }
}

fn table1_row(cells: [String; 10]) -> String {
    let [name, d, sat, sword, qbf, qbf_sat, qbf_sw, bdd, bdd_sat, bdd_sw] = cells;
    format!(
        "{name:<12} {d:>2} | {sat:>9} {sword:>9} | {qbf:>9} {qbf_sat:>8} {qbf_sw:>8} \
         | {bdd:>9} {bdd_sat:>8} {bdd_sw:>8}"
    )
}

fn table1(names: &[&'static str], run: &Lookup, budget: Duration) -> Vec<String> {
    let mut t = vec![
        format!(
            "Table 1: Comparison to Previous Work (timeout {}s)",
            budget.as_secs()
        ),
        "SAT SOLVER = row-wise one-hot encoding [9]; SWORD* = row-wise binary".into(),
        "encoding standing in for the specialised SWORD prover [22] (see DESIGN.md).".into(),
        String::new(),
        table1_row(
            [
                "BENCH", "D", "SAT", "SWORD*", "QBF", "IMPR_SAT", "IMPR_SW", "BDD", "IMPR_SAT",
                "IMPR_SW",
            ]
            .map(String::from),
        ),
    ];
    t.extend(section_rows(names, |name| {
        let sat = run(name, Config::SatOneHot);
        let sword = run(name, Config::SatBinary);
        let qbf = run(name, Config::Qbf);
        let bdd = run(name, Config::Bdd(GateLibrary::mct()));
        let depth = [sat, sword, qbf, bdd]
            .iter()
            .find_map(|o| o.depth())
            .map_or("-".to_string(), |d| d.to_string());
        table1_row([
            name.into(),
            depth,
            sat.time_cell(budget),
            sword.time_cell(budget),
            qbf.time_cell(budget),
            improvement_cell(sat, qbf, budget),
            improvement_cell(sword, qbf, budget),
            bdd.time_cell(budget),
            improvement_cell(sat, bdd, budget),
            improvement_cell(sword, bdd, budget),
        ])
    }));
    t.extend([
        String::new(),
        "Expected shape (paper): QBF beats plain SAT; BDD has the smallest total".into(),
        "time on every non-trivial function.".into(),
    ]);
    t
}

fn table2(names: &[&'static str], run: &Lookup, budget: Duration) -> Vec<String> {
    let mct = Config::Bdd(GateLibrary::mct());
    let mut t = vec![
        format!(
            "Table 2: Quantum costs of networks (BDD engine, MCT library, timeout {}s)",
            budget.as_secs()
        ),
        String::new(),
        format!(
            "{:<12} {:>2} {:>10} {:>10} {:>12}",
            "BENCH", "D", "TIME", "#SOL", "QC(min..max)"
        ),
    ];
    t.extend(section_rows(names, |name| {
        let [d, time, sols, qc] = solution_cells(run(name, mct), budget);
        format!("{name:<12} {d:>2} {time:>10} {sols:>10} {qc:>12}")
    }));
    t.extend([
        String::new(),
        "* = quantum-cost statistics over the enumerated prefix (solution list".into(),
        format!(
            "    truncated at {}; the count itself is exact).",
            mct.options().max_solutions
        ),
        "Expected shape (paper): large #SOL with a wide QC spread on the harder".into(),
        "functions — picking the best realization saves up to ~2x in quantum cost.".into(),
    ]);
    t
}

fn table3(names: &[&'static str], run: &Lookup, budget: Duration) -> Vec<String> {
    let mut header = format!("{:<12}", "BENCH");
    for lib in table3_libraries() {
        let label = lib.label();
        header += &format!(
            " | {:>2} {:>9} {:>8} {:>11}  [{label}]",
            "D", "TIME", "#SOL", "QC"
        );
    }
    let mut t = vec![
        format!(
            "Table 3: Synthesis Results Using other Gate Libraries (BDD engine, timeout {}s)",
            budget.as_secs()
        ),
        String::new(),
        header,
    ];
    t.extend(section_rows(names, |name| {
        let mut row = format!("{name:<12}");
        for lib in table3_libraries() {
            let [d, time, sols, qc] = solution_cells(run(name, Config::Bdd(lib)), budget);
            row += &format!(" | {d:>2} {time:>9} {sols:>8} {qc:>11}");
        }
        row
    }));
    t.extend([
        String::new(),
        "Expected shape (paper): extended libraries never increase D and often".into(),
        "decrease it (e.g. hwb4 11 -> 8 with Peres gates); runtimes grow with |G|".into(),
        "except where the smaller D saves whole depth iterations.".into(),
    ]);
    t
}

/// Ablation A's peak-node cell: the manager's peak when solved, the
/// live-node count that tripped the node budget marked `!`, else `-`.
fn nodes_cell(out: &RunOutcome) -> String {
    match &out.synthesis {
        Ok(r) => r
            .bdd_stats()
            .expect("the BDD engine reports manager stats")
            .peak_live
            .to_string(),
        Err(SynthesisError::BudgetExceeded {
            resource: Resource::BddNodes,
            spent,
            ..
        }) => format!("{spent}!"),
        Err(_) => "-".into(),
    }
}

fn ablations(run: &Lookup, budget: Duration) -> Vec<String> {
    let xy = Config::Bdd(GateLibrary::mct());
    let mut t = vec![
        "Ablation A: BDD variable order X,Y vs Y,X (time and peak BDD nodes)".into(),
        format!(
            "{:<12} {:>2} {:>10} {:>12} {:>10} {:>12}",
            "BENCH", "D", "X,Y time", "X,Y nodes", "Y,X time", "Y,X nodes"
        ),
    ];
    for &name in ABLATION_BENCHES {
        let runs = [run(name, xy), run(name, Config::BddYThenX)];
        let depth = runs
            .iter()
            .find_map(|o| o.depth())
            .map_or("-".to_string(), |d| d.to_string());
        let [a, b] = runs.map(|o| format!("{:>10} {:>12}", o.time_cell(budget), nodes_cell(o)));
        t.push(format!("{name:<12} {depth:>2} {a} {b}"));
    }
    t.extend([
        format!(
            "`!`: stopped by the BDD node budget ({} live nodes) after that time, at that count.",
            xy.options().bdd_node_limit
        ),
        "Expected: the Y,X order needs strictly more nodes and time (the sub-".into(),
        "diagrams over X enumerate every function synthesizable with <= d gates).".into(),
        String::new(),
        "Ablation B: incremental F_d vs rebuild-per-depth (BDD engine)".into(),
    ]);
    t.push(format!(
        "{:<12} {:>12} {:>14}",
        "BENCH", "incremental", "from-scratch"
    ));
    for &name in ABLATION_BENCHES {
        let inc = run(name, xy).time_cell(budget);
        let scratch = run(name, Config::BddRebuild).time_cell(budget);
        t.push(format!("{name:<12} {inc:>12} {scratch:>14}"));
    }
    t.extend([
        "Expected: rebuilding pays the cascade construction once per depth and".into(),
        "loses node/cache sharing across iterations.".into(),
        String::new(),
        "Ablation C: SAT baseline select encoding, one-hot [9] vs binary [22]".into(),
        format!("{:<12} {:>12} {:>12}", "BENCH", "one-hot", "binary"),
    ]);
    for &name in ABLATION_BENCHES {
        let one_hot = run(name, Config::SatOneHot).time_cell(budget);
        let binary = run(name, Config::SatBinary).time_cell(budget);
        t.push(format!("{name:<12} {one_hot:>12} {binary:>12}"));
    }
    t
}

/// The encoding-size argument: the QBF formulation encodes the cascade
/// once, while the row-wise SAT encoding of \[9\]/\[22\] duplicates it for
/// each of the `2ⁿ` rows. Series 2 is the per-depth time of Figure 1's
/// loop on 3_17.
fn scaling(run: &Lookup, budget: Duration) -> Vec<String> {
    let d = 3;
    let mut t = vec![
        format!("Series 1: encoding size at depth d = {d} (MCT library, random spec)"),
        format!(
            "{:>2} {:>6} | {:>10} {:>12} | {:>10} {:>12} | {:>14}",
            "n", "rows", "QBF vars", "QBF clauses", "SAT vars", "SAT clauses", "clause ratio"
        ),
    ];
    for n in 2..=6u32 {
        let spec = Spec::from_permutation(&benchmarks::random_permutation(n, 7));
        let instance = QbfEngine::new(&spec, &Config::Qbf.options()).instance(d);
        let (qv, qc) = (instance.num_vars(), instance.matrix().len());
        let formula = SatEngine::new(&spec, &Config::SatOneHot.options()).encode(d);
        let (sv, sc) = (formula.num_vars(), formula.len());
        let (rows, ratio) = (1u64 << n, sc as f64 / qc as f64);
        t.push(format!(
            "{n:>2} {rows:>6} | {qv:>10} {qc:>12} | {sv:>10} {sc:>12} | {ratio:>14.2}"
        ));
    }
    t.extend([
        String::new(),
        "Expected shape: the SAT/QBF clause ratio grows with 2^n — the QBF".into(),
        "instance encodes the network once, the SAT instance once per row.".into(),
        String::new(),
        "Series 2: per-depth time of the BDD engine on 3_17 (Figure 1 loop)".into(),
        format!("{:>5} {:>12} {:>10}", "d", "outcome", "time"),
    ]);
    let out = run("3_17", Config::Bdd(GateLibrary::mct()));
    let Some(result) = out.result() else {
        t.push(format!("3_17 not solved: {}", out.time_cell(budget)));
        return t;
    };
    // Deepening starts at the spec's depth lower bound, not at 0.
    let times = result.depth_times();
    let first = result.depth() + 1 - times.len() as u32;
    for (d, time) in (first..).zip(times) {
        let outcome = if d == result.depth() { "SAT" } else { "unsat" };
        let time = format_secs(*time);
        t.push(format!("{d:>5} {outcome:>12} {time:>10}"));
    }
    t.push(format!(
        "minimal depth {} found in {} total",
        result.depth(),
        out.time_cell(budget)
    ));
    t
}

/// A results file: its name and its lines.
type Table = (&'static str, Vec<String>);

fn tables(names: &[&'static str], run: &Lookup, budget: Duration) -> [Table; 5] {
    [
        ("table1.txt", table1(names, run, budget)),
        ("table2.txt", table2(names, run, budget)),
        ("table3.txt", table3(names, run, budget)),
        ("ablations.txt", ablations(run, budget)),
        ("scaling.txt", scaling(run, budget)),
    ]
}

fn write_tables(dir: &Path, tables: [Table; 5]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for (file, lines) in tables {
        std::fs::write(dir.join(file), lines.join("\n") + "\n")?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut args = std::env::args_os().skip(1);
    let (Some(dir), None) = (args.next(), args.next()) else {
        eprintln!("usage: paper <output-dir>");
        return ExitCode::from(2);
    };
    let budget = timeout_from_env();
    let names = bench_names();
    let jobs = plan(names);
    let mut outcomes = HashMap::new();
    for (i, &(name, config)) in jobs.iter().enumerate() {
        let bench = benchmarks::by_name(name).expect("known benchmark");
        let out = run_budgeted(&bench.spec, &config.options(), budget);
        let (n, label, time) = (jobs.len(), config.label(), out.time_cell(budget));
        eprintln!("[{}/{n}] {name} {label}: {time}", i + 1);
        outcomes.insert((name, config), out);
    }
    let run = |name, config| &outcomes[&(name, config)];
    let dir = Path::new(&dir);
    if let Err(e) = write_tables(dir, tables(names, &run, budget)) {
        eprintln!("error: {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsyn_bench::{FULL_SUITE, QUICK_SUITE};
    use std::cell::RefCell;
    use std::collections::HashSet;

    #[test]
    fn each_run_is_planned_once_and_every_cell_reads_a_planned_run() {
        for (names, jobs) in [(QUICK_SUITE, 85), (FULL_SUITE, 141)] {
            let plan = plan(names);
            assert_eq!(plan.len(), jobs);
            let keys: HashSet<String> = plan
                .iter()
                .map(|(name, c)| format!("{name} {:?}", c.options()))
                .collect();
            assert_eq!(keys.len(), plan.len(), "a (function, options) key repeats");

            let failed = RunOutcome {
                synthesis: Err(SynthesisError::DepthLimitReached { max_depth: 0 }),
                elapsed: Duration::ZERO,
            };
            let read = RefCell::new(HashSet::new());
            let run = |name, config| {
                read.borrow_mut().insert((name, config));
                &failed
            };
            tables(names, &run, Duration::ZERO);
            assert_eq!(read.into_inner(), plan.into_iter().collect::<HashSet<_>>());
        }
    }
}
