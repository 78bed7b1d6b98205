//! Benchmark harness regenerating the evaluation of *"Quantified Synthesis
//! of Reversible Logic"* (Wille et al., DATE 2008).
//!
//! The `paper` binary runs each distinct `(function, options)`
//! configuration the paper's tables read three times, and writes, from
//! each configuration's median-time run, Table 1
//! (runtimes of SAT, SWORD*, QBF and BDD), Table 2 (`#SOL` and quantum-cost
//! spread), Table 3 (extended gate libraries), the design ablations of
//! `DESIGN.md` and the encoding-size scaling series.
//!
//! Beside it, `trajectory` gates the deterministic per-layer counters
//! against `BENCH_trajectory.json` (see its module docs).
//!
//! The per-run timeout defaults to [`DEFAULT_TIMEOUT_SECS`] seconds and can
//! be overridden with the `QSYN_TIMEOUT` environment variable (the paper
//! used 2000 s). Timeouts are *soft*: they are enforced between depth
//! iterations and through engine resource budgets, so a run can overshoot
//! by the cost of its last depth. `QSYN_FULL=1` switches from the quick
//! default subset to the paper's complete 19-benchmark suite.

#![warn(missing_docs)]

use qsyn_core::{synthesize, Resource, SynthesisError, SynthesisOptions, SynthesisResult};
use qsyn_revlogic::Spec;
use std::time::{Duration, Instant};

/// Default soft timeout per synthesis run, in seconds.
pub const DEFAULT_TIMEOUT_SECS: u64 = 60;

/// Reads the per-run timeout from `QSYN_TIMEOUT` (seconds), falling back
/// to [`DEFAULT_TIMEOUT_SECS`].
pub fn timeout_from_env() -> Duration {
    std::env::var("QSYN_TIMEOUT")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .map_or(
            Duration::from_secs(DEFAULT_TIMEOUT_SECS),
            Duration::from_secs,
        )
}

/// Outcome of one timed synthesis run.
#[derive(Debug)]
pub struct RunOutcome {
    /// The result, or why the run stopped (a budget stop names its
    /// [`Resource`] and how much was spent).
    pub synthesis: Result<SynthesisResult, SynthesisError>,
    /// Wall-clock time of the run, solved or not.
    pub elapsed: Duration,
}

impl RunOutcome {
    /// Minimal depth if solved.
    pub fn depth(&self) -> Option<u32> {
        self.result().map(SynthesisResult::depth)
    }

    /// The full result if solved.
    pub fn result(&self) -> Option<&SynthesisResult> {
        self.synthesis.as_ref().ok()
    }

    /// Total time if solved.
    pub fn time(&self) -> Option<Duration> {
        self.result().map(|_| self.elapsed)
    }

    /// Whether the wall-clock budget stopped the run.
    fn timed_out(&self) -> bool {
        matches!(
            self.synthesis,
            Err(SynthesisError::BudgetExceeded {
                resource: Resource::WallClock,
                ..
            })
        )
    }

    /// `TIME` cell: seconds; `>{budget}s` when the wall-clock budget
    /// stopped the run; the elapsed time marked `!` when another budget
    /// did; `-` on any other failure.
    pub fn time_cell(&self, budget: Duration) -> String {
        match &self.synthesis {
            Ok(_) => format_secs(self.elapsed),
            Err(_) if self.timed_out() => format!(">{}s", budget.as_secs()),
            Err(SynthesisError::BudgetExceeded { .. }) => format!("{}!", format_secs(self.elapsed)),
            Err(_) => "-".to_string(),
        }
    }
}

/// Runs one synthesis with the soft timeout applied.
pub fn run_budgeted(spec: &Spec, options: &SynthesisOptions, budget: Duration) -> RunOutcome {
    let options = options.clone().with_time_budget(budget);
    let start = Instant::now();
    let synthesis = synthesize(spec, &options);
    RunOutcome {
        synthesis,
        elapsed: start.elapsed(),
    }
}

/// Renders a duration the way the paper's tables do (`0.19s`, `32.22s`,
/// `<0.01s`).
pub fn format_secs(d: Duration) -> String {
    let secs = d.as_secs_f64();
    if secs < 0.01 {
        "<0.01s".to_string()
    } else {
        format!("{secs:.2}s")
    }
}

/// `IMPR` cell: ratio `baseline / candidate` as the paper reports it
/// (`>x` when only the baseline timed out, `<1.00` when the candidate is
/// slower or only it timed out, `-` otherwise: both failed, or a run
/// stopped on something other than the wall clock).
pub fn improvement_cell(baseline: &RunOutcome, candidate: &RunOutcome, budget: Duration) -> String {
    match (baseline.time(), candidate.time()) {
        (Some(b), Some(c)) => {
            let ratio = b.as_secs_f64() / c.as_secs_f64().max(1e-9);
            if ratio < 1.0 {
                "<1.00".to_string()
            } else {
                format!("{ratio:.2}")
            }
        }
        (None, Some(c)) if baseline.timed_out() => {
            let ratio = budget.as_secs_f64() / c.as_secs_f64().max(1e-9);
            format!(">{ratio:.2}")
        }
        (Some(_), None) if candidate.timed_out() => "<1.00".to_string(),
        _ => "-".to_string(),
    }
}

/// Quantum-cost cell `min..max` (or a single value when the range is
/// degenerate).
pub fn qc_cell(range: (u64, u64)) -> String {
    if range.0 == range.1 {
        format!("{}", range.0)
    } else {
        format!("{}..{}", range.0, range.1)
    }
}

/// The quick default suite: the paper's functions minus the
/// multi-minute instances.
pub const QUICK_SUITE: &[&str] = &[
    "mod5mils",
    "3_17",
    "mod5d1",
    "rd32-v0",
    "rd32-v1",
    "mod5-v0",
    "mod5-v1",
    "decod24-v0",
    "decod24-v1",
    "decod24-v2",
    "decod24-v3",
];

/// The paper's complete suite, in its table order.
pub const FULL_SUITE: &[&str] = &[
    "mod5mils",
    "graycode6",
    "3_17",
    "mod5d1",
    "mod5d2",
    "hwb4",
    "4_49",
    "rd32-v0",
    "rd32-v1",
    "mod5-v0",
    "mod5-v1",
    "decod24-v0",
    "decod24-v1",
    "decod24-v2",
    "decod24-v3",
    "alu-v0",
    "alu-v1",
    "alu-v2",
    "alu-v3",
];

/// Benchmark names the harness covers, in the paper's table order:
/// [`QUICK_SUITE`], or [`FULL_SUITE`] under `QSYN_FULL=1`.
pub fn bench_names() -> &'static [&'static str] {
    if std::env::var("QSYN_FULL").is_ok_and(|v| v == "1") {
        FULL_SUITE
    } else {
        QUICK_SUITE
    }
}

/// Splits the suite the way the paper's tables do.
pub fn is_complete_bench(name: &str) -> bool {
    qsyn_revlogic::benchmarks::by_name(name)
        .map(|b| b.kind == qsyn_revlogic::benchmarks::BenchmarkKind::Complete)
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsyn_core::{Engine, GateLibrary};
    use qsyn_revlogic::benchmarks;

    #[test]
    fn format_secs_matches_paper_style() {
        assert_eq!(format_secs(Duration::from_millis(2)), "<0.01s");
        assert_eq!(format_secs(Duration::from_millis(190)), "0.19s");
        assert_eq!(format_secs(Duration::from_secs(32)), "32.00s");
    }

    #[test]
    fn qc_cell_renders_ranges() {
        assert_eq!(qc_cell((14, 14)), "14");
        assert_eq!(qc_cell((32, 76)), "32..76");
    }

    #[test]
    fn run_budgeted_solves_fast_instance() {
        let spec = benchmarks::spec_3_17();
        let out = run_budgeted(
            &spec,
            &SynthesisOptions::new(GateLibrary::mct(), Engine::Bdd),
            Duration::from_secs(120),
        );
        assert_eq!(out.depth(), Some(6));
        assert!(out.time().is_some());
        assert!(out.result().is_some());
    }

    #[test]
    fn run_budgeted_times_out_gracefully() {
        let spec = benchmarks::spec_hwb4();
        let out = run_budgeted(
            &spec,
            &SynthesisOptions::new(GateLibrary::mct(), Engine::Bdd),
            Duration::ZERO,
        );
        assert!(out.depth().is_none());
        assert_eq!(out.time_cell(Duration::ZERO), ">0s");
    }

    #[test]
    fn improvement_cell_covers_all_cases() {
        let budget = Duration::from_secs(10);
        let stopped = |resource| RunOutcome {
            synthesis: Err(SynthesisError::BudgetExceeded {
                depth: 0,
                resource,
                spent: 1,
                limit: 1,
            }),
            elapsed: Duration::from_secs(3),
        };
        let timeout = stopped(Resource::WallClock);
        let node_stop = stopped(Resource::BddNodes);
        assert_eq!(improvement_cell(&timeout, &timeout, budget), "-");
        let spec = benchmarks::spec_3_17();
        let solved = run_budgeted(
            &spec,
            &SynthesisOptions::new(GateLibrary::mct(), Engine::Bdd),
            Duration::from_secs(120),
        );
        assert!(improvement_cell(&timeout, &solved, budget).starts_with('>'));
        assert_eq!(improvement_cell(&solved, &timeout, budget), "<1.00");
        assert_eq!(improvement_cell(&solved, &node_stop, budget), "-");
        assert_eq!(improvement_cell(&node_stop, &solved, budget), "-");
        let self_ratio = improvement_cell(&solved, &solved, budget);
        assert!(self_ratio == "1.00" || self_ratio == "<1.00");
    }

    #[test]
    fn a_node_budget_stop_is_not_printed_as_a_timeout() {
        let out = run_budgeted(
            &benchmarks::spec_3_17(),
            &SynthesisOptions::new(GateLibrary::mct(), Engine::Bdd).with_bdd_node_limit(64),
            Duration::from_secs(120),
        );
        assert!(matches!(
            out.synthesis,
            Err(SynthesisError::BudgetExceeded {
                resource: Resource::BddNodes,
                ..
            })
        ));
        let cell = out.time_cell(Duration::from_secs(120));
        assert!(cell.ends_with('!') && !cell.contains('>'), "{cell}");
    }

    #[test]
    fn bench_names_resolve() {
        for name in FULL_SUITE {
            assert!(benchmarks::by_name(name).is_some(), "{name}");
        }
        assert!(is_complete_bench("3_17"));
        assert!(!is_complete_bench("rd32-v0"));
        assert!(!is_complete_bench("nonexistent"));
        assert!(QUICK_SUITE.iter().all(|name| FULL_SUITE.contains(name)));
    }
}
