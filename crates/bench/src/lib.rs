//! Benchmark harness regenerating the evaluation of *"Quantified Synthesis
//! of Reversible Logic"* (Wille et al., DATE 2008).
//!
//! The table-generator binaries mirror the paper's Tables 1–3:
//!
//! * `gen_table1` — runtime comparison of the SAT baseline, the improved
//!   SAT baseline (standing in for SWORD \[22\]), the QBF-solver approach and
//!   the BDD approach (all with the MCT library),
//! * `gen_table2` — `#SOL` and quantum-cost spread of the BDD engine's
//!   all-solutions output,
//! * `gen_table3` — extended gate libraries (MCT+MCF, MCT+P, MCT+MCF+P),
//! * `gen_ablations` — the design-choice ablations listed in `DESIGN.md`
//!   (variable order, incremental construction, select encoding).
//!
//! Beside them, `trajectory` gates the deterministic per-layer counters
//! against `BENCH_trajectory.json` (see its module docs).
//!
//! The per-run timeout defaults to [`DEFAULT_TIMEOUT_SECS`] seconds and can
//! be overridden with the `QSYN_TIMEOUT` environment variable (the paper
//! used 2000 s). Timeouts are *soft*: they are enforced between depth
//! iterations and through engine resource budgets, so a run can overshoot
//! by the cost of its last depth. `QSYN_FULL=1` switches from the quick
//! default subset to the paper's complete 19-benchmark suite.

#![warn(missing_docs)]

use qsyn_core::{synthesize, SynthesisError, SynthesisOptions, SynthesisResult};
use qsyn_revlogic::Spec;
use std::time::Duration;

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
pub enum RunOutcome {
    /// Finished within budget.
    Solved(Box<SynthesisResult>),
    /// A budget (time, nodes, conflicts) ran out at the given depth.
    Out {
        /// Depth reached before running out.
        depth: u32,
        /// Which budget tripped.
        what: String,
    },
}

impl RunOutcome {
    /// Minimal depth if solved.
    pub fn depth(&self) -> Option<u32> {
        match self {
            RunOutcome::Solved(r) => Some(r.depth()),
            RunOutcome::Out { .. } => None,
        }
    }

    /// The full result if solved.
    pub fn result(&self) -> Option<&SynthesisResult> {
        match self {
            RunOutcome::Solved(r) => Some(r),
            RunOutcome::Out { .. } => None,
        }
    }

    /// `TIME` cell: seconds, with the paper's `>` marker on timeout.
    pub fn time_cell(&self, budget: Duration) -> String {
        match self {
            RunOutcome::Solved(r) => format_secs(r.total_time()),
            RunOutcome::Out { .. } => format!(">{}s", budget.as_secs()),
        }
    }

    /// Total time if solved.
    pub fn time(&self) -> Option<Duration> {
        match self {
            RunOutcome::Solved(r) => Some(r.total_time()),
            RunOutcome::Out { .. } => None,
        }
    }
}

/// Runs one synthesis with the soft timeout applied.
pub fn run_budgeted(spec: &Spec, options: &SynthesisOptions, budget: Duration) -> RunOutcome {
    let options = options.clone().with_time_budget(budget);
    match synthesize(spec, &options) {
        Ok(r) => RunOutcome::Solved(Box::new(r)),
        Err(SynthesisError::BudgetExceeded {
            depth, resource, ..
        }) => RunOutcome::Out {
            depth,
            what: match resource {
                qsyn_core::Resource::WallClock => "time".to_string(),
                other => other.to_string(),
            },
        },
        Err(e) => RunOutcome::Out {
            depth: e.depth().unwrap_or(0),
            what: e.to_string(),
        },
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
/// slower, `-` when both timed out).
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
        (None, Some(c)) => {
            let ratio = budget.as_secs_f64() / c.as_secs_f64().max(1e-9);
            format!(">{ratio:.2}")
        }
        (Some(_), None) => "<1.00".to_string(),
        (None, None) => "-".to_string(),
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

/// Benchmark names the harness covers, in the paper's table order. The
/// quick default skips the multi-minute instances; `QSYN_FULL=1` runs the
/// paper's complete suite.
pub fn bench_names() -> Vec<&'static str> {
    let quick = vec![
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
    let full = vec![
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
    if std::env::var("QSYN_FULL").is_ok_and(|v| v == "1") {
        full
    } else {
        quick
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
        let timeout = RunOutcome::Out {
            depth: 0,
            what: "time".into(),
        };
        assert_eq!(improvement_cell(&timeout, &timeout, budget), "-");
        let spec = benchmarks::spec_3_17();
        let solved = run_budgeted(
            &spec,
            &SynthesisOptions::new(GateLibrary::mct(), Engine::Bdd),
            Duration::from_secs(120),
        );
        assert!(improvement_cell(&timeout, &solved, budget).starts_with('>'));
        assert_eq!(improvement_cell(&solved, &timeout, budget), "<1.00");
        let self_ratio = improvement_cell(&solved, &solved, budget);
        assert!(self_ratio == "1.00" || self_ratio == "<1.00");
    }

    #[test]
    fn bench_names_resolve() {
        for name in bench_names() {
            assert!(benchmarks::by_name(name).is_some(), "{name}");
        }
        assert!(is_complete_bench("3_17"));
        assert!(!is_complete_bench("rd32-v0"));
        assert!(!is_complete_bench("nonexistent"));
    }
}
