//! `table1-bdd` and `table1-sat`: the paper's Table 1 rows through
//! `qsyn bench <f> --output-permutation --engine <e> --timeout 60`, one
//! `cli::run` per function, in a seeded order.

use crate::oracle::{pinned_depth, realizes};
use crate::parse::{parse_bench_summary, BenchSummary};
use crate::report::{Layers, Outcome, Reps, Table1Row};
use crate::Rng;
use qsyn::cli::{self, Command};
use qsyn::revlogic::{benchmarks, real, Spec};
use qsyn::synth::permuted::{
    permute_spec, synthesize_with_output_permutation_in, PermutedSearchStats,
};
use qsyn::synth::{
    depth_lower_bound, BddEngine, CancelToken, DepthSolver, SatEngine, SessionStats,
    SynthesisError, SynthesisOptions, SynthesisSession,
};
use std::time::{Duration, Instant};

/// Rows both engines share with the paper, minus 4_49, mod5d1 and mod5d2
/// (27 s to over 400 s each).
pub const BDD_JOBS: &[&str] = &[
    "mod5mils",
    "graycode6",
    "3_17",
    "hwb4",
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

/// The rows the SAT engine decides within 60 s (hwb4 and the alu family
/// time out).
pub const SAT_JOBS: &[&str] = &[
    "mod5mils",
    "graycode6",
    "3_17",
    "rd32-v0",
    "rd32-v1",
    "mod5-v0",
    "mod5-v1",
    "decod24-v0",
    "decod24-v1",
    "decod24-v2",
    "decod24-v3",
];

/// Which engine and which rows.
pub struct Plan {
    /// `bdd` or `sat`.
    pub engine: &'static str,
    /// Table 1 rows, in the paper's order.
    pub jobs: &'static [&'static str],
}

/// Set-up: a few calls on the smallest row before the timed passes.
const SETUP_JOB: &str = "3_17";
const SETUP_REPS: usize = 9;

fn command(name: &str, engine: &str) -> Command {
    Command::parse([
        "bench",
        name,
        "--output-permutation",
        "--engine",
        engine,
        "--timeout",
        "60",
    ])
    .expect("bench command line is valid")
}

fn spec(name: &str) -> Spec {
    benchmarks::by_name(name)
        .expect("Table 1 rows are built-in benchmarks")
        .spec
}

/// One `bench` call: wall seconds and the printed summary, or `Err` when
/// the job failed. Wrong answers go to `mismatches`.
fn run_job(
    name: &str,
    engine: &str,
    mismatches: &mut Vec<String>,
) -> Result<(f64, BenchSummary), String> {
    let cmd = command(name, engine);
    let mut out = Vec::new();
    let started = Instant::now();
    let code = cli::run(&cmd, &mut out).map_err(|e| format!("{name}: {e}"))?;
    let wall = started.elapsed().as_secs_f64();
    let text = String::from_utf8_lossy(&out);
    let (first, circuit_text) = text.split_once('\n').unwrap_or((&text, ""));
    if code != 0 {
        return Err(format!("{name}: exit {code}: {first}"));
    }
    let Some(summary) = parse_bench_summary(first) else {
        mismatches.push(format!("{name}: unreadable summary `{first}`"));
        return Err(format!("{name}: unreadable output"));
    };
    let circuit = real::parse_real(circuit_text).map_err(|e| e.to_string());
    let verdict = match circuit {
        Ok(c) => check(name, summary.depth, &[c], &summary.permutation),
        Err(e) => Some(format!("{name}: printed circuit does not parse: {e}")),
    };
    mismatches.extend(verdict);
    Ok((wall, summary))
}

/// A mismatch message unless `depth` is the pinned one and every circuit
/// realizes the row under `permutation`.
fn check(
    name: &str,
    depth: u32,
    circuits: &[qsyn::revlogic::Circuit],
    permutation: &[u32],
) -> Option<String> {
    let want = pinned_depth(name).expect("every Table 1 row is pinned");
    if depth != want {
        return Some(format!("{name}: depth {depth}, pinned {want}"));
    }
    let spec = spec(name);
    circuits
        .iter()
        .position(|c| !realizes(&spec, c, permutation, depth))
        .map(|i| format!("{name}: circuit {i} does not realize the spec under {permutation:?}"))
}

/// Fresh options per call: a cancel token arms its deadline once, so
/// sharing one across jobs would let the first job's clock run out the
/// later ones'.
fn fresh(options: &SynthesisOptions) -> SynthesisOptions {
    options.clone().with_cancel_token(CancelToken::new())
}

/// Timings and counters of one traced job.
#[derive(Default)]
struct Probe {
    wall_s: f64,
    search_ms: f64,
    search: PermutedSearchStats,
    session: SessionStats,
    engine_setup_ms: f64,
    unsat_ms: f64,
    sat_ms: f64,
    encode_ms: f64,
    encode_clauses: u64,
}

/// The traced job: the permutation search in a fresh session, then one
/// engine on the winning relabeling, depth by depth, timed from here.
fn probe(
    name: &str,
    engine: &str,
    options: &SynthesisOptions,
    mismatches: &mut Vec<String>,
) -> Result<Probe, SynthesisError> {
    let spec = spec(name);
    let started = Instant::now();
    let mut session = SynthesisSession::new();
    let t = Instant::now();
    let p = synthesize_with_output_permutation_in(&spec, &fresh(options), &mut session)?;
    let mut probe = Probe {
        search_ms: ms(t),
        search: p.stats,
        session: session.stats(),
        ..Probe::default()
    };
    let depth = p.result.depth();
    mismatches.extend(check(
        name,
        depth,
        p.result.solutions().circuits(),
        &p.permutation,
    ));

    let winner = permute_spec(&spec, &p.permutation).expect("winning relabeling is realizable");
    let first = if options.start_at_lower_bound {
        depth_lower_bound(&winner, options)
    } else {
        0
    };
    let options = fresh(options);
    let mut solver: Box<dyn DepthSolver> = if engine == "bdd" {
        let t = Instant::now();
        let e = BddEngine::new_in(&winner, &options, &mut SynthesisSession::new());
        probe.engine_setup_ms = ms(t);
        Box::new(e)
    } else {
        let e = SatEngine::new_in(&winner, &options, &mut SynthesisSession::new());
        let t = Instant::now();
        probe.encode_clauses = e.encode(depth).len() as u64;
        probe.encode_ms = ms(t);
        Box::new(e)
    };
    for d in first..=depth {
        let t = Instant::now();
        let found = solver.solve_depth(d)?.is_some();
        if d < depth {
            probe.unsat_ms += ms(t);
        } else {
            probe.sat_ms = ms(t);
        }
        if found != (d == depth) {
            mismatches.push(format!(
                "{name}: engine on the winning relabeling says {} at depth {d}",
                if found { "SAT" } else { "UNSAT" }
            ));
        }
    }
    probe.wall_s = started.elapsed().as_secs_f64();
    Ok(probe)
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Runs passes over the rows until the next pass would overrun `budget`
/// (at least one; exactly one when traced).
///
/// # Errors
///
/// When a set-up call fails: nothing can be measured then.
pub fn run(plan: &Plan, seed: u64, budget: Duration, trace: bool) -> Result<Outcome, String> {
    let started = Instant::now();
    let mut out = Outcome::default();
    let mut reps = Reps::default();
    for _ in 0..SETUP_REPS {
        let (wall, _) = run_job(SETUP_JOB, plan.engine, &mut out.mismatches)?;
        reps.setup(wall);
    }
    let mut order: Vec<&'static str> = plan.jobs.to_vec();
    Rng::new(seed).shuffle(&mut order);
    let options = crate::options_of(&command(SETUP_JOB, plan.engine))?;
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); plan.jobs.len()];
    let mut answers: Vec<Option<BenchSummary>> = vec![None; plan.jobs.len()];
    let mut probes: Vec<Probe> = Vec::new();
    let mut untraced_s = 0.0;
    loop {
        let pass_started = Instant::now();
        let mut latencies = Vec::new();
        for &name in &order {
            let row = plan.jobs.iter().position(|&j| j == name).expect("own row");
            out.attempted += 1;
            match run_job(name, plan.engine, &mut out.mismatches) {
                Ok((wall, summary)) => {
                    latencies.push(wall * 1e3);
                    walls[row].push(wall);
                    answers[row] = Some(summary);
                    untraced_s += wall;
                }
                Err(e) => {
                    eprintln!("failed: {e}");
                    out.failed += 1;
                }
            }
            if trace {
                match probe(name, plan.engine, &options, &mut out.mismatches) {
                    Ok(p) => probes.push(p),
                    Err(e) => {
                        eprintln!("failed: traced {name}: {e}");
                        out.failed += 1;
                    }
                }
            }
        }
        if !latencies.is_empty() {
            reps.rep(latencies.iter().sum::<f64>() / 1e3, &latencies);
        }
        let pass = pass_started.elapsed();
        if trace || started.elapsed() + pass > budget {
            break;
        }
    }
    out.table1_rows = plan
        .jobs
        .iter()
        .zip(walls.iter().zip(answers))
        .filter_map(|(&name, (w, answer))| {
            answer.map(|a| Table1Row {
                name,
                depth: a.depth,
                solutions: a.solutions,
                wall_s: crate::stats::median(w),
            })
        })
        .collect();
    out.metrics = if trace {
        layers(&probes, untraced_s).metrics()
    } else {
        reps.metrics()
    };
    Ok(out)
}

/// Per-layer metrics summed (peak: maximum) over the traced jobs.
fn layers(probes: &[Probe], untraced_s: f64) -> Layers {
    let n = probes.len();
    let sum = |f: fn(&Probe) -> f64| probes.iter().map(f).sum::<f64>();
    let mut l = Layers::new();
    let searches: Vec<_> = probes.iter().map(|p| (p.search_ms, p.search)).collect();
    l.set_searches(&searches);
    let mut sessions = SessionStats::default();
    for p in probes {
        sessions.merge(&p.session);
    }
    l.set_sessions(&sessions, n);
    l.set("core.bdd_engine.setup_ms", sum(|p| p.engine_setup_ms), n);
    l.set("core.encode.ms", sum(|p| p.encode_ms), n);
    l.set("core.encode.clauses", sum(|p| p.encode_clauses as f64), n);
    let bdd = probes.iter().any(|p| p.engine_setup_ms > 0.0);
    let (unsat, sat) = if bdd {
        (
            "core.bdd_engine.unsat_depths_ms",
            "core.bdd_engine.sat_depth_ms",
        )
    } else {
        (
            "core.sat_engine.unsat_depths_ms",
            "core.sat_engine.sat_depth_ms",
        )
    };
    l.set(unsat, sum(|p| p.unsat_ms), n);
    l.set(sat, sum(|p| p.sat_ms), n);
    if untraced_s > 0.0 {
        l.set(
            "trace.overhead_frac",
            sum(|p| p.wall_s) / untraced_s - 1.0,
            n,
        );
    }
    l
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two fastest rows, through the real `cli::run` path, untraced and
    /// traced.
    const MINI: Plan = Plan {
        engine: "bdd",
        jobs: &["3_17", "rd32-v0"],
    };

    #[test]
    fn miniature_untraced_run_reports_every_end_to_end_metric() {
        for engine in ["bdd", "sat"] {
            let plan = Plan { engine, ..MINI };
            let out = run(&plan, 7, Duration::ZERO, false).unwrap();
            assert!(out.mismatches.is_empty(), "{:?}", out.mismatches);
            assert_eq!((out.attempted, out.failed), (2, 0));
            let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
            let want: Vec<&str> = crate::report::END_TO_END.iter().map(|m| m.0).collect();
            assert_eq!(names, want);
            assert!(out.metrics.iter().all(|m| m.value() > 0.0));
            assert_eq!(out.table1_rows.len(), 2);
            assert_eq!(out.table1_rows[0].depth, 5);
        }
    }

    #[test]
    fn miniature_traced_run_fills_the_engine_layers() {
        let out = run(&MINI, 7, Duration::ZERO, true).unwrap();
        assert!(out.mismatches.is_empty(), "{:?}", out.mismatches);
        let get = |n: &str| out.metrics.iter().find(|m| m.name == n).unwrap().value();
        assert!(get("core.permuted.classes") > 0.0);
        assert!(get("core.bdd_engine.sat_depth_ms") > 0.0);
        assert!(get("bdd.peak_live_nodes") > 0.0);
        assert_eq!(get("sat.conflicts"), 0.0);
        assert_eq!(get("serve.hits"), 0.0);
        assert_eq!(out.metrics.len(), crate::report::PER_LAYER.len());
    }
}
