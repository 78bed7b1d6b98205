//! The trajectory gate: one runner, one baseline (`BENCH_trajectory.json`)
//! and one checker for the deterministic counters of every layer.
//!
//! Each scenario re-runs a fixed workload and returns rows of one schema,
//! `{scenario, job, counters, wall{min,median,max,reps}}`:
//!
//! * `kernel` — the BDD engine on the small Table 1 functions and on
//!   alu-v1, whose time goes to the fused ∀-AND check: depth, solution
//!   count and peak live nodes;
//! * `session` — a 20-job batch through one `SynthesisSession`: depth
//!   and solution count per function, the session's managers, resets and
//!   cascade levels built;
//! * `faults` — a batch over all three engines with the fault plane
//!   compiled in but disarmed, then one armed, supervised rd32-v0 job per
//!   seed: attempts, outcome and the faults that fired;
//! * `serve` — an in-process `ServeCore` over a disk store through cold,
//!   warm and restart phases: the answer per request, the counters per
//!   phase;
//! * `permute` — the pruned output-permutation search, checked against
//!   the brute oracle: probe-space counters;
//! * `incremental` — incremental SAT deepening, checked against the
//!   from-scratch oracle: reuse counters and the solver's conflicts,
//!   decisions and propagations.
//!
//! Every counter is exact for a given tree (the engines, the probe loop
//! and the single-worker scheduler are deterministic), and each scenario
//! asserts its repetitions agree. `--check BASELINE` fails on a counter
//! that differs from the baseline — except those in [`TOLERANCE`], which
//! may grow by a bounded factor — and on a row or counter that only one
//! side has. Wall-clock (milliseconds over the scenario's repetitions) is
//! recorded, never gated: shared runners swing 2×.
//!
//! ```text
//! # the gate; the fresh report goes only where -o points
//! cargo run --release -p qsyn-bench --features faults --bin trajectory -- \
//!     --check BENCH_trajectory.json -o target/trajectory.new.json
//! # regenerate the baseline; the plain build is the fault plane's timing peer
//! cargo build --release -p qsyn-bench --bin trajectory
//! cp target/release/trajectory target/trajectory.plain
//! cargo run --release -p qsyn-bench --features faults --bin trajectory -- \
//!     --ab target/trajectory.plain
//! ```
//!
//! `--ab PLAIN_BIN` alternates `--time-only` runs of this build and of
//! `PLAIN_BIN` (each a fresh process timing the `faults` workload's jobs)
//! inside one measurement window and fails unless the disarmed plane
//! costs under [`OVERHEAD_BAR_PCT`] percent; writing a baseline requires
//! it. A build without `--features faults` has no recovery rows, so it
//! refuses everything but `--time-only`.

use qsyn_bench::run_budgeted;
use qsyn_core::permuted::{
    permute_spec, synthesize_with_output_permutation_brute_in,
    synthesize_with_output_permutation_in, PermutedSynthesisResult,
};
use qsyn_core::{
    synthesize_in, Engine, GateLibrary, SynthesisError, SynthesisOptions, SynthesisSession,
};
use qsyn_portfolio::json::{Object, Value, Writer};
use qsyn_revlogic::{benchmarks, Spec};
use qsyn_serve::{ServeConfig, ServeCore, Source};
use qsyn_store::Store;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{Display, Write as _};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

/// A scenario: name, repetitions, and the function that runs one
/// repetition and records its rows.
type Scenario = (&'static str, usize, fn(&mut Rows));

/// The scenarios, in run order.
const SCENARIOS: &[Scenario] = &[
    ("kernel", 3, kernel),
    ("session", 3, session),
    ("faults", FAULT_REPS, faults),
    ("serve", 3, serve),
    ("permute", 1, permute),
    ("incremental", 1, incremental),
];

/// Counters that may grow up to a factor of their baseline value instead
/// of matching it exactly. BDD node trajectories move with any kernel
/// change; only a real blowup should fail.
const TOLERANCE: &[(&str, f64)] = &[("peak_live", 1.25)];

/// Disarmed fault-plane overhead bar for `--ab`, in percent.
const OVERHEAD_BAR_PCT: f64 = 2.0;

/// Paired samples `--ab` takes of each build.
const AB_PAIRS: usize = 20;

/// Counter name → value. Most values are integers; a few are labels
/// (winning permutation, answer source, retry outcome, fired faults).
type Counters = BTreeMap<String, String>;

fn counters(pairs: &[(&str, &dyn Display)]) -> Counters {
    pairs
        .iter()
        .map(|(name, value)| (name.to_string(), value.to_string()))
        .collect()
}

/// A counter set's walk (`counters()`), every counter under its field name.
fn walked(pairs: impl Iterator<Item = (&'static str, u64)>) -> Counters {
    pairs
        .map(|(name, value)| (name.to_string(), value.to_string()))
        .collect()
}

/// Wall-clock spread of one row over its repetitions, in milliseconds.
#[derive(Clone, Debug, PartialEq)]
struct Wall {
    min: f64,
    median: f64,
    max: f64,
    reps: usize,
}

impl Wall {
    fn of(mut samples: Vec<f64>) -> Wall {
        samples.sort_by(f64::total_cmp);
        Wall {
            min: samples[0],
            median: samples[samples.len() / 2],
            max: samples[samples.len() - 1],
            reps: samples.len(),
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
struct Row {
    scenario: String,
    job: String,
    counters: Counters,
    wall: Wall,
}

/// One scenario's rows across repetitions: the first repetition fixes a
/// job's counters, later ones must reproduce them exactly.
struct Rows {
    scenario: &'static str,
    jobs: Vec<(String, Counters, Vec<f64>)>,
}

impl Rows {
    fn record(&mut self, job: &str, ms: f64, counters: Counters) {
        match self.jobs.iter_mut().find(|(j, ..)| j == job) {
            Some((_, first, samples)) => {
                assert_eq!(
                    *first, counters,
                    "{}/{job}: counters differ between repetitions",
                    self.scenario
                );
                samples.push(ms);
            }
            None => self.jobs.push((job.to_string(), counters, vec![ms])),
        }
    }
}

fn run_scenario(scenario: &'static str, reps: usize, once: fn(&mut Rows)) -> Vec<Row> {
    let mut rows = Rows {
        scenario,
        jobs: Vec::new(),
    };
    for _ in 0..reps {
        once(&mut rows);
    }
    rows.jobs
        .into_iter()
        .map(|(job, counters, samples)| Row {
            scenario: scenario.to_string(),
            job,
            counters,
            wall: Wall::of(samples),
        })
        .collect()
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn bench(name: &str) -> Spec {
    benchmarks::by_name(name)
        .unwrap_or_else(|| panic!("{name}: unknown benchmark"))
        .spec
}

fn mct(engine: Engine) -> SynthesisOptions {
    SynthesisOptions::new(GateLibrary::mct(), engine)
}

/// Synthesizes benchmark `name` ten times in one session, asserts every round
/// gives the same answer and returns it as `(depth, solutions)` counters.
fn rounds(name: &str, options: &SynthesisOptions, session: &mut SynthesisSession) -> Counters {
    const ROUNDS: usize = 10;
    let spec = bench(name);
    let answers: Vec<(u32, u128)> = (0..ROUNDS)
        .map(|_| {
            let r =
                synthesize_in(&spec, options, session).unwrap_or_else(|e| panic!("{name}: {e}"));
            (r.depth(), r.solutions().count())
        })
        .collect();
    let (depth, solutions) = answers[0];
    assert!(
        answers.iter().all(|&a| a == (depth, solutions)),
        "{name}: a repeated job diverged: {answers:?}"
    );
    counters(&[("depth", &depth), ("solutions", &solutions)])
}

/// The BDD kernel (fused ∀-AND, lossy computed table, arena GC) on every
/// small Table 1 function, plus one 5-line row (alu-v1) whose peak is set
/// by the ∀-AND check rather than the cascade build.
fn kernel(rows: &mut Rows) {
    const BUDGET: Duration = Duration::from_secs(120);
    for name in [
        "3_17",
        "rd32-v0",
        "rd32-v1",
        "decod24-v0",
        "decod24-v2",
        "alu-v1",
    ] {
        let spec = bench(name);
        let start = Instant::now();
        let out = run_budgeted(&spec, &mct(Engine::Bdd), BUDGET);
        let ms = ms_since(start);
        let r = out
            .result()
            .unwrap_or_else(|| panic!("{name} must synthesize within {BUDGET:?}"));
        let stats = r.bdd_stats().expect("the BDD engine reports manager stats");
        rows.record(
            name,
            ms,
            counters(&[
                ("depth", &r.depth()),
                ("solutions", &r.solutions().count()),
                ("peak_live", &stats.peak_live),
            ]),
        );
    }
}

/// Two 4-line functions, ten jobs each, through one session: every job
/// after the first starts from the cascade the session kept, so only the
/// levels past the deepest one kept are built.
fn session(rows: &mut Rows) {
    let mut session = SynthesisSession::new();
    let batch = Instant::now();
    for name in ["rd32-v0", "decod24-v0"] {
        let start = Instant::now();
        let answer = rounds(name, &mct(Engine::Bdd), &mut session);
        rows.record(name, ms_since(start), answer);
    }
    let stats = session.stats();
    assert_eq!(stats.managers, 1, "the batch must reuse one manager");
    rows.record(
        "batch",
        ms_since(batch),
        counters(&[
            ("managers", &stats.managers),
            ("resets", &stats.resets),
            ("levels_built", &stats.search.levels_built),
        ]),
    );
}

/// Repetitions of the fault-plane workload, here and under `--ab`.
const FAULT_REPS: usize = 3;

/// Table 1 functions over all three engines, so the engines' injection
/// sites' disarmed checks sit on a timed hot path: BDD alloc and GC sweep,
/// and SAT propagation, which the `3_17/QBF` row's ∀-expansion solve polls
/// too.
fn fault_workload(rows: &mut Rows) {
    let mut session = SynthesisSession::new();
    for (name, engine) in [
        ("rd32-v0", Engine::Bdd),
        ("decod24-v0", Engine::Bdd),
        ("3_17", Engine::Bdd),
        ("rd32-v0", Engine::Sat),
        ("3_17", Engine::Qbf),
    ] {
        let start = Instant::now();
        let answer = rounds(name, &mct(engine), &mut session);
        rows.record(&format!("{name}/{engine}"), ms_since(start), answer);
    }
}

/// The workload's time in this build: each job's minimum over
/// [`FAULT_REPS`] repetitions.
fn fault_workload_minima() -> Vec<(String, f64)> {
    run_scenario("faults", FAULT_REPS, fault_workload)
        .into_iter()
        .map(|row| (row.job, row.wall.min))
        .collect()
}

fn faults(rows: &mut Rows) {
    fault_workload(rows);
    #[cfg(feature = "faults")]
    recovery(rows);
}

/// Arms the plane per seed and pushes one job through the supervised
/// scheduler. One worker, so visit counts, and with them the whole fault
/// schedule, are reproducible.
#[cfg(feature = "faults")]
fn recovery(rows: &mut Rows) {
    use qsyn_faults::FaultPlane;
    use qsyn_portfolio::{run_batch, BatchConfig, JobStatus, RetryPolicy};

    // At most one one-shot fault per site can fire, so the supervisor
    // needs at most `sites + 1` attempts.
    const MAX_ATTEMPTS: u32 = 8;
    let spec = bench("rd32-v0");
    for seed in 1..=4u64 {
        let start = Instant::now();
        FaultPlane::arm(seed);
        let outcome = run_batch(
            vec![("rd32-v0".to_string(), spec.clone())],
            &BatchConfig {
                workers: 1,
                retry: RetryPolicy::escalating(MAX_ATTEMPTS, Vec::new()),
            },
            None,
            |spec, token, session, attempt| {
                let options = attempt.apply(&mct(Engine::Bdd));
                synthesize_in(spec, &options.with_cancel_token(token.clone()), session)
            },
        );
        let fired: Vec<String> = FaultPlane::fired()
            .into_iter()
            .map(|(site, kind)| format!("{} {kind}", site.name()))
            .collect();
        FaultPlane::disarm();
        let ms = ms_since(start);
        let report = &outcome.reports[0];
        let label = match &report.status {
            JobStatus::Done(_) => "done",
            JobStatus::Degraded { .. } => "recovered",
            JobStatus::Failed(_) => "failed",
            JobStatus::Panicked(_) => "panicked",
        };
        assert!(
            matches!(label, "done" | "recovered"),
            "seed {seed}: the supervisor must recover the job, got {label}"
        );
        rows.record(
            &format!("seed-{seed}"),
            ms,
            counters(&[
                ("attempts", &report.attempts),
                ("outcome", &label),
                ("fired", &fired.join(", ")),
            ]),
        );
    }
}

/// Cold, warm and restart phases over a fresh disk store. `3_17-twin` is
/// `3_17` with its output lines rotated: a distinct spec in the same
/// class, so even the cold phase must answer it from the store.
fn serve(rows: &mut Rows) {
    let dir = std::env::temp_dir().join(format!("qsyn-trajectory-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("serve.store");
    let _ = std::fs::remove_file(&path);
    let jobs: Vec<(&str, Spec)> = ["rd32-v0", "3_17", "3_17-twin", "decod24-v0"]
        .into_iter()
        .map(|name| match name {
            "3_17-twin" => (
                name,
                permute_spec(&bench("3_17"), &[1, 2, 0]).expect("valid permutation"),
            ),
            _ => (name, bench(name)),
        })
        .collect();
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 16,
        ..ServeConfig::default()
    };
    let record_phase = |rows: &mut Rows, phase: &str, start: Instant, core: &ServeCore| {
        let s = core.snapshot();
        rows.record(
            phase,
            ms_since(start),
            counters(&[
                ("requests", &s.requests),
                ("hits", &s.hits),
                ("misses", &s.misses),
                ("inflight_dedup", &s.inflight_dedup),
                ("engine_invocations", &s.engine_invocations),
                ("store_records", &s.store_records),
            ]),
        );
        s.engine_invocations
    };

    let store = Store::open(&path).expect("open fresh store");
    assert!(store.is_empty(), "a fresh store must be empty");
    let core = ServeCore::start(&config, Some(store));
    let phase = Instant::now();
    let mut answers = Vec::new();
    for (name, spec) in &jobs {
        let start = Instant::now();
        let served = core
            .request(name, spec)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let r = &served.record;
        assert!(
            *name != "3_17-twin" || served.source == Source::Store,
            "the 3_17 twin must hit the class 3_17 stored"
        );
        answers.push((r.depth, r.solution_count));
        rows.record(
            name,
            ms_since(start),
            counters(&[
                ("depth", &r.depth),
                ("solutions", &r.solution_count),
                ("quantum_cost", &r.quantum_cost),
                ("cold_source", &served.source.as_str()),
            ]),
        );
    }
    record_phase(rows, "cold", phase, &core);

    // Every later request must replay the stored record without an engine.
    let replay = |phase: &str, core: &ServeCore| {
        for ((name, spec), &(depth, solutions)) in jobs.iter().zip(&answers) {
            let served = core
                .request(name, spec)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let r = &served.record;
            assert_eq!(
                (served.source, r.depth, r.solution_count),
                (Source::Store, depth, solutions),
                "{phase} {name} must replay the stored record"
            );
        }
    };
    let phase = Instant::now();
    replay("warm", &core);
    record_phase(rows, "warm", phase, &core);
    drop(core);

    // Reopening must leave the file's bytes untouched.
    let bytes = std::fs::read(&path).expect("read store file");
    let store = Store::open(&path).expect("reopen store");
    assert_eq!(store.truncated_tail_bytes(), 0, "clean file, no torn tail");
    assert_eq!(std::fs::read(&path).expect("re-read store file"), bytes);
    assert_eq!(store.len(), 3, "one record per class");
    let core = ServeCore::start(&config, Some(store));
    let phase = Instant::now();
    replay("restart", &core);
    let engines = record_phase(rows, "restart", phase, &core);
    assert_eq!(engines, 0, "a restart must not run an engine");
    drop(core);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The fast Table 1 jobs: `3_17` is the 3-line control, the six 4-line
/// jobs carry the permutation-pruning bars.
const PERMUTED_JOBS: &[&str] = &[
    "3_17",
    "rd32-v0",
    "rd32-v1",
    "decod24-v0",
    "decod24-v1",
    "decod24-v2",
    "decod24-v3",
];

/// Runs the output-permutation search for `name` on the production path
/// (timed) and on `oracle`, asserts both find the same minimal depth,
/// winning permutation and solution count, and returns the production
/// result, that answer as counters, and the time.
fn permuted_ab(
    name: &str,
    options: &SynthesisOptions,
    oracle: impl Fn(&Spec, &mut SynthesisSession) -> Result<PermutedSynthesisResult, SynthesisError>,
) -> (PermutedSynthesisResult, Counters, f64) {
    let spec = bench(name);
    let start = Instant::now();
    let got = synthesize_with_output_permutation_in(&spec, options, &mut SynthesisSession::new())
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let ms = ms_since(start);
    let want = oracle(&spec, &mut SynthesisSession::new())
        .unwrap_or_else(|e| panic!("{name}: oracle: {e}"));
    let answer = |r: &PermutedSynthesisResult| {
        counters(&[
            ("lines", &spec.lines()),
            ("depth", &r.result.depth()),
            ("solutions", &r.result.solutions().count()),
            ("permutation", &format!("{:?}", r.permutation)),
        ])
    };
    assert_eq!(
        answer(&got),
        answer(&want),
        "{name}: production and oracle diverged"
    );
    let answer = answer(&got);
    (got, answer, ms)
}

/// Pruned conjugation-class probing against the brute `n!` sweep.
fn permute(rows: &mut Rows) {
    let options = mct(Engine::Bdd).with_max_depth(16);
    for &name in PERMUTED_JOBS {
        let (r, mut answer, ms) = permuted_ab(name, &options, |spec, session| {
            synthesize_with_output_permutation_brute_in(spec, &options, session)
        });
        let (s, lines) = (r.stats, r.permutation.len());
        let blind = s.permutations * (u64::from(r.result.depth()) + 1);
        assert!(
            lines < 4 || s.probes_run < blind,
            "{name}: {} probes, not under the blind {blind}",
            s.probes_run
        );
        // One shared cascade, extended once per depth for every class.
        assert_eq!(
            s.levels_built,
            u64::from(r.result.depth()),
            "{name}: cascade levels built"
        );
        answer.extend(walked(s.counters()));
        rows.record(name, ms, answer);
    }
}

/// One persistent SAT solver per probe engine across depths, against the
/// from-scratch oracle (`with_incremental(false)`).
fn incremental(rows: &mut Rows) {
    let warm = mct(Engine::Sat).with_max_depth(16);
    let cold = warm.clone().with_incremental(false);
    for &name in PERMUTED_JOBS {
        let (r, mut answer, ms) = permuted_ab(name, &warm, |spec, session| {
            synthesize_with_output_permutation_in(spec, &cold, session)
        });
        let inc = r.stats.incremental;
        // Every job deepens past its first queried depth somewhere in the
        // probe space, so refutations and learnts must carry forward.
        assert!(
            inc.depths > 0
                && inc.clauses_added > 0
                && inc.clauses_retained > 0
                && inc.learnt_reused > 0,
            "{name}: no reuse across depths ({inc:?})"
        );
        answer.extend(walked(inc.counters()));
        rows.record(name, ms, answer);
    }
}

/// Compares a run against a baseline and returns one message per failure:
/// a counter that differs (beyond its [`TOLERANCE`] factor, where it has
/// one), or a row or counter that only one side has.
fn check(run: &[Row], baseline: &[Row]) -> Vec<String> {
    fn find<'r>(rows: &'r [Row], key: &Row) -> Option<&'r Row> {
        rows.iter()
            .find(|r| (&r.scenario, &r.job) == (&key.scenario, &key.job))
    }
    let mut failures: Vec<String> = baseline
        .iter()
        .filter(|b| find(run, b).is_none())
        .map(|b| {
            format!(
                "{}/{}: in the baseline, missing from the run",
                b.scenario, b.job
            )
        })
        .collect();
    for row in run {
        let Some(base) = find(baseline, row) else {
            failures.push(format!("{}/{}: not in the baseline", row.scenario, row.job));
            continue;
        };
        let names: BTreeSet<&String> = row.counters.keys().chain(base.counters.keys()).collect();
        for name in names {
            let (got, want) = (row.counters.get(name), base.counters.get(name));
            let ok = match (got, want, TOLERANCE.iter().find(|(n, _)| n == name)) {
                (Some(g), Some(w), Some((_, factor))) => matches!(
                    (g.parse::<f64>(), w.parse::<f64>()),
                    (Ok(g), Ok(w)) if g <= w * factor
                ),
                (Some(g), Some(w), None) => g == w,
                _ => false,
            };
            if !ok {
                let show = |v: Option<&String>| v.map_or("(missing)".to_string(), String::clone);
                failures.push(format!(
                    "{}/{} {name}: {} vs baseline {}",
                    row.scenario,
                    row.job,
                    show(got),
                    show(want)
                ));
            }
        }
    }
    failures
}

const HEADER: &str = "{\n  \"rows\": [\n";
const FOOTER: &str = "  ]\n}\n";

/// Writes the report: one row per line, integers bare, labels quoted.
fn write_report(rows: &[Row]) -> String {
    let mut out = String::from(HEADER);
    for (i, row) in rows.iter().enumerate() {
        let counters = row.counters.iter().fold(Writer::new(), |w, (name, v)| {
            if !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit()) {
                w.number(name, v)
            } else {
                w.string(name, v)
            }
        });
        let w = &row.wall;
        let wall = Writer::new()
            .number("min", format_args!("{:.3}", w.min))
            .number("median", format_args!("{:.3}", w.median))
            .number("max", format_args!("{:.3}", w.max))
            .number("reps", w.reps);
        let line = Writer::new()
            .string("scenario", &row.scenario)
            .string("job", &row.job)
            .object("counters", counters)
            .object("wall", wall)
            .finish();
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(out, "    {line}{comma}");
    }
    out.push_str(FOOTER);
    out
}

/// Refuses a field of `object` that `names` does not list.
fn only(object: &Object, names: &[&str]) -> Result<(), String> {
    match object.iter().find(|(name, _)| !names.contains(name)) {
        Some((name, _)) => Err(format!("unknown field `{name}`")),
        None => Ok(()),
    }
}

/// The field `name` of `object`, converted by `convert`.
fn read<'o, T>(
    object: &'o Object,
    name: &str,
    convert: impl Fn(&'o Value) -> Option<T>,
) -> Result<T, String> {
    object
        .get(name)
        .and_then(convert)
        .ok_or_else(|| format!("`{name}` is missing or mistyped"))
}

fn as_object(value: &Value) -> Option<&Object> {
    match value {
        Value::Object(o) => Some(o),
        _ => None,
    }
}

fn parse_row(line: &str) -> Result<Row, String> {
    let row = Object::parse(line)?;
    only(&row, &["scenario", "job", "counters", "wall"])?;
    let counters = read(&row, "counters", as_object)?
        .iter()
        .map(|(name, value)| match value {
            Value::Number(v) if v.bytes().all(|b| b.is_ascii_digit()) => {
                Ok((name.to_string(), v.clone()))
            }
            Value::String(v) => Ok((name.to_string(), v.clone())),
            _ => Err(format!(
                "counter `{name}` is neither a label nor an integer"
            )),
        })
        .collect::<Result<Counters, String>>()?;
    let wall = read(&row, "wall", as_object)?;
    only(wall, &["min", "median", "max", "reps"])?;
    let ms = |name| read(wall, name, Value::number);
    Ok(Row {
        scenario: read(&row, "scenario", Value::as_str)?.to_string(),
        job: read(&row, "job", Value::as_str)?.to_string(),
        counters,
        wall: Wall {
            min: ms("min")?,
            median: ms("median")?,
            max: ms("max")?,
            reps: read(wall, "reps", Value::number)?,
        },
    })
}

/// Reads back exactly what [`write_report`] writes.
fn parse_report(text: &str) -> Result<Vec<Row>, String> {
    let body = text
        .strip_prefix(HEADER)
        .and_then(|t| t.strip_suffix(FOOTER))
        .ok_or("not a trajectory report")?;
    let mut rows: Vec<Row> = Vec::new();
    for (i, line) in body.lines().enumerate() {
        let row = parse_row(line.strip_suffix(',').unwrap_or(line))
            .map_err(|e| format!("row {}: {e}", i + 1))?;
        if rows
            .iter()
            .any(|r| (&r.scenario, &r.job) == (&row.scenario, &row.job))
        {
            return Err(format!(
                "row {}: {}/{} appears twice",
                i + 1,
                row.scenario,
                row.job
            ));
        }
        rows.push(row);
    }
    Ok(rows)
}

/// Alternates `--time-only` runs of this build and of `plain` and returns
/// the disarmed plane's overhead in percent, min against min: each job's
/// minimum over every run of a side, summed. Two windows minutes apart
/// drift by more than the bar, so only paired samples make it
/// meaningful. Both sides run as fresh processes, and the one that runs
/// first alternates, so neither inherits the other's warm-up or the
/// heap of the scenarios this process just ran.
fn overhead_pct(plain: &str) -> Result<f64, String> {
    let own = std::env::current_exe().map_err(|e| format!("--ab: own binary: {e}"))?;
    let own = own.to_string_lossy();
    let (mut own_min, mut peer_min) = (BTreeMap::new(), BTreeMap::new());
    for pair in 1..=AB_PAIRS {
        let (mine, peer) = if pair % 2 == 1 {
            let mine = time_only_ms(&own, &mut own_min)?;
            (mine, time_only_ms(plain, &mut peer_min)?)
        } else {
            let peer = time_only_ms(plain, &mut peer_min)?;
            (time_only_ms(&own, &mut own_min)?, peer)
        };
        println!("ab pair {pair}/{AB_PAIRS}: plain {peer:.1}ms, disarmed {mine:.1}ms");
    }
    if own_min.keys().ne(peer_min.keys()) {
        return Err(format!("--ab {plain} timed other jobs than this build"));
    }
    for ((job, mine), peer) in own_min.iter().zip(peer_min.values()) {
        println!("ab minimum {job}: plain {peer:.1}ms, disarmed {mine:.1}ms");
    }
    let sum = |minima: &BTreeMap<String, f64>| minima.values().sum::<f64>();
    Ok((sum(&own_min) / sum(&peer_min) - 1.0) * 100.0)
}

/// One `BIN --time-only` run: folds each job's time into `minima` and
/// returns the run's total.
fn time_only_ms(bin: &str, minima: &mut BTreeMap<String, f64>) -> Result<f64, String> {
    let out = Command::new(bin)
        .arg("--time-only")
        .output()
        .map_err(|e| format!("--ab {bin}: {e}"))?;
    if !out.status.success() {
        return Err(format!("--ab {bin} exited with {}", out.status));
    }
    let (mut jobs, mut total) = (0, 0.0);
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let Some(rest) = line.strip_prefix("job_ms: ") else {
            continue;
        };
        let (job, ms) = rest
            .rsplit_once(' ')
            .and_then(|(job, ms)| Some((job, ms.parse::<f64>().ok()?)))
            .ok_or_else(|| format!("--ab {bin}: bad line `{line}`"))?;
        let min = minima.entry(job.to_string()).or_insert(f64::INFINITY);
        *min = min.min(ms);
        jobs += 1;
        total += ms;
    }
    if jobs == 0 {
        return Err(format!("--ab {bin} printed no `job_ms:` line"));
    }
    Ok(total)
}

fn cli() -> Result<ExitCode, String> {
    let (mut check_path, mut out_path, mut ab, mut time_only) = (None, None, None, false);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--check" => check_path = Some(value()?),
            "-o" => out_path = Some(value()?),
            "--ab" => ab = Some(value()?),
            "--time-only" => time_only = true,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if time_only {
        for (job, ms) in fault_workload_minima() {
            println!("job_ms: {job} {ms:.3}");
        }
        return Ok(ExitCode::SUCCESS);
    }
    if !cfg!(feature = "faults") {
        let why = "the `faults` scenario's recovery rows need `--features faults`; \
                   a plain build only serves as the `--ab` peer (`--time-only`)";
        return Err(why.to_string());
    }
    if check_path.is_none() && ab.is_none() {
        return Err("writing a baseline asserts the fault-plane overhead bar: \
                    pass `--ab PLAIN_BIN` (see the module docs)"
            .to_string());
    }
    let baseline = match &check_path {
        Some(path) => Some(
            std::fs::read_to_string(path)
                .map_err(|e| e.to_string())
                .and_then(|text| parse_report(&text))
                .map_err(|e| format!("{path}: {e}"))?,
        ),
        None => None,
    };

    let mut rows = Vec::new();
    for &(scenario, reps, once) in SCENARIOS {
        for row in run_scenario(scenario, reps, once) {
            let w = &row.wall;
            let counters: Vec<String> = row
                .counters
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            println!(
                "{:<11} {:<15} {:>8.1}ms [{:.1}..{:.1} ×{}]  {}",
                row.scenario,
                row.job,
                w.median,
                w.min,
                w.max,
                w.reps,
                counters.join(" ")
            );
            rows.push(row);
        }
    }
    if let Some(plain) = &ab {
        let overhead = overhead_pct(plain)?;
        println!("fault-plane overhead: {overhead:.3}% (bar {OVERHEAD_BAR_PCT}%)");
        if overhead >= OVERHEAD_BAR_PCT {
            return Ok(ExitCode::FAILURE);
        }
    }

    let report = write_report(&rows);
    let (Some(baseline), Some(path)) = (baseline, check_path) else {
        let path = out_path.unwrap_or_else(|| "BENCH_trajectory.json".to_string());
        std::fs::write(&path, report).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
        return Ok(ExitCode::SUCCESS);
    };
    if let Some(path) = &out_path {
        std::fs::write(path, report).map_err(|e| format!("{path}: {e}"))?;
    }
    let failures = check(&rows, &baseline);
    for failure in &failures {
        println!("REGRESSION {failure}");
    }
    if failures.is_empty() {
        println!("trajectory: ok against {path}");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("trajectory: {} failures against {path}", failures.len());
        Ok(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    cli().unwrap_or_else(|e| {
        eprintln!("trajectory: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(scenario: &str, job: &str, pairs: &[(&str, &dyn Display)]) -> Row {
        Row {
            scenario: scenario.to_string(),
            job: job.to_string(),
            counters: counters(pairs),
            wall: Wall::of(vec![2.0, 1.0, 3.0]),
        }
    }

    fn baseline() -> Vec<Row> {
        vec![
            row("kernel", "3_17", &[("depth", &6), ("peak_live", &1000)]),
            row(
                "faults",
                "seed-1",
                &[("attempts", &4), ("fired", &"bdd.alloc oom, x y")],
            ),
        ]
    }

    #[test]
    fn an_identical_run_passes() {
        assert_eq!(check(&baseline(), &baseline()), Vec::<String>::new());
    }

    #[test]
    fn a_drifting_counter_fails() {
        let mut run = baseline();
        run[1].counters.insert("attempts".into(), "3".into());
        assert_eq!(
            check(&run, &baseline()),
            ["faults/seed-1 attempts: 3 vs baseline 4"]
        );
        run[1].counters.insert("attempts".into(), "4".into());
        run[0].counters.insert("depth".into(), "7".into());
        assert_eq!(check(&run, &baseline()).len(), 1);
    }

    #[test]
    fn peak_live_may_grow_up_to_a_quarter() {
        let mut run = baseline();
        for (peak, ok) in [
            (500, true),
            (1200, true),
            (1250, true),
            (1251, false),
            (1300, false),
        ] {
            run[0].counters.insert("peak_live".into(), peak.to_string());
            assert_eq!(check(&run, &baseline()).is_empty(), ok, "peak_live {peak}");
        }
    }

    #[test]
    fn a_row_missing_from_the_baseline_fails() {
        let mut run = baseline();
        run.push(row("kernel", "rd32-v0", &[("depth", &4)]));
        assert_eq!(
            check(&run, &baseline()),
            ["kernel/rd32-v0: not in the baseline"]
        );
    }

    #[test]
    fn a_row_missing_from_the_run_fails() {
        let run = &baseline()[..1];
        assert_eq!(
            check(run, &baseline()),
            ["faults/seed-1: in the baseline, missing from the run"]
        );
    }

    #[test]
    fn a_counter_on_one_side_only_fails() {
        let mut run = baseline();
        run[0].counters.insert("gc_runs".into(), "2".into());
        assert_eq!(
            check(&run, &baseline()),
            ["kernel/3_17 gc_runs: 2 vs baseline (missing)"]
        );
        let mut run = baseline();
        run[0].counters.remove("depth");
        assert_eq!(
            check(&run, &baseline()),
            ["kernel/3_17 depth: (missing) vs baseline 6"]
        );
    }

    #[test]
    fn the_report_round_trips() {
        let mut rows = baseline();
        rows.push(row("serve", "warm", &[]));
        rows.push(row("permute", "3_17", &[("permutation", &"[2, 0, 1]")]));
        let text = write_report(&rows);
        assert_eq!(parse_report(&text), Ok(rows));
    }

    #[test]
    fn the_parser_rejects_what_the_writer_never_writes() {
        let text = write_report(&baseline());
        assert!(parse_report(&text.replace("\"depth\":6", "\"depth\"6")).is_err());
        assert!(parse_report(&text.replace("\"reps\":3}", "\"reps\":3,\"x\":1}")).is_err());
        assert!(parse_report(&text.replace("seed-1", "3_17").replace("faults", "kernel")).is_err());
        assert!(parse_report(&text[1..]).is_err());
    }

    #[test]
    fn the_committed_baseline_covers_every_scenario() {
        let rows = parse_report(include_str!("../../../../BENCH_trajectory.json"))
            .expect("BENCH_trajectory.json parses");
        for &(scenario, ..) in SCENARIOS {
            assert!(rows.iter().any(|r| r.scenario == scenario), "{scenario}");
        }
    }
}
