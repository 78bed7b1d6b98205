//! The qsyn benchmark: Table 1 under the BDD and SAT engines, a batch of
//! three-line functions and a daemon hit/miss mix, measured end to end
//! through the program's user surfaces and, in a traced run, layer by
//! layer. See `README.md`.

mod batch;
mod compare;
mod json;
mod oracle;
mod parse;
mod report;
mod serve;
mod stats;
mod table1;

use json::Json;
use qsyn::cli::Command;
use qsyn::synth::SynthesisOptions;
use report::{Metric, Outcome};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
usage: benchmark run --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
       benchmark compare A.json B.json [--spec BENCHMARK.json]

workloads: table1-bdd, table1-sat, rev3-batch, serve-mix
Run from the repository root. `run` prints `workload metric value unit n`
lines, then one JSON result line; it also writes the result to FILE
(appending to the file's runs) or to benchmark/target/results/.";

/// splitmix64: every input the benchmark makes comes from the seed.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5173_796e_6265_6e63)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` far below 2^64, so the modulo bias is nil).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The synthesis options a parsed `bench`, `batch` or `serve` command runs
/// with, so traced calls into the layers use exactly the CLI's settings.
pub fn options_of(cmd: &Command) -> Result<SynthesisOptions, String> {
    match cmd {
        Command::Synth { config, .. }
        | Command::Batch { config, .. }
        | Command::Serve { config, .. } => config.options(),
        _ => Err("not a synthesis command".to_string()),
    }
}

/// The flags of `run`.
struct RunArgs {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => run.workload = value()?.clone(),
            "--seed" => run.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => run.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => {
                run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => run.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(run)
}

/// Runs one workload; `Err` when nothing could be measured.
fn run_workload(
    args: &RunArgs,
    oracle: &oracle::Oracle,
    scratch: &Path,
) -> Result<Outcome, String> {
    let budget = Duration::from_secs(args.seconds);
    let (seed, trace) = (args.seed, args.trace);
    match args.workload.as_str() {
        "table1-bdd" => table1::run(
            &table1::Plan {
                engine: "bdd",
                jobs: table1::BDD_JOBS,
            },
            seed,
            budget,
            trace,
        ),
        "table1-sat" => table1::run(
            &table1::Plan {
                engine: "sat",
                jobs: table1::SAT_JOBS,
            },
            seed,
            budget,
            trace,
        ),
        "rev3-batch" => batch::run(
            &batch::Plan {
                jobs_per_batch: 150,
                repeats: 6,
                workers: 1,
            },
            oracle,
            seed,
            budget,
            trace,
            scratch,
        ),
        "serve-mix" => serve::run(
            &serve::Plan {
                sessions: 3,
                preload: 100,
                miss_every: 10,
                max_requests: usize::MAX,
            },
            oracle,
            seed,
            budget,
            trace,
            scratch,
        ),
        other => Err(format!("unknown workload `{other}`\n{USAGE}")),
    }
}

fn metric_json(m: &Metric) -> Json {
    let (q1, median, q3) = stats::quartiles(&m.reps);
    Json::Obj(vec![
        ("value".into(), Json::Num(m.value())),
        ("unit".into(), Json::Str(m.unit.into())),
        ("n".into(), Json::Num(m.n as f64)),
        (
            "reps".into(),
            Json::Arr(m.reps.iter().map(|&v| Json::Num(v)).collect()),
        ),
        ("median".into(), Json::Num(median)),
        ("q1".into(), Json::Num(q1)),
        ("q3".into(), Json::Num(q3)),
    ])
}

/// The result-file entry of one run.
fn run_json(args: &RunArgs, out: &Outcome, correct: bool) -> Json {
    let parallelism = std::thread::available_parallelism().map_or(0, usize::from);
    let rows = out
        .table1_rows
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("name".into(), Json::Str(r.name.into())),
                ("depth".into(), Json::Num(f64::from(r.depth))),
                ("solutions".into(), Json::Str(r.solutions.clone())),
                ("wall_s".into(), Json::Num(r.wall_s)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("workload".into(), Json::Str(args.workload.clone())),
        ("seed".into(), Json::Num(args.seed as f64)),
        ("seconds".into(), Json::Num(args.seconds as f64)),
        ("trace".into(), Json::Num(f64::from(u8::from(args.trace)))),
        ("commit".into(), Json::Str(report::commit())),
        ("rustc".into(), Json::Str(report::rustc_version())),
        (
            "available_parallelism".into(),
            Json::Num(parallelism as f64),
        ),
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(out.attempted as f64)),
        ("failed".into(), Json::Num(out.failed as f64)),
        (
            "metrics".into(),
            Json::Obj(
                out.metrics
                    .iter()
                    .map(|m| (m.name.into(), metric_json(m)))
                    .collect(),
            ),
        ),
        ("table1_rows".into(), Json::Arr(rows)),
    ])
}

/// Appends `entry` to the result file's runs (creating the file).
fn save(path: &Path, entry: Json) -> Result<(), String> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => match json::parse(&text)?.get("runs") {
            Some(Json::Arr(runs)) => runs.clone(),
            _ => return Err(format!("{}: not a result file", path.display())),
        },
        Err(_) => Vec::new(),
    };
    runs.push(entry);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    let text = Json::Obj(vec![("runs".into(), Json::Arr(runs))]).render() + "\n";
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let args = parse_run(args)?;
    let oracle = oracle::Oracle::build();
    oracle.check_histogram()?;
    let scratch = PathBuf::from(format!(
        "benchmark/target/scratch/{}-{}",
        args.workload,
        std::process::id()
    ));
    let outcome = run_workload(&args, &oracle, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    let out = outcome?;
    for m in &out.mismatches {
        eprintln!("mismatch: {m}");
    }
    let correct = out.mismatches.is_empty();
    for m in &out.metrics {
        println!(
            "{} {} {} {} {}",
            args.workload,
            m.name,
            m.value(),
            m.unit,
            m.n
        );
    }
    let path = args.out.clone().unwrap_or_else(|| {
        PathBuf::from(format!(
            "benchmark/target/results/{}-seed{}-trace{}.json",
            args.workload,
            args.seed,
            u8::from(args.trace)
        ))
    });
    save(&path, run_json(&args, &out, correct))?;
    let metrics = out
        .metrics
        .iter()
        .map(|m| {
            let v = Json::Obj(vec![
                ("value".into(), Json::Num(m.value())),
                ("unit".into(), Json::Str(m.unit.into())),
            ]);
            (m.name.to_string(), v)
        })
        .collect();
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(out.attempted as f64)),
        ("failed".into(), Json::Num(out.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
    Ok(correct)
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut spec = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--spec" {
            spec = PathBuf::from(it.next().ok_or("--spec needs a file")?);
        } else {
            files.push(a);
        }
    }
    let [a, b] = files.as_slice() else {
        return Err(USAGE.to_string());
    };
    let read = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    compare::compare(&read(&spec)?, &read(Path::new(a))?, &read(Path::new(b))?)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the metrics the code reports.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let spec = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&report::END_TO_END));
        assert_eq!(names("per_layer"), own(&report::PER_LAYER));
    }

    #[test]
    fn shuffles_are_seeded() {
        let mut a: Vec<u32> = (0..20).collect();
        let mut b = a.clone();
        Rng::new(5).shuffle(&mut a);
        Rng::new(5).shuffle(&mut b);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..20).collect();
        Rng::new(6).shuffle(&mut c);
        assert_ne!(a, c);
    }
}
