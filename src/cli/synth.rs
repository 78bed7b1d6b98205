//! `synth` / `bench`: exact synthesis of one specification, plus the
//! synthesis configuration and the one synthesis call that `batch`
//! shares.

use super::{Args, Command, Outcome};
use crate::portfolio::race::{race_engines, race_engines_permuted, RaceError};
use crate::portfolio::scheduler::{supervise, JobStatus, RetryPolicy};
use crate::revlogic::{benchmarks, cost, real, spec_format, GateLibrary, Spec};
use crate::synth::permuted::{synthesize_with_output_permutation_in, PermutedSynthesisResult};
use crate::synth::{
    synthesize_in, CancelToken, Engine, SynthesisError, SynthesisOptions, SynthesisResult,
    SynthesisSession,
};
use std::io::Write;
use std::time::Duration;

/// Where the specification comes from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Source {
    /// A `.spec` file path.
    File(String),
    /// A built-in benchmark name.
    Benchmark(String),
}

/// Decision-engine selection (`--engine bdd|qbf|sat|race`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineChoice {
    /// One fixed engine.
    Single(Engine),
    /// Portfolio race: all engines in parallel, first proof wins.
    Race,
}

impl std::fmt::Display for EngineChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineChoice::Single(e) => write!(f, "{e}"),
            EngineChoice::Race => write!(f, "race"),
        }
    }
}

/// Options accepted by `synth` / `bench` / `batch`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SynthConfig {
    /// Decision engine (`--engine bdd|qbf|sat|race`).
    pub engine: EngineChoice,
    /// Gate library (`--library mct|mct+mcf|mct+p|all`).
    pub library: String,
    /// `--mixed-polarity`.
    pub mixed_polarity: bool,
    /// `--output-permutation`.
    pub output_permutation: bool,
    /// `--heuristic` — transformation-based synthesis (fast, non-minimal;
    /// completely specified functions only).
    pub heuristic: bool,
    /// `--max-depth N`.
    pub max_depth: u32,
    /// `--timeout SECS`.
    pub timeout: Option<u64>,
    /// `--all` — print every minimal circuit, not just the cheapest.
    pub all: bool,
    /// `--stats` — print counters after the run: a `bdd:` line (BDD
    /// manager: live/peak nodes, GC runs, computed-table hit rate), then
    /// under `--output-permutation` a `search:` line (probe counters, with
    /// the incremental SAT solver's summed over every class probe), else a
    /// `sat:` line when the incremental SAT solver ran. `batch` prints one
    /// `sessions:` line for the whole batch instead.
    pub stats: bool,
    /// `-o FILE` — write the best circuit to FILE instead of stdout.
    pub output: Option<String>,
    /// `--retries N` — extra attempts for budget-tripped jobs, with
    /// budgets doubling per retry.
    pub retries: u32,
    /// `--ladder e1,e2,…` — engines to degrade through on budget-trip
    /// retries (implies at least one retry per rung when `--retries` is
    /// not given).
    pub ladder: Vec<Engine>,
    /// `--fault-seed N` — arm the deterministic fault-injection plane
    /// (rejected unless the binary was built with `--features faults`).
    pub fault_seed: Option<u64>,
}

impl Default for SynthConfig {
    fn default() -> SynthConfig {
        SynthConfig {
            engine: EngineChoice::Single(Engine::Bdd),
            library: "mct".to_string(),
            mixed_polarity: false,
            output_permutation: false,
            heuristic: false,
            max_depth: 32,
            timeout: None,
            all: false,
            stats: false,
            output: None,
            retries: 0,
            ladder: Vec::new(),
            fault_seed: None,
        }
    }
}

impl SynthConfig {
    /// Resolves the library flag.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown library names.
    pub fn gate_library(&self) -> Result<GateLibrary, String> {
        let base = match self.library.as_str() {
            "mct" => GateLibrary::mct(),
            "mct+mcf" => GateLibrary::mct_mcf(),
            "mct+p" => GateLibrary::mct_peres(),
            "all" | "mct+mcf+p" => GateLibrary::all(),
            other => return Err(format!("unknown library `{other}`")),
        };
        Ok(if self.mixed_polarity {
            base.with_mixed_polarity()
        } else {
            base
        })
    }

    /// Builds the engine options.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown library names.
    pub fn options(&self) -> Result<SynthesisOptions, String> {
        let engine = match self.engine {
            EngineChoice::Single(e) => e,
            // Placeholder: the race spawns one clone per engine and
            // overrides this field on each.
            EngineChoice::Race => Engine::Bdd,
        };
        let mut o =
            SynthesisOptions::new(self.gate_library()?, engine).with_max_depth(self.max_depth);
        if let Some(secs) = self.timeout {
            o = o.with_time_budget(Duration::from_secs(secs));
        }
        Ok(o)
    }

    /// The recovery plan implied by `--retries` / `--ladder`: budget
    /// trips escalate (budgets double per retry) and degrade down the
    /// ladder. `--ladder` without `--retries` grants one retry per rung.
    pub fn retry_policy(&self) -> RetryPolicy {
        let extra = if self.retries == 0 {
            u32::try_from(self.ladder.len()).unwrap_or(u32::MAX)
        } else {
            self.retries
        };
        if extra == 0 {
            RetryPolicy::none()
        } else {
            RetryPolicy::escalating(extra + 1, self.ladder.clone())
        }
    }

    /// Applies one synthesis option, reading its value from `args`.
    ///
    /// # Errors
    ///
    /// Returns a message for a malformed value or a flag that is not a
    /// synthesis option.
    pub(super) fn apply_flag(&mut self, flag: &str, args: &mut Args) -> Result<(), String> {
        match flag {
            "--engine" => {
                self.engine = match args.value::<String>(flag)?.as_str() {
                    "race" => EngineChoice::Race,
                    name => EngineChoice::Single(parse_engine_name(name)?),
                };
            }
            "--library" => self.library = args.value(flag)?,
            "--mixed-polarity" => self.mixed_polarity = true,
            "--output-permutation" => self.output_permutation = true,
            "--heuristic" => self.heuristic = true,
            "--max-depth" => self.max_depth = args.value(flag)?,
            "--timeout" => self.timeout = Some(args.value(flag)?),
            "--all" => self.all = true,
            "--stats" => self.stats = true,
            "-o" | "--output" => self.output = Some(args.value(flag)?),
            "--retries" => self.retries = args.value(flag)?,
            "--ladder" => {
                self.ladder = args
                    .value::<String>(flag)?
                    .split(',')
                    .map(|name| parse_engine_name(name.trim()))
                    .collect::<Result<Vec<_>, _>>()?;
            }
            "--fault-seed" => self.fault_seed = Some(args.value(flag)?),
            _ => return Err(format!("unknown option `{flag}`")),
        }
        Ok(())
    }
}

/// Parses a single (non-race) engine name.
fn parse_engine_name(name: &str) -> Result<Engine, String> {
    match name {
        "bdd" => Ok(Engine::Bdd),
        "qbf" => Ok(Engine::Qbf),
        "sat" => Ok(Engine::Sat),
        other => Err(format!("unknown engine `{other}`")),
    }
}

/// Refuses the synthesis flags `verb` has no use for: the first set one
/// in `flags` is the error.
pub(super) fn refuse(verb: &str, flags: &[(bool, &str)]) -> Result<(), String> {
    match flags.iter().find(|(set, _)| *set) {
        Some((_, flag)) => Err(format!("{verb} does not take {flag}")),
        None => Ok(()),
    }
}

/// Parses `synth <file.spec>` and `bench <name>`.
pub(super) fn parse(sub: &str, args: &mut Args) -> Result<Command, String> {
    let target = args.required(&format!("{sub}: missing specification"))?;
    let source = if sub == "synth" {
        Source::File(target)
    } else {
        Source::Benchmark(target)
    };
    let mut config = SynthConfig::default();
    while let Some(flag) = args.next() {
        config.apply_flag(&flag, args)?;
    }
    Ok(Command::Synth { source, config })
}

/// RAII arming of the fault-injection plane from `--fault-seed`:
/// rejected on builds without the plane compiled in, disarmed when the
/// command finishes (so in-process callers — tests — are not poisoned).
pub(super) struct FaultArming(bool);

impl FaultArming {
    /// Arms the plane with `seed`, if one is given.
    pub(super) fn arm(seed: Option<u64>) -> Result<FaultArming, String> {
        let Some(seed) = seed else {
            return Ok(FaultArming(false));
        };
        if !qsyn_faults::FaultPlane::compiled_in() {
            return Err(
                "--fault-seed requires a binary built with `--features faults`".to_string(),
            );
        }
        qsyn_faults::FaultPlane::arm(seed);
        Ok(FaultArming(true))
    }

    /// Whether this guard actually armed the fault plane.
    pub(super) fn armed(&self) -> bool {
        self.0
    }
}

impl Drop for FaultArming {
    fn drop(&mut self) {
        if self.0 {
            qsyn_faults::FaultPlane::disarm();
        }
    }
}

/// The one synthesis call: `spec` under `engine`, with free output
/// relabeling when `permute` is set, otherwise under the spec's own
/// labeling (wrapped as the identity permutation). Returns the result and
/// the winning racer's label under `--engine race`. A single engine runs
/// in `session`; racers own theirs.
pub(super) fn synthesize(
    spec: &Spec,
    options: &SynthesisOptions,
    engine: EngineChoice,
    permute: bool,
    session: &mut SynthesisSession,
) -> Result<(PermutedSynthesisResult, Option<String>), SynthesisError> {
    let plain = |r: SynthesisResult| PermutedSynthesisResult::plain(r, spec.lines());
    match (engine, permute) {
        (EngineChoice::Race, true) => race_engines_permuted(spec, options)
            .map(|r| (r.winner, Some(r.winner_label)))
            .map_err(RaceError::into_synthesis_error),
        (EngineChoice::Race, false) => race_engines(spec, options)
            .map(|r| (plain(r.winner), Some(r.winner_label)))
            .map_err(RaceError::into_synthesis_error),
        (EngineChoice::Single(_), true) => {
            synthesize_with_output_permutation_in(spec, options, session).map(|p| (p, None))
        }
        (EngineChoice::Single(_), false) => {
            synthesize_in(spec, options, session).map(|r| (plain(r), None))
        }
    }
}

/// `", via sat"` — the engines a degraded job was routed through.
pub(super) fn ladder_note(path: &[Engine]) -> String {
    if path.is_empty() {
        return String::new();
    }
    let names: Vec<String> = path.iter().map(ToString::to_string).collect();
    format!(", via {}", names.join(" -> "))
}

impl Source {
    /// Reads the specification.
    fn read_spec(&self) -> Result<Spec, String> {
        match self {
            Source::File(path) => {
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                spec_format::parse_spec(&text).map_err(|e| e.to_string())
            }
            Source::Benchmark(name) => benchmarks::by_name(name)
                .map(|b| b.spec)
                .ok_or_else(|| format!("unknown benchmark `{name}` (see `qsyn list`)")),
        }
    }
}

/// Executes `qsyn synth` / `qsyn bench`.
pub(super) fn run(source: &Source, config: &SynthConfig, out: &mut dyn Write) -> Outcome {
    let spec = source.read_spec()?;
    let options = config.options()?;
    if config.heuristic {
        return heuristic(&spec, config, out);
    }
    let _faults = FaultArming::arm(config.fault_seed)?;
    let (status, _) = supervise(
        &config.retry_policy(),
        &CancelToken::new(),
        &mut SynthesisSession::new(),
        |token, session, attempt| {
            // A ladder rung turns a raced job into a single-engine one:
            // degradation narrows the portfolio.
            let engine = attempt.engine.map_or(config.engine, EngineChoice::Single);
            let opts = attempt.apply(&options).with_cancel_token(token.clone());
            synthesize(&spec, &opts, engine, config.output_permutation, session)
        },
    );
    let (recovery, (p, winner)) = match status {
        JobStatus::Done(r) => (None, r),
        JobStatus::Degraded {
            result,
            attempts,
            ladder_path,
        } => {
            let note = format!(
                "recovered after {attempts} attempts{}",
                ladder_note(&ladder_path)
            );
            (Some(note), result)
        }
        JobStatus::Failed(e) => return Err(e.to_string().into()),
        JobStatus::Panicked(p) => return Err(p.to_string().into()),
    };
    let r = &p.result;
    let race_note = match winner {
        Some(label) => format!(" [race winner: {label}]"),
        None => String::new(),
    };
    if config.output_permutation {
        writeln!(
            out,
            "minimal gates: {} (output permutation {:?}), {} solutions, {:?}{race_note}",
            r.depth(),
            p.permutation,
            r.solutions().count_display(),
            r.total_time(),
        )?;
    } else {
        let (lo, hi) = r.solutions().quantum_cost_range();
        writeln!(
            out,
            "minimal gates: {}, {} solutions, quantum cost {lo}..{hi}, {:?} ({} engine){race_note}",
            r.depth(),
            r.solutions().count_display(),
            r.total_time(),
            r.engine(),
        )?;
    }
    if let Some(note) = recovery {
        writeln!(out, "{note}")?;
    }
    if config.stats {
        match r.bdd_stats() {
            Some(s) => writeln!(out, "bdd: {s}")?,
            None => writeln!(out, "bdd: n/a ({} engine has no BDD manager)", r.engine())?,
        }
        if config.output_permutation {
            writeln!(out, "search: {}", p.stats)?;
        } else if let Some(s) = r.incremental_stats() {
            writeln!(out, "sat: {s}")?;
        }
    }
    if config.output.is_none() && config.all {
        for (i, c) in r.solutions().circuits().iter().enumerate() {
            writeln!(
                out,
                "# solution {} (quantum cost {})",
                i + 1,
                cost::circuit_cost(c)
            )?;
            write!(out, "{c}")?;
        }
        return Ok(0);
    }
    let best = real::write_real(r.solutions().best_by_quantum_cost());
    write_circuit(&best, config, out)
}

/// `--heuristic`: transformation-based synthesis, no minimality claim.
fn heuristic(spec: &Spec, config: &SynthConfig, out: &mut dyn Write) -> Outcome {
    let perm = spec
        .as_permutation()
        .ok_or("--heuristic requires a completely specified (bijective) function")?;
    let circuit = crate::synth::transform::transformation_synthesis(&perm);
    writeln!(
        out,
        "heuristic realization: {} gates, quantum cost {} (no minimality guarantee)",
        circuit.len(),
        cost::circuit_cost(&circuit)
    )?;
    write_circuit(&real::write_real(&circuit), config, out)
}

/// Writes a rendered circuit to the `-o` file, or else to `out`.
fn write_circuit(text: &str, config: &SynthConfig, out: &mut dyn Write) -> Outcome {
    match &config.output {
        Some(path) => {
            std::fs::write(path, text)?;
            writeln!(out, "wrote {path}")?;
        }
        None => write!(out, "{text}")?,
    }
    Ok(0)
}
