//! Command-line interface for the `qsyn` tool.
//!
//! Subcommands:
//!
//! * `synth <file.spec>` — exact synthesis of a truth-table specification,
//!   emitting a RevLib `.real` circuit,
//! * `bench <name>` — synthesize a built-in benchmark,
//! * `batch <suite|dir|list>` — synthesize many specifications on a worker
//!   pool (the engine portfolio's batch scheduler),
//! * `simulate <file.real> <bits>` — run a circuit on one input,
//! * `cost <file.real>` — gate count and quantum cost,
//! * `check <a.real> <b.real>` — equivalence check with counterexample,
//! * `spec <file.real>` — extract the truth table of a circuit,
//! * `audit [files…] [--self-test]` — run the invariant auditors over
//!   `.real` / `.cnf` / `.qdimacs` files, or over seeded self-test
//!   corruptions,
//! * `serve <addr>` — long-running synthesis daemon: newline-delimited
//!   JSON over TCP, answering repeats from a persistent circuit database,
//! * `query <addr> …` — one-shot client for a running daemon,
//! * `store verify|stats <file>` — inspect a circuit database offline,
//! * `list` — list the built-in benchmarks.
//!
//! The argument grammar is deliberately tiny and fully testable; see
//! [`Command::parse`].

use crate::portfolio::cache::{SpecCache, StoreIssue};
use crate::portfolio::journal::{job_key, read_journal, JournalRecord, JournalWriter};
use crate::portfolio::race::{race_engines, race_engines_permuted};
use crate::portfolio::scheduler::{run_batch, BatchConfig, JobStatus};
use crate::revlogic::{benchmarks, cost, real, spec_format, GateLibrary, Spec};
use crate::serve::{
    install_drain_signals, protocol, roundtrip_with_retry, serve_tcp, RetryOutcome, ServeConfig,
    ServeCore,
};
use crate::store::{Fnv1a, Store};
use crate::synth::permuted::PermutedSynthesisResult;
use crate::synth::{
    equivalence, permuted, run_with_retry, synthesize, Attempt, CancelToken, Engine, RetryPolicy,
    SynthesisError, SynthesisOptions, SynthesisSession,
};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A parsed command line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// `synth` / `bench`: run exact synthesis.
    Synth {
        /// Path to a `.spec` file, or a benchmark name for `bench`.
        source: Source,
        /// Synthesis configuration.
        config: SynthConfig,
    },
    /// `batch <suite|dir|list-file>`: synthesize many specifications on a
    /// worker pool.
    Batch {
        /// `suite` (the built-in benchmarks), a directory of `.spec` files,
        /// or a text file listing benchmark names / spec paths.
        target: String,
        /// Worker threads (`--jobs N`).
        jobs: usize,
        /// Append each completed job to this fsync'd JSONL journal
        /// (`--journal FILE`), enabling crash-safe resume.
        journal: Option<String>,
        /// Skip jobs already completed in the journal (`--resume`),
        /// replaying their recorded rows instead of re-running them.
        resume: bool,
        /// Persistent circuit database (`--store FILE`): hits replay the
        /// stored record without an engine, fresh results are appended.
        store: Option<String>,
        /// Skip the output-permutation search (`--no-permute`): each job
        /// synthesizes under its own output labeling. Incompatible with
        /// `--store` (records are canonical-class circuits) and disables
        /// the class cache.
        no_permute: bool,
        /// Synthesis configuration shared by every job (`--timeout` is
        /// enforced per job).
        config: SynthConfig,
    },
    /// `simulate <file.real> <bits>`.
    Simulate {
        /// Circuit file.
        path: String,
        /// Input assignment, e.g. `1011` (line 1 is the rightmost bit).
        input: String,
    },
    /// `cost <file.real>`.
    Cost {
        /// Circuit file.
        path: String,
    },
    /// `check <a.real> <b.real>`.
    Check {
        /// First circuit.
        a: String,
        /// Second circuit.
        b: String,
    },
    /// `spec <file.real>`.
    SpecOf {
        /// Circuit file.
        path: String,
    },
    /// `audit [files…] [--self-test]`.
    Audit {
        /// Files to audit, dispatched on extension: `.real` circuits,
        /// `.cnf`/`.dimacs` CNF formulas, `.qdimacs` QBF formulas.
        paths: Vec<String>,
        /// Also run the built-in self-test: every auditor family must
        /// accept a clean artifact and reject a seeded corruption.
        self_test: bool,
    },
    /// `serve <addr>`: run the synthesis daemon on a TCP address.
    Serve {
        /// Bind address, e.g. `127.0.0.1:7878` (`:0` picks a free port;
        /// the bound address is printed).
        addr: String,
        /// Persistent circuit database (`--store FILE`); omitted, the
        /// daemon serves from memory only.
        store: Option<String>,
        /// Warm-start target (`--preload <suite|dir|list>`, the `batch`
        /// target grammar): synthesized or store-loaded before the
        /// listener accepts connections.
        preload: Option<String>,
        /// Synthesis worker threads (`--jobs N`).
        jobs: usize,
        /// Cold-miss queue bound for admission control (`--queue N`).
        queue: usize,
        /// Run the full output-permutation search during `--preload`
        /// (`--preload-permute`); preload fills are plain synthesis by
        /// default.
        preload_permute: bool,
        /// Per-socket read/write timeout in seconds (`--read-timeout`);
        /// `0` disables socket timeouts entirely.
        read_timeout: u64,
        /// Concurrent-connection cap (`--max-connections`); arrivals over
        /// the cap are refused with a retryable `overloaded` line.
        max_connections: usize,
        /// Engine configuration for cold misses (single engine only).
        config: SynthConfig,
    },
    /// `query <addr> …`: one-shot client for a running daemon.
    Query {
        /// Daemon address.
        addr: String,
        /// What to ask.
        action: QueryAction,
        /// Maximum retries after the first attempt (`--retries`), spent
        /// only on retryable daemon replies and connect/I-O failures.
        retries: u32,
        /// Wall-clock budget in seconds across all attempts and backoff
        /// sleeps (`--retry-budget`).
        retry_budget: u64,
    },
    /// `store verify|stats|compact <file>`: offline circuit-database
    /// inspection and maintenance.
    Store {
        /// Subcommand action.
        action: StoreAction,
        /// Database file path.
        path: String,
        /// Arm the deterministic fault plane (`--fault-seed N`, builds
        /// with `--features faults` only) — the chaos sweep uses it to
        /// fire the `store.compact` site under `compact`.
        fault_seed: Option<u64>,
    },
    /// `list`.
    List,
    /// `help` (also `-h`, `--help`).
    Help,
}

/// Where the specification comes from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Source {
    /// A `.spec` file path.
    File(String),
    /// A built-in benchmark name.
    Benchmark(String),
}

/// What `qsyn query` asks a running daemon.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryAction {
    /// Synthesize a benchmark name or `.spec` file (resolved in that
    /// order), optionally labeled with `--name`.
    Synth {
        /// Benchmark name or spec file path.
        target: String,
        /// Job label (`--name`), defaulting to the benchmark name or the
        /// spec file stem.
        name: Option<String>,
    },
    /// `--stats`: counters and latency percentiles.
    Stats,
    /// `--ping`: liveness probe.
    Ping,
    /// `--shutdown`: ask the daemon to drain and exit.
    Shutdown,
}

/// What `qsyn store` does with a database file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreAction {
    /// Re-simulate every record against its specification and re-derive
    /// every digest; exit 0 only if the whole database checks out.
    /// A clean database sitting next to an orphaned temp-compaction
    /// file (a compaction killed before its atomic rename) reports the
    /// leftover and exits 3 — advisory, never deleted.
    Verify,
    /// Print record/byte counts and one line per stored circuit.
    Stats,
    /// Rewrite the log to live records only (crash-safe: temp file,
    /// fsync, atomic rename) and report the bytes reclaimed.
    Compact,
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
    /// manager: live/peak nodes, GC runs, computed-table hit rate), a
    /// `sat:` line when the incremental SAT solver ran, and a `search:`
    /// line under `--output-permutation`. `batch` prints one `sessions:`
    /// line for the whole batch instead.
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
}

/// Usage text.
pub const USAGE: &str = "\
qsyn — exact synthesis of reversible logic (Wille et al., DATE 2008)

USAGE:
  qsyn synth <file.spec> [OPTIONS]     synthesize a truth-table specification
  qsyn bench <name> [OPTIONS]          synthesize a built-in benchmark
  qsyn batch <suite|dir|list> [OPTIONS]
                                       synthesize many specs on a worker pool
  qsyn simulate <file.real> <bits>     run a circuit on one input
  qsyn cost <file.real>                gate count and quantum cost
  qsyn check <a.real> <b.real>         equivalence check (with counterexample)
  qsyn spec <file.real>                truth table of a circuit
  qsyn audit [files...] [--self-test]  run the invariant auditors over
                                       .real/.cnf/.qdimacs files; --self-test
                                       seeds corruptions and checks every
                                       auditor family rejects them
  qsyn serve <addr> [OPTIONS]          run the synthesis daemon (newline-
                                       delimited JSON over TCP); repeats are
                                       answered from the circuit database
                                       without running an engine
  qsyn query <addr> <bench|file.spec> [--name N]
  qsyn query <addr> --stats|--ping|--shutdown
                                       one-shot client for a running daemon;
                                       retryable refusals and connect failures
                                       are retried with capped, jittered
                                       exponential backoff (--retries N
                                       [default: 4], --retry-budget SECS
                                       [default: 30]; --retries 0 disables)
  qsyn store verify|stats|compact <file>
                                       check, summarize or compact a circuit
                                       database. verify exit codes: 0 clean,
                                       1 a record failed, 2 unreadable file,
                                       3 clean but an orphaned temp-compaction
                                       file was found (reported, never
                                       deleted). compact rewrites the log to
                                       live records only — temp file, fsync,
                                       atomic rename — and is safe to kill at
                                       any point
  qsyn list                            list built-in benchmarks

OPTIONS (synth/bench/batch):
  --engine bdd|qbf|sat|race  decision engine; `race` runs all three in
                             parallel, first proof wins  [default: bdd]
  --library mct|mct+mcf|mct+p|all                        [default: mct]
  --mixed-polarity           allow negative-control Toffoli gates
  --output-permutation       allow free output-line relabeling
  --heuristic                transformation-based synthesis (fast, non-minimal)
  --max-depth N              depth cap                   [default: 32]
  --timeout SECS             wall-clock budget (per job under `batch`)
  --all                      print every minimal circuit
  --stats                    print counters: `bdd:` (nodes, GC, cache),
                             `sat:` (incremental SAT), `search:` (output
                             permutations); `batch` prints `sessions:`
  -o FILE                    write the cheapest circuit to FILE
  --retries N                extra attempts for budget-tripped jobs;
                             budgets double per retry     [default: 0]
  --ladder e1[,e2...]        engines to degrade through on budget-trip
                             retries, e.g. `--ladder sat` (grants one
                             retry per rung if --retries is not given)
  --fault-seed N             arm the deterministic fault-injection plane
                             (builds with `--features faults` only)

OPTIONS (batch only):
  --jobs N                   worker threads              [default: 1]
  --journal FILE             append each completed job to FILE (fsync'd
                             JSONL), enabling crash-safe resume
  --resume                   skip jobs already recorded in --journal,
                             replaying their rows from the journal
  --store FILE               persistent circuit database: jobs whose
                             equivalence class is stored replay the record
                             without an engine; fresh results are appended
  --no-permute               plain synthesis per job (skip the output-
                             permutation search); disables the class cache
                             and cannot be combined with --store

  `batch` targets: the literal `suite` (built-in benchmarks), a directory
  of `.spec` files, or a text file with one benchmark name or spec path
  per line. Batch jobs synthesize with free output permutation by default,
  so equivalent specs share one cache entry; `--no-permute` opts a run out
  of the search (and the sharing) entirely.

OPTIONS (serve only):
  --store FILE               persistent circuit database (crash-safe,
                             append-only; reopened state is served as hits)
  --preload <suite|dir|list> warm the cache before accepting connections
                             (batch target grammar); preload fills run
                             plain synthesis of each canonical spec
  --preload-permute          run the full output-permutation search during
                             --preload (slower, class-minimal depths)
  --jobs N                   synthesis worker threads    [default: 2]
  --queue N                  cold-miss queue bound; a full queue bounces
                             requests as retryable       [default: 64]
  --read-timeout SECS        per-socket read/write timeout; slow or silent
                             clients are reaped, 0 disables [default: 30]
  --max-connections N        concurrent-connection cap; arrivals over the
                             cap get a retryable `overloaded` refusal
                                                         [default: 64]
  --stats                    print final counters on shutdown

  SIGTERM/SIGINT drain the daemon: it stops accepting, answers in-flight
  requests, flushes the store and exits 0.

  `serve` also accepts `--engine bdd|qbf|sat`, `--library`,
  `--mixed-polarity`, `--max-depth` and `--timeout` (the per-request
  wall-clock budget). Interactive daemon answers always allow free output
  relabeling, like `batch`.
";

impl Command {
    /// Parses a command line (excluding the program name).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown subcommands, unknown
    /// flags or missing arguments.
    pub fn parse<I, S>(args: I) -> Result<Command, String>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut args = args.into_iter().map(Into::into);
        let sub = match args.next() {
            None => return Ok(Command::Help),
            Some(s) => s,
        };
        match sub.as_str() {
            "help" | "-h" | "--help" => Ok(Command::Help),
            "list" => Ok(Command::List),
            "simulate" => {
                let path = args.next().ok_or("simulate: missing circuit file")?;
                let input = args.next().ok_or("simulate: missing input bits")?;
                reject_extra(args)?;
                Ok(Command::Simulate { path, input })
            }
            "cost" => {
                let path = args.next().ok_or("cost: missing circuit file")?;
                reject_extra(args)?;
                Ok(Command::Cost { path })
            }
            "check" => {
                let a = args.next().ok_or("check: missing first circuit")?;
                let b = args.next().ok_or("check: missing second circuit")?;
                reject_extra(args)?;
                Ok(Command::Check { a, b })
            }
            "spec" => {
                let path = args.next().ok_or("spec: missing circuit file")?;
                reject_extra(args)?;
                Ok(Command::SpecOf { path })
            }
            "audit" => {
                let mut paths = Vec::new();
                let mut self_test = false;
                for arg in args {
                    match arg.as_str() {
                        "--self-test" => self_test = true,
                        flag if flag.starts_with('-') => {
                            return Err(format!("unknown option `{flag}`"))
                        }
                        _ => paths.push(arg),
                    }
                }
                if paths.is_empty() && !self_test {
                    return Err("audit: nothing to do (give files or --self-test)".to_string());
                }
                Ok(Command::Audit { paths, self_test })
            }
            "synth" | "bench" => {
                let target = args
                    .next()
                    .ok_or_else(|| format!("{sub}: missing specification"))?;
                let source = if sub == "synth" {
                    Source::File(target)
                } else {
                    Source::Benchmark(target)
                };
                let mut config = SynthConfig::default();
                while let Some(flag) = args.next() {
                    if !parse_synth_flag(&flag, &mut args, &mut config)? {
                        return Err(format!("unknown option `{flag}`"));
                    }
                }
                Ok(Command::Synth { source, config })
            }
            "batch" => {
                let target = args.next().ok_or("batch: missing target")?;
                let mut config = SynthConfig::default();
                let mut jobs = 1usize;
                let mut journal = None;
                let mut resume = false;
                let mut store = None;
                let mut no_permute = false;
                while let Some(flag) = args.next() {
                    match flag.as_str() {
                        "--no-permute" => no_permute = true,
                        "--jobs" => {
                            let v = args.next().ok_or("--jobs needs a value")?;
                            jobs = v.parse().map_err(|_| format!("bad job count `{v}`"))?;
                            if jobs == 0 {
                                return Err("--jobs must be at least 1".to_string());
                            }
                        }
                        "--journal" => {
                            journal = Some(args.next().ok_or("--journal needs a file")?);
                        }
                        "--resume" => resume = true,
                        "--store" => {
                            store = Some(args.next().ok_or("--store needs a file")?);
                        }
                        _ => {
                            if !parse_synth_flag(&flag, &mut args, &mut config)? {
                                return Err(format!("unknown option `{flag}`"));
                            }
                        }
                    }
                }
                if resume && journal.is_none() {
                    return Err("--resume requires --journal".to_string());
                }
                if no_permute && store.is_some() {
                    return Err(
                        "--no-permute results depend on each job's output labeling, but \
                         --store records one canonical circuit per permutation class; \
                         storing labeling-specific answers would corrupt later replays. \
                         Drop --no-permute or --store"
                            .to_string(),
                    );
                }
                Ok(Command::Batch {
                    target,
                    jobs,
                    journal,
                    resume,
                    store,
                    no_permute,
                    config,
                })
            }
            "serve" => {
                let addr = args.next().ok_or("serve: missing bind address")?;
                let mut config = SynthConfig::default();
                let mut store = None;
                let mut preload = None;
                let mut jobs = 2usize;
                let mut queue = 64usize;
                let mut preload_permute = false;
                let mut read_timeout = 30u64;
                let mut max_connections = 64usize;
                while let Some(flag) = args.next() {
                    match flag.as_str() {
                        "--preload-permute" => preload_permute = true,
                        "--read-timeout" => {
                            let v = args.next().ok_or("--read-timeout needs seconds")?;
                            read_timeout = v.parse().map_err(|_| format!("bad timeout `{v}`"))?;
                        }
                        "--max-connections" => {
                            let v = args.next().ok_or("--max-connections needs a value")?;
                            max_connections =
                                v.parse().map_err(|_| format!("bad connection cap `{v}`"))?;
                            if max_connections == 0 {
                                return Err("--max-connections must be at least 1".to_string());
                            }
                        }
                        "--store" => {
                            store = Some(args.next().ok_or("--store needs a file")?);
                        }
                        "--preload" => {
                            preload = Some(args.next().ok_or("--preload needs a target")?);
                        }
                        "--jobs" => {
                            let v = args.next().ok_or("--jobs needs a value")?;
                            jobs = v.parse().map_err(|_| format!("bad job count `{v}`"))?;
                            if jobs == 0 {
                                return Err("--jobs must be at least 1".to_string());
                            }
                        }
                        "--queue" => {
                            let v = args.next().ok_or("--queue needs a value")?;
                            queue = v.parse().map_err(|_| format!("bad queue bound `{v}`"))?;
                            if queue == 0 {
                                return Err("--queue must be at least 1".to_string());
                            }
                        }
                        _ => {
                            if !parse_synth_flag(&flag, &mut args, &mut config)? {
                                return Err(format!("unknown option `{flag}`"));
                            }
                        }
                    }
                }
                if config.engine == EngineChoice::Race {
                    return Err("serve: --engine race is not supported; pick one engine".into());
                }
                for (set, flag) in [
                    (config.all, "--all"),
                    (config.output.is_some(), "-o"),
                    (config.heuristic, "--heuristic"),
                    (config.retries != 0, "--retries"),
                    (!config.ladder.is_empty(), "--ladder"),
                    (config.fault_seed.is_some(), "--fault-seed"),
                ] {
                    if set {
                        return Err(format!("serve does not take {flag}"));
                    }
                }
                if preload_permute && preload.is_none() {
                    return Err("--preload-permute requires --preload".to_string());
                }
                Ok(Command::Serve {
                    addr,
                    store,
                    preload,
                    jobs,
                    queue,
                    preload_permute,
                    read_timeout,
                    max_connections,
                    config,
                })
            }
            "query" => {
                let addr = args.next().ok_or("query: missing daemon address")?;
                let mut target = None;
                let mut name = None;
                let mut verb: Option<QueryAction> = None;
                let mut retries = 4u32;
                let mut retry_budget = 30u64;
                while let Some(arg) = args.next() {
                    match arg.as_str() {
                        "--stats" => verb = Some(QueryAction::Stats),
                        "--ping" => verb = Some(QueryAction::Ping),
                        "--shutdown" => verb = Some(QueryAction::Shutdown),
                        "--name" => {
                            name = Some(args.next().ok_or("--name needs a value")?);
                        }
                        "--retries" => {
                            let v = args.next().ok_or("--retries needs a value")?;
                            retries = v.parse().map_err(|_| format!("bad retry count `{v}`"))?;
                        }
                        "--retry-budget" => {
                            let v = args.next().ok_or("--retry-budget needs seconds")?;
                            retry_budget =
                                v.parse().map_err(|_| format!("bad retry budget `{v}`"))?;
                        }
                        flag if flag.starts_with('-') => {
                            return Err(format!("unknown option `{flag}`"))
                        }
                        _ => {
                            if target.is_none() {
                                target = Some(arg);
                            } else {
                                return Err(format!("unexpected argument `{arg}`"));
                            }
                        }
                    }
                }
                let action =
                    match (target, verb) {
                        (Some(target), None) => QueryAction::Synth { target, name },
                        (None, Some(v)) => {
                            if name.is_some() {
                                return Err("--name only applies to synthesis queries".to_string());
                            }
                            v
                        }
                        (Some(_), Some(_)) => {
                            return Err(
                                "query takes a target or --stats/--ping/--shutdown, not both"
                                    .to_string(),
                            )
                        }
                        (None, None) => return Err(
                            "query: nothing to ask (give a target or --stats/--ping/--shutdown)"
                                .to_string(),
                        ),
                    };
                Ok(Command::Query {
                    addr,
                    action,
                    retries,
                    retry_budget,
                })
            }
            "store" => {
                let action = match args.next().as_deref() {
                    Some("verify") => StoreAction::Verify,
                    Some("stats") => StoreAction::Stats,
                    Some("compact") => StoreAction::Compact,
                    Some(other) => {
                        return Err(format!(
                            "store: unknown action `{other}` (verify|stats|compact)"
                        ))
                    }
                    None => return Err("store: missing action (verify|stats|compact)".to_string()),
                };
                let path = args.next().ok_or("store: missing database file")?;
                let mut fault_seed = None;
                while let Some(flag) = args.next() {
                    match flag.as_str() {
                        "--fault-seed" => {
                            let v = args.next().ok_or("--fault-seed needs a value")?;
                            fault_seed =
                                Some(v.parse().map_err(|_| format!("bad fault seed `{v}`"))?);
                        }
                        other => return Err(format!("unexpected argument `{other}`")),
                    }
                }
                Ok(Command::Store {
                    action,
                    path,
                    fault_seed,
                })
            }
            other => Err(format!("unknown command `{other}` (try `qsyn help`)")),
        }
    }
}

/// Applies one `synth`/`bench`/`batch` option to `config`. Returns
/// `Ok(false)` when the flag is not a synthesis option (so callers can
/// layer their own flags on top), `Err` on a malformed value.
fn parse_synth_flag<I>(flag: &str, args: &mut I, config: &mut SynthConfig) -> Result<bool, String>
where
    I: Iterator<Item = String>,
{
    match flag {
        "--engine" => {
            let v = args.next().ok_or("--engine needs a value")?;
            config.engine = match v.as_str() {
                "race" => EngineChoice::Race,
                name => EngineChoice::Single(parse_engine_name(name)?),
            };
        }
        "--library" => {
            config.library = args.next().ok_or("--library needs a value")?;
        }
        "--mixed-polarity" => config.mixed_polarity = true,
        "--output-permutation" => config.output_permutation = true,
        "--heuristic" => config.heuristic = true,
        "--max-depth" => {
            let v = args.next().ok_or("--max-depth needs a value")?;
            config.max_depth = v.parse().map_err(|_| format!("bad depth `{v}`"))?;
        }
        "--timeout" => {
            let v = args.next().ok_or("--timeout needs a value")?;
            config.timeout = Some(v.parse().map_err(|_| format!("bad timeout `{v}`"))?);
        }
        "--all" => config.all = true,
        "--stats" => config.stats = true,
        "-o" | "--output" => {
            config.output = Some(args.next().ok_or("-o needs a file")?);
        }
        "--retries" => {
            let v = args.next().ok_or("--retries needs a value")?;
            config.retries = v.parse().map_err(|_| format!("bad retry count `{v}`"))?;
        }
        "--ladder" => {
            let v = args.next().ok_or("--ladder needs engine names")?;
            config.ladder = v
                .split(',')
                .map(|name| parse_engine_name(name.trim()))
                .collect::<Result<Vec<_>, _>>()?;
            if config.ladder.is_empty() {
                return Err("--ladder needs at least one engine".to_string());
            }
        }
        "--fault-seed" => {
            let v = args.next().ok_or("--fault-seed needs a value")?;
            config.fault_seed = Some(v.parse().map_err(|_| format!("bad fault seed `{v}`"))?);
        }
        _ => return Ok(false),
    }
    Ok(true)
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

fn reject_extra<I: Iterator<Item = String>>(mut args: I) -> Result<(), String> {
    match args.next() {
        Some(extra) => Err(format!("unexpected argument `{extra}`")),
        None => Ok(()),
    }
}

/// Executes a parsed command, writing human-readable output to `out`.
/// Returns the process exit code.
///
/// # Errors
///
/// I/O failures on `out` are surfaced as `Err`.
pub fn run(cmd: &Command, out: &mut dyn std::io::Write) -> std::io::Result<i32> {
    match cmd {
        Command::Help => {
            write!(out, "{USAGE}")?;
            Ok(0)
        }
        Command::List => {
            for b in benchmarks::suite() {
                writeln!(
                    out,
                    "{:<12} {} lines, {}",
                    b.name,
                    b.spec.lines(),
                    match b.kind {
                        benchmarks::BenchmarkKind::Complete => "completely specified",
                        benchmarks::BenchmarkKind::Incomplete => "incompletely specified",
                    }
                )?;
            }
            Ok(0)
        }
        Command::Simulate { path, input } => {
            let circuit = match load_circuit(path) {
                Ok(c) => c,
                Err(e) => return fail(out, &e),
            };
            let n = circuit.lines();
            if input.len() != n as usize || !input.chars().all(|c| c == '0' || c == '1') {
                return fail(out, &format!("input must be {n} binary digits"));
            }
            // Leftmost digit = highest line, consistent with .spec files.
            let mut bits = 0u32;
            for (i, ch) in input.chars().enumerate() {
                if ch == '1' {
                    bits |= 1 << (n as usize - 1 - i);
                }
            }
            let result = circuit.simulate(bits);
            let rendered: String = (0..n)
                .rev()
                .map(|l| if (result >> l) & 1 == 1 { '1' } else { '0' })
                .collect();
            writeln!(out, "{input} -> {rendered}")?;
            Ok(0)
        }
        Command::Cost { path } => {
            let circuit = match load_circuit(path) {
                Ok(c) => c,
                Err(e) => return fail(out, &e),
            };
            let (mct, mcf, peres) = circuit.gate_counts();
            writeln!(out, "lines:        {}", circuit.lines())?;
            writeln!(
                out,
                "gates:        {} (MCT {mct}, MCF {mcf}, Peres {peres})",
                circuit.len()
            )?;
            writeln!(out, "quantum cost: {}", cost::circuit_cost(&circuit))?;
            writeln!(
                out,
                "NCV network:  {} elementary gates (zero-ancilla decomposition)",
                qsyn_revlogic::ncv::network_cost(&circuit)
            )?;
            Ok(0)
        }
        Command::Check { a, b } => {
            let (ca, cb) = match (load_circuit(a), load_circuit(b)) {
                (Ok(x), Ok(y)) => (x, y),
                (Err(e), _) | (_, Err(e)) => return fail(out, &e),
            };
            if ca.lines() != cb.lines() {
                return fail(out, "circuits have different line counts");
            }
            match equivalence::counterexample_sat(&ca, &cb) {
                None => {
                    debug_assert!(equivalence::equivalent_bdd(&ca, &cb));
                    writeln!(out, "EQUIVALENT")?;
                    Ok(0)
                }
                Some(cex) => {
                    let n = ca.lines();
                    let render = |v: u32| -> String {
                        (0..n)
                            .rev()
                            .map(|l| if (v >> l) & 1 == 1 { '1' } else { '0' })
                            .collect()
                    };
                    writeln!(out, "NOT EQUIVALENT")?;
                    writeln!(
                        out,
                        "counterexample: input {} -> {} vs {}",
                        render(cex),
                        render(ca.simulate(cex)),
                        render(cb.simulate(cex))
                    )?;
                    Ok(1)
                }
            }
        }
        Command::SpecOf { path } => {
            let circuit = match load_circuit(path) {
                Ok(c) => c,
                Err(e) => return fail(out, &e),
            };
            let spec = Spec::from_permutation(&circuit.permutation());
            write!(out, "{}", spec_format::write_spec(&spec))?;
            Ok(0)
        }
        Command::Audit { paths, self_test } => run_audit(paths, *self_test, out),
        Command::Synth { source, config } => run_synth(source, config, out),
        Command::Batch {
            target,
            jobs,
            journal,
            resume,
            store,
            no_permute,
            config,
        } => run_batch_command(
            target,
            *jobs,
            journal.as_deref(),
            *resume,
            store.as_deref(),
            *no_permute,
            config,
            out,
        ),
        Command::Serve {
            addr,
            store,
            preload,
            jobs,
            queue,
            preload_permute,
            read_timeout,
            max_connections,
            config,
        } => run_serve(
            addr,
            store.as_deref(),
            preload.as_deref().map(|target| (target, *preload_permute)),
            *jobs,
            *queue,
            *read_timeout,
            *max_connections,
            config,
            out,
        ),
        Command::Query {
            addr,
            action,
            retries,
            retry_budget,
        } => run_query(addr, action, *retries, *retry_budget, out),
        Command::Store {
            action,
            path,
            fault_seed,
        } => run_store_command(*action, path, *fault_seed, out),
    }
}

/// Runs a parse-and-audit closure, converting both parse errors and
/// parser panics into a message. The gate and quantifier-prefix
/// constructors assert their invariants (`target cannot be a control`,
/// `variable already quantified`), so a corrupt file must not unwind out
/// of the CLI with exit 101 — it is an input problem, exit 2.
fn parse_guarded<F>(f: F) -> Result<Result<(), crate::audit::AuditError>, String>
where
    F: FnOnce() -> Result<Result<(), crate::audit::AuditError>, String> + std::panic::UnwindSafe,
{
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = std::panic::catch_unwind(f);
    std::panic::set_hook(prev);
    match result {
        Ok(r) => r,
        Err(payload) => Err(payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "malformed input".to_string())),
    }
}

/// Executes `qsyn audit`: optional self-test, then one auditor run per
/// file (dispatched on extension). Exit code 0 = everything clean,
/// 1 = at least one violation, 2 = unreadable/unparsable input.
fn run_audit(
    paths: &[String],
    self_test: bool,
    out: &mut dyn std::io::Write,
) -> std::io::Result<i32> {
    let mut code = 0;
    if self_test {
        match crate::audit::self_test() {
            Ok(report) => writeln!(out, "self-test: {report}")?,
            Err(msg) => return fail(out, &format!("self-test failed: {msg}")),
        }
    }
    for path in paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => return fail(out, &format!("{path}: {e}")),
        };
        let ext = std::path::Path::new(path)
            .extension()
            .map(|e| e.to_string_lossy().into_owned())
            .unwrap_or_default();
        let outcome = match ext.as_str() {
            "real" => parse_guarded(|| {
                real::parse_real(&text)
                    .map_err(|e| e.to_string())
                    .map(|c| crate::audit::circuit_audit::audit_circuit(&c, None))
            }),
            "cnf" | "dimacs" => parse_guarded(|| {
                crate::sat::dimacs::parse_dimacs(&text)
                    .map_err(|e| e.to_string())
                    .map(|f| crate::audit::formula_audit::audit_cnf(&f))
            }),
            // QDIMACS treats unbound variables as outermost-existential,
            // so closure is not required of files.
            "qdimacs" => parse_guarded(|| {
                crate::qbf::qdimacs::parse_qdimacs(&text)
                    .map_err(|e| e.to_string())
                    .map(|q| crate::audit::formula_audit::audit_qbf(&q, false))
            }),
            other => {
                return fail(
                    out,
                    &format!("{path}: unsupported extension `{other}` (want .real/.cnf/.qdimacs)"),
                )
            }
        };
        let outcome = match outcome {
            Ok(o) => o,
            Err(msg) => return fail(out, &format!("{path}: {msg}")),
        };
        match outcome {
            Ok(()) => writeln!(out, "{path}: ok")?,
            Err(e) => {
                code = 1;
                writeln!(out, "{path}: {e}")?;
            }
        }
    }
    Ok(code)
}

fn run_synth(
    source: &Source,
    config: &SynthConfig,
    out: &mut dyn std::io::Write,
) -> std::io::Result<i32> {
    let spec = match source {
        Source::File(path) => match std::fs::read_to_string(path) {
            Ok(text) => match spec_format::parse_spec(&text) {
                Ok(s) => s,
                Err(e) => return fail(out, &e.to_string()),
            },
            Err(e) => return fail(out, &format!("{path}: {e}")),
        },
        Source::Benchmark(name) => match benchmarks::by_name(name) {
            Some(b) => b.spec,
            None => {
                return fail(
                    out,
                    &format!("unknown benchmark `{name}` (see `qsyn list`)"),
                )
            }
        },
    };
    let options = match config.options() {
        Ok(o) => o,
        Err(e) => return fail(out, &e),
    };
    if config.heuristic {
        let Some(perm) = spec.as_permutation() else {
            return fail(
                out,
                "--heuristic requires a completely specified (bijective) function",
            );
        };
        let circuit = crate::synth::transform::transformation_synthesis(&perm);
        writeln!(
            out,
            "heuristic realization: {} gates, quantum cost {} (no minimality guarantee)",
            circuit.len(),
            cost::circuit_cost(&circuit)
        )?;
        if let Some(path) = &config.output {
            std::fs::write(path, real::write_real(&circuit))?;
            writeln!(out, "wrote {path}")?;
        } else {
            write!(out, "{}", real::write_real(&circuit))?;
        }
        return Ok(0);
    }
    let _faults = match FaultArming::from_config(config) {
        Ok(g) => g,
        Err(msg) => return fail(out, &msg),
    };
    let race = config.engine == EngineChoice::Race;
    let policy = config.retry_policy();
    if config.output_permutation {
        // The ladder's engine override turns a raced attempt into a
        // single-engine one: degradation narrows the portfolio.
        let outcome = run_with_retry(&policy, |attempt| {
            let opts = apply_attempt(&options, attempt);
            if race && attempt.engine.is_none() {
                race_engines_permuted(&spec, &opts)
                    .map(|r| (r.winner, Some(r.winner_label)))
                    .map_err(|e| e.into_synthesis_error())
            } else {
                permuted::synthesize_with_output_permutation(&spec, &opts).map(|p| (p, None))
            }
        });
        let recovery = recovery_note(&outcome);
        match outcome.result {
            Err(e) => fail(out, &e.to_string()),
            Ok((p, winner)) => {
                writeln!(
                    out,
                    "minimal gates: {} (output permutation {:?}), {} solutions, {:?}{}",
                    p.result.depth(),
                    p.permutation,
                    p.result.solutions().count_display(),
                    p.result.total_time(),
                    race_note(winner.as_deref())
                )?;
                if let Some(note) = recovery {
                    writeln!(out, "{note}")?;
                }
                emit_stats(&p.result, config, out)?;
                if config.stats {
                    let s = &p.stats;
                    writeln!(
                        out,
                        "search: {} permutations, {} classes, {} engines built, \
                         {} probes run, {} floor skips, {} levels built",
                        s.permutations,
                        s.classes,
                        s.engines_built,
                        s.probes_run,
                        s.depth_floor_skips,
                        s.levels_built
                    )?;
                }
                emit_circuits(&p.result, config, out)
            }
        }
    } else {
        let outcome = run_with_retry(&policy, |attempt| {
            let opts = apply_attempt(&options, attempt);
            if race && attempt.engine.is_none() {
                race_engines(&spec, &opts)
                    .map(|r| (r.winner, Some(r.winner_label)))
                    .map_err(|e| e.into_synthesis_error())
            } else {
                synthesize(&spec, &opts).map(|r| (r, None))
            }
        });
        let recovery = recovery_note(&outcome);
        match outcome.result {
            Err(e) => fail(out, &e.to_string()),
            Ok((r, winner)) => {
                let (lo, hi) = r.solutions().quantum_cost_range();
                writeln!(
                    out,
                    "minimal gates: {}, {} solutions, quantum cost {lo}..{hi}, {:?} ({} engine){}",
                    r.depth(),
                    r.solutions().count_display(),
                    r.total_time(),
                    r.engine(),
                    race_note(winner.as_deref())
                )?;
                if let Some(note) = recovery {
                    writeln!(out, "{note}")?;
                }
                emit_stats(&r, config, out)?;
                emit_circuits(&r, config, out)
            }
        }
    }
}

/// Applies a retry [`Attempt`] to the configured options: the ladder's
/// engine override plus the compound budget escalation over the node,
/// conflict and wall-clock limits.
fn apply_attempt(options: &SynthesisOptions, attempt: &Attempt) -> SynthesisOptions {
    let mut o = options.clone();
    if let Some(engine) = attempt.engine {
        o = o.with_engine(engine);
    }
    if attempt.budget_scale > 1.0 {
        let nodes = attempt.scale_budget(o.bdd_node_limit as u64);
        let conflicts = attempt.scale_budget(o.conflict_limit);
        o = o
            .with_bdd_node_limit(usize::try_from(nodes).unwrap_or(usize::MAX))
            .with_conflict_limit(conflicts);
        if let Some(budget) = o.time_budget {
            o = o.with_time_budget(attempt.scale_duration(budget));
        }
    }
    o
}

/// One line describing a recovered (multi-attempt) run, `None` for a
/// clean first-attempt success or failure.
fn recovery_note<R>(outcome: &crate::synth::RetryOutcome<R>) -> Option<String> {
    if !outcome.degraded() {
        return None;
    }
    Some(format!(
        "recovered after {} attempts{}",
        outcome.attempts,
        ladder_note(&outcome.ladder_path)
    ))
}

/// `", via sat"` — the engines a degraded job was routed through.
fn ladder_note(path: &[Engine]) -> String {
    if path.is_empty() {
        return String::new();
    }
    let names: Vec<String> = path.iter().map(ToString::to_string).collect();
    format!(", via {}", names.join(" -> "))
}

/// RAII arming of the fault-injection plane from `--fault-seed`:
/// rejected on builds without the plane compiled in, disarmed when the
/// command finishes (so in-process callers — tests — are not poisoned).
struct FaultArming(bool);

impl FaultArming {
    /// Whether this guard actually armed the fault plane.
    fn armed(&self) -> bool {
        self.0
    }

    fn from_config(config: &SynthConfig) -> Result<FaultArming, String> {
        match config.fault_seed {
            None => Ok(FaultArming(false)),
            Some(seed) => {
                if !qsyn_faults::FaultPlane::compiled_in() {
                    return Err(
                        "--fault-seed requires a binary built with `--features faults`".to_string(),
                    );
                }
                qsyn_faults::FaultPlane::arm(seed);
                Ok(FaultArming(true))
            }
        }
    }
}

impl Drop for FaultArming {
    fn drop(&mut self) {
        if self.0 {
            qsyn_faults::FaultPlane::disarm();
        }
    }
}

fn emit_stats(
    result: &crate::synth::SynthesisResult,
    config: &SynthConfig,
    out: &mut dyn std::io::Write,
) -> std::io::Result<()> {
    if config.stats {
        match result.bdd_stats() {
            Some(s) => writeln!(out, "bdd: {s}")?,
            None => writeln!(
                out,
                "bdd: n/a ({} engine has no BDD manager)",
                result.engine()
            )?,
        }
        if let Some(s) = result.incremental_stats() {
            writeln!(
                out,
                "sat: {} depth queries, {} conflicts, {} decisions, {} propagations, \
                 {} learnts reused",
                s.depths, s.conflicts, s.decisions, s.propagations, s.learnt_reused
            )?;
        }
    }
    Ok(())
}

fn race_note(winner: Option<&str>) -> String {
    match winner {
        Some(label) => format!(" [race winner: {label}]"),
        None => String::new(),
    }
}

/// Resolves a `batch` target into named specifications, in a stable order.
fn batch_jobs(target: &str) -> Result<Vec<(String, Spec)>, String> {
    if target == "suite" {
        return Ok(benchmarks::suite()
            .into_iter()
            .map(|b| (b.name.to_string(), b.spec))
            .collect());
    }
    let path = std::path::Path::new(target);
    if path.is_dir() {
        let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(path)
            .map_err(|e| format!("{target}: {e}"))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "spec"))
            .collect();
        files.sort();
        if files.is_empty() {
            return Err(format!("{target}: no .spec files found"));
        }
        return files
            .into_iter()
            .map(|p| {
                let name = p.file_stem().map_or_else(
                    || p.display().to_string(),
                    |s| s.to_string_lossy().into_owned(),
                );
                let text =
                    std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
                let spec =
                    spec_format::parse_spec(&text).map_err(|e| format!("{}: {e}", p.display()))?;
                Ok((name, spec))
            })
            .collect();
    }
    // A list file: one benchmark name or .spec path per line.
    let text = std::fs::read_to_string(path).map_err(|e| format!("{target}: {e}"))?;
    let mut jobs = Vec::new();
    for line in text.lines() {
        let entry = line.trim();
        if entry.is_empty() || entry.starts_with('#') {
            continue;
        }
        if let Some(b) = benchmarks::by_name(entry) {
            jobs.push((entry.to_string(), b.spec));
        } else {
            let text = std::fs::read_to_string(entry).map_err(|_| {
                format!("`{entry}` is neither a benchmark name nor a readable spec file")
            })?;
            let spec = spec_format::parse_spec(&text).map_err(|e| format!("{entry}: {e}"))?;
            let name = std::path::Path::new(entry)
                .file_stem()
                .map_or_else(|| entry.to_string(), |s| s.to_string_lossy().into_owned());
            jobs.push((name, spec));
        }
    }
    if jobs.is_empty() {
        return Err(format!("{target}: no jobs"));
    }
    Ok(jobs)
}

/// One scheduled batch job: its input position, name and specification,
/// plus the precomputed journal key.
struct BatchJob {
    name: String,
    spec: Spec,
    key: String,
}

/// Builds the journal record for a completed job.
fn journal_record(job: &BatchJob, p: &PermutedSynthesisResult, elapsed: Duration) -> JournalRecord {
    JournalRecord {
        key: job.key.clone(),
        name: job.name.clone(),
        depth: p.result.depth(),
        solutions: p.result.solutions().count_display(),
        permutation: format!("{:?}", p.permutation),
        elapsed_ns: u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
        digest: result_digest(p),
    }
}

/// FNV-1a digest over a result's semantic content — depth, solution
/// count, output permutation and the cheapest circuit. The chaos harness
/// compares these across fault schedules; wall-clock time is excluded.
fn result_digest(p: &PermutedSynthesisResult) -> String {
    let mut h = Fnv1a::new();
    h.write_u32(p.result.depth());
    h.write(p.result.solutions().count_display().as_bytes());
    h.write(format!("{:?}", p.permutation).as_bytes());
    h.write(real::write_real(p.result.solutions().best_by_quantum_cost()).as_bytes());
    format!("{:016x}", h.finish())
}

#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn run_batch_command(
    target: &str,
    jobs: usize,
    journal: Option<&str>,
    resume: bool,
    store_path: Option<&str>,
    no_permute: bool,
    config: &SynthConfig,
    out: &mut dyn std::io::Write,
) -> std::io::Result<i32> {
    let work = match batch_jobs(target) {
        Ok(w) => w,
        Err(e) => return fail(out, &e),
    };
    let options = match config.options() {
        Ok(o) => o,
        Err(e) => return fail(out, &e),
    };
    // Store records are keyed by (canonical spec, config tag), so any
    // gate library may share one store file: records from other
    // configurations simply never answer this run's lookups.
    let store_tag = crate::store::library_config(options.library);
    let _faults = match FaultArming::from_config(config) {
        Ok(g) => g,
        Err(e) => return fail(out, &e),
    };
    let engine = config.engine;
    // Every class-keyed answer goes through the resolve path (memo, then
    // the persistent store when given, then the engine). A --no-permute
    // answer is specific to its job's output labeling, so it bypasses the
    // path: sharing it across the class would hand class members a
    // wrongly-labeled circuit.
    let cache = if no_permute {
        None
    } else {
        let store = match store_path {
            Some(path) => match Store::open(std::path::Path::new(path)) {
                Ok(s) => Some(s),
                Err(e) => return fail(out, &format!("{path}: {e}")),
            },
            None => None,
        };
        Some(SpecCache::with_store(store, &store_tag))
    };
    // Store problems the resolve path worked around, by job name; reported
    // after the table.
    let store_issues: Mutex<Vec<(String, StoreIssue)>> = Mutex::new(Vec::new());
    let batch_config = BatchConfig {
        workers: jobs,
        per_job_timeout: config.timeout.map(Duration::from_secs),
        retry: config.retry_policy(),
    };

    // Journal bookkeeping: with --resume, jobs whose key is already
    // recorded are replayed from the journal instead of re-run; with
    // --journal, every completion is appended (fsync'd) as it lands.
    let journal_path = journal.map(std::path::PathBuf::from);
    let mut completed: HashMap<String, JournalRecord> = HashMap::new();
    if resume {
        let path = journal_path.as_ref().expect("--resume requires --journal");
        match read_journal(path) {
            Ok(records) => {
                for r in records {
                    completed.insert(r.key.clone(), r);
                }
            }
            Err(e) => return fail(out, &format!("{}: {e}", path.display())),
        }
    }
    let writer = match &journal_path {
        Some(path) => match JournalWriter::open(path) {
            Ok(w) => Some(Mutex::new(w)),
            Err(e) => return fail(out, &format!("{}: {e}", path.display())),
        },
        None => None,
    };
    let journal_error: Mutex<Option<std::io::Error>> = Mutex::new(None);

    // Split the batch: `None` rows are filled from this run's reports,
    // in order; `Some` rows replay a journaled completion.
    let mut rows: Vec<Option<JournalRecord>> = Vec::with_capacity(work.len());
    let mut to_run: Vec<(String, BatchJob)> = Vec::new();
    for (index, (name, spec)) in work.into_iter().enumerate() {
        let key = job_key(index, &name, &spec);
        if let Some(rec) = completed.get(&key) {
            rows.push(Some(rec.clone()));
        } else {
            rows.push(None);
            to_run.push((name.clone(), BatchJob { name, spec, key }));
        }
    }
    let total_jobs = rows.len();

    // Every batch job synthesizes with free output permutation: the answer
    // is minimal over the whole output-permutation class, so a cache hit
    // (which reuses the class representative's result) reports the same
    // depth a cache miss would.
    let run_one = |job: &BatchJob,
                   token: &CancelToken,
                   session: &mut SynthesisSession,
                   attempt: &Attempt|
     -> Result<PermutedSynthesisResult, SynthesisError> {
        let opts = apply_attempt(&options, attempt).with_cancel_token(token.clone());
        let job_started = Instant::now();
        // The ladder's engine override degrades a raced job to the one
        // named engine; undegraded attempts keep the configured choice.
        let mut engine_compute = |s: &Spec| {
            let race = engine == EngineChoice::Race && attempt.engine.is_none();
            match (no_permute, race) {
                (true, true) => race_engines(s, &opts)
                    .map(|r| PermutedSynthesisResult::plain(r.winner, s.lines()))
                    .map_err(|e| e.into_synthesis_error()),
                (true, false) => crate::synth::synthesize_in(s, &opts, session)
                    .map(|r| PermutedSynthesisResult::plain(r, s.lines())),
                (false, true) => race_engines_permuted(s, &opts)
                    .map(|r| r.winner)
                    .map_err(|e| e.into_synthesis_error()),
                (false, false) => {
                    permuted::synthesize_with_output_permutation_in(s, &opts, session)
                }
            }
        };
        let result = match &cache {
            Some(c) => c
                .resolve(&job.spec, &job.name, engine_compute)
                .map(|(p, issues)| {
                    let named = issues.into_iter().map(|i| (job.name.clone(), i));
                    store_issues
                        .lock()
                        .expect("store issues lock")
                        .extend(named);
                    p
                }),
            None => engine_compute(&job.spec),
        };
        // Journal the completion before reporting it, from inside the
        // worker: a kill between jobs then loses nothing.
        if let (Ok(p), Some(w)) = (&result, &writer) {
            let record = journal_record(job, p, job_started.elapsed());
            if let Err(e) = w.lock().expect("journal lock").append(&record) {
                journal_error
                    .lock()
                    .expect("journal error lock")
                    .get_or_insert(e);
            }
        }
        result
    };
    let started = Instant::now();
    let outcome = run_batch(to_run, &batch_config, None, run_one);
    let total = started.elapsed();

    writeln!(
        out,
        "{:<12} {:>5} {:>9} {:<14} {:>9}  status",
        "name", "gates", "solutions", "permutation", "time"
    )?;
    let mut failed = 0usize;
    let mut fresh = outcome.reports.into_iter();
    for row in rows {
        if let Some(rec) = row {
            // A replayed job prints exactly like the original completion
            // (including its recorded wall-clock time), so a resumed
            // batch merges into the same report the unkilled run prints.
            writeln!(
                out,
                "{:<12} {:>5} {:>9} {:<14} {:>8.1?}  ok",
                rec.name,
                rec.depth,
                rec.solutions,
                rec.permutation,
                Duration::from_nanos(rec.elapsed_ns)
            )?;
            continue;
        }
        let r = fresh.next().expect("one report per scheduled job");
        match &r.status {
            JobStatus::Done(p) => writeln!(
                out,
                "{:<12} {:>5} {:>9} {:<14} {:>8.1?}  ok",
                r.name,
                p.result.depth(),
                p.result.solutions().count_display(),
                format!("{:?}", p.permutation),
                r.elapsed
            )?,
            JobStatus::Degraded {
                result: p,
                attempts,
                ladder_path,
            } => writeln!(
                out,
                "{:<12} {:>5} {:>9} {:<14} {:>8.1?}  ok (recovered: {} attempts{})",
                r.name,
                p.result.depth(),
                p.result.solutions().count_display(),
                format!("{:?}", p.permutation),
                r.elapsed,
                attempts,
                ladder_note(ladder_path)
            )?,
            JobStatus::Failed(e) => {
                failed += 1;
                writeln!(
                    out,
                    "{:<12} {:>5} {:>9} {:<14} {:>8.1?}  error: {e}",
                    r.name, "-", "-", "-", r.elapsed
                )?;
            }
            JobStatus::Panicked {
                message, location, ..
            } => {
                failed += 1;
                let at = location
                    .as_ref()
                    .map(|l| format!(" at {l}"))
                    .unwrap_or_default();
                writeln!(
                    out,
                    "{:<12} {:>5} {:>9} {:<14} {:>8.1?}  panicked: {message}{at}",
                    r.name, "-", "-", "-", r.elapsed
                )?;
            }
        }
    }
    let cache_note = match &cache {
        Some(c) => {
            let (hits, misses) = c.stats();
            format!(", cache {hits} hits / {misses} misses")
        }
        None => String::new(),
    };
    let store_note = match cache.as_ref().and_then(SpecCache::store_stats) {
        Some(s) => format!(
            ", store {} hits / {} misses ({} records)",
            s.hits, s.misses, s.records
        ),
        None => String::new(),
    };
    writeln!(
        out,
        "{} jobs, {} ok, {} failed in {:.1?} ({} engine, {} worker{}{cache_note}{store_note})",
        total_jobs,
        total_jobs - failed,
        failed,
        total,
        engine,
        jobs,
        if jobs == 1 { "" } else { "s" },
    )?;
    if config.stats {
        writeln!(out, "sessions: {}", outcome.session_stats)?;
        if _faults.armed() {
            let fired = qsyn_faults::FaultPlane::fired();
            if fired.is_empty() {
                writeln!(out, "faults: none fired")?;
            } else {
                let list: Vec<String> = fired
                    .iter()
                    .map(|(site, kind)| format!("{} {kind}", site.name()))
                    .collect();
                writeln!(out, "faults: {}", list.join(", "))?;
            }
        }
    }
    if let Some(e) = journal_error.into_inner().expect("journal error lock") {
        writeln!(out, "warning: journal write failed: {e}")?;
    }
    let issues = store_issues.into_inner().expect("store issues lock");
    let first_write_error = issues.iter().find_map(|(name, issue)| match issue {
        StoreIssue::WriteFailed(e) => Some(format!("{name}: {e}")),
        StoreIssue::Unusable(_) => None,
    });
    if let Some(e) = first_write_error {
        writeln!(out, "warning: store write failed: {e}")?;
    }
    for (name, issue) in &issues {
        if let StoreIssue::Unusable(reason) = issue {
            writeln!(
                out,
                "warning: store record skipped for {name}: {reason} (synthesized fresh)"
            )?;
        }
    }
    Ok(i32::from(failed > 0))
}

fn emit_circuits(
    result: &crate::synth::SynthesisResult,
    config: &SynthConfig,
    out: &mut dyn std::io::Write,
) -> std::io::Result<i32> {
    let best = result.solutions().best_by_quantum_cost();
    if let Some(path) = &config.output {
        std::fs::write(path, real::write_real(best))?;
        writeln!(out, "wrote {path}")?;
    } else if config.all {
        for (i, c) in result.solutions().circuits().iter().enumerate() {
            writeln!(
                out,
                "# solution {} (quantum cost {})",
                i + 1,
                cost::circuit_cost(c)
            )?;
            write!(out, "{c}")?;
        }
    } else {
        write!(out, "{}", real::write_real(best))?;
    }
    Ok(0)
}

fn load_circuit(path: &str) -> Result<crate::revlogic::Circuit, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    real::parse_real(&text).map_err(|e| e.to_string())
}

fn fail(out: &mut dyn std::io::Write, message: &str) -> std::io::Result<i32> {
    writeln!(out, "error: {message}")?;
    Ok(2)
}

/// Executes `qsyn serve`: opens the database, boots the daemon core
/// (optionally warm-started via `--preload`), prints the bound address
/// and serves the line protocol until a `shutdown` verb arrives.
///
/// `preload` carries the batch target together with the
/// `--preload-permute` flag; the flag is meaningless without a target
/// (it only changes how preload fills are synthesized).
#[allow(clippy::too_many_arguments)]
fn run_serve(
    addr: &str,
    store_path: Option<&str>,
    preload: Option<(&str, bool)>,
    jobs: usize,
    queue: usize,
    read_timeout: u64,
    max_connections: usize,
    config: &SynthConfig,
    out: &mut dyn std::io::Write,
) -> std::io::Result<i32> {
    let library = match config.gate_library() {
        Ok(l) => l,
        Err(e) => return fail(out, &e),
    };
    let EngineChoice::Single(engine) = config.engine else {
        return fail(
            out,
            "serve: --engine race is not supported; pick one engine",
        );
    };
    // Any gate library may attach a persistent store: records are keyed
    // by (canonical spec, config tag), so this daemon only ever replays
    // minima computed under its own configuration.
    let store = match store_path {
        Some(path) => match Store::open(std::path::Path::new(path)) {
            Ok(s) => {
                if s.truncated_tail_bytes() > 0 {
                    writeln!(
                        out,
                        "store: {path} recovered ({} records, {} torn tail bytes truncated)",
                        s.len(),
                        s.truncated_tail_bytes()
                    )?;
                } else {
                    writeln!(out, "store: {path} ({} records)", s.len())?;
                }
                Some(s)
            }
            Err(e) => return fail(out, &format!("{path}: {e}")),
        },
        None => None,
    };
    // `--read-timeout 0` disables both socket timeouts (trusted-network
    // operation); any other value bounds reads and writes alike.
    let socket_timeout = (read_timeout > 0).then(|| Duration::from_secs(read_timeout));
    let serve_config = ServeConfig {
        workers: jobs,
        queue_capacity: queue,
        library,
        engine,
        max_depth: config.max_depth,
        time_budget: config.timeout.map(Duration::from_secs),
        preload_permute: preload.is_some_and(|(_, permute)| permute),
        read_timeout: socket_timeout,
        write_timeout: socket_timeout,
        max_connections,
    };
    let core = Arc::new(ServeCore::start(&serve_config, store));
    if let Some((target, _)) = preload {
        let work = match batch_jobs(target) {
            Ok(w) => w,
            Err(e) => return fail(out, &e),
        };
        let (served, failed) = core.preload(&work);
        writeln!(out, "preloaded {served} jobs ({failed} failed)")?;
    }
    let listener = match std::net::TcpListener::bind(addr) {
        Ok(l) => l,
        Err(e) => return fail(out, &format!("{addr}: {e}")),
    };
    writeln!(out, "listening on {}", listener.local_addr()?)?;
    // Smoke harnesses wait for that line through a pipe: flush before
    // blocking in accept.
    out.flush()?;
    // SIGTERM/SIGINT flag a drain; the accept loop observes the flag,
    // finishes in-flight work and returns — so a signalled daemon still
    // reaches the `Ok(0)` below (the store is fsync'd on every write,
    // nothing further to flush).
    install_drain_signals();
    let snapshot = serve_tcp(listener, &core)?;
    if config.stats {
        writeln!(out, "{snapshot}")?;
    }
    Ok(0)
}

/// Executes `qsyn query`: one request line to a running daemon, one
/// reply rendered for humans. Exit 0 on a served answer, 2 on daemon
/// errors or connection failures. Retryable replies (admission-control
/// bounces, the connection-cap refusal) and connect failures are retried
/// on a capped, jittered backoff schedule before the verdict is
/// rendered.
fn run_query(
    addr: &str,
    action: &QueryAction,
    retries: u32,
    retry_budget: u64,
    out: &mut dyn std::io::Write,
) -> std::io::Result<i32> {
    // The jitter seed is per-process so synchronized clients decorrelate
    // their retry herds; everything else about the schedule is fixed.
    let policy = crate::serve::RetryPolicy {
        retries,
        budget: Duration::from_secs(retry_budget),
        seed: u64::from(std::process::id()),
        ..crate::serve::RetryPolicy::default()
    };
    let ask = |line: &str| roundtrip_with_retry(addr, line, &policy);
    match action {
        QueryAction::Ping => match ask(&protocol::render_verb_request("ping")) {
            Ok(RetryOutcome { reply, .. }) if reply == protocol::render_pong() => {
                writeln!(out, "pong")?;
                Ok(0)
            }
            Ok(RetryOutcome { reply, .. }) => fail(out, &format!("unexpected reply: {reply}")),
            Err(e) => fail(out, &format!("{addr}: {e}")),
        },
        QueryAction::Shutdown => match ask(&protocol::render_verb_request("shutdown")) {
            Ok(RetryOutcome { reply, .. }) if reply == protocol::render_closing() => {
                writeln!(out, "daemon closing")?;
                Ok(0)
            }
            Ok(RetryOutcome { reply, .. }) => fail(out, &format!("unexpected reply: {reply}")),
            Err(e) => fail(out, &format!("{addr}: {e}")),
        },
        QueryAction::Stats => match ask(&protocol::render_verb_request("stats")) {
            Ok(RetryOutcome { reply, .. }) => match protocol::parse_stats(&reply) {
                Some(s) => {
                    writeln!(out, "{s}")?;
                    Ok(0)
                }
                None => fail(out, &format!("unexpected reply: {reply}")),
            },
            Err(e) => fail(out, &format!("{addr}: {e}")),
        },
        QueryAction::Synth { target, name } => {
            // A benchmark name is sent by name (the daemon owns the
            // suite); anything else must be a readable `.spec` file,
            // validated locally so malformed input fails before the wire.
            let (spec_text, bench, default_name);
            if benchmarks::by_name(target).is_some() {
                (spec_text, bench, default_name) = (None, Some(target.as_str()), target.clone());
            } else {
                let text = match std::fs::read_to_string(target) {
                    Ok(t) => t,
                    Err(e) => {
                        return fail(
                            out,
                            &format!(
                                "`{target}` is neither a benchmark name nor a readable \
                                 spec file ({e})"
                            ),
                        )
                    }
                };
                if let Err(e) = spec_format::parse_spec(&text) {
                    return fail(out, &format!("{target}: {e}"));
                }
                let stem = std::path::Path::new(target)
                    .file_stem()
                    .map_or_else(|| target.clone(), |s| s.to_string_lossy().into_owned());
                (spec_text, bench, default_name) = (Some(text), None, stem);
            }
            let label = name.clone().unwrap_or(default_name);
            let line = protocol::render_synth_request(Some(&label), spec_text.as_deref(), bench);
            let RetryOutcome { reply, retries } = match ask(&line) {
                Ok(r) => r,
                Err(e) => return fail(out, &format!("{addr}: {e}")),
            };
            if retries > 0 {
                writeln!(out, "answered after {retries} retries")?;
            }
            if let Some(r) = protocol::parse_synth_reply(&reply) {
                writeln!(
                    out,
                    "{}: {} gates, {} solutions, quantum cost {}, permutation {:?} \
                     ({} in {}µs)",
                    r.name,
                    r.depth,
                    r.solutions,
                    r.quantum_cost,
                    r.permutation,
                    r.source,
                    r.elapsed_us
                )?;
                write!(out, "{}", r.circuit)?;
                Ok(0)
            } else if let Some((message, retryable)) = protocol::parse_error(&reply) {
                let suffix = if retryable { " (retryable)" } else { "" };
                fail(out, &format!("{message}{suffix}"))
            } else {
                fail(out, &format!("unexpected reply: {reply}"))
            }
        }
    }
}

/// Executes `qsyn store verify|stats|compact`: offline inspection and
/// maintenance of a circuit database. Exit codes are a contract (the
/// smoke and chaos harnesses branch on them): 0 = clean, 1 = a record
/// failed verification, 2 = unreadable/unopenable file, 3 = records
/// clean but an orphaned temp-compaction file sits next to the log
/// (advisory; `compact` consumes it, `verify` never deletes anything).
fn run_store_command(
    action: StoreAction,
    path: &str,
    fault_seed: Option<u64>,
    out: &mut dyn std::io::Write,
) -> std::io::Result<i32> {
    // The chaos sweep arms the plane to fire `store.compact` mid-verb;
    // the guard disarms on every exit path so in-process callers (tests)
    // are not poisoned.
    let fault_config = SynthConfig {
        fault_seed,
        ..SynthConfig::default()
    };
    let _faults = match FaultArming::from_config(&fault_config) {
        Ok(guard) => guard,
        Err(e) => return fail(out, &e),
    };
    let mut store = match Store::open(std::path::Path::new(path)) {
        Ok(s) => s,
        Err(e) => return fail(out, &format!("{path}: {e}")),
    };
    match action {
        StoreAction::Verify => match store.verify() {
            Ok(()) => {
                writeln!(
                    out,
                    "ok: {} records, {} bytes ({} torn tail bytes truncated on open, \
                     {} superseded bytes awaiting compaction)",
                    store.len(),
                    store.file_bytes(),
                    store.truncated_tail_bytes(),
                    store.dead_bytes()
                )?;
                if let Some(bytes) = store.orphan_temp_bytes() {
                    writeln!(
                        out,
                        "orphaned temp-compaction file: {} ({bytes} bytes) — a compaction \
                         was killed before its rename; `qsyn store compact` supersedes it",
                        crate::store::temp_compaction_path(std::path::Path::new(path)).display()
                    )?;
                    return Ok(3);
                }
                Ok(0)
            }
            Err(e) => {
                writeln!(out, "FAILED: {e}")?;
                Ok(1)
            }
        },
        StoreAction::Compact => match store.compact() {
            Ok(report) => {
                writeln!(
                    out,
                    "compacted: {} records, {} -> {} bytes ({} reclaimed)",
                    report.records,
                    report.bytes_before,
                    report.bytes_after,
                    report.reclaimed()
                )?;
                Ok(0)
            }
            Err(e) => fail(out, &format!("{path}: {e}")),
        },
        StoreAction::Stats => {
            writeln!(out, "records: {}", store.len())?;
            writeln!(out, "bytes: {}", store.file_bytes())?;
            writeln!(
                out,
                "torn tail truncated: {} bytes",
                store.truncated_tail_bytes()
            )?;
            writeln!(out, "superseded: {} bytes", store.dead_bytes())?;
            for r in store.records() {
                writeln!(
                    out,
                    "{:016x} {:<12} {} lines, {} gates, {} solutions, quantum cost {}, \
                     permutation {:?}",
                    r.digest,
                    r.name,
                    r.lines,
                    r.depth,
                    r.count_display(),
                    r.quantum_cost,
                    r.permutation
                )?;
            }
            Ok(0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::portfolio::cache::canonicalize;
    use crate::store::StoredCircuit;

    fn parse(args: &[&str]) -> Result<Command, String> {
        Command::parse(args.iter().copied())
    }

    #[test]
    fn empty_args_show_help() {
        assert_eq!(parse(&[]), Ok(Command::Help));
        assert_eq!(parse(&["--help"]), Ok(Command::Help));
    }

    #[test]
    fn parses_bench_with_options() {
        let cmd = parse(&[
            "bench",
            "3_17",
            "--engine",
            "sat",
            "--library",
            "mct+p",
            "--mixed-polarity",
            "--max-depth",
            "9",
            "--timeout",
            "5",
            "--all",
            "--stats",
        ])
        .unwrap();
        let Command::Synth { source, config } = cmd else {
            panic!("expected synth");
        };
        assert_eq!(source, Source::Benchmark("3_17".into()));
        assert_eq!(config.engine, EngineChoice::Single(Engine::Sat));
        assert_eq!(config.library, "mct+p");
        assert!(config.mixed_polarity);
        assert_eq!(config.max_depth, 9);
        assert_eq!(config.timeout, Some(5));
        assert!(config.all);
        assert!(config.stats);
        assert!(config.gate_library().unwrap().has_mixed_polarity());
    }

    #[test]
    fn stats_flag_prints_manager_counters() {
        let cmd = parse(&["bench", "3_17", "--stats"]).unwrap();
        let mut buf = Vec::new();
        assert_eq!(run(&cmd, &mut buf).unwrap(), 0);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("bdd: "), "{text}");
        assert!(text.contains("hit rate"), "{text}");
        // Without --output-permutation there is no search to report, and
        // the BDD engine keeps no SAT solver.
        assert!(!text.contains("search: "), "{text}");
        assert!(!text.contains("sat: "), "{text}");

        let cmd = parse(&["bench", "rd32-v0", "--output-permutation", "--stats"]).unwrap();
        let mut buf = Vec::new();
        assert_eq!(run(&cmd, &mut buf).unwrap(), 0);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("bdd: "), "{text}");
        assert!(
            text.contains(
                "search: 24 permutations, 3 classes, 3 engines built, 7 probes run, 0 floor skips, 4 levels built"
            ),
            "{text}"
        );

        // The SAT engine's persistent solver reports its search counters,
        // summed over every class probe on a permuted run.
        let cmd = parse(&["bench", "rd32-v0", "--engine", "sat", "--stats"]).unwrap();
        let mut buf = Vec::new();
        assert_eq!(run(&cmd, &mut buf).unwrap(), 0);
        let text = String::from_utf8(buf).unwrap();
        assert!(
            text.contains("bdd: n/a (SAT engine has no BDD manager)"),
            "{text}"
        );
        assert!(
            text.contains(
                "sat: 3 depth queries, 802 conflicts, 2504 decisions, 139449 propagations, 346 learnts reused"
            ),
            "{text}"
        );
        let cmd = parse(&[
            "bench",
            "rd32-v0",
            "--engine",
            "sat",
            "--output-permutation",
            "--stats",
        ])
        .unwrap();
        let mut buf = Vec::new();
        assert_eq!(run(&cmd, &mut buf).unwrap(), 0);
        let text = String::from_utf8(buf).unwrap();
        assert!(
            text.contains(
                "sat: 7 depth queries, 1312 conflicts, 4323 decisions, 211718 propagations, 442 learnts reused"
            ),
            "{text}"
        );
    }

    #[test]
    fn rejects_unknown_flags_and_commands() {
        assert!(parse(&["bench", "3_17", "--wat"]).is_err());
        assert!(parse(&["frobnicate"]).is_err());
        assert!(parse(&["bench", "3_17", "--engine", "magic"]).is_err());
        assert!(parse(&["simulate", "a.real"]).is_err());
        assert!(parse(&["cost", "a.real", "extra"]).is_err());
        assert!(parse(&["batch"]).is_err());
        assert!(parse(&["batch", "suite", "--jobs"]).is_err());
        assert!(parse(&["batch", "suite", "--jobs", "0"]).is_err());
        assert!(parse(&["batch", "suite", "--wat"]).is_err());
    }

    #[test]
    fn parses_batch_with_options() {
        let cmd = parse(&[
            "batch",
            "suite",
            "--jobs",
            "4",
            "--engine",
            "race",
            "--timeout",
            "30",
        ])
        .unwrap();
        let Command::Batch {
            target,
            jobs,
            journal,
            resume,
            store,
            no_permute,
            config,
        } = cmd
        else {
            panic!("expected batch");
        };
        assert_eq!(target, "suite");
        assert_eq!(jobs, 4);
        assert_eq!(journal, None);
        assert!(!resume);
        assert_eq!(store, None);
        assert!(!no_permute);
        assert_eq!(config.engine, EngineChoice::Race);
        assert_eq!(config.timeout, Some(30));
    }

    #[test]
    fn parses_robustness_flags() {
        let cmd = parse(&[
            "batch",
            "suite",
            "--journal",
            "runs.jsonl",
            "--resume",
            "--retries",
            "2",
            "--ladder",
            "qbf,sat",
            "--fault-seed",
            "7",
        ])
        .unwrap();
        let Command::Batch {
            journal,
            resume,
            config,
            ..
        } = cmd
        else {
            panic!("expected batch");
        };
        assert_eq!(journal.as_deref(), Some("runs.jsonl"));
        assert!(resume);
        assert_eq!(config.retries, 2);
        assert_eq!(config.ladder, vec![Engine::Qbf, Engine::Sat]);
        assert_eq!(config.fault_seed, Some(7));
        let policy = config.retry_policy();
        assert_eq!(policy.max_attempts, 3);
        assert_eq!(policy.engine_ladder, vec![Engine::Qbf, Engine::Sat]);
        // --ladder without --retries grants one retry per rung.
        let cmd = parse(&["bench", "3_17", "--ladder", "sat"]).unwrap();
        let Command::Synth { config, .. } = cmd else {
            panic!("expected synth");
        };
        assert_eq!(config.retry_policy().max_attempts, 2);
        // Malformed robustness flags are rejected.
        assert!(parse(&["batch", "suite", "--resume"]).is_err());
        assert!(parse(&["batch", "suite", "--ladder", "race"]).is_err());
        assert!(parse(&["batch", "suite", "--ladder", ""]).is_err());
        assert!(parse(&["batch", "suite", "--retries", "x"]).is_err());
        assert!(parse(&["batch", "suite", "--fault-seed", "-1"]).is_err());
    }

    #[cfg(not(feature = "faults"))]
    #[test]
    fn fault_seed_is_rejected_without_the_faults_feature() {
        let cmd = parse(&["bench", "3_17", "--fault-seed", "1"]).unwrap();
        let mut buf = Vec::new();
        assert_eq!(run(&cmd, &mut buf).unwrap(), 2);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("--features faults"), "{text}");
    }

    #[test]
    fn batch_of_mixed_jobs_prints_one_row_per_job() {
        let dir = std::env::temp_dir().join("qsyn-cli-batch-test");
        std::fs::create_dir_all(&dir).unwrap();
        // cnot-twin is cnot with the output lines relabeled (rows mapped
        // through the swap), so the cache must answer it with a hit.
        let cnot = dir.join("cnot.spec");
        std::fs::write(
            &cnot,
            ".numvars 2\n.begin\n00 00\n01 11\n10 10\n11 01\n.end\n",
        )
        .unwrap();
        let twin = dir.join("cnot-twin.spec");
        std::fs::write(
            &twin,
            ".numvars 2\n.begin\n00 00\n01 11\n10 01\n11 10\n.end\n",
        )
        .unwrap();
        let list = dir.join("jobs.txt");
        let entries = format!(
            "# one benchmark, two spec files\n3_17\n{}\n{}\n",
            cnot.display(),
            twin.display()
        );
        std::fs::write(&list, entries).unwrap();
        let cmd = parse(&["batch", list.to_str().unwrap(), "--jobs", "2"]).unwrap();
        let mut buf = Vec::new();
        assert_eq!(run(&cmd, &mut buf).unwrap(), 0);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("3_17"), "{text}");
        assert!(text.contains("cnot"), "{text}");
        assert!(text.contains("cnot-twin"), "{text}");
        assert!(text.contains("3 jobs, 3 ok, 0 failed"), "{text}");
        assert!(text.contains("cache 1 hits / 2 misses"), "{text}");
    }

    #[test]
    fn batch_journal_records_and_resume_replays() {
        let dir = std::env::temp_dir().join(format!("qsyn-cli-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cnot = dir.join("cnot.spec");
        std::fs::write(
            &cnot,
            ".numvars 2\n.begin\n00 00\n01 11\n10 10\n11 01\n.end\n",
        )
        .unwrap();
        let list = dir.join("jobs.txt");
        std::fs::write(&list, format!("3_17\n{}\n", cnot.display())).unwrap();
        let journal = dir.join("runs.jsonl");
        let _ = std::fs::remove_file(&journal);

        // Full run: every completion is journaled.
        let cmd = parse(&[
            "batch",
            list.to_str().unwrap(),
            "--journal",
            journal.to_str().unwrap(),
        ])
        .unwrap();
        let mut buf = Vec::new();
        assert_eq!(run(&cmd, &mut buf).unwrap(), 0);
        let full = crate::portfolio::read_journal(&journal).unwrap();
        assert_eq!(full.len(), 2, "{full:?}");

        // Simulate a kill after the first job: truncate the journal to
        // its first record, then resume. The first job is replayed (its
        // recorded time reappears verbatim), the second re-runs, and the
        // rebuilt journal carries the same result digests as the full run.
        std::fs::write(
            &journal,
            format!("{}\n", crate::portfolio::journal::render_record(&full[0])),
        )
        .unwrap();
        let cmd = parse(&[
            "batch",
            list.to_str().unwrap(),
            "--journal",
            journal.to_str().unwrap(),
            "--resume",
        ])
        .unwrap();
        let mut buf = Vec::new();
        assert_eq!(run(&cmd, &mut buf).unwrap(), 0);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("2 jobs, 2 ok, 0 failed"), "{text}");
        assert!(
            text.contains(&format!("{:.1?}", Duration::from_nanos(full[0].elapsed_ns))),
            "replayed row reprints the journaled time\n{text}"
        );
        let resumed = crate::portfolio::read_journal(&journal).unwrap();
        assert_eq!(resumed.len(), 2);
        for (a, b) in full.iter().zip(&resumed) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.digest, b.digest, "resume must reproduce {}", a.name);
        }

        // A resume over a complete journal re-runs nothing: the cache
        // sees no traffic at all.
        let mut buf = Vec::new();
        assert_eq!(run(&cmd, &mut buf).unwrap(), 0);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("cache 0 hits / 0 misses"), "{text}");
    }

    #[test]
    fn batch_rejects_bad_targets() {
        let cmd = parse(&["batch", "/nonexistent/nowhere"]).unwrap();
        let mut buf = Vec::new();
        assert_eq!(run(&cmd, &mut buf).unwrap(), 2);
    }

    #[test]
    fn race_engine_synthesizes_a_benchmark() {
        let cmd = parse(&["bench", "3_17", "--engine", "race"]).unwrap();
        let mut buf = Vec::new();
        assert_eq!(run(&cmd, &mut buf).unwrap(), 0);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("minimal gates: 6"), "{text}");
        assert!(text.contains("race winner:"), "{text}");
    }

    #[test]
    fn parses_audit_command() {
        assert_eq!(
            parse(&["audit", "--self-test"]),
            Ok(Command::Audit {
                paths: vec![],
                self_test: true,
            })
        );
        assert_eq!(
            parse(&["audit", "a.real", "b.cnf"]),
            Ok(Command::Audit {
                paths: vec!["a.real".into(), "b.cnf".into()],
                self_test: false,
            })
        );
        // No files and no --self-test is an error, as is an unknown flag.
        assert!(parse(&["audit"]).is_err());
        assert!(parse(&["audit", "--wat"]).is_err());
    }

    #[test]
    fn audit_self_test_reports_accepts_and_rejections() {
        let cmd = parse(&["audit", "--self-test"]).unwrap();
        let mut buf = Vec::new();
        assert_eq!(run(&cmd, &mut buf).unwrap(), 0);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("self-test"), "{text}");
        assert!(text.contains("rejected"), "{text}");
    }

    #[test]
    fn audit_accepts_clean_files_and_rejects_garbage() {
        let dir = std::env::temp_dir().join("qsyn-cli-audit-test");
        std::fs::create_dir_all(&dir).unwrap();
        let circ = dir.join("ok.real");
        std::fs::write(&circ, ".numvars 2\n.begin\nt2 x1 x2\n.end\n").unwrap();
        let qbf = dir.join("ok.qdimacs");
        std::fs::write(&qbf, "p cnf 2 1\ne 1 0\n1 -2 0\n").unwrap();
        let cmd = parse(&["audit", circ.to_str().unwrap(), qbf.to_str().unwrap()]).unwrap();
        let mut buf = Vec::new();
        assert_eq!(run(&cmd, &mut buf).unwrap(), 0);
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.matches(": ok").count(), 2, "{text}");
        // Unknown extensions and unreadable files exit 2.
        let cmd = parse(&["audit", "nope.xyz"]).unwrap();
        let mut buf = Vec::new();
        assert_eq!(run(&cmd, &mut buf).unwrap(), 2);
    }

    #[test]
    fn audit_reports_parser_asserts_as_input_errors() {
        // The gate and prefix constructors assert their invariants; a
        // corrupt file must exit 2 with a message, not unwind (exit 101).
        let dir = std::env::temp_dir().join("qsyn-cli-audit-panic-test");
        std::fs::create_dir_all(&dir).unwrap();
        let overlap = dir.join("overlap.real");
        std::fs::write(&overlap, ".numvars 2\n.begin\nt2 x1 x1\n.end\n").unwrap();
        let cmd = parse(&["audit", overlap.to_str().unwrap()]).unwrap();
        let mut buf = Vec::new();
        assert_eq!(run(&cmd, &mut buf).unwrap(), 2);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("target cannot be a control"), "{text}");

        let dup = dir.join("dup.qdimacs");
        std::fs::write(&dup, "p cnf 2 1\ne 1 0\ne 1 0\n1 -2 0\n").unwrap();
        let cmd = parse(&["audit", dup.to_str().unwrap()]).unwrap();
        let mut buf = Vec::new();
        assert_eq!(run(&cmd, &mut buf).unwrap(), 2);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("already quantified"), "{text}");
    }

    #[test]
    fn library_resolution() {
        let mut c = SynthConfig::default();
        assert_eq!(c.gate_library().unwrap().label(), "MCT");
        c.library = "all".into();
        assert_eq!(c.gate_library().unwrap().label(), "MCT+MCF+P");
        c.library = "bogus".into();
        assert!(c.gate_library().is_err());
    }

    #[test]
    fn list_prints_benchmarks() {
        let mut buf = Vec::new();
        assert_eq!(run(&Command::List, &mut buf).unwrap(), 0);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("hwb4"));
        assert!(text.contains("alu-v3"));
    }

    #[test]
    fn bench_synthesis_end_to_end() {
        let cmd = parse(&["bench", "3_17"]).unwrap();
        let mut buf = Vec::new();
        assert_eq!(run(&cmd, &mut buf).unwrap(), 0);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("minimal gates: 6"), "{text}");
        assert!(text.contains(".begin"));
    }

    #[test]
    fn unknown_benchmark_fails_cleanly() {
        let cmd = parse(&["bench", "nope"]).unwrap();
        let mut buf = Vec::new();
        assert_eq!(run(&cmd, &mut buf).unwrap(), 2);
        assert!(String::from_utf8(buf)
            .unwrap()
            .contains("unknown benchmark"));
    }

    #[test]
    fn synth_from_spec_file_and_check_roundtrip() {
        let dir = std::env::temp_dir().join("qsyn-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let spec_path = dir.join("xor.spec");
        // 2-line spec: x2 ^= x1 (a CNOT).
        std::fs::write(
            &spec_path,
            ".numvars 2\n.begin\n00 00\n01 11\n10 10\n11 01\n.end\n",
        )
        .unwrap();
        let out_path = dir.join("xor.real");
        let cmd = parse(&[
            "synth",
            spec_path.to_str().unwrap(),
            "-o",
            out_path.to_str().unwrap(),
        ])
        .unwrap();
        let mut buf = Vec::new();
        assert_eq!(run(&cmd, &mut buf).unwrap(), 0);
        // simulate 01 (x1 = 1) → 11.
        let sim = parse(&["simulate", out_path.to_str().unwrap(), "01"]).unwrap();
        let mut buf = Vec::new();
        assert_eq!(run(&sim, &mut buf).unwrap(), 0);
        assert!(String::from_utf8(buf).unwrap().contains("01 -> 11"));
        // cost works.
        let cost_cmd = parse(&["cost", out_path.to_str().unwrap()]).unwrap();
        let mut buf = Vec::new();
        assert_eq!(run(&cost_cmd, &mut buf).unwrap(), 0);
        // self-equivalence.
        let check = parse(&[
            "check",
            out_path.to_str().unwrap(),
            out_path.to_str().unwrap(),
        ])
        .unwrap();
        let mut buf = Vec::new();
        assert_eq!(run(&check, &mut buf).unwrap(), 0);
        assert!(String::from_utf8(buf).unwrap().contains("EQUIVALENT"));
        // spec extraction contains the truth table.
        let spec_cmd = parse(&["spec", out_path.to_str().unwrap()]).unwrap();
        let mut buf = Vec::new();
        assert_eq!(run(&spec_cmd, &mut buf).unwrap(), 0);
        assert!(String::from_utf8(buf).unwrap().contains("01 11"));
    }

    #[test]
    fn heuristic_flag_synthesizes_fast() {
        let cmd = parse(&["bench", "hwb4", "--heuristic"]).unwrap();
        let mut buf = Vec::new();
        assert_eq!(run(&cmd, &mut buf).unwrap(), 0);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("heuristic realization"), "{text}");
        assert!(text.contains(".begin"));
    }

    #[test]
    fn heuristic_rejects_incomplete_specs() {
        let cmd = parse(&["bench", "rd32-v0", "--heuristic"]).unwrap();
        let mut buf = Vec::new();
        assert_eq!(run(&cmd, &mut buf).unwrap(), 2);
        assert!(String::from_utf8(buf)
            .unwrap()
            .contains("completely specified"));
    }

    #[test]
    fn output_permutation_flag_works() {
        // SWAP: free with output permutation.
        let dir = std::env::temp_dir().join("qsyn-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let spec_path = dir.join("swap.spec");
        std::fs::write(
            &spec_path,
            ".numvars 2\n.begin\n00 00\n01 10\n10 01\n11 11\n.end\n",
        )
        .unwrap();
        let cmd = parse(&["synth", spec_path.to_str().unwrap(), "--output-permutation"]).unwrap();
        let mut buf = Vec::new();
        assert_eq!(run(&cmd, &mut buf).unwrap(), 0);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("minimal gates: 0"), "{text}");
    }

    #[test]
    fn parses_serve_with_options() {
        let cmd = parse(&[
            "serve",
            "127.0.0.1:7878",
            "--store",
            "db.qsyn",
            "--preload",
            "suite",
            "--jobs",
            "3",
            "--queue",
            "8",
            "--engine",
            "sat",
            "--max-depth",
            "10",
            "--timeout",
            "30",
            "--stats",
        ])
        .unwrap();
        let Command::Serve {
            addr,
            store,
            preload,
            jobs,
            queue,
            preload_permute,
            read_timeout,
            max_connections,
            config,
        } = cmd
        else {
            panic!("expected serve");
        };
        assert_eq!(addr, "127.0.0.1:7878");
        assert_eq!(store.as_deref(), Some("db.qsyn"));
        assert_eq!(preload.as_deref(), Some("suite"));
        assert_eq!(jobs, 3);
        assert_eq!(queue, 8);
        assert_eq!(read_timeout, 30, "socket timeouts default on");
        assert_eq!(max_connections, 64);
        assert!(!preload_permute, "preload runs plain synthesis by default");
        assert_eq!(config.engine, EngineChoice::Single(Engine::Sat));
        assert_eq!(config.max_depth, 10);
        assert_eq!(config.timeout, Some(30));
        assert!(config.stats);
        // Opting preload back into the permutation search parses, but only
        // alongside --preload.
        let cmd = parse(&["serve", ":0", "--preload", "suite", "--preload-permute"]).unwrap();
        let Command::Serve {
            preload_permute, ..
        } = cmd
        else {
            panic!("expected serve");
        };
        assert!(preload_permute);
        let err = parse(&["serve", ":0", "--preload-permute"]).unwrap_err();
        assert!(
            err.contains("--preload-permute requires --preload"),
            "{err}"
        );
        // Flags that make no sense for a daemon are rejected at parse time.
        assert!(parse(&["serve"]).is_err());
        assert!(parse(&["serve", ":0", "--engine", "race"]).is_err());
        assert!(parse(&["serve", ":0", "--all"]).is_err());
        assert!(parse(&["serve", ":0", "-o", "x.real"]).is_err());
        assert!(parse(&["serve", ":0", "--heuristic"]).is_err());
        assert!(parse(&["serve", ":0", "--retries", "1"]).is_err());
        assert!(parse(&["serve", ":0", "--ladder", "sat"]).is_err());
        assert!(parse(&["serve", ":0", "--fault-seed", "1"]).is_err());
        assert!(parse(&["serve", ":0", "--jobs", "0"]).is_err());
        assert!(parse(&["serve", ":0", "--queue", "0"]).is_err());
        assert!(parse(&["serve", ":0", "--wat"]).is_err());
        // Lifecycle knobs: 0 disables the socket timeout but the
        // connection cap must admit someone.
        let cmd = parse(&[
            "serve",
            ":0",
            "--read-timeout",
            "0",
            "--max-connections",
            "5",
        ])
        .unwrap();
        let Command::Serve {
            read_timeout,
            max_connections,
            ..
        } = cmd
        else {
            panic!("expected serve");
        };
        assert_eq!(read_timeout, 0);
        assert_eq!(max_connections, 5);
        assert!(parse(&["serve", ":0", "--max-connections", "0"]).is_err());
        assert!(parse(&["serve", ":0", "--read-timeout"]).is_err());
        assert!(parse(&["serve", ":0", "--read-timeout", "soon"]).is_err());
    }

    #[test]
    fn parses_query_variants() {
        assert_eq!(
            parse(&["query", "localhost:7878", "3_17"]),
            Ok(Command::Query {
                addr: "localhost:7878".into(),
                action: QueryAction::Synth {
                    target: "3_17".into(),
                    name: None,
                },
                retries: 4,
                retry_budget: 30,
            })
        );
        assert_eq!(
            parse(&["query", ":1", "f.spec", "--name", "job7"]),
            Ok(Command::Query {
                addr: ":1".into(),
                action: QueryAction::Synth {
                    target: "f.spec".into(),
                    name: Some("job7".into()),
                },
                retries: 4,
                retry_budget: 30,
            })
        );
        for (flag, action) in [
            ("--stats", QueryAction::Stats),
            ("--ping", QueryAction::Ping),
            ("--shutdown", QueryAction::Shutdown),
        ] {
            assert_eq!(
                parse(&["query", ":1", flag]),
                Ok(Command::Query {
                    addr: ":1".into(),
                    action,
                    retries: 4,
                    retry_budget: 30,
                })
            );
        }
        // The backoff knobs compose with every verb; 0 disables retries.
        assert_eq!(
            parse(&[
                "query",
                ":1",
                "3_17",
                "--retries",
                "0",
                "--retry-budget",
                "7"
            ]),
            Ok(Command::Query {
                addr: ":1".into(),
                action: QueryAction::Synth {
                    target: "3_17".into(),
                    name: None,
                },
                retries: 0,
                retry_budget: 7,
            })
        );
        assert!(parse(&["query"]).is_err());
        assert!(parse(&["query", ":1"]).is_err());
        assert!(parse(&["query", ":1", "3_17", "--stats"]).is_err());
        assert!(parse(&["query", ":1", "--name", "x", "--ping"]).is_err());
        assert!(parse(&["query", ":1", "a", "b"]).is_err());
        assert!(parse(&["query", ":1", "--wat"]).is_err());
        assert!(parse(&["query", ":1", "3_17", "--retries"]).is_err());
        assert!(parse(&["query", ":1", "3_17", "--retries", "often"]).is_err());
        assert!(parse(&["query", ":1", "3_17", "--retry-budget", "long"]).is_err());
    }

    #[test]
    fn parses_store_actions() {
        assert_eq!(
            parse(&["store", "verify", "db.qsyn"]),
            Ok(Command::Store {
                action: StoreAction::Verify,
                path: "db.qsyn".into(),
                fault_seed: None,
            })
        );
        assert_eq!(
            parse(&["store", "stats", "db.qsyn"]),
            Ok(Command::Store {
                action: StoreAction::Stats,
                path: "db.qsyn".into(),
                fault_seed: None,
            })
        );
        assert_eq!(
            parse(&["store", "compact", "db.qsyn"]),
            Ok(Command::Store {
                action: StoreAction::Compact,
                path: "db.qsyn".into(),
                fault_seed: None,
            })
        );
        assert!(parse(&["store"]).is_err());
        assert!(parse(&["store", "frob", "db.qsyn"]).is_err());
        assert!(parse(&["store", "verify"]).is_err());
        assert!(parse(&["store", "verify", "db.qsyn", "extra"]).is_err());
        assert!(parse(&["store", "compact"]).is_err());
        // batch grows a --store flag.
        let cmd = parse(&["batch", "suite", "--store", "db.qsyn"]).unwrap();
        let Command::Batch { store, .. } = cmd else {
            panic!("expected batch");
        };
        assert_eq!(store.as_deref(), Some("db.qsyn"));
    }

    #[test]
    fn store_compact_verb_and_verify_exit_contract() {
        use crate::revlogic::Permutation;
        let dir = std::env::temp_dir().join(format!("qsyn-cli-compact-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let db = dir.join("compact.qsyn");
        let _ = std::fs::remove_file(&db);
        let db_str = db.to_str().unwrap();

        let record = |name: &str, map: [u32; 4], gate: &str| {
            let spec = Spec::from_permutation(&Permutation::from_map(2, map.to_vec()));
            StoredCircuit::for_spec(
                &spec,
                "MCT",
                name,
                1,
                1,
                1,
                true,
                vec![0, 1],
                format!(".numvars 2\n.variables x1 x2\n.begin\n{gate}\n.end\n"),
            )
        };
        {
            let mut store = Store::open(&db).unwrap();
            for (map, gate) in [([0u32, 3, 2, 1], "t2 x1 x2"), ([0, 1, 3, 2], "t2 x2 x1")] {
                store.put(record("cold", map, gate)).unwrap();
                store.put_superseding(record("warm", map, gate)).unwrap();
            }
            assert!(store.dead_bytes() > 0);
        }

        let run_store = |args: &[&str]| -> (i32, String) {
            let cmd = parse(args).unwrap();
            let mut buf = Vec::new();
            let code = run(&cmd, &mut buf).unwrap();
            (code, String::from_utf8(buf).unwrap())
        };

        // Clean records + superseded bytes: verify stays 0 and reports
        // the reclaimable tail.
        let (code, text) = run_store(&["store", "verify", db_str]);
        assert_eq!(code, 0, "{text}");
        assert!(!text.contains("0 superseded bytes"), "{text}");

        let before = std::fs::metadata(&db).unwrap().len();
        let (code, text) = run_store(&["store", "compact", db_str]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("compacted: 2 records"), "{text}");
        assert!(text.contains("reclaimed"), "{text}");
        assert!(std::fs::metadata(&db).unwrap().len() < before);
        let (code, text) = run_store(&["store", "verify", db_str]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("0 superseded bytes"), "{text}");

        // An orphaned temp-compaction file is advisory exit 3 — reported,
        // never deleted — and the next compact supersedes it.
        let orphan = crate::store::temp_compaction_path(&db);
        std::fs::write(&orphan, b"torn garbage").unwrap();
        let (code, text) = run_store(&["store", "verify", db_str]);
        assert_eq!(code, 3, "{text}");
        assert!(text.contains("orphaned temp-compaction file"), "{text}");
        assert!(orphan.exists(), "verify must not delete the orphan");
        let (code, _) = run_store(&["store", "compact", db_str]);
        assert_eq!(code, 0);
        assert!(!orphan.exists(), "compact consumes the temp name");
        let (code, _) = run_store(&["store", "verify", db_str]);
        assert_eq!(code, 0);

        // Unreadable file: exit 2.
        let (code, _) = run_store(&["store", "verify", dir.join("absent").to_str().unwrap()]);
        assert_eq!(code, 0, "a missing file opens as an empty store");
        std::fs::write(dir.join("junk.qsyn"), b"not a store").unwrap();
        let (code, _) = run_store(&["store", "verify", dir.join("junk.qsyn").to_str().unwrap()]);
        assert_eq!(code, 2);

        let _ = std::fs::remove_file(&db);
        let _ = std::fs::remove_file(dir.join("junk.qsyn"));
        let _ = std::fs::remove_file(dir.join("absent"));
    }

    #[test]
    fn store_keys_keep_gate_libraries_apart() {
        // One database, two configurations: records are keyed by
        // (canonical spec, config tag), so an mct+mcf run neither replays
        // the mct minimum nor overwrites it — the same job simply misses
        // under the richer library and both records coexist.
        let dir = std::env::temp_dir().join(format!("qsyn-cli-perlib-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let db = dir.join("mixed.qsyn");
        let _ = std::fs::remove_file(&db);
        let list = dir.join("jobs.txt");
        std::fs::write(&list, "3_17\n").unwrap();

        let mct = parse(&[
            "batch",
            list.to_str().unwrap(),
            "--store",
            db.to_str().unwrap(),
        ])
        .unwrap();
        let mut buf = Vec::new();
        assert_eq!(run(&mct, &mut buf).unwrap(), 0);
        let text = String::from_utf8(buf).unwrap();
        assert!(
            text.contains("store 0 hits / 1 misses (1 records)"),
            "{text}"
        );

        let mcf = parse(&[
            "batch",
            list.to_str().unwrap(),
            "--store",
            db.to_str().unwrap(),
            "--library",
            "mct+mcf",
        ])
        .unwrap();
        let mut buf = Vec::new();
        assert_eq!(run(&mcf, &mut buf).unwrap(), 0);
        let text = String::from_utf8(buf).unwrap();
        assert!(
            text.contains("store 0 hits / 1 misses (2 records)"),
            "{text}"
        );

        // Rerunning each configuration hits its own record.
        for (cmd, want) in [(&mct, "MCT"), (&mcf, "MCT+MCF")] {
            let mut buf = Vec::new();
            assert_eq!(run(cmd, &mut buf).unwrap(), 0);
            let text = String::from_utf8(buf).unwrap();
            assert!(
                text.contains("store 1 hits / 0 misses (2 records)"),
                "{want}: {text}"
            );
        }
        let store = Store::open(&db).unwrap();
        let configs: Vec<&str> = store.records().map(|r| r.config.as_str()).collect();
        assert_eq!(configs, ["MCT", "MCT+MCF"]);
        store.verify().unwrap();
    }

    #[test]
    fn unusable_store_record_is_reported_not_silently_dropped() {
        let dir = std::env::temp_dir().join(format!("qsyn-cli-skip-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let db = dir.join("bad.qsyn");
        let _ = std::fs::remove_file(&db);
        // Seed the database with an unusable record for 3_17's class: a
        // zero-solution entry can never replay.
        let spec = benchmarks::by_name("3_17").unwrap().spec;
        let canonical = canonicalize(&spec).spec;
        {
            let mut store = Store::open(&db).unwrap();
            let record = StoredCircuit::for_spec(
                &canonical,
                "MCT",
                "3_17",
                0,
                0,
                0,
                true,
                (0..spec.lines()).collect(),
                String::new(),
            );
            store.put(record).unwrap();
        }
        let list = dir.join("jobs.txt");
        std::fs::write(&list, "3_17\n").unwrap();
        let cmd = parse(&[
            "batch",
            list.to_str().unwrap(),
            "--store",
            db.to_str().unwrap(),
        ])
        .unwrap();
        let mut buf = Vec::new();
        assert_eq!(run(&cmd, &mut buf).unwrap(), 0);
        let text = String::from_utf8(buf).unwrap();
        // The job still completes (engine fallback)…
        assert!(text.contains("1 jobs, 1 ok, 0 failed"), "{text}");
        // …but the skip is reported with its reason.
        assert!(
            text.contains(
                "warning: store record skipped for 3_17: stored record has no solutions \
                 (synthesized fresh)"
            ),
            "{text}"
        );
    }

    #[test]
    fn batch_no_permute_synthesizes_under_the_given_labeling() {
        let dir = std::env::temp_dir().join(format!("qsyn-cli-noperm-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // SWAP: free output relabeling gives depth 0; plain synthesis
        // must pay the 3 CNOTs and report the identity permutation.
        let swap = dir.join("swap.spec");
        std::fs::write(
            &swap,
            ".numvars 2\n.begin\n00 00\n01 10\n10 01\n11 11\n.end\n",
        )
        .unwrap();
        let list = dir.join("jobs.txt");
        std::fs::write(&list, format!("{}\n", swap.display())).unwrap();

        let cmd = parse(&["batch", list.to_str().unwrap(), "--no-permute"]).unwrap();
        let mut buf = Vec::new();
        assert_eq!(run(&cmd, &mut buf).unwrap(), 0);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("1 jobs, 1 ok, 0 failed"), "{text}");
        let row = text.lines().find(|l| l.starts_with("swap")).unwrap();
        assert!(row.contains("[0, 1]"), "identity labeling: {row}");
        assert!(row.split_whitespace().nth(1) == Some("3"), "3 gates: {row}");

        // The default (permuted) run absorbs SWAP into the labeling.
        let cmd = parse(&["batch", list.to_str().unwrap()]).unwrap();
        let mut buf = Vec::new();
        assert_eq!(run(&cmd, &mut buf).unwrap(), 0);
        let text = String::from_utf8(buf).unwrap();
        let row = text.lines().find(|l| l.starts_with("swap")).unwrap();
        assert!(row.split_whitespace().nth(1) == Some("0"), "0 gates: {row}");

        // --no-permute refuses to feed labeling-specific answers into the
        // canonical-class store.
        let err = parse(&["batch", "suite", "--no-permute", "--store", "/tmp/x.db"]).unwrap_err();
        assert!(
            err.contains("one canonical circuit per permutation class"),
            "{err}"
        );
    }

    #[test]
    fn batch_store_populates_then_replays_without_an_engine() {
        let dir = std::env::temp_dir().join(format!("qsyn-cli-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let db = dir.join("circuits.qsyn");
        let _ = std::fs::remove_file(&db);
        let cnot = dir.join("cnot.spec");
        std::fs::write(
            &cnot,
            ".numvars 2\n.begin\n00 00\n01 11\n10 10\n11 01\n.end\n",
        )
        .unwrap();
        let list = dir.join("jobs.txt");
        std::fs::write(&list, format!("3_17\n{}\n", cnot.display())).unwrap();

        // Cold run: every class misses the store and is appended.
        let cmd = parse(&[
            "batch",
            list.to_str().unwrap(),
            "--store",
            db.to_str().unwrap(),
        ])
        .unwrap();
        let mut buf = Vec::new();
        assert_eq!(run(&cmd, &mut buf).unwrap(), 0);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("2 jobs, 2 ok, 0 failed"), "{text}");
        assert!(
            text.contains("store 0 hits / 2 misses (2 records)"),
            "{text}"
        );

        // Second run (fresh cache): both classes replay from disk.
        let mut buf = Vec::new();
        assert_eq!(run(&cmd, &mut buf).unwrap(), 0);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("2 jobs, 2 ok, 0 failed"), "{text}");
        assert!(
            text.contains("store 2 hits / 0 misses (2 records)"),
            "{text}"
        );
        // Replayed rows report the same depths as the fresh run.
        assert!(text.contains("3_17"), "{text}");

        // An equivalent respelling of a stored class is also a hit: the
        // cnot-twin spec permutes cnot's output lines.
        let twin = dir.join("cnot-twin.spec");
        std::fs::write(
            &twin,
            ".numvars 2\n.begin\n00 00\n01 11\n10 01\n11 10\n.end\n",
        )
        .unwrap();
        let list2 = dir.join("jobs2.txt");
        std::fs::write(&list2, format!("{}\n", twin.display())).unwrap();
        let cmd = parse(&[
            "batch",
            list2.to_str().unwrap(),
            "--store",
            db.to_str().unwrap(),
        ])
        .unwrap();
        let mut buf = Vec::new();
        assert_eq!(run(&cmd, &mut buf).unwrap(), 0);
        let text = String::from_utf8(buf).unwrap();
        assert!(
            text.contains("store 1 hits / 0 misses (2 records)"),
            "{text}"
        );

        // Offline inspection: verify passes, stats lists both records.
        let cmd = parse(&["store", "verify", db.to_str().unwrap()]).unwrap();
        let mut buf = Vec::new();
        assert_eq!(run(&cmd, &mut buf).unwrap(), 0);
        assert!(String::from_utf8(buf).unwrap().starts_with("ok: 2 records"));
        let cmd = parse(&["store", "stats", db.to_str().unwrap()]).unwrap();
        let mut buf = Vec::new();
        assert_eq!(run(&cmd, &mut buf).unwrap(), 0);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("records: 2"), "{text}");
        assert!(text.contains("3_17"), "{text}");
        // Missing databases fail with exit 2, not a panic.
        let cmd = parse(&["store", "verify", "/nonexistent/db.qsyn"]).unwrap();
        let mut buf = Vec::new();
        assert_eq!(run(&cmd, &mut buf).unwrap(), 2);
    }

    /// A byte sink shared with a daemon thread, so the test can read the
    /// bound address while `run` is still blocked in the accept loop.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl SharedBuf {
        fn text(&self) -> String {
            String::from_utf8_lossy(&self.0.lock().unwrap()).into_owned()
        }
    }

    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn serve_and_query_round_trip_over_tcp() {
        let serve_cmd = parse(&[
            "serve",
            "127.0.0.1:0",
            "--jobs",
            "1",
            "--max-depth",
            "8",
            "--stats",
        ])
        .unwrap();
        let server_out = SharedBuf::default();
        let mut thread_out = server_out.clone();
        let server = std::thread::spawn(move || run(&serve_cmd, &mut thread_out).unwrap());
        let addr = loop {
            let text = server_out.text();
            if let Some(rest) = text.split("listening on ").nth(1) {
                break rest.lines().next().unwrap().trim().to_string();
            }
            std::thread::sleep(Duration::from_millis(10));
        };

        let query = |args: &[&str]| -> (i32, String) {
            let mut full = vec!["query", &addr];
            full.extend_from_slice(args);
            let cmd = parse(&full).unwrap();
            let mut buf = Vec::new();
            let code = run(&cmd, &mut buf).unwrap();
            (code, String::from_utf8(buf).unwrap())
        };

        let (code, text) = query(&["--ping"]);
        assert_eq!(code, 0, "{text}");
        assert_eq!(text.trim(), "pong");

        // Cold: the engine synthesizes; repeat: served from the index.
        let (code, text) = query(&["3_17"]);
        assert_eq!(code, 0, "{text}");
        // The daemon synthesizes with free output relabeling, so 3_17's
        // class minimum (5 gates) beats its identity-output depth (6).
        assert!(text.contains("3_17: 5 gates"), "{text}");
        assert!(text.contains("(engine in"), "{text}");
        assert!(text.contains(".begin"), "{text}");
        let (code, text) = query(&["3_17", "--name", "again"]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("(store in"), "{text}");

        let (code, text) = query(&["--stats"]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("engine invocations: 1"), "{text}");

        // Unknown targets fail client-side without touching the daemon.
        let (code, text) = query(&["no-such-bench"]);
        assert_eq!(code, 2, "{text}");

        let (code, text) = query(&["--shutdown"]);
        assert_eq!(code, 0, "{text}");
        assert_eq!(text.trim(), "daemon closing");
        assert_eq!(server.join().unwrap(), 0);
        let text = server_out.text();
        assert!(text.contains("listening on"), "{text}");
        assert!(text.contains("engine invocations: 1"), "{text}");
    }
}
