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
//! [`Command::parse`]. Each verb lives in its own module and returns its
//! exit code or a failure; [`run`] is the one place a failure becomes
//! `error: …` and exit code 2.

mod args;
mod audit;
mod batch;
mod circuit;
mod query;
mod serve;
mod store;
mod synth;

pub use query::QueryAction;
pub use store::StoreAction;
pub use synth::{EngineChoice, Source, SynthConfig};

use crate::revlogic::benchmarks;
use args::Args;
use std::io::Write;

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
        /// Append each completed job to this fsync'd journal
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
        /// `--preload-permute`: accepted for compatibility and ignored;
        /// preload fills always run the output-permutation search.
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
                                       1 a record failed, 2 missing or bad file,
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
                             record log), enabling crash-safe resume
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
  of the search (and the sharing) entirely. `batch` does not take
  --heuristic, --all, -o or --output-permutation.

OPTIONS (serve only):
  --store FILE               persistent circuit database (crash-safe,
                             append-only; reopened state is served as hits)
  --preload <suite|dir|list> warm the cache before accepting connections
                             (batch target grammar); preload fills run the
                             output-permutation search requests run, so
                             every stored depth is class-minimal
  --preload-permute          accepted for compatibility; does nothing
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
        let mut args = Args::new(args);
        let Some(sub) = args.next() else {
            return Ok(Command::Help);
        };
        match sub.as_str() {
            "help" | "-h" | "--help" => Ok(Command::Help),
            "list" => Ok(Command::List),
            "simulate" | "cost" | "check" | "spec" => circuit::parse(&sub, &mut args),
            "audit" => audit::parse(&mut args),
            "synth" | "bench" => synth::parse(&sub, &mut args),
            "batch" => batch::parse(&mut args),
            "serve" => serve::parse(&mut args),
            "query" => query::parse(&mut args),
            "store" => store::parse(&mut args),
            other => Err(format!("unknown command `{other}` (try `qsyn help`)")),
        }
    }
}

/// Why a verb stopped without an exit code of its own.
enum Failure {
    /// A problem with the input or the environment: reported as
    /// `error: <message>`, exit code 2.
    Message(String),
    /// Writing to the output failed; [`run`] returns it as its `Err`.
    Io(std::io::Error),
}

impl From<String> for Failure {
    fn from(message: String) -> Failure {
        Failure::Message(message)
    }
}

impl From<&str> for Failure {
    fn from(message: &str) -> Failure {
        Failure::Message(message.to_string())
    }
}

impl From<std::io::Error> for Failure {
    fn from(e: std::io::Error) -> Failure {
        Failure::Io(e)
    }
}

/// What a verb returns: its exit code, or why it stopped.
type Outcome = Result<i32, Failure>;

/// Executes a parsed command, writing human-readable output to `out`.
/// Returns the process exit code.
///
/// # Errors
///
/// I/O failures on `out` are surfaced as `Err`.
pub fn run(cmd: &Command, out: &mut dyn Write) -> std::io::Result<i32> {
    match dispatch(cmd, out) {
        Ok(code) => Ok(code),
        Err(Failure::Message(message)) => {
            writeln!(out, "error: {message}")?;
            Ok(2)
        }
        Err(Failure::Io(e)) => Err(e),
    }
}

/// Runs the verb `cmd` names.
fn dispatch(cmd: &Command, out: &mut dyn Write) -> Outcome {
    match cmd {
        Command::Help => {
            write!(out, "{USAGE}")?;
            Ok(0)
        }
        Command::List => list(out),
        Command::Simulate { path, input } => circuit::simulate(path, input, out),
        Command::Cost { path } => circuit::cost(path, out),
        Command::Check { a, b } => circuit::check(a, b, out),
        Command::SpecOf { path } => circuit::spec(path, out),
        Command::Audit { paths, self_test } => audit::run(paths, *self_test, out),
        Command::Synth { source, config } => synth::run(source, config, out),
        Command::Batch {
            target,
            jobs,
            journal,
            resume,
            store,
            no_permute,
            config,
        } => batch::run(
            target,
            *jobs,
            journal.as_deref().map(|path| (path, *resume)),
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
            preload_permute: _,
            read_timeout,
            max_connections,
            config,
        } => {
            let daemon =
                serve::daemon_config(*jobs, *queue, *read_timeout, *max_connections, config)?;
            let (store, preload) = (store.as_deref(), preload.as_deref());
            serve::run(addr, store, preload, &daemon, config.stats, out)
        }
        Command::Query {
            addr,
            action,
            retries,
            retry_budget,
        } => query::run(addr, action, *retries, *retry_budget, out),
        Command::Store {
            action,
            path,
            fault_seed,
        } => store::run(*action, path, *fault_seed, out),
    }
}

/// `qsyn list`: one line per built-in benchmark.
fn list(out: &mut dyn Write) -> Outcome {
    for b in benchmarks::suite() {
        let kind = match b.kind {
            benchmarks::BenchmarkKind::Complete => "completely specified",
            benchmarks::BenchmarkKind::Incomplete => "incompletely specified",
        };
        writeln!(out, "{:<12} {} lines, {kind}", b.name, b.spec.lines())?;
    }
    Ok(0)
}

#[cfg(test)]
mod tests;
