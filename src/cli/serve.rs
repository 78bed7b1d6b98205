//! `serve`: the synthesis daemon on a TCP address.

use super::batch::batch_jobs;
use super::synth::refuse;
use super::{store, Args, Command, EngineChoice, Outcome, SynthConfig};
use crate::serve::{install_drain_signals, serve_tcp, ServeConfig, ServeCore};
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

/// The daemon runs one engine per request.
const NO_RACE: &str = "serve: --engine race is not supported; pick one engine";

/// Parses `serve <addr> [OPTIONS]`.
pub(super) fn parse(args: &mut Args) -> Result<Command, String> {
    let addr = args.required("serve: missing bind address")?;
    let mut config = SynthConfig::default();
    let mut store = None;
    let mut preload = None;
    let mut jobs = 2;
    let mut queue = 64;
    let mut preload_permute = false;
    let mut read_timeout = 30;
    let mut max_connections = 64;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--preload-permute" => preload_permute = true,
            "--read-timeout" => read_timeout = args.value(&flag)?,
            "--max-connections" => max_connections = args.positive(&flag)?,
            "--store" => store = Some(args.value(&flag)?),
            "--preload" => preload = Some(args.value(&flag)?),
            "--jobs" => jobs = args.positive(&flag)?,
            "--queue" => queue = args.positive(&flag)?,
            _ => config.apply_flag(&flag, args)?,
        }
    }
    if config.engine == EngineChoice::Race {
        return Err(NO_RACE.to_string());
    }
    refuse(
        "serve",
        &[
            (config.all, "--all"),
            (config.output.is_some(), "-o"),
            (config.heuristic, "--heuristic"),
            (config.retries != 0, "--retries"),
            (!config.ladder.is_empty(), "--ladder"),
            (config.fault_seed.is_some(), "--fault-seed"),
        ],
    )?;
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

/// The daemon configuration for `serve`'s flags.
pub(super) fn daemon_config(
    jobs: usize,
    queue: usize,
    read_timeout: u64,
    max_connections: usize,
    config: &SynthConfig,
) -> Result<ServeConfig, String> {
    let library = config.gate_library()?;
    let EngineChoice::Single(engine) = config.engine else {
        return Err(NO_RACE.to_string());
    };
    // `--read-timeout 0` disables both socket timeouts (trusted-network
    // operation); any other value bounds reads and writes alike.
    let socket_timeout = (read_timeout > 0).then(|| Duration::from_secs(read_timeout));
    Ok(ServeConfig {
        workers: jobs,
        queue_capacity: queue,
        library,
        engine,
        max_depth: config.max_depth,
        time_budget: config.timeout.map(Duration::from_secs),
        read_timeout: socket_timeout,
        write_timeout: socket_timeout,
        max_connections,
    })
}

/// Executes `qsyn serve`: opens the database, boots the daemon core
/// (optionally warm-started via `--preload`), prints the bound address
/// and serves the line protocol until a `shutdown` verb arrives.
pub(super) fn run(
    addr: &str,
    store_path: Option<&str>,
    preload: Option<&str>,
    daemon: &ServeConfig,
    stats: bool,
    out: &mut dyn Write,
) -> Outcome {
    // Any gate library may attach a persistent store: records are keyed
    // by (canonical spec, config tag), so this daemon only ever replays
    // minima computed under its own configuration.
    let store = match store_path {
        Some(path) => {
            let s = store::open(path)?;
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
        None => None,
    };
    let core = Arc::new(ServeCore::start(daemon, store));
    if let Some(target) = preload {
        let (served, failed) = core.preload(&batch_jobs(target)?);
        writeln!(out, "preloaded {served} jobs ({failed} failed)")?;
    }
    let listener = std::net::TcpListener::bind(addr).map_err(|e| format!("{addr}: {e}"))?;
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
    if stats {
        writeln!(out, "{snapshot}")?;
    }
    Ok(0)
}
