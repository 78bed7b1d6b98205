//! `query`: the one-shot client for a running daemon.

use super::batch::stem;
use super::{Args, Command, Outcome};
use crate::revlogic::{benchmarks, spec_format};
use crate::serve::{protocol, roundtrip_with_retry, RetryOutcome, RetryPolicy};
use std::io::Write;
use std::path::Path;
use std::time::Duration;

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

/// Parses `query <addr> <bench|file.spec> [--name N]` and
/// `query <addr> --stats|--ping|--shutdown`, each with the backoff knobs.
pub(super) fn parse(args: &mut Args) -> Result<Command, String> {
    let addr = args.required("query: missing daemon address")?;
    let mut target = None;
    let mut name = None;
    let mut verb = None;
    let mut retries = 4u32;
    let mut retry_budget = 30u64;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--stats" => verb = Some(QueryAction::Stats),
            "--ping" => verb = Some(QueryAction::Ping),
            "--shutdown" => verb = Some(QueryAction::Shutdown),
            "--name" => name = Some(args.value(&arg)?),
            "--retries" => retries = args.value(&arg)?,
            "--retry-budget" => retry_budget = args.value(&arg)?,
            flag if flag.starts_with('-') => return Err(format!("unknown option `{flag}`")),
            _ if target.is_none() => target = Some(arg),
            _ => return Err(format!("unexpected argument `{arg}`")),
        }
    }
    let action = match (target, verb) {
        (Some(target), None) => QueryAction::Synth { target, name },
        (None, Some(_)) if name.is_some() => {
            return Err("--name only applies to synthesis queries".to_string())
        }
        (None, Some(v)) => v,
        (Some(_), Some(_)) => {
            return Err("query takes a target or --stats/--ping/--shutdown, not both".to_string())
        }
        (None, None) => {
            return Err(
                "query: nothing to ask (give a target or --stats/--ping/--shutdown)".to_string(),
            )
        }
    };
    Ok(Command::Query {
        addr,
        action,
        retries,
        retry_budget,
    })
}

/// Executes `qsyn query`: one request line to a running daemon, one
/// reply rendered for humans. Exit 0 on a served answer, 2 on daemon
/// errors or connection failures. Retryable replies (admission-control
/// bounces, the connection-cap refusal) and connect failures are retried
/// on a capped, jittered backoff schedule before the verdict is
/// rendered.
pub(super) fn run(
    addr: &str,
    action: &QueryAction,
    retries: u32,
    retry_budget: u64,
    out: &mut dyn Write,
) -> Outcome {
    // The jitter seed is per-process so synchronized clients decorrelate
    // their retry herds; everything else about the schedule is fixed.
    let policy = RetryPolicy {
        retries,
        budget: Duration::from_secs(retry_budget),
        seed: u64::from(std::process::id()),
        ..RetryPolicy::default()
    };
    let ask =
        |line: &str| roundtrip_with_retry(addr, line, &policy).map_err(|e| format!("{addr}: {e}"));
    let unexpected = |reply: &str| format!("unexpected reply: {reply}");
    let (verb, want, say) = match action {
        QueryAction::Ping => ("ping", protocol::render_pong(), "pong"),
        QueryAction::Shutdown => ("shutdown", protocol::render_closing(), "daemon closing"),
        QueryAction::Stats => {
            let reply = ask(&protocol::render_verb_request("stats"))?.reply;
            let stats = protocol::parse_stats(&reply).ok_or_else(|| unexpected(&reply))?;
            writeln!(out, "{stats}")?;
            return Ok(0);
        }
        QueryAction::Synth { target, name } => return synth(target, name.as_deref(), &ask, out),
    };
    let reply = ask(&protocol::render_verb_request(verb))?.reply;
    if reply != want {
        return Err(unexpected(&reply).into());
    }
    writeln!(out, "{say}")?;
    Ok(0)
}

/// Asks the daemon to synthesize `target`. A benchmark name is sent by
/// name (the daemon owns the suite); anything else must be a readable
/// `.spec` file, validated locally so malformed input fails before the
/// wire.
fn synth(
    target: &str,
    name: Option<&str>,
    ask: &dyn Fn(&str) -> Result<RetryOutcome, String>,
    out: &mut dyn Write,
) -> Outcome {
    let (spec_text, bench, default_name) = if benchmarks::by_name(target).is_some() {
        (None, Some(target), target.to_string())
    } else {
        let text = std::fs::read_to_string(target).map_err(|e| {
            format!("`{target}` is neither a benchmark name nor a readable spec file ({e})")
        })?;
        spec_format::parse_spec(&text).map_err(|e| format!("{target}: {e}"))?;
        (Some(text), None, stem(Path::new(target)))
    };
    let label = name.map_or(default_name, str::to_string);
    let line = protocol::render_synth_request(Some(&label), spec_text.as_deref(), bench);
    let RetryOutcome { reply, retries } = ask(&line)?;
    if retries > 0 {
        writeln!(out, "answered after {retries} retries")?;
    }
    if let Some(r) = protocol::parse_synth_reply(&reply) {
        writeln!(
            out,
            "{}: {} gates, {} solutions, quantum cost {}, permutation {:?} ({} in {}µs)",
            r.name, r.depth, r.solutions, r.quantum_cost, r.permutation, r.source, r.elapsed_us
        )?;
        write!(out, "{}", r.circuit)?;
        return Ok(0);
    }
    let (message, retryable) =
        protocol::parse_error(&reply).ok_or_else(|| format!("unexpected reply: {reply}"))?;
    let suffix = if retryable { " (retryable)" } else { "" };
    Err(format!("{message}{suffix}").into())
}
