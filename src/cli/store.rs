//! `store verify|stats|compact`: offline inspection and maintenance of
//! a circuit database, and the one way every verb opens one.

use super::synth::FaultArming;
use super::{Args, Command, Outcome};
use crate::store::Store;
use std::io::Write;
use std::path::Path;

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

/// Parses `store verify|stats|compact <file> [--fault-seed N]`.
pub(super) fn parse(args: &mut Args) -> Result<Command, String> {
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
    let path = args.required("store: missing database file")?;
    let mut fault_seed = None;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--fault-seed" => fault_seed = Some(args.value(&flag)?),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(Command::Store {
        action,
        path,
        fault_seed,
    })
}

/// Opens the circuit database at `path` (a missing file opens empty).
pub(super) fn open(path: &str) -> Result<Store, String> {
    Store::open(Path::new(path)).map_err(|e| format!("{path}: {e}"))
}

/// Executes `qsyn store verify|stats|compact`. Exit codes are a contract
/// (the smoke and chaos harnesses branch on them): 0 = clean, 1 = a
/// record failed verification, 2 = missing (never created), unreadable
/// or unopenable file, 3 = records clean but an orphaned temp-compaction
/// file sits next to the log (advisory; `compact` consumes it, `verify`
/// never deletes anything).
pub(super) fn run(
    action: StoreAction,
    path: &str,
    fault_seed: Option<u64>,
    out: &mut dyn Write,
) -> Outcome {
    // The chaos sweep arms the plane to fire `store.compact` mid-verb;
    // the guard disarms on every exit path so in-process callers (tests)
    // are not poisoned.
    let _faults = FaultArming::arm(fault_seed)?;
    let file = Path::new(path);
    if !file.exists() && !crate::store::temp_compaction_path(file).exists() {
        return Err(format!("{path}: no such store").into());
    }
    let mut store = open(path)?;
    match action {
        StoreAction::Verify => {
            if let Err(e) = store.verify() {
                writeln!(out, "FAILED: {e}")?;
                return Ok(1);
            }
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
                    crate::store::temp_compaction_path(file).display()
                )?;
                return Ok(3);
            }
        }
        StoreAction::Compact => {
            let report = store.compact().map_err(|e| format!("{path}: {e}"))?;
            writeln!(
                out,
                "compacted: {} records, {} -> {} bytes ({} reclaimed)",
                report.records,
                report.bytes_before,
                report.bytes_after,
                report.reclaimed()
            )?;
        }
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
        }
    }
    Ok(0)
}
