//! `audit`: the invariant auditors over `.real` / `.cnf` / `.qdimacs`
//! files, and the auditors' own self-test.

use super::{Args, Command, Outcome};
use crate::audit::AuditError;
use crate::revlogic::real;
use std::io::Write;

/// Parses `audit [files…] [--self-test]`.
pub(super) fn parse(args: &mut Args) -> Result<Command, String> {
    let mut paths = Vec::new();
    let mut self_test = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--self-test" => self_test = true,
            flag if flag.starts_with('-') => return Err(format!("unknown option `{flag}`")),
            _ => paths.push(arg),
        }
    }
    if paths.is_empty() && !self_test {
        return Err("audit: nothing to do (give files or --self-test)".to_string());
    }
    Ok(Command::Audit { paths, self_test })
}

/// Runs a parse-and-audit closure, converting both parse errors and
/// parser panics into a message. The gate and quantifier-prefix
/// constructors assert their invariants (`target cannot be a control`,
/// `variable already quantified`), so a corrupt file must not unwind out
/// of the CLI with exit 101 — it is an input problem, exit 2.
fn parse_guarded<F>(f: F) -> Result<Result<(), AuditError>, String>
where
    F: FnOnce() -> Result<Result<(), AuditError>, String> + std::panic::UnwindSafe,
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
pub(super) fn run(paths: &[String], self_test: bool, out: &mut dyn Write) -> Outcome {
    let mut code = 0;
    if self_test {
        let report = crate::audit::self_test().map_err(|msg| format!("self-test failed: {msg}"))?;
        writeln!(out, "self-test: {report}")?;
    }
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
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
                return Err(format!(
                    "{path}: unsupported extension `{other}` (want .real/.cnf/.qdimacs)"
                )
                .into())
            }
        };
        match outcome.map_err(|msg| format!("{path}: {msg}"))? {
            Ok(()) => writeln!(out, "{path}: ok")?,
            Err(e) => {
                code = 1;
                writeln!(out, "{path}: {e}")?;
            }
        }
    }
    Ok(code)
}
