//! Repo-specific lint pass.
//!
//! Clippy covers general Rust hygiene; these rules encode *workspace
//! policy* that no off-the-shelf lint expresses:
//!
//! * **no-unwrap** — bare `.unwrap()` is banned in non-test library code.
//!   Synthesis runs for minutes; an `unwrap` turns a recoverable condition
//!   into a lost run. Use `?`, a typed error, or `.expect("reason")` where
//!   the invariant is real (and then the expect budget below applies).
//! * **no-expect** — `.expect(` is rationed by a per-file *ratchet
//!   baseline* (`xtask/lint-baseline.txt`): existing uses are grandfathered,
//!   new ones fail the build. Regenerate with `--update-baseline` after
//!   removing uses to ratchet the budget down.
//! * **relaxed-ordering** — `Ordering::Relaxed` is allowed only in the
//!   files listed in `xtask/relaxed-allowlist.txt` (pure statistics
//!   counters where staleness is harmless); everywhere else
//!   Acquire/Release/SeqCst must be chosen deliberately.
//! * **no-process-exit** — `process::exit` skips destructors (worker-pool
//!   joins, cache flushes) and is allowed only in `bin/` targets and
//!   xtask itself.
//! * **no-catch-unwind** — panic isolation is the one supervisor's job
//!   (`qsyn_portfolio::scheduler`): it pairs `catch_unwind` with
//!   panic-context capture, manager quarantine and the retry policy, and
//!   every other caller contains panics through it. A `catch_unwind`
//!   anywhere else silently swallows a broken invariant. Files with a
//!   legitimate supervisor role are listed in
//!   `xtask/catch-unwind-allowlist.txt`.
//!
//! A finding on a line ending with `// lint: allow(<rule>)` is waived.
//! Test code is exempt: `#[cfg(test)]` regions (tracked by brace
//! matching), `*_tests.rs` / `tests.rs` files (included only under
//! `#[cfg(test)]` by convention here), and anything under `tests/`.
//! The scanner masks comments and string literals before matching (see
//! the shared `lexer` module, also used by `concheck`), so prose
//! mentioning `.unwrap()` does not count.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use crate::lexer::{
    cfg_test_lines, collect_rs_files, is_bin_file, is_test_file, load_allowlist,
    mask_comments_and_strings, SCAN_ROOTS,
};

const BASELINE_FILE: &str = "xtask/lint-baseline.txt";

/// Files permitted to call `std::panic::catch_unwind`, one per line.
const CATCH_UNWIND_ALLOWLIST_FILE: &str = "xtask/catch-unwind-allowlist.txt";

/// Files in which `Ordering::Relaxed` is permitted, one per line with a
/// written justification (pure statistics counters where staleness is
/// harmless).
const RELAXED_ALLOWLIST_FILE: &str = "xtask/relaxed-allowlist.txt";

/// Runs the lint pass over `root`; with `update_baseline`, rewrites the
/// expect baseline to the current counts instead of checking against it.
pub fn run(root: &Path, update_baseline: bool) -> ExitCode {
    let mut files = Vec::new();
    for scan in SCAN_ROOTS {
        collect_rs_files(&root.join(scan), &mut files);
    }
    files.sort();

    let unwind_allow = match load_allowlist(&root.join(CATCH_UNWIND_ALLOWLIST_FILE)) {
        Ok(list) => list,
        Err(e) => {
            eprintln!("lint: cannot read {CATCH_UNWIND_ALLOWLIST_FILE}: {e}");
            return ExitCode::from(2);
        }
    };
    let relaxed_allow = match load_allowlist(&root.join(RELAXED_ALLOWLIST_FILE)) {
        Ok(list) => list,
        Err(e) => {
            eprintln!("lint: cannot read {RELAXED_ALLOWLIST_FILE}: {e}");
            return ExitCode::from(2);
        }
    };

    let mut findings = Vec::new();
    let mut expect_counts: BTreeMap<String, usize> = BTreeMap::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let source = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("lint: cannot read {rel}: {e}");
                return ExitCode::from(2);
            }
        };
        let expects = scan_file(&rel, &source, &unwind_allow, &relaxed_allow, &mut findings);
        if expects > 0 {
            expect_counts.insert(rel, expects);
        }
    }

    if update_baseline {
        let mut out = String::from(
            "# Per-file budget of `.expect(` calls in non-test library code.\n\
             # Regenerate with: cargo xtask lint --update-baseline\n",
        );
        for (file, count) in &expect_counts {
            let _ = writeln!(out, "{count} {file}");
        }
        if let Err(e) = std::fs::write(root.join(BASELINE_FILE), out) {
            eprintln!("lint: cannot write {BASELINE_FILE}: {e}");
            return ExitCode::from(2);
        }
        println!(
            "lint: baseline updated ({} files, {} expects)",
            expect_counts.len(),
            expect_counts.values().sum::<usize>()
        );
        return ExitCode::SUCCESS;
    }

    let baseline = match load_baseline(&root.join(BASELINE_FILE)) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("lint: cannot read {BASELINE_FILE}: {e} (run with --update-baseline)");
            return ExitCode::from(2);
        }
    };
    let mut failed = false;
    for (file, &count) in &expect_counts {
        let budget = baseline.get(file).copied().unwrap_or(0);
        if count > budget {
            eprintln!(
                "lint[no-expect]: {file} has {count} .expect() calls, budget is {budget} — \
                 use typed errors, or ratchet with --update-baseline if each is justified"
            );
            failed = true;
        } else if count < budget {
            println!(
                "lint: {file} is under its expect budget ({count} < {budget}); \
                 run --update-baseline to ratchet down"
            );
        }
    }
    for stale in baseline.keys().filter(|f| !expect_counts.contains_key(*f)) {
        println!("lint: baseline entry for {stale} is stale; run --update-baseline");
    }

    for f in &findings {
        eprintln!("{f}");
        failed = true;
    }

    if failed {
        ExitCode::FAILURE
    } else {
        println!(
            "lint: {} files clean ({} grandfathered expects)",
            files.len(),
            expect_counts.values().sum::<usize>()
        );
        ExitCode::SUCCESS
    }
}

fn load_baseline(path: &Path) -> Result<BTreeMap<String, usize>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let mut map = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (count, file) = line
            .split_once(' ')
            .ok_or_else(|| format!("malformed baseline line: {line}"))?;
        let count: usize = count
            .parse()
            .map_err(|_| format!("malformed baseline count: {line}"))?;
        map.insert(file.to_string(), count);
    }
    Ok(map)
}

/// One rule violation, formatted `lint[rule]: file:line: message`.
struct Finding {
    rule: &'static str,
    file: String,
    line: usize,
    message: &'static str,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "lint[{}]: {}:{}: {}",
            self.rule, self.file, self.line, self.message
        )
    }
}

/// Scans one file, pushing findings; returns the number of counted
/// (non-test, non-waived) `.expect(` uses for the ratchet baseline.
fn scan_file(
    rel: &str,
    source: &str,
    unwind_allow: &[String],
    relaxed_allow: &[String],
    out: &mut Vec<Finding>,
) -> usize {
    if is_test_file(rel) || is_bin_file(rel) {
        return 0;
    }
    let masked = mask_comments_and_strings(source);
    let test_lines = cfg_test_lines(&masked);
    let raw_lines: Vec<&str> = source.lines().collect();
    let mut expects = 0;

    for (i, line) in masked.lines().enumerate() {
        if test_lines.get(i).copied().unwrap_or(false) {
            continue;
        }
        let raw = raw_lines.get(i).copied().unwrap_or("");
        let waived = |rule: &str| raw.contains(&format!("lint: allow({rule})"));
        let lineno = i + 1;

        if line.contains(".unwrap()") && !waived("no-unwrap") {
            out.push(Finding {
                rule: "no-unwrap",
                file: rel.to_string(),
                line: lineno,
                message: "bare .unwrap() in library code — use ?, a typed error, or .expect()",
            });
        }
        if !waived("no-expect") {
            expects += line.matches(".expect(").count();
        }
        if line.contains("Ordering::Relaxed")
            && !relaxed_allow.iter().any(|f| f == rel)
            && !waived("relaxed-ordering")
        {
            out.push(Finding {
                rule: "relaxed-ordering",
                file: rel.to_string(),
                line: lineno,
                message: "Ordering::Relaxed outside xtask/relaxed-allowlist.txt — justify \
                          Acquire/Release/SeqCst, or allowlist the file with a justification",
            });
        }
        if line.contains("process::exit") && !waived("no-process-exit") {
            out.push(Finding {
                rule: "no-process-exit",
                file: rel.to_string(),
                line: lineno,
                message: "process::exit skips destructors — return ExitCode from main instead",
            });
        }
        if line.contains("catch_unwind")
            && !unwind_allow.iter().any(|f| f == rel)
            && !waived("no-catch-unwind")
        {
            out.push(Finding {
                rule: "no-catch-unwind",
                file: rel.to_string(),
                line: lineno,
                message: "catch_unwind outside the designated supervisors swallows broken \
                          invariants — contain panics through qsyn_portfolio::contain, or add the file \
                          to xtask/catch-unwind-allowlist.txt with a justification",
            });
        }
    }
    expects
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(rel: &str, src: &str, findings: &mut Vec<Finding>) -> usize {
        scan_file(rel, src, &[], &[], findings)
    }

    #[test]
    fn unwrap_in_test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        let mut findings = Vec::new();
        scan("crates/foo/src/lib.rs", src, &mut findings);
        assert!(findings.is_empty());
    }

    #[test]
    fn unwrap_in_library_code_is_flagged() {
        let src = "fn f() { x.unwrap(); }\n";
        let mut findings = Vec::new();
        scan("crates/foo/src/lib.rs", src, &mut findings);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "no-unwrap");
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn expect_is_counted_not_flagged() {
        let src = "fn f() { x.expect(\"reason\"); y.expect(\"other\"); }\n";
        let mut findings = Vec::new();
        let expects = scan("crates/foo/src/lib.rs", src, &mut findings);
        assert!(findings.is_empty());
        assert_eq!(expects, 2);
    }

    #[test]
    fn relaxed_ordering_respects_allowlist() {
        let src = "fn f() { c.load(Ordering::Relaxed); }\n";
        let allow = vec!["crates/portfolio/src/cache.rs".to_string()];
        let mut findings = Vec::new();
        scan_file(
            "crates/portfolio/src/cache.rs",
            src,
            &[],
            &allow,
            &mut findings,
        );
        assert!(findings.is_empty(), "allowlisted file");
        scan_file("crates/bdd/src/manager.rs", src, &[], &allow, &mut findings);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "relaxed-ordering");
    }

    #[test]
    fn process_exit_allowed_in_bin_only() {
        let src = "fn f() { std::process::exit(1); }\n";
        let mut findings = Vec::new();
        scan("crates/bench/src/bin/probe.rs", src, &mut findings);
        assert!(findings.is_empty(), "bin target");
        scan("crates/bench/src/lib.rs", src, &mut findings);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "no-process-exit");
    }

    #[test]
    fn catch_unwind_respects_the_allowlist() {
        let src = "fn f() { let _ = std::panic::catch_unwind(|| {}); }\n";
        let allow = vec!["crates/portfolio/src/scheduler.rs".to_string()];
        let mut findings = Vec::new();
        scan_file(
            "crates/portfolio/src/scheduler.rs",
            src,
            &allow,
            &[],
            &mut findings,
        );
        assert!(findings.is_empty(), "allowlisted supervisor");
        scan_file("crates/core/src/driver.rs", src, &allow, &[], &mut findings);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "no-catch-unwind");
    }

    #[test]
    fn inline_waiver_suppresses_a_finding() {
        let src = "fn f() { x.unwrap(); } // lint: allow(no-unwrap)\n";
        let mut findings = Vec::new();
        scan("crates/foo/src/lib.rs", src, &mut findings);
        assert!(findings.is_empty());
        // The waiver is rule-specific.
        let src2 = "fn f() { x.unwrap(); } // lint: allow(no-expect)\n";
        scan("crates/foo/src/lib.rs", src2, &mut findings);
        assert_eq!(findings.len(), 1);
    }

    #[test]
    fn test_files_are_exempt_wholesale() {
        let src = "fn helper() { x.unwrap(); }\n";
        let mut findings = Vec::new();
        assert_eq!(
            scan("crates/bdd/src/oracle_tests.rs", src, &mut findings),
            0
        );
        assert_eq!(scan("crates/foo/src/tests.rs", src, &mut findings), 0);
        assert!(findings.is_empty());
    }

    #[test]
    fn doc_comment_mentions_do_not_count() {
        let src = "/// Call `.unwrap()` and `process::exit` with care.\nfn f() {}\n";
        let mut findings = Vec::new();
        scan("crates/foo/src/lib.rs", src, &mut findings);
        assert!(findings.is_empty());
    }

    #[test]
    fn baseline_roundtrip() {
        let dir = std::env::temp_dir().join("qsyn-lint-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("baseline.txt");
        std::fs::write(&path, "# comment\n3 crates/a/src/lib.rs\n1 src/cli.rs\n")
            .expect("write baseline");
        let map = load_baseline(&path).expect("parse");
        assert_eq!(map.get("crates/a/src/lib.rs"), Some(&3));
        assert_eq!(map.get("src/cli.rs"), Some(&1));
        assert_eq!(map.len(), 2);
    }
}
