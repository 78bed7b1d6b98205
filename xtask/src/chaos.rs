//! `cargo xtask chaos` — deterministic fault-injection sweep.
//!
//! Builds the release binary with `--features faults`, runs the **full
//! Table 1 suite** (`qsyn batch suite`) once fault-free as a reference,
//! then once per seed with the fault plane armed (`--fault-seed N`) and
//! supervised retries enabled (`--fast` restricts the sweep to the
//! sub-second [`FAST_SET`] jobs for local iteration). Every seeded run
//! must
//!
//! * exit 0 — each injected OOM / deadline trip / cancellation / panic
//!   was recovered by the retry supervisor (quarantined managers are
//!   audited and never re-issued inside the scheduler; a violated
//!   invariant panics the run under `--features faults`), and
//! * journal **bit-identical results**: every job's depth, solution
//!   count, output permutation and circuit digest must equal the
//!   fault-free run's record — recovery may cost retries, never answers.
//!
//! The journal (not stdout) is compared so recovery annotations and
//! wall-clock noise don't enter the verdict.
//!
//! Every run (reference and seeded) also populates a per-run circuit
//! database via `--store`, which puts the `store.append` injection site
//! in the armed runs' line of fire. After each seeded run the store must
//! pass `qsyn store verify` (checksums + digest/spec agreement) and its
//! `qsyn store stats` records must match the fault-free reference's — a
//! faulted append may cost a retry, never a corrupt or divergent store.
//!
//! Each verified seeded store is then **compacted with the same seed
//! armed** (`qsyn store compact --fault-seed N`), aiming the sweep at
//! the `store.compact` injection site: an injected compaction fault must
//! refuse cleanly (retryable, log untouched byte-for-byte) and the
//! fault-free retry must succeed; in every case the compacted store must
//! verify and carry exactly the reference's records.
//!
//! The sweep runs **two legs**. The first batches under the default
//! (BDD) engine over the requested target. The second always batches
//! the fast set under `--engine sat`, because the `sat.retain` site —
//! a deadline trip observed by the persistent solver's retention probe
//! between iterative-deepening depths — only sits on the SAT engine's
//! code path. Each leg gets its own fault-free reference; the
//! bit-identical bar is asserted within a leg (the engines agree on
//! minima but enumerate solution sets differently).

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

// The chaos harness reads only; the writer halves go unused here.
#[allow(dead_code)]
#[path = "../../crates/portfolio/src/json.rs"]
mod json;
#[allow(dead_code)]
#[path = "../../crates/store/src/log.rs"]
mod log;

/// `qsyn_portfolio::journal::MAGIC`, which xtask cannot import.
const JOURNAL_MAGIC: &[u8; 8] = b"QSYNJRN1";

/// The `--fast` subset: the Table 1 jobs that batch in under a second
/// each, for quick local sweeps. The default sweep covers the whole
/// suite — the permutation search prunes the `n!` probe space down to
/// conjugation classes with shared depth floors, which brought the 5-
/// and 6-line jobs from minutes-to-hours into CI range.
const FAST_SET: &[&str] = &[
    "3_17",
    "rd32-v0",
    "rd32-v1",
    "decod24-v0",
    "decod24-v1",
    "decod24-v2",
    "decod24-v3",
];

/// Sweep configuration (`--seeds`, `--timeout`, `--jobs`, `--fast`).
pub struct ChaosOptions {
    /// Fault seeds to sweep: `1..=seeds`.
    pub seeds: u64,
    /// Wall-clock limit per batch run; an overrun kills the child and
    /// fails the sweep (an injected fault must never hang recovery).
    pub timeout: Duration,
    /// `--jobs` forwarded to the batch scheduler.
    pub jobs: usize,
    /// Sweep only [`FAST_SET`] instead of the full Table 1 suite.
    pub fast: bool,
}

/// One journaled result, minus wall-clock time.
#[derive(Debug, PartialEq, Eq)]
struct ResultRecord {
    key: String,
    name: String,
    depth: u64,
    solutions: String,
    permutation: String,
    digest: String,
}

pub fn run(root: &Path, opts: &ChaosOptions) -> ExitCode {
    println!(
        "chaos: {} seeds over the {} Table 1 set, {}s per run, {} worker(s)",
        opts.seeds,
        if opts.fast { "fast" } else { "full" },
        opts.timeout.as_secs(),
        opts.jobs
    );
    println!("chaos: building release binary with --features faults");
    let built = Command::new("cargo")
        .current_dir(root)
        .args(["build", "--release", "-q", "--features", "faults"])
        .status();
    match built {
        Ok(s) if s.success() => {}
        Ok(s) => {
            eprintln!("chaos: build failed ({s})");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("chaos: cannot run cargo: {e}");
            return ExitCode::FAILURE;
        }
    }
    let qsyn = root.join("target/release/qsyn");
    let dir = std::env::temp_dir().join(format!("qsyn-chaos-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("chaos: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let fast_list = dir.join("table1-fast.list");
    if let Err(e) = std::fs::write(&fast_list, FAST_SET.join("\n")) {
        eprintln!("chaos: cannot write {}: {e}", fast_list.display());
        return ExitCode::FAILURE;
    }
    let fast_target = fast_list.to_string_lossy().into_owned();
    let target = if opts.fast {
        println!(
            "chaos: --fast — sweeping only the {} sub-second Table 1 jobs",
            FAST_SET.len()
        );
        fast_target.clone()
    } else {
        "suite".to_string()
    };

    // The SAT leg always sweeps the fast set: it exists to exercise the
    // engine-specific fault sites (`sat.retain`), not to re-cover the
    // suite, and the 5/6-line jobs are not CI-rangeable under SAT.
    let legs = [
        Leg {
            label: "bdd",
            target: target.as_str(),
            engine: None,
        },
        Leg {
            label: "sat",
            target: fast_target.as_str(),
            engine: Some("sat"),
        },
    ];

    let mut failures = 0usize;
    for leg in &legs {
        failures += sweep_leg(&qsyn, &dir, leg, opts);
    }
    let _ = std::fs::remove_dir_all(&dir);
    if failures == 0 {
        println!(
            "chaos: all {} seeds recovered bit-identically on both engine legs",
            opts.seeds
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("chaos: {failures} seeded runs failed");
        ExitCode::FAILURE
    }
}

/// One engine leg of the sweep: a batch configuration that gets its own
/// fault-free reference and seeded comparisons.
struct Leg<'a> {
    label: &'a str,
    target: &'a str,
    /// `--engine` override for every run in the leg; `None` batches
    /// under the binary's default (BDD) engine.
    engine: Option<&'a str>,
}

/// Runs one leg — reference plus all seeded runs — and returns how many
/// seeded runs failed (a failed reference fails every seed it would
/// have checked).
fn sweep_leg(qsyn: &Path, dir: &Path, leg: &Leg<'_>, opts: &ChaosOptions) -> usize {
    let label = leg.label;
    let reference_journal = dir.join(format!("{label}-reference.journal"));
    let reference_store = dir.join(format!("{label}-reference.store"));
    let reference = match batch_run(qsyn, leg, None, &reference_journal, &reference_store, opts) {
        Ok(run) => {
            println!(
                "chaos[{label}]: reference run ok — {} jobs in {:.1?}",
                run.records.len(),
                run.elapsed
            );
            run.records
        }
        Err(e) => {
            eprintln!("chaos[{label}]: fault-free reference run failed: {e}");
            return opts.seeds as usize;
        }
    };
    if reference.is_empty() {
        eprintln!("chaos[{label}]: reference journal is empty");
        return opts.seeds as usize;
    }
    let reference_db = match store_report(qsyn, &reference_store) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("chaos[{label}]: fault-free reference store failed verification: {e}");
            return opts.seeds as usize;
        }
    };

    let mut failures = 0usize;
    let mut reached = std::collections::BTreeSet::new();
    for seed in 1..=opts.seeds {
        let journal = dir.join(format!("{label}-seed-{seed}.journal"));
        let store = dir.join(format!("{label}-seed-{seed}.store"));
        match batch_run(qsyn, leg, Some(seed), &journal, &store, opts) {
            Ok(run) => {
                reached.extend(run.fired.iter().cloned());
                let verdict = compare(&reference, &run.records).and_then(|()| {
                    let db = store_report(qsyn, &store)
                        .map_err(|e| format!("store failed verification: {e}"))?;
                    if db != reference_db {
                        return Err(format!(
                            "store records diverged from reference:\n  reference: {reference_db:?}\n  seeded:    {db:?}"
                        ));
                    }
                    compact_check(qsyn, &store, &reference_db, seed)
                });
                match verdict {
                    Ok(()) => println!(
                        "chaos[{label}]: seed {seed} ok — {} in {:.1?} (faults recovered, results and store bit-identical)",
                        run.recovery, run.elapsed
                    ),
                    Err(diff) => {
                        eprintln!("chaos[{label}]: seed {seed} DIVERGED: {diff}");
                        failures += 1;
                    }
                }
            }
            Err(e) => {
                eprintln!("chaos[{label}]: seed {seed} FAILED: {e}");
                failures += 1;
            }
        }
    }
    let reached: Vec<String> = reached.into_iter().collect();
    println!(
        "chaos[{label}]: (site, kind) pairs the seeds fired in batch runs: {}",
        if reached.is_empty() {
            "none".to_string()
        } else {
            reached.join(", ")
        }
    );
    failures
}

/// Outcome of one `qsyn batch suite` child run.
struct BatchRun {
    records: Vec<ResultRecord>,
    /// The `N retries, M quarantined` tail of the session stats line.
    recovery: String,
    /// The `site kind` faults the run's `faults:` line reports fired.
    fired: Vec<String>,
    elapsed: Duration,
}

/// Runs one journaled batch (optionally fault-injected) under the
/// timeout, returning its parsed journal.
fn batch_run(
    qsyn: &Path,
    leg: &Leg<'_>,
    seed: Option<u64>,
    journal: &Path,
    store: &Path,
    opts: &ChaosOptions,
) -> Result<BatchRun, String> {
    let _ = std::fs::remove_file(journal);
    let _ = std::fs::remove_file(store);
    let mut cmd = Command::new(qsyn);
    cmd.arg("batch")
        .arg(leg.target)
        .arg("--journal")
        .arg(journal)
        .arg("--store")
        .arg(store)
        .args(["--jobs", &opts.jobs.to_string(), "--stats"]);
    if let Some(engine) = leg.engine {
        cmd.args(["--engine", engine]);
    }
    if let Some(seed) = seed {
        // Escalation-only retries: an engine ladder would change which
        // engine answers (and so the enumerated solution set), breaking
        // the bit-identical invariant this sweep asserts.
        cmd.args(["--fault-seed", &seed.to_string(), "--retries", "4"]);
    }
    cmd.stdout(Stdio::piped()).stderr(Stdio::piped());
    let started = Instant::now();
    let mut child = cmd.spawn().map_err(|e| format!("spawn: {e}"))?;
    let deadline = started + opts.timeout;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) => {
                if Instant::now() > deadline {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!(
                        "timed out after {}s (recovery must not hang)",
                        opts.timeout.as_secs()
                    ));
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => return Err(format!("wait: {e}")),
        }
    };
    let elapsed = started.elapsed();
    let output = child
        .wait_with_output()
        .map_err(|e| format!("collect output: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !status.success() {
        let stderr = String::from_utf8_lossy(&output.stderr);
        return Err(format!(
            "exit {status} — a job was not recovered\n--- stdout ---\n{stdout}\n--- stderr ---\n{stderr}"
        ));
    }
    // Pick the `N retries, M quarantined` fields out of the stats line
    // by name — the line grows optional trailing sections (perm search,
    // incremental SAT), so positional scraping would drift.
    let recovery = stdout
        .lines()
        .find(|l| l.starts_with("sessions: "))
        .and_then(|l| {
            let field = |suffix: &str| {
                l.split(", ")
                    .map(str::trim)
                    .find(|part| part.ends_with(suffix))
            };
            match (field(" retries"), field(" quarantined")) {
                (Some(r), Some(q)) => Some(format!("{r}, {q}")),
                _ => None,
            }
        })
        .unwrap_or_else(|| "no session stats".to_string());
    let fired = stdout
        .lines()
        .find_map(|l| l.strip_prefix("faults: "))
        .filter(|list| *list != "none fired")
        .map(|list| list.split(", ").map(str::to_string).collect())
        .unwrap_or_default();
    let records = parse_journal(journal)?;
    Ok(BatchRun {
        records,
        recovery,
        fired,
        elapsed,
    })
}

/// The compaction leg of a seeded check: compacts the seeded store with
/// the same fault seed armed, putting the `store.compact` site in the
/// line of fire. An injected fault must surface as a clean retryable
/// refusal that leaves the log byte-for-byte untouched; the retry (run
/// fault-free) must then succeed. Either way the compacted store must
/// still verify and carry exactly the reference's records.
fn compact_check(
    qsyn: &Path,
    store: &Path,
    reference_db: &[String],
    seed: u64,
) -> Result<(), String> {
    let before = std::fs::metadata(store)
        .map_err(|e| format!("stat store before compact: {e}"))?
        .len();
    let armed = Command::new(qsyn)
        .args(["store", "compact"])
        .arg(store)
        .args(["--fault-seed", &seed.to_string()])
        .output()
        .map_err(|e| format!("qsyn store compact: {e}"))?;
    if !armed.status.success() {
        let text = format!(
            "{}{}",
            String::from_utf8_lossy(&armed.stdout),
            String::from_utf8_lossy(&armed.stderr)
        );
        if !text.contains("injected") {
            return Err(format!(
                "armed compact failed for a non-injected reason: {text}"
            ));
        }
        let after = std::fs::metadata(store)
            .map_err(|e| format!("stat store after injected compact: {e}"))?
            .len();
        if after != before {
            return Err(format!(
                "injected compact fault changed the log: {before} -> {after} bytes"
            ));
        }
        let retry = Command::new(qsyn)
            .args(["store", "compact"])
            .arg(store)
            .output()
            .map_err(|e| format!("qsyn store compact retry: {e}"))?;
        if !retry.status.success() {
            return Err(format!(
                "compact retry after an injected fault exited {}",
                retry.status
            ));
        }
    }
    let db = store_report(qsyn, store)
        .map_err(|e| format!("store failed verification after compact: {e}"))?;
    if db != reference_db {
        return Err(format!(
            "compaction changed the record set:\n  reference: {reference_db:?}\n  compacted: {db:?}"
        ));
    }
    Ok(())
}

/// Asserts the seeded run's journal matches the reference record-for-record.
fn compare(reference: &[ResultRecord], seeded: &[ResultRecord]) -> Result<(), String> {
    if reference.len() != seeded.len() {
        return Err(format!(
            "{} jobs journaled, reference has {}",
            seeded.len(),
            reference.len()
        ));
    }
    for r in reference {
        let Some(s) = seeded.iter().find(|s| s.key == r.key) else {
            return Err(format!("job {} ({}) missing from journal", r.key, r.name));
        };
        if s != r {
            return Err(format!(
                "job {} differs:\n  reference: {r:?}\n  seeded:    {s:?}",
                r.name
            ));
        }
    }
    Ok(())
}

/// Verifies a run's circuit database and returns its normalized record
/// listing: the `records:` header plus one line per record, sorted.
///
/// Two normalizations make the listing comparable across runs with a
/// parallel scheduler: record order is dropped (insertion order is
/// worker completion order) and the record *name* column is dropped (the
/// name is whichever job of an equivalence class completed first). All
/// remaining fields — digest, line count, depth, solution count, quantum
/// cost, output permutation — are deterministic, because the cache
/// always hands the engine the class's canonical representative.
fn store_report(qsyn: &Path, store: &Path) -> Result<Vec<String>, String> {
    let run = |action: &str| -> Result<std::process::Output, String> {
        Command::new(qsyn)
            .args(["store", action])
            .arg(store)
            .output()
            .map_err(|e| format!("qsyn store {action}: {e}"))
    };
    let verify = run("verify")?;
    if !verify.status.success() {
        return Err(format!(
            "qsyn store verify exited {}: {}{}",
            verify.status,
            String::from_utf8_lossy(&verify.stdout),
            String::from_utf8_lossy(&verify.stderr)
        ));
    }
    let stats = run("stats")?;
    if !stats.status.success() {
        return Err(format!("qsyn store stats exited {}", stats.status));
    }
    let stdout = String::from_utf8_lossy(&stats.stdout);
    let mut header = None;
    let mut records = Vec::new();
    for line in stdout.lines() {
        if line.starts_with("records:") {
            header = Some(line.to_string());
        } else if line.starts_with("bytes:")
            || line.starts_with("torn tail")
            || line.starts_with("superseded:")
            || line.trim().is_empty()
        {
            // Byte totals vary with the stored names; torn tails are
            // covered by `verify` returning 0 truncated bytes on a
            // cleanly-closed file; superseded bytes vary with retry
            // interleaving and are reclaimed by the compaction check.
        } else {
            records.push(normalize_record_line(line));
        }
    }
    records.sort();
    let mut out = vec![header.ok_or("store stats printed no records header")?];
    out.append(&mut records);
    Ok(out)
}

/// Drops the name column (token 1) from a `store stats` record line.
fn normalize_record_line(line: &str) -> String {
    let mut tokens: Vec<&str> = line.split_whitespace().collect();
    if tokens.len() > 1 {
        tokens.remove(1);
    }
    tokens.join(" ")
}

/// Parses the result fields out of a batch journal. xtask stays free of
/// dependencies (it must build before, and lint, the workspace crates),
/// so it compiles the workspace's record log and JSON codec in by path.
fn parse_journal(path: &Path) -> Result<Vec<ResultRecord>, String> {
    log::read(path, JOURNAL_MAGIC, parse_record)
        .map_err(|e| format!("read {}: {e}", path.display()))
}

/// One journal payload's result fields; `None` when it is not one
/// well-formed record.
fn parse_record(payload: &[u8]) -> Option<ResultRecord> {
    let r = json::Object::parse(std::str::from_utf8(payload).ok()?).ok()?;
    let string = |key| r.str(key).map(str::to_string);
    Some(ResultRecord {
        key: string("key")?,
        name: string("name")?,
        depth: r.number("depth")?,
        solutions: string("solutions")?,
        permutation: string("permutation")?,
        digest: string("digest")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_payload_fields_parse() {
        let line = r#"{"key":"0:a:00ff","name":"a","depth":5,"solutions":"24","permutation":"[0, 1]","elapsed_ns":12,"digest":"beef"}"#;
        assert_eq!(
            parse_record(line.as_bytes()),
            Some(ResultRecord {
                key: "0:a:00ff".into(),
                name: "a".into(),
                depth: 5,
                solutions: "24".into(),
                permutation: "[0, 1]".into(),
                digest: "beef".into(),
            })
        );
        assert_eq!(
            parse_record(line.replace(r#""digest":"beef""#, r#""x":1"#).as_bytes()),
            None
        );
        assert_eq!(parse_record(&line.as_bytes()[..line.len() / 2]), None);
    }

    #[test]
    fn journals_are_read_through_the_record_log() {
        let text = r#"{"key":"0:a:00ff","name":"a","depth":5,"solutions":"24","permutation":"[0, 1]","elapsed_ns":12,"digest":"beef"}"#;
        let mut bytes = JOURNAL_MAGIC.to_vec();
        log::frame(&mut bytes, text.as_bytes());
        log::frame(&mut bytes, text.replace("0:a", "1:a").as_bytes());
        let path = std::env::temp_dir().join(format!("qsyn-chaos-journal-{}", std::process::id()));
        // A torn third frame is where the journal ends, not an error.
        let mut torn = bytes.clone();
        torn.extend_from_slice(&[7, 0]);
        std::fs::write(&path, &torn).unwrap();
        let records = parse_journal(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].key, "1:a:00ff");
        std::fs::write(&path, format!("{text}\n")).unwrap();
        assert!(parse_journal(&path).unwrap_err().contains("bad magic"));
        std::fs::remove_file(&path).unwrap();
        // The copy of the magic matches the journal's own.
        let journal = include_str!("../../crates/portfolio/src/journal.rs");
        let magic = String::from_utf8_lossy(JOURNAL_MAGIC);
        assert!(journal.contains(&format!("pub const MAGIC: &[u8; 8] = b\"{magic}\";")));
    }

    #[test]
    fn record_line_normalization_drops_the_name_column() {
        let a = "00c0ffee00c0ffee 3_17         3 lines, 5 gates, 3 solutions, quantum cost 13, permutation [0, 1, 2]";
        let b = "00c0ffee00c0ffee 3_17-twin    3 lines, 5 gates, 3 solutions, quantum cost 13, permutation [0, 1, 2]";
        assert_eq!(normalize_record_line(a), normalize_record_line(b));
        assert!(normalize_record_line(a).starts_with("00c0ffee00c0ffee 3 lines,"));
        assert!(normalize_record_line(a).ends_with("permutation [0, 1, 2]"));
    }

    #[test]
    fn compare_flags_divergence_and_missing_jobs() {
        let rec = |digest: &str| ResultRecord {
            key: "0:a:00".into(),
            name: "a".into(),
            depth: 3,
            solutions: "2".into(),
            permutation: "[0]".into(),
            digest: digest.into(),
        };
        assert!(compare(&[rec("x")], &[rec("x")]).is_ok());
        assert!(compare(&[rec("x")], &[rec("y")])
            .unwrap_err()
            .contains("differs"));
        assert!(compare(&[rec("x")], &[]).unwrap_err().contains("jobs"));
    }
}
