//! `batch`: many specifications on the portfolio's worker pool, with an
//! optional crash-safe journal and persistent circuit store.

use super::synth::{apply_attempt, ladder_note, refuse, synthesize, FaultArming};
use super::{store, Args, Command, Outcome, SynthConfig};
use crate::portfolio::cache::{SpecCache, StoreIssue};
use crate::portfolio::journal::{job_key, open_journal, render_record, JournalRecord};
use crate::portfolio::scheduler::{run_batch, BatchConfig, JobStatus};
use crate::revlogic::{benchmarks, real, spec_format, Spec};
use crate::store::Fnv1a;
use crate::synth::permuted::PermutedSynthesisResult;
use crate::synth::{Attempt, CancelToken, SynthesisError, SynthesisSession};
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Parses `batch <suite|dir|list> [OPTIONS]`.
pub(super) fn parse(args: &mut Args) -> Result<Command, String> {
    let target = args.required("batch: missing target")?;
    let mut config = SynthConfig::default();
    let mut jobs = 1;
    let mut journal = None;
    let mut resume = false;
    let mut store = None;
    let mut no_permute = false;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--no-permute" => no_permute = true,
            "--jobs" => jobs = args.positive(&flag)?,
            "--journal" => journal = Some(args.value(&flag)?),
            "--resume" => resume = true,
            "--store" => store = Some(args.value(&flag)?),
            _ => config.apply_flag(&flag, args)?,
        }
    }
    refuse(
        "batch",
        &[
            (config.heuristic, "--heuristic"),
            (config.output.is_some(), "-o"),
            (config.all, "--all"),
            (config.output_permutation, "--output-permutation"),
        ],
    )?;
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

/// Resolves a `batch` target into named specifications, in a stable order.
pub(super) fn batch_jobs(target: &str) -> Result<Vec<(String, Spec)>, String> {
    if target == "suite" {
        return Ok(benchmarks::suite()
            .into_iter()
            .map(|b| (b.name.to_string(), b.spec))
            .collect());
    }
    let path = Path::new(target);
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
                let name = stem(&p);
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
            jobs.push((stem(Path::new(entry)), spec));
        }
    }
    if jobs.is_empty() {
        return Err(format!("{target}: no jobs"));
    }
    Ok(jobs)
}

/// A spec file's job name: its file stem.
pub(super) fn stem(path: &Path) -> String {
    path.file_stem().map_or_else(
        || path.display().to_string(),
        |s| s.to_string_lossy().into_owned(),
    )
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

/// Writes one table row; `cells` is (gates, solutions, permutation),
/// `None` for a job that produced no result.
fn write_row(
    out: &mut dyn Write,
    name: &str,
    cells: Option<(u32, &str, &str)>,
    elapsed: Duration,
    status: &str,
) -> std::io::Result<()> {
    let (gates, solutions, permutation) = cells.map_or(("-".to_string(), "-", "-"), |(d, s, p)| {
        (d.to_string(), s, p)
    });
    writeln!(
        out,
        "{name:<12} {gates:>5} {solutions:>9} {permutation:<14} {elapsed:>8.1?}  {status}"
    )
}

/// Executes `qsyn batch`. `journal` is the journal path and whether to
/// resume from it.
pub(super) fn run(
    target: &str,
    jobs: usize,
    journal: Option<(&str, bool)>,
    store_path: Option<&str>,
    no_permute: bool,
    config: &SynthConfig,
    out: &mut dyn Write,
) -> Outcome {
    let work = batch_jobs(target)?;
    let options = config.options()?;
    let _faults = FaultArming::arm(config.fault_seed)?;
    let library = crate::store::library_config(options.library);
    // Every class-keyed answer goes through the resolve path (memo, then
    // the persistent store when given, then the engine). A --no-permute
    // answer is specific to its job's output labeling, so it bypasses the
    // path: sharing it across the class would hand class members a
    // wrongly-labeled circuit. Store records are keyed by (canonical
    // spec, config tag), so any gate library may share one store file:
    // records from other configurations simply never answer this run's
    // lookups.
    let cache = if no_permute {
        None
    } else {
        let store = store_path.map(store::open).transpose()?;
        Some(SpecCache::with_store(store, &library))
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
    let (writer, completed): (_, HashMap<String, JournalRecord>) = match journal {
        Some((path, resume)) => {
            let (log, records) =
                open_journal(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
            let replayed = records.into_iter().filter(|_| resume);
            let completed = replayed.map(|r| (r.key.clone(), r)).collect();
            (Some(Mutex::new(log)), completed)
        }
        None => (None, HashMap::new()),
    };
    // Keys cover the spec as given and this run's library and permute mode.
    let journal_config = library + if no_permute { "+no-permute" } else { "" };
    let journal_error: Mutex<Option<std::io::Error>> = Mutex::new(None);

    // Split the batch: `None` rows are filled from this run's reports,
    // in order; `Some` rows replay a journaled completion.
    let mut rows: Vec<Option<JournalRecord>> = Vec::with_capacity(work.len());
    let mut to_run: Vec<(String, BatchJob)> = Vec::new();
    for (index, (name, spec)) in work.into_iter().enumerate() {
        let key = job_key(index, &name, &spec, &journal_config);
        if let Some(rec) = completed.get(&key) {
            rows.push(Some(rec.clone()));
        } else {
            rows.push(None);
            to_run.push((name.clone(), BatchJob { name, spec, key }));
        }
    }
    let total_jobs = rows.len();

    // Every batch job synthesizes with free output permutation unless
    // --no-permute: the answer is minimal over the whole output-permutation
    // class, so a cache hit (which reuses the class representative's
    // result) reports the same depth a cache miss would.
    let run_one = |job: &BatchJob,
                   token: &CancelToken,
                   session: &mut SynthesisSession,
                   attempt: &Attempt|
     -> Result<PermutedSynthesisResult, SynthesisError> {
        let (opts, engine) = apply_attempt(&options, config.engine, attempt);
        let opts = opts.with_cancel_token(token.clone());
        let job_started = Instant::now();
        let mut compute =
            |s: &Spec| synthesize(s, &opts, engine, !no_permute, session).map(|(p, _)| p);
        let result = match &cache {
            Some(c) => c.resolve(&job.spec, &job.name, compute).map(|(p, issues)| {
                let named = issues.into_iter().map(|i| (job.name.clone(), i));
                store_issues
                    .lock()
                    .expect("store issues lock")
                    .extend(named);
                p
            }),
            None => compute(&job.spec),
        };
        // Journal the completion before reporting it, from inside the
        // worker: a kill between jobs then loses nothing.
        if let (Ok(p), Some(w)) = (&result, &writer) {
            let record = journal_record(job, p, job_started.elapsed());
            // The mutex serializes the journal's appends (frames must not
            // interleave); it is a leaf lock held for one record.
            let appended = w
                .lock()
                .expect("journal lock")
                .append_synced(render_record(&record).as_bytes()); // lint: allow(blocking-under-lock)
            if let Err(e) = appended {
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
            let cells = (rec.depth, rec.solutions.as_str(), rec.permutation.as_str());
            let elapsed = Duration::from_nanos(rec.elapsed_ns);
            write_row(out, &rec.name, Some(cells), elapsed, "ok")?;
            continue;
        }
        let r = fresh.next().expect("one report per scheduled job");
        let (result, status) = match &r.status {
            JobStatus::Done(p) => (Some(p), "ok".to_string()),
            JobStatus::Degraded {
                result,
                attempts,
                ladder_path,
            } => (
                Some(result),
                format!(
                    "ok (recovered: {attempts} attempts{})",
                    ladder_note(ladder_path)
                ),
            ),
            JobStatus::Failed(e) => (None, format!("error: {e}")),
            JobStatus::Panicked {
                message, location, ..
            } => {
                let at = location
                    .as_ref()
                    .map(|l| format!(" at {l}"))
                    .unwrap_or_default();
                (None, format!("panicked: {message}{at}"))
            }
        };
        match result {
            Some(p) => {
                let solutions = p.result.solutions().count_display();
                let permutation = format!("{:?}", p.permutation);
                let cells = (p.result.depth(), solutions.as_str(), permutation.as_str());
                write_row(out, &r.name, Some(cells), r.elapsed, &status)?;
            }
            None => {
                failed += 1;
                write_row(out, &r.name, None, r.elapsed, &status)?;
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
        config.engine,
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
