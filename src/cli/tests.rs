use super::*;
use crate::portfolio::cache::canonicalize;
use crate::revlogic::Spec;
use crate::store::{Store, StoredCircuit};
use crate::synth::Engine;
use std::sync::{Arc, Mutex};
use std::time::Duration;

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
            "search: 24 permutations, 3 classes, 3 engines built, 7 probes run, \
             0 depth floor skips, 4 levels built"
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
            "sat: 3 depths, 6735 clauses added, 7898 clauses retained, 418 learnt reused, \
             504 conflicts, 1267 decisions, 16399 propagations"
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
            "search: 24 permutations, 3 classes, 3 engines built, 7 probes run, \
             0 depth floor skips, 0 levels built, incremental: 7 depths, \
             16491 clauses added, 13938 clauses retained, 471 learnt reused, \
             1277 conflicts, 3383 decisions, 43353 propagations"
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
fn batch_rejects_flags_it_would_ignore() {
    for (flags, named) in [
        (&["--heuristic"][..], "--heuristic"),
        (&["-o", "out.real"][..], "-o"),
        (&["--all"][..], "--all"),
        (
            &["--no-permute", "--output-permutation"][..],
            "--output-permutation",
        ),
        (
            &["--heuristic", "-o", "out.real", "--all"][..],
            "--heuristic",
        ),
    ] {
        let mut args = vec!["batch", "suite"];
        args.extend_from_slice(flags);
        assert_eq!(
            parse(&args).unwrap_err(),
            format!("batch does not take {named}"),
            "{args:?}"
        );
    }
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
    let journal = dir.join("runs.journal");
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
    let mut first = crate::portfolio::journal::MAGIC.to_vec();
    crate::store::log::frame(
        &mut first,
        crate::portfolio::journal::render_record(&full[0]).as_bytes(),
    );
    std::fs::write(&journal, first).unwrap();
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

/// Runs `args`, asserting exit 0, and returns each table row's name,
/// gates, solutions and permutation columns (the time is dropped).
fn batch_rows(args: &[&str]) -> Vec<String> {
    let mut buf = Vec::new();
    assert_eq!(run(&parse(args).unwrap(), &mut buf).unwrap(), 0);
    let text = String::from_utf8(buf).unwrap();
    text.lines()
        .filter(|l| l.ends_with("  ok"))
        .map(|l| {
            let cells: Vec<&str> = l.split_whitespace().collect();
            cells[..cells.len() - 2].join(" ")
        })
        .collect()
}

#[test]
fn resume_replays_only_rows_of_the_same_run_and_spec() {
    let dir = std::env::temp_dir().join(format!("qsyn-cli-resume-key-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let list = dir.join("jobs.txt");
    std::fs::write(&list, "3_17\nrd32-v0\n").unwrap();
    let (list, journal) = (list.to_str().unwrap(), dir.join("runs.journal"));
    let journal = journal.to_str().unwrap();
    let journaled = |extra: &[&str]| {
        let _ = std::fs::remove_file(journal);
        batch_rows(&["batch", list, "--journal", journal]);
        let mut args = vec!["batch", list, "--journal", journal, "--resume"];
        args.extend_from_slice(extra);
        batch_rows(&args)
    };
    let fresh = |extra: &[&str]| {
        let mut args = vec!["batch", list];
        args.extend_from_slice(extra);
        batch_rows(&args)
    };

    // Another gate library: its minima are different facts.
    assert_eq!(
        journaled(&["--library", "all"]),
        fresh(&["--library", "all"])
    );
    // The other permute mode: the depth and permutation change.
    assert_eq!(journaled(&["--no-permute"]), fresh(&["--no-permute"]));

    // A spec file edited after journaling, here by swapping its two
    // output columns: same output-permutation class, different row.
    let spec = dir.join("cnot.spec");
    std::fs::write(
        &spec,
        ".numvars 2\n.begin\n00 00\n01 11\n10 10\n11 01\n.end\n",
    )
    .unwrap();
    let list2 = dir.join("one.txt");
    std::fs::write(&list2, format!("{}\n", spec.display())).unwrap();
    let list2 = list2.to_str().unwrap();
    let _ = std::fs::remove_file(journal);
    batch_rows(&["batch", list2, "--journal", journal]);
    std::fs::write(
        &spec,
        ".numvars 2\n.begin\n00 00\n01 11\n10 01\n11 10\n.end\n",
    )
    .unwrap();
    let resumed = batch_rows(&["batch", list2, "--journal", journal, "--resume"]);
    assert_eq!(resumed, batch_rows(&["batch", list2]));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_under_another_engine_reruns_the_job() {
    // A BDD row counts every minimal circuit; a SAT row only knows one.
    let dir = std::env::temp_dir().join(format!("qsyn-cli-resume-engine-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let list = dir.join("jobs");
    std::fs::write(&list, "3_17\n").unwrap();
    let (list, journal) = (list.to_str().unwrap(), dir.join("j"));
    let journal = journal.to_str().unwrap();
    assert_eq!(
        batch_rows(&["batch", list, "--journal", journal]),
        ["3_17 5 3 [2, 0, 1]"]
    );
    let resumed = batch_rows(&[
        "batch",
        list,
        "--journal",
        journal,
        "--resume",
        "--engine",
        "sat",
    ]);
    assert_eq!(resumed, ["3_17 5 ≥1 [2, 0, 1]"]);
    assert_eq!(resumed, batch_rows(&["batch", list, "--engine", "sat"]));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_verbs_refuse_a_missing_path_and_create_nothing() {
    let dir = std::env::temp_dir().join(format!("qsyn-cli-no-store-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("nonexist.store");
    let name = path.to_str().unwrap();
    for action in ["verify", "stats", "compact"] {
        let mut buf = Vec::new();
        let code = run(&parse(&["store", action, name]).unwrap(), &mut buf).unwrap();
        assert_eq!(code, 2, "store {action}");
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text, format!("error: {name}: no such store\n"));
        assert!(!path.exists(), "store {action} created {name}");
    }
    // A store that survives only as its compaction temp file is promoted,
    // not refused.
    let tmp = crate::store::temp_compaction_path(&path);
    Store::open(&tmp).unwrap();
    let mut buf = Vec::new();
    let code = run(&parse(&["store", "verify", name]).unwrap(), &mut buf).unwrap();
    assert_eq!(code, 0, "{}", String::from_utf8_lossy(&buf));
    assert!(path.exists() && !tmp.exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_rejects_bad_targets() {
    let cmd = parse(&["batch", "/nonexistent/nowhere"]).unwrap();
    let mut buf = Vec::new();
    assert_eq!(run(&cmd, &mut buf).unwrap(), 2);
}

#[test]
fn batch_timeout_zero_fails_every_row_as_a_wall_clock_stop() {
    let dir = std::env::temp_dir().join(format!("qsyn-cli-timeout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let list = dir.join("jobs.txt");
    std::fs::write(&list, "3_17\nrd32-v0\n").unwrap();
    let list = list.to_str().unwrap();
    // `--timeout` is the options' wall-clock budget, armed on each
    // attempt's own token; a retry doubles zero and trips again.
    for extra in [&[][..], &["--retries", "1"][..]] {
        let mut args = vec!["batch", list, "--timeout", "0"];
        args.extend_from_slice(extra);
        let mut buf = Vec::new();
        assert_eq!(run(&parse(&args).unwrap(), &mut buf).unwrap(), 1);
        let text = String::from_utf8(buf).unwrap();
        let rows: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("3_17 ") || l.starts_with("rd32-v0 "))
            .collect();
        assert_eq!(rows.len(), 2, "{text}");
        for row in rows {
            assert!(
                row.contains("error: wall-clock (ms) budget exhausted"),
                "{extra:?}: {row}"
            );
        }
        assert!(text.contains("2 jobs, 0 ok, 2 failed"), "{text}");
    }
    let _ = std::fs::remove_dir_all(&dir);
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
    assert!(!preload_permute);
    assert_eq!(config.engine, EngineChoice::Single(Engine::Sat));
    assert_eq!(config.max_depth, 10);
    assert_eq!(config.timeout, Some(30));
    assert!(config.stats);
    // --preload-permute still parses (preload fills always run the
    // permutation search), but only alongside --preload.
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

    // Missing or unreadable file: exit 2, and a missing one is not
    // created.
    let (code, _) = run_store(&["store", "verify", dir.join("absent").to_str().unwrap()]);
    assert_eq!(code, 2, "a missing file is no store");
    assert!(!dir.join("absent").exists());
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
fn batch_no_permute_stats_count_each_job_as_a_one_labeling_search() {
    // Plain synthesis is the permutation search over one labeling, so the
    // session reports it like any search: one class per job, and every
    // depth asked (3_17: 3..=6, rd32-v0: 2..=4) as a probe.
    let dir = std::env::temp_dir().join(format!("qsyn-cli-nopermstats-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let list = dir.join("jobs.txt");
    std::fs::write(&list, "3_17\nrd32-v0\n").unwrap();
    let sessions = |engine: &str| {
        let args = [
            "batch",
            list.to_str().unwrap(),
            "--no-permute",
            "--stats",
            "--engine",
            engine,
        ];
        let mut buf = Vec::new();
        assert_eq!(run(&parse(&args).unwrap(), &mut buf).unwrap(), 0);
        let text = String::from_utf8(buf).unwrap();
        let line = text.lines().find(|l| l.starts_with("sessions: "));
        line.unwrap_or_else(|| panic!("no sessions line: {text}"))
            .to_string()
    };
    assert_eq!(
        sessions("bdd"),
        "sessions: 2 jobs, 1 managers, 1 resets, 15751 peak live, \
         51111 cache hits, 63514 cache misses, 27517 cache evictions, \
         4 gc runs, 33949 gc freed, 0 retries, 0 quarantined, \
         search: 2 permutations, 2 classes, 2 engines built, 7 probes run, \
         0 depth floor skips, 10 levels built"
    );
    assert_eq!(
        sessions("sat"),
        "sessions: 2 jobs, 0 managers, 0 resets, 0 peak live, \
         0 cache hits, 0 cache misses, 0 cache evictions, \
         0 gc runs, 0 gc freed, 0 retries, 0 quarantined, \
         search: 2 permutations, 2 classes, 2 engines built, 7 probes run, \
         0 depth floor skips, 0 levels built, incremental: 7 depths, \
         9649 clauses added, 13499 clauses retained, 1729 learnt reused, \
         2107 conflicts, 3768 decisions, 68831 propagations"
    );
    let _ = std::fs::remove_dir_all(&dir);
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
