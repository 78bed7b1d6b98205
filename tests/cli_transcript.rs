//! Golden transcript of the CLI: the full stdout and exit code of every
//! verb whose output a script or the benchmark harness reads (`list`,
//! `bench`, `batch` with `--stats`, `--journal` and `--resume`, `store
//! stats|verify`, and the circuit verbs). Only wall-clock durations are
//! masked, so any other byte the program prints is pinned here.
//!
//! The expected text lives in `tests/golden/cli_transcript.txt`; when the
//! program's output changes on purpose, replace that file with the
//! transcript this test prints on failure.

use qsyn::cli::{run, Command};
use qsyn::portfolio::journal::render_record;
use std::path::{Path, PathBuf};

const GOLDEN: &str = include_str!("golden/cli_transcript.txt");

/// Replaces every `Debug`-formatted duration (`4.6ms`, `71.3µs`, `850ns`,
/// `1.2s`), together with the padding in front of it, by ` <t>`.
fn mask_durations(text: &str) -> String {
    let chars: Vec<char> = text.chars().collect();
    let mut out = String::with_capacity(text.len());
    let mut i = 0;
    while i < chars.len() {
        if let Some(end) = duration_at(&chars, i) {
            while out.ends_with(' ') {
                out.pop();
            }
            out.push_str(" <t>");
            i = end;
        } else {
            out.push(chars[i]);
            i += 1;
        }
    }
    out
}

/// The end of a duration token starting at `i`: digits, an optional
/// fraction, a unit, then a non-alphanumeric character or the end.
fn duration_at(chars: &[char], i: usize) -> Option<usize> {
    if i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '.') {
        return None;
    }
    let mut j = i;
    while j < chars.len() && (chars[j].is_ascii_digit() || chars[j] == '.') {
        j += 1;
    }
    if j == i || !chars[i].is_ascii_digit() {
        return None;
    }
    let rest: String = chars[j..chars.len().min(j + 2)].iter().collect();
    let unit = ["ns", "µs", "ms", "s"]
        .into_iter()
        .find(|u| rest.starts_with(u))?;
    let end = j + unit.chars().count();
    match chars.get(end) {
        Some(c) if c.is_alphanumeric() => None,
        _ => Some(end),
    }
}

/// Runs one command line and renders `$ qsyn <args>`, its masked stdout
/// and its exit code, with `dir` shown as `$DIR`.
fn transcript(dir: &Path, args: &[&str]) -> String {
    let cmd = Command::parse(args.iter().copied()).unwrap();
    let mut buf = Vec::new();
    let code = run(&cmd, &mut buf).unwrap();
    let text = format!(
        "$ qsyn {}\n{}[exit {code}]\n",
        args.join(" "),
        mask_durations(&String::from_utf8(buf).unwrap())
    );
    text.replace(dir.to_str().unwrap(), "$DIR")
}

fn fresh_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qsyn-cli-transcript-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn cli_stdout_matches_the_golden_transcript() {
    let dir = fresh_dir();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    // cnot and its output-relabeled twin share one permutation class.
    std::fs::write(
        path("cnot.spec"),
        ".numvars 2\n.begin\n00 00\n01 11\n10 10\n11 01\n.end\n",
    )
    .unwrap();
    std::fs::write(
        path("twin.spec"),
        ".numvars 2\n.begin\n00 00\n01 11\n10 01\n11 10\n.end\n",
    )
    .unwrap();
    std::fs::write(
        path("jobs.txt"),
        format!("3_17\n{}\n{}\n", path("cnot.spec"), path("twin.spec")),
    )
    .unwrap();
    std::fs::write(
        path("a.real"),
        ".numvars 3\n.variables x1 x2 x3\n.begin\nt1 x1\nt2 x1 x3\nt2 x3 x2\n\
         t3 x2 x3 x1\nt3 x1 x2 x3\nt1 x1\n.end\n",
    )
    .unwrap();
    std::fs::write(
        path("b.real"),
        ".numvars 3\n.variables x1 x2 x3\n.begin\nt2 x1 x3\nt3 x1 x2 x3\n.end\n",
    )
    .unwrap();
    let (jobs, journal, store) = (path("jobs.txt"), path("runs.jsonl"), path("s.store"));
    let (a, b) = (path("a.real"), path("b.real"));

    let mut text = String::new();
    let mut step = |args: &[&str]| text.push_str(&transcript(&dir, args));
    step(&["list"]);
    step(&["bench", "3_17"]);
    step(&["bench", "3_17", "--output-permutation", "--stats"]);
    // The race's winner is whichever engine answers first, so the step
    // races a function the BDD engine decides several times faster than
    // the SAT and QBF engines; 3_17 is a near tie between BDD and SAT.
    step(&["bench", "rd32-v1", "--engine", "race"]);
    step(&["batch", &jobs, "--stats"]);
    step(&["batch", &jobs, "--journal", &journal]);
    // Keep only the first journaled job: a resume replays it and re-runs
    // the other two.
    let first = &qsyn::portfolio::read_journal(Path::new(&journal)).unwrap()[0];
    let mut bytes = qsyn::portfolio::journal::MAGIC.to_vec();
    qsyn::store::log::frame(&mut bytes, render_record(first).as_bytes());
    std::fs::write(&journal, bytes).unwrap();
    step(&["batch", &jobs, "--journal", &journal, "--resume"]);
    step(&["batch", &jobs, "--store", &store]);
    step(&["batch", &jobs, "--store", &store]);
    step(&["store", "stats", &store]);
    step(&["store", "verify", &store]);
    step(&["simulate", &a, "011"]);
    step(&["cost", &a]);
    step(&["check", &a, &a]);
    step(&["check", &a, &b]);
    step(&["spec", &b]);
    let _ = std::fs::remove_dir_all(&dir);

    if text != GOLDEN {
        let line = text
            .lines()
            .zip(GOLDEN.lines())
            .position(|(got, want)| got != want)
            .unwrap_or_else(|| text.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "CLI transcript differs from tests/golden/cli_transcript.txt at line {}; \
             full transcript:\n{text}",
            line + 1
        );
    }
}
