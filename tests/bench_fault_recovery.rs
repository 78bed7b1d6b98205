//! `qsyn bench` runs its one job under the same supervisor as a batch:
//! an injected panic is contained, retried under `--retries`, and
//! reported with its site otherwise; an injected deadline reports the
//! run's real wall-clock budget, or none when the run had none.
//!
//! Drives the `qsyn` binary, so each run arms the process-global fault
//! plane in a process of its own.

#![cfg(feature = "faults")]

use std::process::{Command, Output};

/// A schedule whose first fault is the `session.checkout` panic on
/// `rd32-v0`'s first attempt.
const SEED: &str = "7";

fn bench(args: &[&str]) -> (Output, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_qsyn"))
        .arg("bench")
        .args(args)
        .output()
        .expect("qsyn runs");
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    (out, text)
}

#[test]
fn bench_recovers_from_an_injected_panic_and_reports_it_without_retries() {
    let (clean, clean_text) = bench(&["rd32-v0"]);
    assert!(clean.status.success(), "{clean_text}");
    let depth_line = |text: &str| {
        text.lines()
            .find(|l| l.starts_with("minimal gates: "))
            .map(|l| l.split(',').next().unwrap_or_default().to_string())
    };
    let clean_depth = depth_line(&clean_text).expect("a result line");
    assert_eq!(clean_depth, "minimal gates: 4");

    let (recovered, text) = bench(&["rd32-v0", "--fault-seed", SEED, "--retries", "4"]);
    assert!(recovered.status.success(), "{text}");
    assert_eq!(
        depth_line(&text).as_deref(),
        Some(clean_depth.as_str()),
        "{text}"
    );
    assert!(text.contains("recovered after "), "{text}");

    let (failed, text) = bench(&["rd32-v0", "--fault-seed", SEED]);
    assert!(!failed.status.success(), "{text}");
    assert!(
        text.contains("panicked: fault-plane: injected panic at session.checkout at "),
        "{text}"
    );
    assert!(text.contains("session.rs:"), "the panic's site: {text}");
    assert_eq!(depth_line(&text), None, "{text}");
}

/// A schedule whose first fault expires `rd32-v0`'s deadline at depth 3
/// (the `bdd.gc-sweep` site).
const DEADLINE_SEED: &str = "1";

#[test]
fn an_injected_deadline_reports_the_real_budget_or_none() {
    let (unbudgeted, text) = bench(&["rd32-v0", "--fault-seed", DEADLINE_SEED]);
    assert!(!unbudgeted.status.success(), "{text}");
    assert!(
        text.contains(
            "error: deadline forced while solving depth 3 (no wall-clock budget was armed)"
        ),
        "{text}"
    );
    assert!(!text.contains("spent of 0"), "{text}");

    let (budgeted, text) = bench(&["rd32-v0", "--fault-seed", DEADLINE_SEED, "--timeout", "60"]);
    assert!(!budgeted.status.success(), "{text}");
    let spent: u64 = text
        .split("error: wall-clock (ms) budget exhausted while solving depth 3 (")
        .nth(1)
        .and_then(|rest| rest.split_once(" spent of 60000)"))
        .and_then(|(spent, _)| spent.parse().ok())
        .unwrap_or_else(|| panic!("the armed 60 s budget: {text}"));
    assert!(spent < 60_000, "{text}");
}
