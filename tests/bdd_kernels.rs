//! Fused-vs-legacy kernel agreement: the fused ∀-AND `check()` (the
//! default since PR 3) must agree bit for bit — same minimal depth, same
//! solution count — with the legacy build-then-quantify path on the
//! Table 1 benchmark functions.

use qsyn::revlogic::{benchmarks, GateLibrary};
use qsyn::synth::{synthesize, Engine, SynthesisOptions};
use std::time::Duration;

/// The benchmarks small enough to synthesize in unit-test time.
const FAST_BENCHES: &[&str] = &["3_17", "rd32-v0", "rd32-v1", "decod24-v0", "decod24-v2"];

fn options(fused: bool) -> SynthesisOptions {
    SynthesisOptions::new(GateLibrary::mct(), Engine::Bdd).with_fused_quantification(fused)
}

#[test]
fn fused_and_legacy_agree_on_the_fast_suite() {
    for name in FAST_BENCHES {
        let b = benchmarks::by_name(name).expect("known benchmark");
        let fused = synthesize(&b.spec, &options(true)).unwrap_or_else(|e| panic!("{name}: {e}"));
        let legacy = synthesize(&b.spec, &options(false)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            (fused.depth(), fused.solutions().count()),
            (legacy.depth(), legacy.solutions().count()),
            "{name}: fused and legacy check() disagree"
        );
    }
}

/// The whole Table 1 set. The hard functions (hwb4, 4_49, the mod5/alu
/// families at depth ≥ 8) run for minutes in exact mode, so each side
/// gets a wall budget; a benchmark only counts when both sides finish.
/// The fast functions must never be skipped, so the test still fails
/// outright if a kernel regression makes them blow the budget.
#[test]
#[ignore = "minutes of wall clock; run with --ignored (nightly CI job)"]
fn fused_and_legacy_agree_on_the_full_table1_set() {
    const BUDGET: Duration = Duration::from_secs(60);
    let mut compared = Vec::new();
    let mut skipped = Vec::new();
    for b in benchmarks::suite() {
        let fused = synthesize(&b.spec, &options(true).with_time_budget(BUDGET));
        let legacy = synthesize(&b.spec, &options(false).with_time_budget(BUDGET));
        match (fused, legacy) {
            (Ok(f), Ok(l)) => {
                assert_eq!(
                    (f.depth(), f.solutions().count()),
                    (l.depth(), l.solutions().count()),
                    "{}: fused and legacy check() disagree",
                    b.name
                );
                compared.push(b.name);
            }
            _ => skipped.push(b.name),
        }
    }
    println!("compared: {compared:?}");
    println!("skipped (over budget): {skipped:?}");
    for name in FAST_BENCHES {
        assert!(
            compared.contains(name),
            "{name} is a fast benchmark and must fit the budget"
        );
    }
}

/// 4_49 is the deepest Table 1 row: the paper reports D = 12, and its
/// Table 2 a best quantum cost of 32 against a worst above 70. The fused
/// check's threaded accumulator keeps the depth-12 arena under the
/// default 20M-node budget.
#[test]
#[ignore = "about half a minute and ~13M live nodes; run with --ignored (nightly CI job)"]
fn four_49_reaches_the_papers_depth() {
    let b = benchmarks::by_name("4_49").expect("known benchmark");
    let r = synthesize(&b.spec, &options(true)).unwrap_or_else(|e| panic!("4_49: {e}"));
    assert_eq!(r.depth(), 12);
    assert_eq!(r.solutions().count(), 374);
    assert_eq!(r.solutions().quantum_cost_range(), (32, 72));
}
