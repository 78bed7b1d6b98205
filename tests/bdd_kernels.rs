//! The BDD engine at the deep end of Table 1. The fused ∀-AND `check()`
//! is compared with the build-then-quantify reference at every depth by
//! `qsyn-core`'s own `bdd_engine` tests, where that reference lives.

use qsyn::revlogic::{benchmarks, GateLibrary};
use qsyn::synth::{synthesize, Engine, SynthesisOptions};

/// 4_49 is the deepest Table 1 row: the paper reports D = 12, and its
/// Table 2 a best quantum cost of 32 against a worst above 70. The fused
/// check's threaded accumulator keeps the depth-12 arena under the
/// default 20M-node budget. The manager's counters are pinned too: this
/// is the largest arena any test or benchmark builds, so a change to node
/// allocation, hash consing or collection shows here first.
#[test]
#[ignore = "about half a minute and ~13M live nodes; run with --ignored (nightly CI job)"]
fn four_49_reaches_the_papers_depth() {
    let b = benchmarks::by_name("4_49").expect("known benchmark");
    let options = SynthesisOptions::new(GateLibrary::mct(), Engine::Bdd);
    let r = synthesize(&b.spec, &options).unwrap_or_else(|e| panic!("4_49: {e}"));
    assert_eq!(r.depth(), 12);
    assert_eq!(r.solutions().count(), 374);
    assert_eq!(r.solutions().quantum_cost_range(), (32, 72));
    let stats = r.bdd_stats().expect("a BDD run");
    assert_eq!(
        (stats.peak_live, stats.gc_runs, stats.gc_freed),
        (12_790_589, 9, 3_945_083)
    );
}
