//! The pruned output-permutation search against the brute `n!` reference
//! over the whole three-line function space: all 8! = 40,320 reversible
//! functions, each compared on minimal depth, winning permutation, exact
//! solution count (#SOL) and the enumerated circuit list.
//!
//! Under the BDD engine the pruned search checks every class against one
//! shared cascade, while the brute search builds an independent engine
//! per permutation, so agreement here shows the shared cascade changes
//! no answer. Plain synthesis of the same space must also reproduce the
//! published gate-count histogram, an oracle no engine in this repository
//! produced.

use qsyn::revlogic::{GateLibrary, Permutation, Spec};
use qsyn::synth::permuted::{
    permutations, synthesize_with_output_permutation_brute_in,
    synthesize_with_output_permutation_in,
};
use qsyn::synth::{synthesize_in, Engine, SynthesisOptions, SynthesisSession};

#[test]
#[ignore = "about 6 minutes in release; run by the nightly bdd-agreement CI job"]
fn pruned_matches_brute_on_every_three_line_function() {
    let options = SynthesisOptions::new(GateLibrary::mct(), Engine::Bdd);
    let mut session = SynthesisSession::new();
    let mut checked = 0;
    for map in permutations(8) {
        let spec = Spec::from_permutation(&Permutation::from_map(3, map.clone()));
        let pruned = synthesize_with_output_permutation_in(&spec, &options, &mut session)
            .unwrap_or_else(|e| panic!("{map:?}: pruned: {e}"));
        let brute = synthesize_with_output_permutation_brute_in(&spec, &options, &mut session)
            .unwrap_or_else(|e| panic!("{map:?}: brute: {e}"));
        assert_eq!(pruned.result.depth(), brute.result.depth(), "{map:?}");
        assert_eq!(pruned.permutation, brute.permutation, "{map:?}");
        let (p, b) = (pruned.result.solutions(), brute.result.solutions());
        assert_eq!(p.count(), b.count(), "{map:?}");
        assert_eq!(p.circuits(), b.circuits(), "{map:?}");
        checked += 1;
    }
    assert_eq!(checked, 40_320);
}

/// Plain BDD synthesis (fixed output labeling) of every three-line
/// function against the gate-count histogram of Shende, Prasad, Markov
/// and Hayes, "Synthesis of Reversible Logic Circuits" (2003): with the
/// NOT/CNOT/Toffoli library, which is MCT on three lines, 1, 12, 102,
/// 625, 2780, 8921, 17049, 10253 and 577 functions need 0 to 8 gates.
#[test]
#[ignore = "about 3 minutes in release; run by the nightly bdd-agreement CI job"]
fn plain_synthesis_reproduces_the_published_three_line_histogram() {
    let options = SynthesisOptions::new(GateLibrary::mct(), Engine::Bdd);
    let mut session = SynthesisSession::new();
    let mut histogram = [0u32; 9];
    for map in permutations(8) {
        let spec = Spec::from_permutation(&Permutation::from_map(3, map.clone()));
        let result =
            synthesize_in(&spec, &options, &mut session).unwrap_or_else(|e| panic!("{map:?}: {e}"));
        let circuits = result.solutions().circuits();
        assert!(circuits.iter().all(|c| spec.is_realized_by(c)), "{map:?}");
        histogram[result.depth() as usize] += 1;
    }
    assert_eq!(histogram, [1, 12, 102, 625, 2780, 8921, 17049, 10253, 577]);
}
