//! Cross-engine and cross-substrate agreement at the workspace level.

use qsyn::portfolio::race::{race_engines, RacerOutcome};
use qsyn::qbf::QdpllSolver;
use qsyn::revlogic::{benchmarks::random_permutation, GateLibrary, Permutation, Spec};
use qsyn::synth::permuted::permutations;
use qsyn::synth::{synthesize, Engine, QbfEngine, SatSelectEncoding, SynthesisOptions, VarOrder};

#[test]
fn all_engines_agree_on_random_3_line_functions() {
    for seed in 0..6u64 {
        let spec = Spec::from_permutation(&random_permutation(3, seed * 17 + 1));
        let mut depths = Vec::new();
        for engine in [Engine::Bdd, Engine::Qbf, Engine::Sat] {
            let r = synthesize(
                &spec,
                &SynthesisOptions::new(GateLibrary::mct(), engine).with_max_depth(10),
            )
            .unwrap_or_else(|e| panic!("seed {seed} {engine}: {e}"));
            for c in r.solutions().circuits() {
                assert!(spec.is_realized_by(c));
            }
            depths.push(r.depth());
        }
        assert!(
            depths.windows(2).all(|w| w[0] == w[1]),
            "seed {seed}: engines disagree: {depths:?}"
        );
    }
}

#[test]
fn engine_race_agrees_with_every_single_engine() {
    // The race's winner is whichever engine proves minimality first; the
    // result must nevertheless be exactly what any fixed engine reports.
    for seed in 0..4u64 {
        let spec = Spec::from_permutation(&random_permutation(3, seed * 23 + 5));
        let options = SynthesisOptions::new(GateLibrary::mct(), Engine::Bdd).with_max_depth(10);
        let raced = race_engines(&spec, &options).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let single = synthesize(&spec, &options).unwrap();
        assert_eq!(raced.winner.depth(), single.depth(), "seed {seed}");
        for c in raced.winner.solutions().circuits() {
            assert!(spec.is_realized_by(c), "seed {seed}");
        }
        assert_eq!(raced.reports.len(), 3, "seed {seed}");
        let wins = raced
            .reports
            .iter()
            .filter(|r| r.outcome == RacerOutcome::Won)
            .count();
        assert_eq!(wins, 1, "seed {seed}: exactly one winner");
        assert!(
            raced.reports.iter().all(|r| matches!(
                r.outcome,
                RacerOutcome::Won | RacerOutcome::Cancelled | RacerOutcome::FinishedLate
            )),
            "seed {seed}: no racer may fail on a realizable spec: {:?}",
            raced.reports
        );
    }
}

#[test]
fn sat_encodings_agree_on_3_lines() {
    for seed in 0..4u64 {
        let spec = Spec::from_permutation(&random_permutation(3, seed + 100));
        let mut depths = Vec::new();
        for enc in [SatSelectEncoding::OneHot, SatSelectEncoding::Binary] {
            let r = synthesize(
                &spec,
                &SynthesisOptions::new(GateLibrary::mct(), Engine::Sat)
                    .with_max_depth(10)
                    .with_sat_encoding(enc),
            )
            .unwrap();
            depths.push(r.depth());
        }
        assert_eq!(depths[0], depths[1], "seed {seed}");
    }
}

#[test]
fn qbf_backends_agree_on_2_lines() {
    // Both one-line and all 24 two-line functions, every depth up to the
    // minimum: QDPLL on the prenex instance against the engine's
    // ∀-expansion verdict.
    let options = SynthesisOptions::new(GateLibrary::mct(), Engine::Qbf).with_max_depth(8);
    for lines in [1, 2] {
        for map in permutations(1 << lines) {
            let spec = Spec::from_permutation(&Permutation::from_map(lines, map.clone()));
            let depth = synthesize(&spec, &options).unwrap().depth();
            let mut engine = QbfEngine::new(&spec, &options);
            for d in 0..=depth {
                let expansion = engine.solve_depth(d).unwrap().is_some();
                assert_eq!(expansion, d == depth, "{map:?} at depth {d}");
                assert_eq!(
                    QdpllSolver::new(&engine.instance(d)).solve(),
                    expansion,
                    "{map:?} at depth {d}"
                );
            }
        }
    }
}

#[test]
fn bdd_var_order_and_incrementality_do_not_change_results() {
    for seed in 0..4u64 {
        let spec = Spec::from_permutation(&random_permutation(3, seed + 31));
        let base = synthesize(
            &spec,
            &SynthesisOptions::new(GateLibrary::mct(), Engine::Bdd).with_max_depth(10),
        )
        .unwrap();
        for opts in [
            SynthesisOptions::new(GateLibrary::mct(), Engine::Bdd)
                .with_max_depth(10)
                .with_var_order(VarOrder::YThenX),
            SynthesisOptions::new(GateLibrary::mct(), Engine::Bdd)
                .with_max_depth(10)
                .with_incremental(false),
        ] {
            let other = synthesize(&spec, &opts).unwrap();
            assert_eq!(base.depth(), other.depth(), "seed {seed}");
            assert_eq!(
                base.solutions().count(),
                other.solutions().count(),
                "seed {seed}"
            );
        }
    }
}

#[test]
fn libraries_form_a_depth_lattice() {
    // MCT+MCF+P depth ≤ min(MCT+MCF, MCT+P) ≤ MCT depth.
    for seed in 0..3u64 {
        let spec = Spec::from_permutation(&random_permutation(3, seed + 57));
        let depth = |lib: GateLibrary| {
            synthesize(
                &spec,
                &SynthesisOptions::new(lib, Engine::Bdd).with_max_depth(12),
            )
            .unwrap()
            .depth()
        };
        let mct = depth(GateLibrary::mct());
        let mcf = depth(GateLibrary::mct_mcf());
        let peres = depth(GateLibrary::mct_peres());
        let all = depth(GateLibrary::all());
        assert!(mcf <= mct, "seed {seed}");
        assert!(peres <= mct, "seed {seed}");
        assert!(all <= mcf.min(peres), "seed {seed}");
    }
}

#[test]
fn dedup_fredkin_preserves_depth_and_halves_fredkin_solutions() {
    // A pure swap: with ordered Fredkin targets there are two 1-gate
    // solutions (the functional twins), with dedup exactly one.
    let swap = Spec::from_permutation(&qsyn::revlogic::Permutation::from_fn(2, |v| {
        ((v & 1) << 1) | (v >> 1)
    }));
    let ordered = synthesize(
        &swap,
        &SynthesisOptions::new(GateLibrary::mct_mcf(), Engine::Bdd),
    )
    .unwrap();
    let dedup = synthesize(
        &swap,
        &SynthesisOptions::new(GateLibrary::mct_mcf().with_dedup_fredkin(), Engine::Bdd),
    )
    .unwrap();
    assert_eq!(ordered.depth(), 1);
    assert_eq!(dedup.depth(), 1);
    assert_eq!(ordered.solutions().count(), 2);
    assert_eq!(dedup.solutions().count(), 1);
}
