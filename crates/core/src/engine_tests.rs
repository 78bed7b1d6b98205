//! Cross-engine tests: all three engines must agree on minimal depths, and
//! every returned circuit must realize its specification.

use crate::options::{Engine, SatSelectEncoding, SynthesisOptions, VarOrder};
use crate::{synthesize, QbfEngine, SatEngine};
use proptest::prelude::*;
use qsyn_revlogic::benchmarks::random_permutation;
use qsyn_revlogic::{GateLibrary, Permutation, Spec};

fn mct_opts(engine: Engine) -> SynthesisOptions {
    SynthesisOptions::new(GateLibrary::mct(), engine).with_max_depth(8)
}

proptest! {
    // Exact synthesis is expensive; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engines_agree_on_random_2_line_functions(seed in 0u64..5000) {
        let spec = Spec::from_permutation(&random_permutation(2, seed));
        let bdd = synthesize(&spec, &mct_opts(Engine::Bdd)).unwrap();
        let qbf = synthesize(&spec, &mct_opts(Engine::Qbf)).unwrap();
        let sat = synthesize(&spec, &mct_opts(Engine::Sat)).unwrap();
        prop_assert_eq!(bdd.depth(), qbf.depth());
        prop_assert_eq!(bdd.depth(), sat.depth());
        for r in [&bdd, &qbf, &sat] {
            for c in r.solutions().circuits() {
                prop_assert!(spec.is_realized_by(c));
            }
        }
    }

    #[test]
    fn bdd_solution_count_matches_brute_force(seed in 0u64..2000) {
        // Enumerate all MCT cascades (base-q counting) on 2 lines and
        // compare the count of minimal realizations with the BDD #SOL.
        let perm = random_permutation(2, seed);
        let spec = Spec::from_permutation(&perm);
        let gates = GateLibrary::mct().enumerate(2);
        let q = gates.len();
        let mut minimal: Option<(u32, u128)> = None;
        for d in 0..=6u32 {
            let total = (q as u64).pow(d);
            let mut count: u128 = 0;
            for code in 0..total {
                let mut rest = code;
                let circuit = qsyn_revlogic::Circuit::from_gates(
                    2,
                    (0..d).map(|_| {
                        let g = gates[(rest % q as u64) as usize];
                        rest /= q as u64;
                        g
                    }),
                );
                if spec.is_realized_by(&circuit) {
                    count += 1;
                }
            }
            if count > 0 {
                minimal = Some((d, count));
                break;
            }
        }
        let (min_d, brute_count) = minimal.expect("every 2-line function needs ≤ 6 MCT gates");
        let r = synthesize(&spec, &mct_opts(Engine::Bdd)).unwrap();
        prop_assert_eq!(r.depth(), min_d);
        prop_assert_eq!(r.solutions().count(), brute_count);
        prop_assert!(r.solutions().is_exhaustive());
    }

    #[test]
    fn engines_agree_on_random_incomplete_specs(
        seed in 0u64..3000,
        care in 200u32..900,
    ) {
        let spec = qsyn_revlogic::benchmarks::random_incomplete_spec(2, seed, care);
        let bdd = synthesize(&spec, &mct_opts(Engine::Bdd)).unwrap();
        let qbf = synthesize(&spec, &mct_opts(Engine::Qbf)).unwrap();
        let sat = synthesize(&spec, &mct_opts(Engine::Sat)).unwrap();
        prop_assert_eq!(bdd.depth(), qbf.depth());
        prop_assert_eq!(bdd.depth(), sat.depth());
        for r in [&bdd, &qbf, &sat] {
            for c in r.solutions().circuits() {
                prop_assert!(spec.is_realized_by(c));
            }
        }
        // Relaxing constraints can only help: the complete base function
        // bounds the incomplete spec's depth from above.
        let base = qsyn_revlogic::benchmarks::random_permutation(2, seed);
        let full = synthesize(
            &Spec::from_permutation(&base),
            &mct_opts(Engine::Bdd),
        )
        .unwrap();
        prop_assert!(bdd.depth() <= full.depth());
    }

    #[test]
    fn sat_encodings_agree(seed in 0u64..2000) {
        let spec = Spec::from_permutation(&random_permutation(2, seed));
        let one_hot = synthesize(
            &spec,
            &mct_opts(Engine::Sat).with_sat_encoding(SatSelectEncoding::OneHot),
        )
        .unwrap();
        let binary = synthesize(
            &spec,
            &mct_opts(Engine::Sat).with_sat_encoding(SatSelectEncoding::Binary),
        )
        .unwrap();
        prop_assert_eq!(one_hot.depth(), binary.depth());
    }

    #[test]
    fn bdd_ablations_agree(seed in 0u64..2000) {
        let spec = Spec::from_permutation(&random_permutation(2, seed));
        let base = synthesize(&spec, &mct_opts(Engine::Bdd)).unwrap();
        let flipped = synthesize(
            &spec,
            &mct_opts(Engine::Bdd).with_var_order(VarOrder::YThenX),
        )
        .unwrap();
        let scratch = synthesize(
            &spec,
            &mct_opts(Engine::Bdd).with_incremental(false),
        )
        .unwrap();
        prop_assert_eq!(base.depth(), flipped.depth());
        prop_assert_eq!(base.solutions().count(), flipped.solutions().count());
        prop_assert_eq!(base.depth(), scratch.depth());
        prop_assert_eq!(base.solutions().count(), scratch.solutions().count());
    }
}

proptest! {
    // Incremental-vs-oracle runs two full deepening searches per case
    // (warm and cold); a small case count keeps the suite fast while the
    // nightly-style seeds still rotate.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn incremental_solving_agrees_with_from_scratch(lines in 2u32..=4, seed in 0u64..4000) {
        // The SAT engine's persistent-solver path (default) against the
        // retained from-scratch oracle: identical minimal depth, identical
        // solution count, and every circuit realizes the spec. Complete
        // random permutations stay at n ≤ 3; n = 4 runs through sparse
        // incompletely-specified functions (always realizable, shallow).
        // The QBF engine has no warm path: every depth solves its own
        // prenex instance.
        let spec = match lines {
            4 => qsyn_revlogic::benchmarks::random_incomplete_spec(4, seed, 250),
            _ => {
                if seed % 2 == 0 {
                    Spec::from_permutation(&random_permutation(lines, seed))
                } else {
                    qsyn_revlogic::benchmarks::random_incomplete_spec(lines, seed, 600)
                }
            }
        };
        let warm = synthesize(&spec, &mct_opts(Engine::Sat)).unwrap();
        let cold = synthesize(&spec, &mct_opts(Engine::Sat).with_incremental(false)).unwrap();
        prop_assert_eq!(warm.depth(), cold.depth());
        prop_assert_eq!(warm.solutions().count(), cold.solutions().count());
        for r in [&warm, &cold] {
            for c in r.solutions().circuits() {
                prop_assert!(spec.is_realized_by(c));
            }
        }
    }
}

#[test]
fn three_line_spot_check_across_engines() {
    // A 3-line function with a small minimal depth: Toffoli ∘ NOT.
    let perm = Permutation::from_fn(3, |v| {
        let after_not = v ^ 0b001;
        if after_not & 0b011 == 0b011 {
            after_not ^ 0b100
        } else {
            after_not
        }
    });
    let spec = Spec::from_permutation(&perm);
    let bdd = synthesize(&spec, &mct_opts(Engine::Bdd)).unwrap();
    let sat = synthesize(&spec, &mct_opts(Engine::Sat)).unwrap();
    let qbf = synthesize(&spec, &mct_opts(Engine::Qbf)).unwrap();
    assert_eq!(bdd.depth(), 2);
    assert_eq!(sat.depth(), 2);
    assert_eq!(qbf.depth(), 2);
}

#[test]
fn qbf_engine_solves_the_prenex_instance_not_the_sat_encoding() {
    // The QBF engine hands each depth's `∃Y ∀X ∃A` instance to its
    // backend; the binary-select SAT engine keeps its persistent row-wise
    // instance. Same depth, different work.
    for name in ["3_17", "rd32-v0"] {
        let spec = qsyn_revlogic::benchmarks::by_name(name).unwrap().spec;
        let options = mct_opts(Engine::Qbf);
        let qbf_run = synthesize(&spec, &options).unwrap();
        let d = qbf_run.depth();
        assert!(qbf_run.incremental_stats().is_none(), "{name}");
        // Each depth is its own instance, so asking the minimal depth
        // alone reproduces the run's last solve.
        let mut qbf = QbfEngine::new(&spec, &options);
        assert!(qbf.solve_depth(d).unwrap().is_some(), "{name}");
        let prenex = qbf.instance(d);
        assert_eq!(
            qbf.last_instance_size(),
            (prenex.num_vars(), prenex.matrix().len()),
            "{name}"
        );

        let options = mct_opts(Engine::Sat).with_sat_encoding(SatSelectEncoding::Binary);
        let sat_run = synthesize(&spec, &options).unwrap();
        assert_eq!(sat_run.depth(), d, "{name}");
        assert!(sat_run.incremental_stats().is_some(), "{name}");
        let mut sat = SatEngine::new(&spec, &options);
        assert!(sat.solve_depth(d).unwrap().is_some(), "{name}");
        assert!(
            qbf.last_instance_size().1 < sat.last_instance_size().1,
            "{name}: prenex {:?} vs row-wise {:?}",
            qbf.last_instance_size(),
            sat.last_instance_size()
        );
    }
}

#[test]
fn extended_library_never_increases_depth() {
    for seed in 0..8u64 {
        let spec = Spec::from_permutation(&random_permutation(3, seed));
        let mct = synthesize(
            &spec,
            &SynthesisOptions::new(GateLibrary::mct(), Engine::Bdd).with_max_depth(10),
        )
        .unwrap();
        let all = synthesize(
            &spec,
            &SynthesisOptions::new(GateLibrary::all(), Engine::Bdd).with_max_depth(10),
        )
        .unwrap();
        assert!(
            all.depth() <= mct.depth(),
            "seed {seed}: extended library worsened depth {} -> {}",
            mct.depth(),
            all.depth()
        );
        for c in all.solutions().circuits() {
            assert!(spec.is_realized_by(c));
        }
    }
}

#[test]
fn mixed_polarity_library_shortens_negative_control_functions() {
    // f flips line 1 iff line 0 is 0 — one mixed-polarity gate, but two
    // positive-control MCT gates (x₂ ⊕ ¬x₁ = CNOT then NOT).
    let perm = Permutation::from_fn(2, |v| if v & 1 == 0 { v ^ 2 } else { v });
    let spec = Spec::from_permutation(&perm);
    let plain = synthesize(&spec, &mct_opts(Engine::Bdd)).unwrap();
    let mixed = synthesize(
        &spec,
        &SynthesisOptions::new(GateLibrary::mct().with_mixed_polarity(), Engine::Bdd)
            .with_max_depth(8),
    )
    .unwrap();
    assert_eq!(plain.depth(), 2);
    assert_eq!(mixed.depth(), 1);
    for c in mixed.solutions().circuits() {
        assert!(spec.is_realized_by(c));
    }
}

#[test]
fn mixed_polarity_agrees_across_engines() {
    let spec = Spec::from_permutation(&random_permutation(2, 99));
    let lib = GateLibrary::mct().with_mixed_polarity();
    let mut depths = Vec::new();
    for engine in [Engine::Bdd, Engine::Qbf, Engine::Sat] {
        let r = synthesize(&spec, &SynthesisOptions::new(lib, engine).with_max_depth(8)).unwrap();
        assert!(spec.is_realized_by(&r.solutions().circuits()[0]));
        depths.push(r.depth());
    }
    assert!(depths.windows(2).all(|w| w[0] == w[1]), "{depths:?}");
}

#[test]
fn benchmark_3_17_minimal_depth_and_all_solutions() {
    let spec = qsyn_revlogic::benchmarks::spec_3_17();
    let r = synthesize(
        &spec,
        &SynthesisOptions::new(GateLibrary::mct(), Engine::Bdd).with_max_depth(8),
    )
    .unwrap();
    assert_eq!(r.depth(), 6, "3_17 needs six MCT gates");
    assert!(r.solutions().count() >= 1);
    assert!(r.solutions().is_exhaustive());
    let (min_qc, max_qc) = r.solutions().quantum_cost_range();
    assert!(min_qc <= max_qc);
    for c in r.solutions().circuits() {
        assert!(spec.is_realized_by(c));
    }
}

#[test]
fn wall_clock_budget_surfaces_identically_through_all_engines() {
    // A zero wall-clock budget must trip as `BudgetExceeded { WallClock }`
    // regardless of which engine is doing the work — the governor is the
    // single enforcement point.
    let spec = Spec::from_permutation(&Permutation::from_map(2, vec![3, 0, 1, 2]));
    for engine in [Engine::Bdd, Engine::Qbf, Engine::Sat] {
        let err = synthesize(
            &spec,
            &mct_opts(engine).with_time_budget(std::time::Duration::ZERO),
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                crate::SynthesisError::BudgetExceeded {
                    resource: crate::Resource::WallClock,
                    ..
                }
            ),
            "{engine:?}: {err:?}"
        );
    }
}

#[test]
fn per_engine_budgets_surface_as_budget_exceeded() {
    // Each engine's own bottleneck resource reports through the same
    // variant, tagged with the engine-specific resource kind.
    let spec = Spec::from_permutation(&Permutation::from_map(3, vec![7, 1, 4, 3, 0, 2, 6, 5]));
    let cases: [(Engine, crate::Resource, SynthesisOptions); 3] = [
        (
            Engine::Bdd,
            crate::Resource::BddNodes,
            mct_opts(Engine::Bdd).with_bdd_node_limit(50),
        ),
        (
            Engine::Sat,
            crate::Resource::SatConflicts,
            mct_opts(Engine::Sat).with_conflict_limit(1),
        ),
        (
            Engine::Qbf,
            crate::Resource::SatConflicts,
            mct_opts(Engine::Qbf).with_conflict_limit(1),
        ),
    ];
    for (engine, resource, opts) in cases {
        let err = synthesize(&spec, &opts).unwrap_err();
        match err {
            crate::SynthesisError::BudgetExceeded {
                resource: got,
                spent,
                limit,
                ..
            } => {
                assert_eq!(got, resource, "{engine:?}");
                assert!(spent >= limit, "{engine:?}: spent {spent} < limit {limit}");
            }
            other => panic!("{engine:?}: expected BudgetExceeded, got {other:?}"),
        }
    }
}

#[test]
fn incomplete_rd32_synthesizes_with_dont_cares() {
    let spec = qsyn_revlogic::benchmarks::spec_rd32_v0();
    let r = synthesize(
        &spec,
        &SynthesisOptions::new(GateLibrary::mct(), Engine::Bdd).with_max_depth(8),
    )
    .unwrap();
    assert!(r.depth() <= 6);
    for c in r.solutions().circuits() {
        assert!(spec.is_realized_by(c));
    }
}
