//! Golden search counters: the exact [`SolverStats`], answer, model and
//! proof log of the CDCL solver on fixed instances.
//!
//! Any change to the clause store, propagation order or conflict analysis
//! that is meant to leave the search untouched must keep every value here.
//! A heuristic change (restart policy, minimization, clause deletion) moves
//! them on purpose and re-records the table.
//!
//! The instances are generated in-crate from a fixed SplitMix64 stream, so
//! the table does not depend on any external RNG. The 240-variable
//! instance runs the learnt-database reduction six times and rescales
//! clause activities, paths the small randomized tests never reach;
//! refutations of the small instances are checked with [`check_rup`].

use crate::cnf::CnfFormula;
use crate::proof::{check_rup, ProofCheck};
use crate::solver::{SolveResult, Solver, SolverStats};
use crate::types::Lit;

/// SplitMix64: a fixed, dependency-free pseudo-random stream.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u32) -> u32 {
        (self.next() % u64::from(n)) as u32
    }
}

/// Uniform random 3-SAT: `nclauses` clauses over three distinct variables.
fn random_3sat(seed: u64, nvars: u32, nclauses: usize) -> CnfFormula {
    let mut rng = SplitMix(seed);
    let mut f = CnfFormula::new(nvars);
    for _ in 0..nclauses {
        let mut vars = Vec::with_capacity(3);
        while vars.len() < 3 {
            let v = rng.below(nvars);
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
        f.add_clause(vars.iter().map(|&v| Lit::new(v, rng.next() & 1 == 1)));
    }
    f
}

/// The pigeonhole principle PHP(p, h): `p` pigeons in `h` holes.
fn php(pigeons: u32, holes: u32) -> CnfFormula {
    let var = |i: u32, j: u32| i * holes + j;
    let mut f = CnfFormula::new(pigeons * holes);
    for i in 0..pigeons {
        f.add_clause((0..holes).map(|j| Lit::pos(var(i, j))));
    }
    for j in 0..holes {
        for a in 0..pigeons {
            for b in (a + 1)..pigeons {
                f.add_clause([Lit::neg(var(a, j)), Lit::neg(var(b, j))]);
            }
        }
    }
    f
}

/// FNV-1a over a stream of words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Everything a search produces that a store-only change must not move.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    sat: bool,
    stats: SolverStats,
    /// FNV-1a of the model bits (0 for UNSAT).
    model: u64,
    proof_steps: usize,
    /// FNV-1a of the proof log: each step's length, then its literal codes.
    proof: u64,
}

fn outcome(result: &SolveResult, stats: SolverStats, proof: &[Vec<Lit>]) -> Outcome {
    Outcome {
        sat: result.is_sat(),
        stats,
        model: result
            .model()
            .map_or(0, |m| fnv(m.iter().map(|&b| u64::from(b)))),
        proof_steps: proof.len(),
        proof: fnv(proof.iter().flat_map(|step| {
            std::iter::once(step.len() as u64).chain(step.iter().map(|l| l.code() as u64))
        })),
    }
}

/// Solves `f` from scratch with proof logging; checks a model against the
/// formula and, when `check_proof` is set, a refutation with [`check_rup`].
fn solve(f: &CnfFormula, check_proof: bool) -> (Outcome, Solver) {
    let mut s = Solver::from_formula(f);
    s.enable_proof_logging();
    let result = s.solve();
    let proof = s.take_proof().unwrap_or_default();
    match &result {
        SolveResult::Sat(m) => assert!(f.eval(m), "model falsifies the formula"),
        SolveResult::Unsat if check_proof => {
            assert_eq!(check_rup(f, &proof), ProofCheck::Refutation);
        }
        SolveResult::Unsat => {}
    }
    (outcome(&result, s.stats(), &proof), s)
}

/// A table entry: answer, `[conflicts, decisions, propagations, restarts,
/// learnts]`, model hash, proof steps, proof hash.
fn golden(sat: bool, counts: [u64; 5], model: u64, proof_steps: usize, proof: u64) -> Outcome {
    let [conflicts, decisions, propagations, restarts, learnts] = counts;
    Outcome {
        sat,
        stats: SolverStats {
            conflicts,
            decisions,
            propagations,
            restarts,
            learnts: learnts as usize,
        },
        model,
        proof_steps,
        proof,
    }
}

/// One guarded random 3-SAT block per round on one persistent solver, in
/// the shape of the incremental deepening encoding: round `k` grows the
/// universe by an activation variable `a_k`, adds a fresh block with `¬a_k`
/// in every clause, solves under `a_k`, and retires `a_k` with a unit
/// `¬a_k` when the block is refuted.
fn incremental_rounds(rounds: u32) -> Vec<Outcome> {
    const BASE: u32 = 150;
    let mut s = Solver::new(BASE);
    s.enable_proof_logging();
    (0..rounds)
        .map(|k| {
            let act = Lit::pos(BASE + k);
            s.ensure_vars(BASE + k + 1);
            for c in random_3sat(200 + u64::from(k), BASE, 639).clauses() {
                s.add_clause(c.lits().iter().copied().chain([!act]));
            }
            let result = s.solve_assuming(&[act]);
            if !result.is_sat() {
                s.add_clause([!act]);
            }
            let proof = s.take_proof().unwrap_or_default();
            outcome(&result, s.stats(), &proof)
        })
        .collect()
}

#[test]
fn golden_small_instances() {
    let cases = [
        php(6, 5),
        random_3sat(1, 60, 256),
        random_3sat(2, 60, 256),
        random_3sat(3, 60, 256),
        random_3sat(4, 60, 256),
    ];
    let expected = [
        golden(false, [149, 169, 1740, 1, 143], 0, 149, 238365489884768599),
        golden(
            true,
            [74, 88, 1296, 0, 71],
            9268631103912976548,
            74,
            8549236845252685366,
        ),
        golden(
            true,
            [119, 151, 1989, 1, 116],
            3960266321479133285,
            119,
            10099351657031308976,
        ),
        golden(false, [78, 86, 1225, 0, 72], 0, 78, 11291870851527407223),
        golden(
            true,
            [35, 46, 632, 0, 35],
            11120865693641122084,
            35,
            3944403087620778091,
        ),
    ];
    for (f, want) in cases.iter().zip(expected) {
        assert_eq!(solve(f, true).0, want);
    }
}

/// 65k conflicts: six learnt-database reductions and a clause-activity
/// rescale (which needs ~46k conflicts of decay).
#[test]
#[cfg_attr(miri, ignore = "tens of thousands of conflicts")]
fn golden_reduce_and_rescale() {
    let (got, s) = solve(&random_3sat(100, 240, 1022), false);
    assert!(
        s.db_reductions() >= 3,
        "reduce_db ran {} times",
        s.db_reductions()
    );
    assert!(
        s.clause_activity_rescaled(),
        "clause activities never rescaled"
    );
    let want = golden(
        false,
        [65458, 77419, 2784263, 197, 23928],
        0,
        65458,
        11509221551615746000,
    );
    assert_eq!(got, want);
}

/// Solver state carried across calls: learnts, activities, deleted
/// clauses still on watch lists, and the reduction schedule.
#[test]
#[cfg_attr(miri, ignore = "thousands of conflicts")]
fn golden_incremental_rounds() {
    let expected = [
        golden(
            false,
            [2204, 2666, 72848, 13, 2203],
            0,
            2204,
            18322440595874799293,
        ),
        golden(
            true,
            [2768, 3402, 89352, 17, 2767],
            10498344811813159204,
            564,
            14666490303869538727,
        ),
        golden(
            false,
            [8501, 10293, 272140, 46, 3511],
            0,
            5733,
            7367392139822746504,
        ),
        golden(
            false,
            [12589, 15224, 400952, 67, 7598],
            0,
            4088,
            11892638422161885055,
        ),
        golden(
            true,
            [13363, 16268, 425877, 72, 8372],
            121982190063611428,
            774,
            7887377176962793255,
        ),
        golden(
            true,
            [15355, 18745, 490975, 84, 5874],
            3544001695101462852,
            1992,
            13480536791363921182,
        ),
    ];
    assert_eq!(incremental_rounds(6), expected);
}
