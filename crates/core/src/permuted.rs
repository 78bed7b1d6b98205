//! The iterative-deepening loop of Figure 1, and synthesis with output
//! permutation — the follow-up direction of the same group ("Reversible
//! Logic Synthesis with Output Permutation"): since output lines are just
//! signal names, a realization is also acceptable if its outputs match the
//! specification *up to a permutation of the lines*. Exploiting this
//! freedom often saves gates (a SWAP costs three CNOTs if it has to be
//! realized, but nothing if it can be absorbed into the output labeling).
//!
//! One loop serves both: starting at a lower bound, each depth `d` is
//! posed to the engine for every labeling still in play, and the first
//! SAT answer is minimal by construction. The output-permutation search
//! runs it over all `n!` line permutations of the specification (among
//! the depth-minimal options the identity permutation is preferred);
//! plain synthesis ([`crate::synthesize_in`]) runs it over one labeling,
//! the spec's own.
//!
//! # Permutation-space pruning
//!
//! A blind search drives `n!` independent engines in lock-step. This
//! module prunes that probe set three ways (DESIGN.md §14):
//!
//! 1. **Class collapse.** Two permuted specifications with the same table
//!    are one probe, and so are two specifications related by a
//!    *simultaneous* relabeling of the circuit lines (conjugation): every
//!    gate library here is closed under line relabeling, so relabeling the
//!    wires of a depth-`d` realization of one member yields a depth-`d`
//!    realization of any other. One probe per class decides SAT/UNSAT for
//!    all of its members at once. Under the BDD engine a probe is not an
//!    engine of its own: the cascade `F_d` depends only on the line count
//!    and the gate library, so every class is a *target* of one shared
//!    [`BddEngine`] that builds each depth's cascade once and checks every
//!    class against it. The SAT and QBF engines keep one engine per class.
//! 2. **Transferred depth floors.** [`depth_lower_bound`] counts lines
//!    whose function differs from their input projection — a count that is
//!    invariant under conjugation, so the bound proven for a class
//!    representative applies to every sibling probe in the class. Each
//!    class enters the lock-step at its transferred floor instead of depth
//!    0, and the whole search starts at the smallest floor.
//! 3. **First-SAT cancellation.** All probes run under one merged
//!    [`CancelToken`]; the first SAT hit cancels it, so sibling probe
//!    engines stop and unwind immediately instead of finishing their
//!    depth, and the shared cascade goes back to the session, which keeps
//!    it for the next job over the same lines and library.
//!
//! The winning class's own solutions are returned directly (its
//! representative *is* the first — identity-preferring — member of the
//! class), so no re-synthesis pass is needed.

use crate::driver::{depth_lower_bound, IncrementalSolveStats, SynthesisResult};
use crate::error::SynthesisError;
use crate::options::{Engine, SynthesisOptions};
use crate::session::{ResourceGovernor, SynthesisSession};
use crate::solutions::SolutionSet;
use crate::{BddEngine, CancelToken, DepthSolver, QbfEngine, SatEngine};
use qsyn_revlogic::{Spec, SpecError, SpecRow};
use std::collections::HashMap;
use std::time::Instant;

counter_set! {
    /// Counters describing how much of its labeling space one search
    /// actually visited: `n!` labelings for the output-permutation search,
    /// the spec's own for plain synthesis. Deterministic for a given
    /// specification and options (the `trajectory` gate pins them). Merging
    /// sums them, for folding several searches (a session's jobs, a batch's
    /// workers) into one report.
    pub struct PermutedSearchStats {
        /// Labelings the search covered: `n!` — the probes the blind
        /// lock-step would have driven — under output permutation, 1 for
        /// plain synthesis.
        sum permutations: u64,
        /// Equivalence classes after table-identity + conjugation grouping.
        sum classes: u64,
        /// Class probes set up (classes whose floor was reached before the
        /// winner): an engine each under SAT and QBF, a target of the
        /// shared cascade under BDD.
        sum engines_built: u64,
        /// Per-depth probe calls actually issued across all classes.
        sum probes_run: u64,
        /// Per-depth probe calls skipped because a class's transferred
        /// lower bound proved the depth UNSAT without running an engine.
        sum depth_floor_skips: u64,
        /// BDD cascade levels `F_{d−1} → F_d` the search constructed: the
        /// winning depth when the shared cascade starts fresh and is
        /// incremental, only the levels past a kept cascade's depth when
        /// it starts from one, 0 under SAT and QBF.
        sum levels_built: u64,
        /// Persistent-solver reuse across all class probe engines (zeros
        /// for the BDD engine, which has no SAT instance to keep warm):
        /// each class engine survives across the transferred depth floors,
        /// so its learnt clauses carry from depth to depth.
        nested incremental: IncrementalSolveStats,
    }
}

/// A successful output-permutation synthesis.
#[derive(Clone, Debug)]
pub struct PermutedSynthesisResult {
    /// The synthesis result for the permuted specification.
    pub result: SynthesisResult,
    /// `permutation[j]` = circuit output line that drives specification
    /// line `j` (identity when no permutation was needed).
    pub permutation: Vec<u32>,
    /// Probe-space accounting for this search (all zeros for replayed
    /// results and results wrapped by [`plain`](Self::plain)).
    pub stats: PermutedSearchStats,
}

impl PermutedSynthesisResult {
    /// `true` if the identity permutation was used.
    pub fn is_identity_permutation(&self) -> bool {
        self.permutation
            .iter()
            .enumerate()
            .all(|(i, &p)| i as u32 == p)
    }

    /// Wraps a plain (no permutation search) synthesis result with the
    /// identity permutation and zeroed stats, so `--no-permute` workloads
    /// flow through the same reporting, journal and store paths as
    /// permuted ones.
    pub fn plain(result: SynthesisResult, lines: u32) -> PermutedSynthesisResult {
        PermutedSynthesisResult {
            result,
            permutation: (0..lines).collect(),
            stats: PermutedSearchStats::default(),
        }
    }
}

/// All permutations of `0..n` in lexicographic order (identity first).
pub fn permutations(n: u32) -> Vec<Vec<u32>> {
    let mut all = Vec::new();
    let mut current: Vec<u32> = (0..n).collect();
    let mut used = vec![false; n as usize];
    fn rec(
        n: u32,
        pos: usize,
        current: &mut Vec<u32>,
        used: &mut Vec<bool>,
        all: &mut Vec<Vec<u32>>,
    ) {
        if pos == n as usize {
            all.push(current.clone());
            return;
        }
        for v in 0..n {
            if !used[v as usize] {
                used[v as usize] = true;
                current[pos] = v;
                rec(n, pos + 1, current, used, all);
                used[v as usize] = false;
            }
        }
    }
    rec(n, 0, &mut current, &mut used, &mut all);
    all
}

/// The specification a circuit must meet so that wiring its output line
/// `permutation[j]` to specification line `j` realizes `spec`.
///
/// # Errors
///
/// [`SpecError`] if the permuted table is detectably unrealizable (cannot
/// happen for permutations of realizable specs; surfaced for robustness).
pub fn permute_spec(spec: &Spec, permutation: &[u32]) -> Result<Spec, SpecError> {
    let n = spec.lines();
    assert_eq!(permutation.len(), n as usize, "permutation length mismatch");
    let rows = (0..spec.num_rows() as u32)
        .map(|i| {
            let r = spec.row(i);
            let mut value = 0u32;
            let mut care = 0u32;
            for (j, &p) in permutation.iter().enumerate() {
                let bit = 1u32 << j;
                if r.care & bit != 0 {
                    care |= 1 << p;
                    value |= ((r.value >> j) & 1) << p;
                }
            }
            qsyn_revlogic::SpecRow { value, care }
        })
        .collect();
    Spec::new_incomplete(n, rows)
}

/// One pruned probe: the lexicographically first member of an equivalence
/// class of permuted specifications, standing in for all of them.
struct ProbeClass {
    /// First (identity-preferring) member permutation of the class.
    permutation: Vec<u32>,
    /// That member's permuted specification — what the engine solves.
    spec: Spec,
    /// How many of the `n!` permutations collapsed into this class.
    members: u64,
    /// Transferred depth floor: [`depth_lower_bound`] of the
    /// representative, valid for every member (conjugation-invariant).
    floor: u32,
    /// Lazily set-up probe; `None` until the lock-step reaches `floor`.
    probe: Option<Probe>,
}

/// How one class is decided depth by depth.
enum Probe {
    /// A target of the search's shared BDD cascade.
    Target(usize),
    /// An engine of its own (SAT and QBF).
    Engine(Box<dyn DepthSolver>),
}

/// Bit-permutation lookup tables for one line relabeling `σ`: `fwd[v]`
/// moves bit `j` of `v` to line `σ[j]`; `inv` is the inverse table.
struct SigmaLut {
    fwd: Vec<u32>,
    inv: Vec<u32>,
}

fn sigma_luts(perms: &[Vec<u32>], n: u32) -> Vec<SigmaLut> {
    let rows = 1usize << n;
    perms
        .iter()
        .map(|sigma| {
            let mut fwd = vec![0u32; rows];
            for (v, slot) in fwd.iter_mut().enumerate() {
                let mut out = 0u32;
                for (j, &s) in sigma.iter().enumerate() {
                    out |= ((v as u32 >> j) & 1) << s;
                }
                *slot = out;
            }
            let mut inv = vec![0u32; rows];
            for (v, &w) in fwd.iter().enumerate() {
                inv[w as usize] = v as u32;
            }
            SigmaLut { fwd, inv }
        })
        .collect()
}

/// Lexicographically minimal row table over all simultaneous line
/// relabelings (conjugations) of `rows` — the grouping key of the class
/// collapse. Conjugating by `σ` maps row `r` to row `σ(r)` with value and
/// care bits relabeled, and maps any realizing circuit gate-for-gate, so
/// every spec sharing a key shares its minimal depth.
fn conjugation_key(rows: &[SpecRow], luts: &[SigmaLut]) -> Vec<SpecRow> {
    let mut best: Vec<SpecRow> = rows.to_vec();
    let mut scratch: Vec<SpecRow> = Vec::with_capacity(rows.len());
    for lut in luts {
        // Build the conjugated table in row order, comparing against the
        // current best as we go so non-minimal candidates abort early.
        scratch.clear();
        let mut ordering = std::cmp::Ordering::Equal;
        for r2 in 0..rows.len() {
            let src = rows[lut.inv[r2] as usize];
            let row = SpecRow {
                value: lut.fwd[src.value as usize],
                care: lut.fwd[src.care as usize],
            };
            let b = best[r2];
            ordering = (row.value, row.care).cmp(&(b.value, b.care));
            if ordering != std::cmp::Ordering::Equal {
                if ordering == std::cmp::Ordering::Less {
                    scratch.push(row);
                }
                break;
            }
            scratch.push(row);
        }
        if ordering == std::cmp::Ordering::Less {
            // Finish materializing the smaller candidate.
            for r2 in scratch.len()..rows.len() {
                let src = rows[lut.inv[r2] as usize];
                scratch.push(SpecRow {
                    value: lut.fwd[src.value as usize],
                    care: lut.fwd[src.care as usize],
                });
            }
            std::mem::swap(&mut best, &mut scratch);
        }
    }
    best
}

/// Conjugation canonicalization costs `n!` relabelings per probe; beyond
/// 6 lines fall back to identical-table grouping only (exact synthesis is
/// out of reach there anyway, and the table-identity collapse is free).
const CONJUGATION_LINE_CAP: u32 = 6;

/// Groups the `n!` permuted specifications of `spec` into probe classes,
/// in first-member order (so the identity permutation leads the first
/// class it belongs to, preserving the identity-on-ties preference).
fn build_probe_classes(
    spec: &Spec,
    perms: &[Vec<u32>],
    options: &SynthesisOptions,
) -> Vec<ProbeClass> {
    let n = spec.lines();
    let luts = if n <= CONJUGATION_LINE_CAP {
        sigma_luts(perms, n)
    } else {
        Vec::new()
    };
    let mut classes: Vec<ProbeClass> = Vec::new();
    let mut by_key: HashMap<Vec<SpecRow>, usize> = HashMap::new();
    for p in perms {
        let Ok(permuted) = permute_spec(spec, p) else {
            continue;
        };
        let key = if luts.is_empty() {
            permuted.rows().to_vec()
        } else {
            conjugation_key(permuted.rows(), &luts)
        };
        if let Some(&idx) = by_key.get(&key) {
            classes[idx].members += 1;
            continue;
        }
        by_key.insert(key, classes.len());
        let floor = depth_lower_bound(&permuted, options);
        classes.push(ProbeClass {
            permutation: p.clone(),
            spec: permuted,
            members: 1,
            floor,
            probe: None,
        });
    }
    classes
}

/// Sets up the probe for a class reaching its floor: a new target of the
/// shared `cascade` (created by the first BDD class) or an engine of its
/// own.
fn open_probe(
    spec: &Spec,
    options: &SynthesisOptions,
    session: &mut SynthesisSession,
    cascade: &mut Option<BddEngine>,
) -> Probe {
    if options.engine != Engine::Bdd {
        return Probe::Engine(build_engine(spec, options, session));
    }
    match cascade {
        Some(engine) => Probe::Target(engine.add_target(spec)),
        None => {
            *cascade = Some(BddEngine::new_in(spec, options, session));
            Probe::Target(0)
        }
    }
}

fn build_engine(
    spec: &Spec,
    options: &SynthesisOptions,
    session: &mut SynthesisSession,
) -> Box<dyn DepthSolver> {
    match options.engine {
        Engine::Bdd => Box::new(BddEngine::new_in(spec, options, session)),
        Engine::Qbf => Box::new(QbfEngine::new_in(spec, options, session)),
        Engine::Sat => Box::new(SatEngine::new_in(spec, options, session)),
    }
}

/// Iterative-deepening synthesis over all output permutations: returns a
/// gate-count-minimal circuit together with the permutation under which it
/// realizes `spec`.
///
/// The returned depth is ≤ the plain [`crate::synthesize`] depth — output
/// relabeling can only help.
///
/// # Errors
///
/// As for [`crate::synthesize`]. The depth/time budgets apply to the run
/// as a whole.
pub fn synthesize_with_output_permutation(
    spec: &Spec,
    options: &SynthesisOptions,
) -> Result<PermutedSynthesisResult, SynthesisError> {
    synthesize_with_output_permutation_in(spec, options, &mut SynthesisSession::new())
}

/// [`synthesize_with_output_permutation`], but borrowing a caller-owned
/// [`SynthesisSession`]. Probes are set up lazily — one per equivalence
/// class, only once the lock-step reaches the class's depth floor. Under
/// the BDD engine every class is a target of one shared cascade, on the
/// arena the session lends.
///
/// # Errors
///
/// See [`synthesize_with_output_permutation`].
pub fn synthesize_with_output_permutation_in(
    spec: &Spec,
    options: &SynthesisOptions,
    session: &mut SynthesisSession,
) -> Result<PermutedSynthesisResult, SynthesisError> {
    refuse_oversized(spec)?;
    let start = Instant::now();
    let perms = permutations(spec.lines());
    let classes = build_probe_classes(spec, &perms, options);
    deepen(start, classes, perms.len() as u64, options, session)
}

/// Runs the full iterative-deepening flow of Figure 1 with the engine named
/// in `options`.
///
/// # Errors
///
/// * [`SynthesisError::SpecTooLarge`] for specifications beyond 8 lines
///   (the universal-gate table alone would be astronomically large).
/// * [`SynthesisError::DepthLimitReached`] when `options.max_depth` is
///   exhausted — every depth up to the cap is then *proven* unrealizable.
/// * [`SynthesisError::BudgetExceeded`] when any resource budget (wall
///   clock, BDD nodes, SAT conflicts) runs out.
/// * [`SynthesisError::Cancelled`] when the options'
///   [`CancelToken`] is cancelled by a supervisor.
pub fn synthesize(
    spec: &Spec,
    options: &SynthesisOptions,
) -> Result<SynthesisResult, SynthesisError> {
    synthesize_in(spec, options, &mut SynthesisSession::new())
}

/// [`synthesize`], but borrowing a caller-owned [`SynthesisSession`] so the
/// BDD arena (its kept cascade, or its manager's warmed unique/computed
/// tables) survives across jobs. Batch drivers and portfolio workers call
/// this once per job on a long-lived session; `synthesize` itself is the
/// one-shot special case.
///
/// This is the output-permutation search's loop over a single labeling —
/// the spec's own — so the session records its probe and solver counters
/// exactly as it records a permuted search's.
///
/// # Errors
///
/// See [`synthesize`].
pub fn synthesize_in(
    spec: &Spec,
    options: &SynthesisOptions,
    session: &mut SynthesisSession,
) -> Result<SynthesisResult, SynthesisError> {
    refuse_oversized(spec)?;
    let own = ProbeClass {
        permutation: (0..spec.lines()).collect(),
        spec: spec.clone(),
        members: 1,
        floor: depth_lower_bound(spec, options),
        probe: None,
    };
    deepen(Instant::now(), vec![own], 1, options, session).map(|p| p.result)
}

/// Exact synthesis stops at 8 lines: the universal-gate table alone would
/// be astronomically large beyond that.
fn refuse_oversized(spec: &Spec) -> Result<(), SynthesisError> {
    if spec.lines() > 8 {
        return Err(SynthesisError::SpecTooLarge {
            lines: spec.lines(),
        });
    }
    Ok(())
}

/// The iterative-deepening loop of Figure 1, over `classes` in lock-step:
/// depth by depth from the smallest floor, each class probed in order, the
/// first SAT answer wins. `permutations` is the labeling count the classes
/// stand for (`n!`, or 1 for plain synthesis); the result's total time
/// runs from `start`, so it includes grouping the classes.
///
/// The shared BDD cascade goes back to the session on every exit but a
/// panic, errors included; a panic drops it, and its manager with it.
fn deepen(
    start: Instant,
    classes: Vec<ProbeClass>,
    permutations: u64,
    options: &SynthesisOptions,
    session: &mut SynthesisSession,
) -> Result<PermutedSynthesisResult, SynthesisError> {
    session.begin_job();
    let mut cascade: Option<BddEngine> = None;
    let outcome = search(start, classes, permutations, options, session, &mut cascade);
    if let Some(shared) = cascade {
        shared.retire(session);
    }
    let found = outcome?;
    session.note_permuted_search(&found.stats);
    Ok(found)
}

/// The body of [`deepen`], which hands the shared `cascade` back.
fn search(
    start: Instant,
    mut classes: Vec<ProbeClass>,
    permutations: u64,
    options: &SynthesisOptions,
    session: &mut SynthesisSession,
    cascade: &mut Option<BddEngine>,
) -> Result<PermutedSynthesisResult, SynthesisError> {
    let mut stats = PermutedSearchStats {
        permutations,
        classes: classes.len() as u64,
        ..PermutedSearchStats::default()
    };
    // The caller's governor arms the run-wide deadline once; probe engines
    // run under a merged token so the first SAT hit cancels the siblings
    // without touching the caller's token (which the winner's result and
    // any retry still use).
    let governor = ResourceGovernor::from_options(options);
    governor.arm();
    let probe_token = CancelToken::new();
    let probe_options = options
        .clone()
        .with_cancel_token(CancelToken::merged([&options.cancel, &probe_token]));
    let use_floors = options.start_at_lower_bound;
    let first_depth = if use_floors {
        classes
            .iter()
            .map(|c| c.floor)
            .min()
            .unwrap_or(0)
            .min(options.max_depth)
    } else {
        0
    };
    let mut winner: Option<(usize, u32, SolutionSet)> = None;
    let mut depth_times = Vec::new();
    'deepen: for d in first_depth..=options.max_depth {
        governor.check(d)?;
        let depth_start = Instant::now();
        for (idx, class) in classes.iter_mut().enumerate() {
            if use_floors && class.floor > d {
                // The transferred lower bound already proves this depth
                // UNSAT for every member of the class.
                stats.depth_floor_skips += 1;
                continue;
            }
            let probe = match &mut class.probe {
                Some(p) => p,
                None => {
                    stats.engines_built += 1;
                    let p = open_probe(&class.spec, &probe_options, session, cascade);
                    class.probe.insert(p)
                }
            };
            stats.probes_run += 1;
            let outcome = match probe {
                Probe::Target(t) => cascade
                    .as_mut()
                    .expect("targets live in the shared cascade")
                    .solve_target(*t, d),
                Probe::Engine(e) => e.solve_depth(d),
            };
            match outcome {
                Ok(Some(solutions)) => {
                    winner = Some((idx, d, solutions));
                    depth_times.push(depth_start.elapsed());
                    break 'deepen;
                }
                Ok(None) => {}
                Err(e) => {
                    probe_token.cancel();
                    return Err(e);
                }
            }
        }
        depth_times.push(depth_start.elapsed());
    }
    let Some((idx, d, solutions)) = winner else {
        return Err(SynthesisError::DepthLimitReached {
            max_depth: options.max_depth,
        });
    };
    // First SAT at depth d: cancel the sibling probes (any engine state
    // polling the merged token observes it), then tear them down.
    probe_token.cancel();
    // Fold every probe engine's persistent-solver reuse counters — winner
    // and cancelled siblings alike — before tearing the engines down.
    let mut incremental: Option<IncrementalSolveStats> = None;
    for class in &classes {
        if let Some(Probe::Engine(e)) = &class.probe {
            if let Some(s) = e.incremental_stats() {
                incremental.get_or_insert_default().merge(&s);
            }
        }
    }
    stats.incremental = incremental.unwrap_or_default();
    stats.levels_built = cascade.as_ref().map_or(0, BddEngine::levels_built);
    let class = classes.swap_remove(idx);
    let (name, manager_stats) = match (&*cascade, &class.probe) {
        (Some(shared), _) => ("BDD", Some(shared.manager_stats())),
        (None, Some(Probe::Engine(e))) => (e.name(), None),
        (None, _) => unreachable!("the winning class was probed"),
    };
    drop(classes);
    // Debug builds lint every materialized circuit: line bounds,
    // control/target disjointness, library membership and (for small line
    // counts) reversibility — see `qsyn_audit`.
    #[cfg(debug_assertions)]
    for c in solutions.circuits() {
        if let Err(e) = qsyn_audit::circuit_audit::audit_circuit(c, Some(&options.library)) {
            panic!("synthesized circuit at depth {d} failed its audit: {e}");
        }
    }
    debug_assert!(
        solutions
            .circuits()
            .iter()
            .all(|c| class.spec.is_realized_by(c)),
        "winning solutions must realize the class representative"
    );
    let result = SynthesisResult::from_parts(
        solutions,
        d,
        name,
        depth_times,
        start.elapsed(),
        manager_stats,
        incremental,
    );
    Ok(PermutedSynthesisResult {
        result,
        permutation: class.permutation,
        stats,
    })
}

/// The pre-pruning reference search: one independent engine per
/// permutation (each BDD engine with its own cascade and manager), all
/// `n!` built up front and driven in lock-step from depth 0, the winner
/// re-synthesized through plain synthesis.
///
/// Kept (test-only) as the oracle the pruned path is validated against —
/// property tests and the `permute` scenario of the `trajectory` gate
/// compare minimal depths, winning permutations and solutions between the
/// two. Do not use in production paths: this is exactly the `n!` blowup
/// the pruned search exists to avoid.
///
/// # Errors
///
/// See [`synthesize_with_output_permutation`].
#[doc(hidden)]
pub fn synthesize_with_output_permutation_brute_in(
    spec: &Spec,
    options: &SynthesisOptions,
    session: &mut SynthesisSession,
) -> Result<PermutedSynthesisResult, SynthesisError> {
    refuse_oversized(spec)?;
    session.begin_job();
    let perms = permutations(spec.lines());
    let mut candidates: Vec<(Vec<u32>, Spec)> = perms
        .into_iter()
        .filter_map(|p| permute_spec(spec, &p).ok().map(|s| (p, s)))
        .collect();
    // Each probe engine holds an arena of its own at the same time, so
    // each runs on a throwaway session; the caller's lends one at a time.
    let mut engines: Vec<Box<dyn DepthSolver>> = candidates
        .iter()
        .map(|(_, s)| build_engine(s, options, &mut SynthesisSession::new()))
        .collect();
    let governor = ResourceGovernor::from_options(options);
    governor.arm();
    let mut winner: Option<(usize, u32)> = None;
    'deepen: for d in 0..=options.max_depth {
        governor.check(d)?;
        for (idx, engine) in engines.iter_mut().enumerate() {
            if engine.solve_depth(d)?.is_some() {
                winner = Some((idx, d));
                break 'deepen;
            }
        }
    }
    let Some((idx, d)) = winner else {
        return Err(SynthesisError::DepthLimitReached {
            max_depth: options.max_depth,
        });
    };
    let (permutation, permuted_spec) = candidates.swap_remove(idx);
    // Free the probe engines' arenas before the winner re-runs.
    drop(engines);
    let result = {
        let mut capped = options.clone();
        capped.max_depth = d;
        synthesize_in(&permuted_spec, &capped, session)?
    };
    debug_assert_eq!(result.depth(), d);
    Ok(PermutedSynthesisResult {
        result,
        permutation,
        stats: PermutedSearchStats::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::Engine;
    use qsyn_revlogic::{GateLibrary, Permutation};

    fn opts() -> SynthesisOptions {
        SynthesisOptions::new(GateLibrary::mct(), Engine::Bdd).with_max_depth(8)
    }

    #[test]
    fn permutations_enumerate_factorially() {
        assert_eq!(permutations(1).len(), 1);
        assert_eq!(permutations(2).len(), 2);
        assert_eq!(permutations(3).len(), 6);
        assert_eq!(permutations(4).len(), 24);
        assert_eq!(permutations(2)[0], vec![0, 1]); // identity first
    }

    #[test]
    fn swap_becomes_free_with_output_permutation() {
        // SWAP needs 3 CNOTs normally, 0 gates with output relabeling.
        let spec = Spec::from_permutation(&Permutation::from_fn(2, |v| ((v & 1) << 1) | (v >> 1)));
        let plain = crate::synthesize(&spec, &opts()).unwrap();
        assert_eq!(plain.depth(), 3);
        let permuted = synthesize_with_output_permutation(&spec, &opts()).unwrap();
        assert_eq!(permuted.result.depth(), 0);
        assert!(!permuted.is_identity_permutation());
        assert_eq!(permuted.permutation, vec![1, 0]);
    }

    #[test]
    fn identity_permutation_preferred_when_depths_tie() {
        // CNOT: already minimal at depth 1 with identity labeling.
        let spec = Spec::from_permutation(&Permutation::from_fn(2, |v| v ^ ((v & 1) << 1)));
        let permuted = synthesize_with_output_permutation(&spec, &opts()).unwrap();
        assert_eq!(permuted.result.depth(), 1);
        assert!(permuted.is_identity_permutation());
    }

    #[test]
    fn permuted_depth_never_exceeds_plain_depth() {
        use qsyn_revlogic::benchmarks::random_permutation;
        for seed in 0..5u64 {
            let spec = Spec::from_permutation(&random_permutation(2, seed + 11));
            let plain = crate::synthesize(&spec, &opts()).unwrap();
            let permuted = synthesize_with_output_permutation(&spec, &opts()).unwrap();
            assert!(
                permuted.result.depth() <= plain.depth(),
                "seed {seed}: {} > {}",
                permuted.result.depth(),
                plain.depth()
            );
        }
    }

    #[test]
    fn solutions_realize_the_permuted_spec() {
        let spec = Spec::from_permutation(&Permutation::from_map(2, vec![2, 0, 3, 1]));
        let permuted = synthesize_with_output_permutation(&spec, &opts()).unwrap();
        let pspec = permute_spec(&spec, &permuted.permutation).unwrap();
        for c in permuted.result.solutions().circuits() {
            assert!(pspec.is_realized_by(c));
            // And routing output line permutation[j] to spec line j yields
            // the original function on every cared bit.
            for row in 0..spec.num_rows() as u32 {
                let out = c.simulate(row);
                let r = spec.row(row);
                for (j, &p) in permuted.permutation.iter().enumerate() {
                    let bit = 1u32 << j;
                    if r.care & bit != 0 {
                        assert_eq!((out >> p) & 1, (r.value >> j) & 1, "row {row} line {j}");
                    }
                }
            }
        }
    }

    #[test]
    fn permute_spec_roundtrip_under_inverse() {
        let spec = Spec::from_permutation(&Permutation::from_map(2, vec![2, 0, 3, 1]));
        let p = vec![1u32, 0];
        let permuted = permute_spec(&spec, &p).unwrap();
        let back = permute_spec(&permuted, &p).unwrap();
        assert_eq!(back.rows(), spec.rows());
    }

    #[test]
    fn classes_collapse_and_stats_account_for_the_probe_space() {
        // hwb4 is conjugation-symmetric under line rotation: its 24
        // permuted specs collapse to 10 classes (all distinct as tables).
        let spec = qsyn_revlogic::benchmarks::by_name("hwb4").unwrap().spec;
        let options = opts();
        let classes = build_probe_classes(&spec, &permutations(4), &options);
        assert_eq!(classes.len(), 10);
        assert_eq!(classes.iter().map(|c| c.members).sum::<u64>(), 24);
        // The identity permutation leads the first class.
        assert_eq!(classes[0].permutation, vec![0, 1, 2, 3]);
        // Fully don't-care output lines are interchangeable: an embedded
        // single-output function on 4 lines collapses much further.
        let rd32 = qsyn_revlogic::benchmarks::by_name("rd32-v0").unwrap().spec;
        let classes = build_probe_classes(&rd32, &permutations(4), &options);
        assert_eq!(classes.len(), 3);
    }

    #[test]
    fn floors_transfer_across_class_members() {
        // Every member of a class shares the representative's lower bound:
        // the differing-line count is conjugation-invariant.
        let spec = qsyn_revlogic::benchmarks::by_name("hwb4").unwrap().spec;
        let options = opts();
        let luts = sigma_luts(&permutations(4), 4);
        for p in permutations(4) {
            let permuted = permute_spec(&spec, &p).unwrap();
            let direct = depth_lower_bound(&permuted, &options);
            let key = conjugation_key(permuted.rows(), &luts);
            let canonical = Spec::new_incomplete(4, key).unwrap();
            assert_eq!(direct, depth_lower_bound(&canonical, &options), "{p:?}");
        }
    }

    #[test]
    fn pruned_search_reports_probe_savings() {
        let spec = Spec::from_permutation(&Permutation::from_map(2, vec![2, 0, 3, 1]));
        let permuted = synthesize_with_output_permutation(&spec, &opts()).unwrap();
        let s = permuted.stats;
        assert_eq!(s.permutations, 2);
        assert!(s.classes <= s.permutations);
        assert!(s.engines_built <= s.classes);
        assert!(s.probes_run >= 1);
        // BDD probe engines have no SAT instance to keep warm.
        assert_eq!(
            s.incremental,
            crate::driver::IncrementalSolveStats::default()
        );
    }

    #[test]
    fn sat_probe_engines_report_persistent_solver_reuse() {
        // A depth-3 spec forces every surviving class through several
        // depths, so the persistent solvers must add clauses at each and
        // the warm-solver counters must flow out through the stats.
        let spec = Spec::from_permutation(&Permutation::from_map(3, vec![7, 1, 4, 3, 0, 2, 6, 5]));
        let options = SynthesisOptions::new(GateLibrary::mct(), Engine::Sat).with_max_depth(8);
        let permuted = synthesize_with_output_permutation(&spec, &options).unwrap();
        let inc = permuted.stats.incremental;
        assert!(inc.depths > 0, "no incremental depth queries recorded");
        assert!(inc.clauses_added > 0, "no clauses attributed to the deltas");
        // At least one engine answered a second depth on a warm solver.
        assert!(
            inc.clauses_retained > 0,
            "multi-depth probes retained nothing: {inc:?}"
        );
    }

    proptest::proptest! {
        // Each case runs a pruned AND a brute-force n! search; keep the
        // count modest and the specs small (n ≤ 4, sparse cares at n=4).
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        #[test]
        fn prop_pruned_matches_brute_force(lines in 2u32..=4, seed in 0u64..5000) {
            use proptest::prelude::{prop_assert, prop_assert_eq};
            use qsyn_revlogic::benchmarks::{random_incomplete_spec, random_permutation};
            // Complete random permutations on 4 lines can be deep; keep
            // them for n ≤ 3 and exercise n = 4 through sparse
            // incompletely-specified functions (always realizable).
            let spec = match lines {
                4 => random_incomplete_spec(4, seed, 350),
                _ => {
                    if seed % 2 == 0 {
                        Spec::from_permutation(&random_permutation(lines, seed))
                    } else {
                        random_incomplete_spec(lines, seed, 600)
                    }
                }
            };
            let options = opts();
            let mut session = SynthesisSession::new();
            let pruned =
                synthesize_with_output_permutation_in(&spec, &options, &mut session).unwrap();
            let brute =
                synthesize_with_output_permutation_brute_in(&spec, &options, &mut session)
                    .unwrap();
            prop_assert_eq!(pruned.result.depth(), brute.result.depth());
            prop_assert_eq!(&pruned.permutation, &brute.permutation);
            prop_assert_eq!(
                pruned.result.solutions().count(),
                brute.result.solutions().count()
            );
            prop_assert_eq!(
                pruned.result.solutions().circuits(),
                brute.result.solutions().circuits()
            );
            let pspec = permute_spec(&spec, &pruned.permutation).unwrap();
            for c in pruned.result.solutions().circuits() {
                prop_assert!(pspec.is_realized_by(c));
            }
        }
    }

    #[test]
    fn pruned_agrees_with_brute_force_on_small_specs() {
        use qsyn_revlogic::benchmarks::{random_incomplete_spec, random_permutation};
        let options = opts();
        let mut session = SynthesisSession::new();
        let mut specs = Vec::new();
        for seed in 0..4u64 {
            specs.push(Spec::from_permutation(&random_permutation(3, seed)));
            specs.push(random_incomplete_spec(3, seed, 700));
        }
        for spec in &specs {
            let pruned =
                synthesize_with_output_permutation_in(spec, &options, &mut session).unwrap();
            let brute =
                synthesize_with_output_permutation_brute_in(spec, &options, &mut session).unwrap();
            assert_eq!(pruned.result.depth(), brute.result.depth());
            assert_eq!(pruned.permutation, brute.permutation);
            assert_eq!(
                pruned.result.solutions().count(),
                brute.result.solutions().count()
            );
            assert_eq!(
                pruned.result.solutions().circuits(),
                brute.result.solutions().circuits()
            );
            assert!(
                pruned.stats.probes_run
                    <= pruned.stats.permutations * (brute.result.depth() as u64 + 1)
            );
        }
    }

    #[test]
    fn bdd_classes_share_one_cascade_built_once_per_depth() {
        // decod24-v1: 14 classes, all targets of one cascade that is
        // extended exactly to the winning depth and held in one manager.
        let spec = qsyn_revlogic::benchmarks::by_name("decod24-v1")
            .unwrap()
            .spec;
        let mut session = SynthesisSession::new();
        let r = synthesize_with_output_permutation_in(&spec, &opts(), &mut session).unwrap();
        assert_eq!(r.stats.classes, 14);
        assert_eq!(r.stats.engines_built, 14);
        assert_eq!(r.stats.levels_built, u64::from(r.result.depth()));
        assert_eq!(session.stats().managers, 1);
        // SAT keeps one engine per class and builds no cascade.
        let sat = SynthesisOptions::new(GateLibrary::mct(), Engine::Sat).with_max_depth(8);
        let r = synthesize_with_output_permutation(&spec, &sat).unwrap();
        assert_eq!(r.stats.levels_built, 0);
    }

    #[test]
    fn shared_cascade_gc_keeps_every_target_rooted() {
        // decod24-v1 probes 14 classes through one arena. A budget just
        // under the unconstrained peak must be overshot at some safe point
        // (live nodes only fall at a collection), so `enforce_budget`
        // collects there with the earlier targets' ON/DC sets registered:
        // the answer must not change. Any budget must either give that
        // same answer or fail — never answer from an overflowed arena,
        // which would read ⊥ ("UNSAT") for the later classes.
        let spec = qsyn_revlogic::benchmarks::by_name("decod24-v1")
            .unwrap()
            .spec;
        let free = synthesize_with_output_permutation(&spec, &opts()).unwrap();
        let peak = free.result.bdd_stats().unwrap().peak_live;
        let same_answer = |r: &PermutedSynthesisResult, limit: usize| {
            assert_eq!(r.result.depth(), free.result.depth(), "limit {limit}");
            assert_eq!(r.permutation, free.permutation, "limit {limit}");
            assert_eq!(
                r.result.solutions().circuits(),
                free.result.solutions().circuits(),
                "limit {limit}"
            );
        };
        let squeezed = peak - 500;
        let r = synthesize_with_output_permutation(&spec, &opts().with_bdd_node_limit(squeezed))
            .unwrap();
        same_answer(&r, squeezed);
        let mut refused = 0;
        for limit in (1..8).map(|k| peak * k / 8) {
            match synthesize_with_output_permutation(&spec, &opts().with_bdd_node_limit(limit)) {
                Ok(r) => same_answer(&r, limit),
                Err(e) => {
                    refused += 1;
                    assert!(
                        matches!(
                            e,
                            SynthesisError::BudgetExceeded {
                                resource: crate::Resource::BddNodes,
                                ..
                            }
                        ),
                        "limit {limit}: {e}"
                    );
                }
            }
        }
        assert!(refused > 0, "no budget was too small");
    }
}
