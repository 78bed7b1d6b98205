//! The BDD-based synthesis engine (Section 5.2 of the paper).
//!
//! The cascade `F_d` is maintained as a vector of output BDDs over the
//! inputs `X` and the gate-select variables `Y`, built incrementally as
//! `F_d = U_G(F_{d−1}, Y_d)`. For the per-depth check, `F_d = f` is
//! conjoined (with don't-care relaxation for incompletely specified
//! functions), the inputs are universally quantified, and the surviving
//! BDD over `Y` encodes **every** minimal network at once: each model is
//! one realization.
//!
//! Only that check reads the specification; the cascade depends on the
//! line count and the gate library alone. So the engine keeps the cascade
//! apart from its *targets* — the specs checked against it, each held as
//! per-line ON/DC sets in the same arena — and the output-permutation
//! search checks all of its classes against one cascade.

use crate::encode::{decode_circuit, select_bits};
use crate::error::SynthesisError;
use crate::options::{SynthesisOptions, VarOrder};
use crate::session::{ManagerPool, PooledManager, ResourceGovernor, SynthesisSession};
use crate::solutions::SolutionSet;
use qsyn_bdd::Bdd;
use qsyn_revlogic::{Circuit, Gate, Spec};

/// BDD-based depth oracle; see the module docs.
pub struct BddEngine {
    options: SynthesisOptions,
    gates: Vec<Gate>,
    sbits: u32,
    governor: ResourceGovernor,
    cascade: Cascade,
    targets: Vec<Target>,
    /// Cascade levels constructed so far, across rebuilds.
    levels_built: u64,
}

/// The spec-independent BDD state of a (possibly partial) cascade
/// construction. Its arena also holds every registered [`Target`]'s sets.
struct Cascade {
    m: PooledManager,
    /// Variable index of each input line.
    x_vars: Vec<u32>,
    /// Select variables so far, level-major, LSB first.
    y_vars: Vec<u32>,
    /// Cascade outputs `F_d` per line, over `X ∪ Y`.
    state: Vec<Bdd>,
    depth: u32,
    /// Per-line gate-slot scratch for `extend_one_level`, reused across
    /// depths to avoid reallocating `n · 2^sbits` slot tables every level.
    slot_scratch: Vec<Vec<Bdd>>,
    /// Live-node count right after the last garbage collection (or after
    /// construction); the opportunistic trigger compares against it.
    last_gc_live: usize,
}

/// One registered specification: the only part of the engine that
/// `check()` reads besides the cascade.
struct Target {
    spec: Spec,
    /// ON-set and don't-care-set BDDs of the spec per line (over `X`), in
    /// the cascade's arena.
    on: Vec<Bdd>,
    dc: Vec<Bdd>,
}

/// Below this arena size an opportunistic collection is never worth its
/// mandatory computed-table flush.
const GC_MIN_NODES: usize = 8_192;
/// Opportunistic-GC trigger: collect once the arena has grown past this
/// multiple of its size right after the previous collection (CUDD's
/// growth-based heuristic — it bounds both sweep frequency and the
/// fraction of time spent re-deriving flushed cache entries).
const GC_GROWTH_FACTOR: usize = 2;

impl std::fmt::Debug for BddEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BddEngine")
            .field("lines", &self.cascade.x_vars.len())
            .field("gates", &self.gates.len())
            .field("depth", &self.cascade.depth)
            .field("targets", &self.targets.len())
            .finish_non_exhaustive()
    }
}

impl BddEngine {
    /// Prepares an engine for `spec` under `options` with a throwaway
    /// session (see [`new_in`](Self::new_in) for the recycling entry
    /// point).
    pub fn new(spec: &Spec, options: &SynthesisOptions) -> BddEngine {
        BddEngine::new_in(spec, options, &mut SynthesisSession::new())
    }

    /// Prepares an engine inside `session`: its manager is checked out of
    /// the session's [`ManagerPool`] (recycled with warm table capacity
    /// when a retired one is available) and all budgets are enforced
    /// through a [`ResourceGovernor`] built from `options`.
    ///
    /// `spec` becomes target 0, the one [`solve_depth`](Self::solve_depth)
    /// answers for; the output-permutation search registers more targets
    /// on the same cascade.
    pub fn new_in(
        spec: &Spec,
        options: &SynthesisOptions,
        session: &mut SynthesisSession,
    ) -> BddEngine {
        let gates = options.library.enumerate(spec.lines());
        let sbits = select_bits(gates.len());
        let governor = ResourceGovernor::from_options(options);
        governor.arm();
        let cascade = Cascade::fresh(spec.lines(), options, sbits, &session.pool(), &governor);
        let mut engine = BddEngine {
            options: options.clone(),
            gates,
            sbits,
            governor,
            cascade,
            targets: Vec::new(),
            levels_built: 0,
        };
        engine.add_target(spec);
        engine.cascade.last_gc_live = engine.cascade.m.node_count();
        engine
    }

    /// Registers another specification over the same lines and returns
    /// its index for [`solve_target`](Self::solve_target). The cascade
    /// `F_d` depends only on the line count and the gate library, so every
    /// target shares it; a target adds only its per-line ON/DC sets.
    ///
    /// # Panics
    ///
    /// If `spec` has a different line count than the engine.
    pub(crate) fn add_target(&mut self, spec: &Spec) -> usize {
        assert_eq!(
            spec.lines() as usize,
            self.cascade.x_vars.len(),
            "a target must have the cascade's line count"
        );
        let (on, dc) = self.cascade.spec_sets(spec);
        self.targets.push(Target {
            spec: spec.clone(),
            on,
            dc,
        });
        self.targets.len() - 1
    }

    /// Nodes currently live in the BDD manager (for the benchmark
    /// harness and the variable-order ablation).
    pub fn bdd_nodes(&self) -> usize {
        self.cascade.m.node_count()
    }

    /// Full manager counters — live/peak nodes, GC activity, computed-table
    /// hit rate — for the CLI's `--stats` report and the benchmark emitter.
    pub fn manager_stats(&self) -> qsyn_bdd::ManagerStats {
        self.cascade.m.stats()
    }

    /// Cascade levels `F_{d−1} → F_d` constructed so far, counting each
    /// level again when the non-incremental mode rebuilds it.
    pub(crate) fn levels_built(&self) -> u64 {
        self.levels_built
    }

    /// Decides whether a `d`-gate realization of target 0 (the spec the
    /// engine was built for) exists and, if so, returns all of them (up to
    /// `options.max_solutions` materialized circuits).
    ///
    /// Depths must be queried in increasing order when the engine is
    /// incremental.
    ///
    /// # Errors
    ///
    /// * [`SynthesisError::BudgetExceeded`] when the BDD node budget runs
    ///   out (and, via the governor, when the wall clock does). The budget
    ///   covers the whole arena, every target's sets included; once it has
    ///   overflowed every query fails.
    /// * [`SynthesisError::Cancelled`] when the governed token trips; it is
    ///   polled between cascade levels, between quantification steps, and
    ///   (through the manager's interrupt probe) inside long node
    ///   constructions, so cancellation is observed even mid-operation.
    pub fn solve_depth(&mut self, d: u32) -> Result<Option<SolutionSet>, SynthesisError> {
        self.solve_target(0, d)
    }

    /// [`solve_depth`](Self::solve_depth) for target `target`. Depths must
    /// be queried in non-decreasing order across all targets when the
    /// engine is incremental: the cascade is extended to `d` once and
    /// every target's check at `d` reuses it.
    pub(crate) fn solve_target(
        &mut self,
        target: usize,
        d: u32,
    ) -> Result<Option<SolutionSet>, SynthesisError> {
        self.extend_to(d)?;
        let solutions_bdd = self
            .cascade
            .check(&self.governor, &self.targets, target, d)?;
        if solutions_bdd.is_zero() {
            return Ok(None);
        }
        // Debug builds re-check the manager's structural invariants (unique
        // table, ordering, cache coherence; see `qsyn_audit`) once per
        // successful synthesis — on the SAT depth, where the whole cascade
        // construction is live in the arena. Auditing every UNSAT probe, or
        // arenas past the size cap below, would multiply the debug-test
        // wall clock without adding coverage: corruption in a big arena is
        // overwhelmingly also visible in a small one.
        #[cfg(debug_assertions)]
        {
            const AUDIT_NODE_CAP: usize = 100_000;
            if self.cascade.m.node_count() <= AUDIT_NODE_CAP {
                if let Err(e) = qsyn_audit::bdd_audit::audit_manager(&self.cascade.m) {
                    panic!("BDD manager failed its audit after depth {d}: {e}");
                }
            }
        }
        Ok(Some(self.materialize(target, solutions_bdd, d)))
    }

    /// Brings the cascade to `F_d` — rebuilding it from `F_0` first when
    /// the engine is not incremental — and ends at a GC safe point, ready
    /// for [`Cascade::check`] at `d`.
    fn extend_to(&mut self, d: u32) -> Result<(), SynthesisError> {
        self.governor.check(d)?;
        if self.cascade.m.is_overflowed() {
            // A previous depth ran out of nodes; the incremental state is
            // unusable.
            return Err(self.governor.nodes_exceeded(d, self.cascade.m.node_count()));
        }
        if !self.options.incremental && self.cascade.depth != d {
            // Ablation B: every depth builds its cascade from F_0 — once
            // per depth, shared by every target checked at it.
            self.restart();
        }
        assert!(
            self.cascade.depth <= d,
            "depths must be queried in increasing order (at {}, asked {d})",
            self.cascade.depth
        );
        while self.cascade.depth < d {
            self.governor.check(d)?;
            self.cascade
                .extend_one_level(&self.gates, self.sbits, &self.options)?;
            self.levels_built += 1;
            // The budget counts *live* nodes: garbage from earlier depths
            // and checks is collected before concluding it is exhausted.
            self.cascade
                .enforce_budget(&self.governor, &self.targets, &[], d)?;
        }
        // Depth boundary is a GC safe point: every handle the engine still
        // needs is in the root set (state, every target's sets). Collect
        // opportunistically so dead intermediates from previous checks
        // never pile up.
        self.cascade.maybe_collect(&self.targets);
        Ok(())
    }

    /// Back to `F_0` in a recycled arena, with every target's sets
    /// rebuilt in it. The old arena returns to the pool before the new
    /// loan, so a rebuild never holds two managers.
    fn restart(&mut self) {
        self.cascade
            .restart(&self.options, self.sbits, &self.governor);
        for t in &mut self.targets {
            (t.on, t.dc) = self.cascade.spec_sets(&t.spec);
        }
        self.cascade.last_gc_live = self.cascade.m.node_count();
    }

    /// Turns the final BDD over `Y` into circuits — "each path to the
    /// 1-terminal represents an assignment to all variables `y_ij`".
    fn materialize(&self, target: usize, solutions: Bdd, d: u32) -> SolutionSet {
        let b = &self.cascade;
        let spec = &self.targets[target].spec;
        if self.sbits == 0 {
            // Single-gate library: there is exactly one candidate cascade.
            let circuit =
                Circuit::from_gates(spec.lines(), std::iter::repeat_n(self.gates[0], d as usize));
            debug_assert!(spec.is_realized_by(&circuit));
            return SolutionSet::new(vec![circuit], 1, true);
        }
        let total = b.m.count_models(solutions, &b.y_vars);
        let cap = self.options.max_solutions;
        let mut circuits = Vec::new();
        for model in b.m.models(solutions, &b.y_vars).take(cap) {
            let c = decode_circuit(spec.lines(), &self.gates, self.sbits, &model);
            debug_assert!(spec.is_realized_by(&c), "decoded circuit violates the spec");
            // When d is the minimal depth (the iterative-deepening driver's
            // invariant), no model selects an identity padding slot — that
            // would imply a shorter realization. Queried beyond the minimal
            // depth, shorter circuits are legitimately among the models.
            circuits.push(c);
        }
        let exhaustive = total <= circuits.len() as u128;
        SolutionSet::new(circuits, total, exhaustive)
    }
}

impl Cascade {
    /// Manager variable count and the index of input line 0 under the
    /// options' variable order.
    fn layout(lines: u32, options: &SynthesisOptions, sbits: u32) -> (u32, u32) {
        match options.var_order {
            VarOrder::XThenY => (lines, 0),
            VarOrder::YThenX => {
                // Pre-allocate the select block for the worst-case depth so
                // that every Y variable sits above every X variable.
                let y_total = options.max_depth * sbits;
                (y_total + lines, y_total)
            }
        }
    }

    /// Fresh depth-0 state: `F_0 = (x_1, …, x_n)`, over a manager checked
    /// out of `pool` (recycled when one is available) and wired to the
    /// governor's interrupt probe.
    fn fresh(
        lines: u32,
        options: &SynthesisOptions,
        sbits: u32,
        pool: &ManagerPool,
        governor: &ResourceGovernor,
    ) -> Cascade {
        let (num_vars, x_base) = Cascade::layout(lines, options, sbits);
        let mut cascade = Cascade {
            m: pool.checkout(num_vars),
            x_vars: (x_base..x_base + lines).collect(),
            y_vars: Vec::new(),
            state: Vec::new(),
            depth: 0,
            slot_scratch: Vec::new(),
            last_gc_live: 0,
        };
        cascade.start(options, governor);
        cascade
    }

    /// Returns the arena to its pool, takes a fresh loan and restarts at
    /// `F_0`. Every handle into the old arena dangles afterwards.
    fn restart(&mut self, options: &SynthesisOptions, sbits: u32, governor: &ResourceGovernor) {
        let (num_vars, _) = Cascade::layout(self.x_vars.len() as u32, options, sbits);
        self.m.recycle(num_vars);
        self.start(options, governor);
    }

    /// Configures a just-checked-out manager and sets `F_0`. The caller
    /// registers the targets and then sets `last_gc_live`.
    fn start(&mut self, options: &SynthesisOptions, governor: &ResourceGovernor) {
        // Hard caps: a single apply/quantify call must not allocate nodes
        // or memoization entries past the budget (out-of-memory
        // containment; see Manager::set_node_cap / set_cache_cap).
        self.m
            .set_node_cap(options.bdd_node_limit.saturating_add(1_000));
        self.m
            .set_cache_cap(options.bdd_node_limit.saturating_mul(2));
        // Long node constructions poll this probe and collapse to ⊥ when
        // the run is cancelled or out of time; `enforce_budget` turns the
        // latched interrupt into the structured error before any ⊥ can be
        // misread as UNSAT.
        self.m.set_interrupt_poll(Some(governor.interrupt_probe()));
        self.state = self.x_vars.iter().map(|&v| self.m.var(v)).collect();
        self.y_vars.clear();
        self.depth = 0;
    }

    /// The per-line ON-set and don't-care-set BDDs of `spec` over `X`.
    fn spec_sets(&mut self, spec: &Spec) -> (Vec<Bdd>, Vec<Bdd>) {
        let n = spec.lines();
        let m = &mut self.m;
        // Row minterms over X, shared by the per-line ON/DC set BDDs.
        let minterms: Vec<Bdd> = (0..spec.num_rows() as u32)
            .map(|row| {
                let lits: Vec<Bdd> = (0..n)
                    .map(|l| m.literal(self.x_vars[l as usize], (row >> l) & 1 == 1))
                    .collect();
                m.and_all(lits)
            })
            .collect();
        let mut sets = |rows: &[u32]| m.or_all(rows.iter().map(|&r| minterms[r as usize]));
        let on = (0..n).map(|l| sets(&spec.on_set(l))).collect();
        let dc = (0..n).map(|l| sets(&spec.dc_set(l))).collect();
        (on, dc)
    }

    /// The engine's GC root set: every handle that must survive a
    /// collection at a safe point — the cascade state `F_d` and every
    /// registered target's per-line ON/DC sets. (Projection BDDs of bare
    /// variables are deliberately not rooted: `Manager::var` re-creates
    /// them on demand.)
    fn gc_roots(&self, targets: &[Target]) -> Vec<Bdd> {
        let mut roots = Vec::with_capacity(self.state.len() * (1 + 2 * targets.len()));
        roots.extend_from_slice(&self.state);
        for t in targets {
            roots.extend_from_slice(&t.on);
            roots.extend_from_slice(&t.dc);
        }
        roots
    }

    /// Mark-and-sweep with the engine roots plus `extra` (handles a caller
    /// mid-computation still needs, e.g. the check() accumulator).
    fn collect(&mut self, targets: &[Target], extra: &[Bdd]) -> usize {
        let mut roots = self.gc_roots(targets);
        roots.extend_from_slice(extra);
        let freed = self.m.collect_garbage(&roots);
        self.last_gc_live = self.m.node_count();
        freed
    }

    /// Opportunistic collection at a depth boundary: only once the arena
    /// has outgrown `GC_GROWTH_FACTOR` times its post-GC size (and is big
    /// enough for the sweep to beat its computed-table flush).
    fn maybe_collect(&mut self, targets: &[Target]) {
        let live = self.m.node_count();
        if live >= GC_MIN_NODES && live >= self.last_gc_live.saturating_mul(GC_GROWTH_FACTOR) {
            self.collect(targets, &[]);
        }
    }

    /// Budget enforcement at a GC safe point: when the live-node count
    /// overshoots, collect (rooting `extra` besides the engine state) and
    /// only report [`SynthesisError::BudgetExceeded`] if the overshoot
    /// survives the collection — garbage must never exhaust the budget.
    fn enforce_budget(
        &mut self,
        governor: &ResourceGovernor,
        targets: &[Target],
        extra: &[Bdd],
        d: u32,
    ) -> Result<(), SynthesisError> {
        // An interrupted manager has been collapsing results to ⊥ since
        // its probe fired: surface the structured stop reason before any
        // ⊥ can be mistaken for UNSAT. Cancellation and deadlines are
        // sticky, so the governor check cannot miss.
        if self.m.is_interrupted() {
            governor.check(d)?;
            return Err(SynthesisError::Internal {
                what: "BDD manager interrupted without a tripped token",
            });
        }
        // Overflow must be ruled out before trusting any ⊥ result; GC
        // cannot repair an overflowed manager.
        if self.m.is_overflowed() {
            return Err(governor.nodes_exceeded(d, self.m.node_count()));
        }
        if self.m.node_count() > governor.node_limit() {
            self.collect(targets, extra);
            if self.m.node_count() > governor.node_limit() {
                return Err(governor.nodes_exceeded(d, self.m.node_count()));
            }
        }
        Ok(())
    }

    /// Applies one universal gate: `F_{d+1} = U_G(F_d, Y_{d+1})`.
    fn extend_one_level(
        &mut self,
        gates: &[Gate],
        sbits: u32,
        options: &SynthesisOptions,
    ) -> Result<(), SynthesisError> {
        let n = self.state.len();
        let level_vars: Vec<u32> = match options.var_order {
            VarOrder::XThenY => {
                let base = self.m.add_vars(sbits);
                (base..base + sbits).collect()
            }
            VarOrder::YThenX => {
                if self.depth >= options.max_depth {
                    return Err(SynthesisError::BudgetExceeded {
                        depth: self.depth + 1,
                        resource: crate::Resource::SelectVarBlock,
                        spent: u64::from(self.depth + 1),
                        limit: u64::from(options.max_depth),
                    });
                }
                let base = self.depth * sbits;
                (base..base + sbits).collect()
            }
        };
        // Slot table: per line, the output of each of the 2^s gate slots
        // (identity for the padding slots beyond q). The per-line buffers
        // live on the engine and are reused across depths.
        let slot_count = 1usize << sbits;
        self.slot_scratch.resize(n, Vec::new());
        for j in 0..n {
            let identity = self.state[j];
            let buf = &mut self.slot_scratch[j];
            buf.clear();
            buf.resize(slot_count, identity);
        }
        for (k, g) in gates.iter().enumerate() {
            for (line, out) in self.apply_gate(g) {
                self.slot_scratch[line as usize][k] = out;
            }
        }
        // Multiplexer reduction over the select bits, LSB first, halving
        // the slot table in place.
        for j in 0..n {
            let mut len = slot_count;
            for &yv in &level_vars {
                let y = self.m.var(yv);
                len /= 2;
                for i in 0..len {
                    let lo = self.slot_scratch[j][2 * i];
                    let hi = self.slot_scratch[j][2 * i + 1];
                    self.slot_scratch[j][i] = self.m.ite(y, hi, lo);
                }
            }
            debug_assert_eq!(len.max(1), 1);
            self.state[j] = self.slot_scratch[j][0];
        }
        self.y_vars.extend(level_vars);
        self.depth += 1;
        Ok(())
    }

    /// Symbolic application of a concrete gate to the current state,
    /// returning only the changed lines.
    fn apply_gate(&mut self, g: &Gate) -> Vec<(u32, Bdd)> {
        match *g {
            Gate::Toffoli {
                controls,
                negative_controls,
                target,
            } => {
                let mut cond = self.control_conjunction(controls.iter());
                for c in negative_controls.iter() {
                    let nc = {
                        let s = self.state[c as usize];
                        self.m.not(s)
                    };
                    cond = self.m.and(cond, nc);
                }
                let out = {
                    let t = self.state[target as usize];
                    self.m.xor(t, cond)
                };
                vec![(target, out)]
            }
            Gate::Fredkin { controls, targets } => {
                let cond = self.control_conjunction(controls.iter());
                let a = self.state[targets.0 as usize];
                let b = self.state[targets.1 as usize];
                let out_a = self.m.ite(cond, b, a);
                let out_b = self.m.ite(cond, a, b);
                vec![(targets.0, out_a), (targets.1, out_b)]
            }
            Gate::Peres { control, targets } => {
                let c = self.state[control as usize];
                let a = self.state[targets.0 as usize];
                let b = self.state[targets.1 as usize];
                let out_a = self.m.xor(c, a);
                let ca = self.m.and(c, a);
                let out_b = self.m.xor(ca, b);
                vec![(targets.0, out_a), (targets.1, out_b)]
            }
        }
    }

    fn control_conjunction(&mut self, controls: impl Iterator<Item = u32>) -> Bdd {
        let parts: Vec<Bdd> = controls.map(|c| self.state[c as usize]).collect();
        self.m.and_all(parts)
    }

    /// Computes `∀X ⋀_l (f_l^dc ∨ (F_{d,l} ⊙ f_l^on))` for the spec of
    /// `targets[target]` — the quantified formula of Section 4 — and
    /// returns the BDD over `Y`. Every target stays rooted across the
    /// collections this triggers.
    ///
    /// The conjunction is **quantified as it is built**: the per-line
    /// agreement functions go to the fused ∀-AND kernel together, so the
    /// full unquantified product `⋀_l` — the peak-live-node bottleneck of
    /// the whole synthesis — is never materialized. This is sound because
    /// ∀ distributes over ∧ (it would *not* be for ∃). The node budget and
    /// the cancellation token are still enforced between lines.
    ///
    /// # Errors
    ///
    /// [`SynthesisError::BudgetExceeded`] when the node budget runs out
    /// mid-construction; cancellation errors from the governor.
    fn check(
        &mut self,
        governor: &ResourceGovernor,
        targets: &[Target],
        target: usize,
        d: u32,
    ) -> Result<Bdd, SynthesisError> {
        let n = self.state.len();
        let Target { on, dc, .. } = &targets[target];
        let mut oks = Vec::with_capacity(n);
        for l in 0..n {
            governor.check(d)?;
            let agree = self.m.xnor(self.state[l], on[l]);
            let ok = self.m.or(dc[l], agree);
            oks.push(ok);
            // Between lines is a safe point: root the agreement
            // functions built so far.
            self.enforce_budget(governor, targets, &oks, d)?;
        }
        // The fused descent walks the X block across all lines at once, so
        // the conjunction over X is never materialized and the first
        // failing input row aborts the whole check.
        let acc = self.m.forall_and_all(&oks, &self.x_vars);
        self.enforce_budget(governor, targets, &[acc], d)?;
        Ok(acc)
    }

    /// The build-then-quantify reference for [`check`](Self::check): the
    /// whole conjunction `⋀_l` first, then `∀` one input variable at a
    /// time. It collects no garbage, so every handle the caller holds
    /// stays valid.
    #[cfg(test)]
    fn check_unfused(&mut self, target: &Target) -> Bdd {
        let mut eq = self.m.one();
        for l in 0..self.state.len() {
            let agree = self.m.xnor(self.state[l], target.on[l]);
            let ok = self.m.or(target.dc[l], agree);
            eq = self.m.and(eq, ok);
        }
        // X sits on top of the order, so quantifying from the innermost
        // (largest) X variable upward strips one top level at a time.
        for &v in self.x_vars.iter().rev() {
            eq = self.m.forall_var(eq, v);
        }
        eq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::Engine;
    use qsyn_revlogic::{GateLibrary, LineSet, Permutation};

    fn opts(lib: GateLibrary) -> SynthesisOptions {
        SynthesisOptions::new(lib, Engine::Bdd)
    }

    #[test]
    fn depth_zero_accepts_identity() {
        let spec = Spec::from_permutation(&Permutation::identity(2));
        let mut e = BddEngine::new(&spec, &opts(GateLibrary::mct()));
        let sols = e.solve_depth(0).unwrap().expect("identity needs 0 gates");
        assert_eq!(sols.depth(), 0);
        assert_eq!(sols.count(), 1);
    }

    #[test]
    fn depth_zero_rejects_non_identity() {
        let spec = Spec::from_permutation(&Permutation::from_map(1, vec![1, 0]));
        let mut e = BddEngine::new(&spec, &opts(GateLibrary::mct()));
        assert!(e.solve_depth(0).unwrap().is_none());
        // …and a single NOT gate realizes it at depth 1.
        let sols = e.solve_depth(1).unwrap().expect("NOT realizes it");
        assert_eq!(sols.depth(), 1);
        assert_eq!(sols.circuits()[0].gates()[0], Gate::not(0));
    }

    #[test]
    fn single_gate_library_uses_no_select_vars() {
        // 1 line: MCT library = {NOT(0)} only. NOT∘NOT = identity.
        let spec = Spec::from_permutation(&Permutation::from_map(1, vec![1, 0]));
        let mut e = BddEngine::new(&spec, &opts(GateLibrary::mct()));
        assert!(e.solve_depth(0).unwrap().is_none());
        let sols = e.solve_depth(1).unwrap().unwrap();
        assert_eq!(sols.count(), 1);
        assert_eq!(sols.circuits()[0].len(), 1);
    }

    #[test]
    fn cnot_spec_found_at_depth_one_with_all_solutions() {
        // x2 ^= x1 on 2 lines.
        let spec = Spec::from_permutation(&Permutation::from_fn(2, |v| v ^ ((v & 1) << 1)));
        let mut e = BddEngine::new(&spec, &opts(GateLibrary::mct()));
        assert!(e.solve_depth(0).unwrap().is_none());
        let sols = e.solve_depth(1).unwrap().expect("CNOT realizes it");
        assert_eq!(sols.count(), 1, "only one 1-gate MCT realization");
        assert!(sols.is_exhaustive());
        assert_eq!(
            sols.circuits()[0].gates()[0],
            Gate::toffoli(LineSet::from_iter([0]), 1)
        );
    }

    #[test]
    fn swap_needs_three_mct_but_one_fredkin() {
        let spec = Spec::from_permutation(&Permutation::from_fn(2, |v| {
            ((v & 1) << 1) | ((v >> 1) & 1)
        }));
        // MCT: 3 CNOTs.
        let mut e = BddEngine::new(&spec, &opts(GateLibrary::mct()));
        assert!(e.solve_depth(0).unwrap().is_none());
        assert!(e.solve_depth(1).unwrap().is_none());
        assert!(e.solve_depth(2).unwrap().is_none());
        let sols = e.solve_depth(3).unwrap().expect("swap = 3 CNOTs");
        assert_eq!(sols.depth(), 3);
        // Two orders: (a→b)(b→a)(a→b) and (b→a)(a→b)(b→a).
        assert_eq!(sols.count(), 2);
        // MCT+MCF: a single controlled-free swap.
        let mut e2 = BddEngine::new(&spec, &opts(GateLibrary::mct_mcf()));
        assert!(e2.solve_depth(0).unwrap().is_none());
        let sols2 = e2.solve_depth(1).unwrap().expect("one swap gate");
        assert_eq!(sols2.depth(), 1);
        // Ordered Fredkin targets make the same swap selectable twice.
        assert_eq!(sols2.count(), 2);
    }

    #[test]
    fn all_returned_circuits_realize_the_spec() {
        let spec = Spec::from_permutation(&Permutation::from_map(2, vec![3, 0, 1, 2]));
        let mut e = BddEngine::new(&spec, &opts(GateLibrary::mct()));
        for d in 0..=6 {
            if let Some(sols) = e.solve_depth(d).unwrap() {
                assert!(sols.is_exhaustive());
                for c in sols.circuits() {
                    assert!(spec.is_realized_by(c));
                    assert_eq!(c.len(), d as usize);
                }
                return;
            }
        }
        panic!("no realization found up to depth 6");
    }

    #[test]
    fn incomplete_spec_exploits_dont_cares() {
        // Output line 2 must be a AND b; line 0/1 garbage; constant 0 on
        // line 2 — a single Toffoli satisfies it.
        let spec = qsyn_revlogic::embedding::Embedding {
            lines: 3,
            input_lines: vec![0, 1],
            constants: vec![(2, false)],
            output_lines: vec![2],
        }
        .embed(|ab| (ab & 1) & (ab >> 1))
        .unwrap();
        let mut e = BddEngine::new(&spec, &opts(GateLibrary::mct()));
        assert!(e.solve_depth(0).unwrap().is_none());
        let sols = e.solve_depth(1).unwrap().expect("one Toffoli suffices");
        assert!(sols
            .circuits()
            .iter()
            .any(|c| c.gates()[0] == Gate::toffoli(LineSet::from_iter([0, 1]), 2)));
    }

    #[test]
    fn y_then_x_order_gives_same_answers() {
        let spec = Spec::from_permutation(&Permutation::from_map(2, vec![1, 2, 3, 0]));
        let mut normal = BddEngine::new(&spec, &opts(GateLibrary::mct()));
        let mut flipped = BddEngine::new(
            &spec,
            &opts(GateLibrary::mct()).with_var_order(VarOrder::YThenX),
        );
        for d in 0..4 {
            let a = normal.solve_depth(d).unwrap().map(|s| s.count());
            let b = flipped.solve_depth(d).unwrap().map(|s| s.count());
            assert_eq!(a, b, "depth {d}");
            if a.is_some() {
                return;
            }
        }
        panic!("no realization found up to depth 3");
    }

    /// Walks `spec` from depth 0 to its minimal depth and asserts at every
    /// depth that [`Cascade::check`] returns the same BDD as the unfused
    /// reference — the same handle in the shared manager, so equal
    /// functions over `Y`, not only equal depths and model counts.
    /// Returns the minimal depth, or the budget error that stopped the walk.
    fn check_matches_unfused(
        spec: &Spec,
        options: &SynthesisOptions,
    ) -> Result<u32, SynthesisError> {
        let mut e = BddEngine::new(spec, options);
        for d in 0..=options.max_depth {
            e.extend_to(d)?;
            let fused = e.cascade.check(&e.governor, &e.targets, 0, d)?;
            let unfused = e.cascade.check_unfused(&e.targets[0]);
            // A latched interrupt or overflow collapses results to ⊥;
            // surface it as the error it is before comparing.
            e.cascade
                .enforce_budget(&e.governor, &e.targets, &[fused, unfused], d)?;
            assert_eq!(fused, unfused, "depth {d}");
            if !fused.is_zero() {
                return Ok(d);
            }
        }
        Err(SynthesisError::DepthLimitReached {
            max_depth: options.max_depth,
        })
    }

    /// The Table 1 functions small enough for unit-test time.
    const FAST_BENCHES: [&str; 5] = ["3_17", "rd32-v0", "rd32-v1", "decod24-v0", "decod24-v2"];

    #[test]
    fn check_equals_the_unfused_reference_on_the_fast_functions() {
        let mut specs: Vec<(&str, Spec)> = FAST_BENCHES
            .iter()
            .map(|&name| (name, qsyn_revlogic::benchmarks::by_name(name).unwrap().spec))
            .collect();
        let cycle = Permutation::from_map(2, vec![1, 2, 3, 0]);
        specs.push(("2-line 4-cycle", Spec::from_permutation(&cycle)));
        for (name, spec) in &specs {
            let depth = check_matches_unfused(spec, &opts(GateLibrary::mct()))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let direct = crate::synthesize(spec, &opts(GateLibrary::mct())).unwrap();
            assert_eq!(depth, direct.depth(), "{name}");
        }
    }

    /// The whole Table 1 set. The hard functions (hwb4, 4_49, the mod5/alu
    /// families at depth ≥ 8) run for minutes in exact mode, so each gets
    /// a wall budget and counts only when it finishes within it. The fast
    /// functions must never be skipped, so the test still fails outright
    /// if a kernel regression makes them blow the budget.
    #[test]
    #[ignore = "minutes of wall clock; run in release with --ignored (nightly CI job)"]
    fn check_equals_the_unfused_reference_on_table1() {
        const BUDGET: std::time::Duration = std::time::Duration::from_secs(60);
        let mut compared = Vec::new();
        let mut skipped = Vec::new();
        for b in qsyn_revlogic::benchmarks::suite() {
            let options = opts(GateLibrary::mct()).with_time_budget(BUDGET);
            match check_matches_unfused(&b.spec, &options) {
                Ok(_) => compared.push(b.name),
                Err(_) => skipped.push(b.name),
            }
        }
        println!("compared: {compared:?}");
        println!("skipped (over budget): {skipped:?}");
        for name in FAST_BENCHES {
            assert!(
                compared.contains(&name),
                "{name} is a fast benchmark and must fit the budget"
            );
        }
    }

    #[test]
    fn gc_stats_are_reported_and_peak_tracks_live() {
        let spec = Spec::from_permutation(&Permutation::from_map(3, {
            let mut ident: Vec<u32> = (0..8).collect();
            ident.swap(6, 7); // a Toffoli away from identity
            ident
        }));
        let mut e = BddEngine::new(&spec, &opts(GateLibrary::mct()));
        for d in 0..3 {
            if e.solve_depth(d).unwrap().is_some() {
                break;
            }
        }
        let stats = e.manager_stats();
        assert!(stats.nodes > 0);
        assert!(stats.peak_live >= stats.nodes);
        assert!(stats.cache_hits + stats.cache_misses > 0);
    }

    #[test]
    fn non_incremental_mode_gives_same_answers() {
        let spec = Spec::from_permutation(&Permutation::from_map(2, vec![2, 3, 1, 0]));
        let mut inc = BddEngine::new(&spec, &opts(GateLibrary::mct()));
        let mut scratch = BddEngine::new(&spec, &opts(GateLibrary::mct()).with_incremental(false));
        for d in 0..5 {
            let a = inc.solve_depth(d).unwrap().map(|s| s.count());
            let b = scratch.solve_depth(d).unwrap().map(|s| s.count());
            assert_eq!(a, b, "depth {d}");
            if a.is_some() {
                return;
            }
        }
        panic!("no realization found");
    }

    #[test]
    fn non_incremental_mode_holds_one_manager() {
        // Each depth's rebuild returns the old arena to the pool before it
        // checks one out, so ablation B never holds two managers.
        let spec = qsyn_revlogic::benchmarks::spec_3_17();
        for incremental in [true, false] {
            let mut session = SynthesisSession::new();
            let options = opts(GateLibrary::mct()).with_incremental(incremental);
            let r = crate::synthesize_in(&spec, &options, &mut session).unwrap();
            assert_eq!(r.depth(), 6);
            assert_eq!(session.stats().managers, 1, "incremental: {incremental}");
        }
    }

    /// Runs every target through depths `0..=max` (stopping each at its
    /// first SAT) on one shared engine and on one engine per spec, and
    /// asserts identical answers; returns the shared engine.
    fn shared_matches_separate(specs: &[Spec], options: &SynthesisOptions, max: u32) -> BddEngine {
        let mut shared = BddEngine::new(&specs[0], options);
        for spec in &specs[1..] {
            shared.add_target(spec);
        }
        let mut alone: Vec<BddEngine> = specs.iter().map(|s| BddEngine::new(s, options)).collect();
        let mut open = vec![true; specs.len()];
        for d in 0..=max {
            for (t, engine) in alone.iter_mut().enumerate() {
                if !open[t] {
                    continue;
                }
                let a = shared.solve_target(t, d).unwrap();
                let b = engine.solve_depth(d).unwrap();
                let answer = |s: &SolutionSet| (s.count(), s.circuits().to_vec());
                assert_eq!(
                    a.as_ref().map(answer),
                    b.as_ref().map(answer),
                    "target {t}, depth {d}"
                );
                open[t] = a.is_none();
            }
        }
        assert!(
            open.iter().all(|o| !o),
            "every target is realizable by depth {max}"
        );
        shared
    }

    /// Unrelated 3-line functions, all realizable within 6 gates: not
    /// output permutations of one another, so their ON/DC sets share no
    /// nodes. The deepest comes last, so the collections at the deep
    /// levels run while a target other than target 0 is still open.
    fn unrelated_specs() -> [Spec; 3] {
        [
            Spec::from_permutation(&Permutation::from_map(3, vec![1, 0, 3, 2, 5, 4, 7, 6])),
            Spec::from_permutation(&Permutation::from_map(3, vec![1, 2, 3, 4, 5, 6, 7, 0])),
            qsyn_revlogic::benchmarks::spec_3_17(),
        ]
    }

    #[test]
    fn targets_share_the_cascade_and_answer_like_separate_engines() {
        // Collections during one target's check must keep every other
        // target's sets alive.
        let shared = shared_matches_separate(&unrelated_specs(), &opts(GateLibrary::mct()), 6);
        assert!(shared.manager_stats().gc_runs > 0, "no collection ran");
        assert_eq!(shared.levels_built(), 6, "each level built once");
    }

    #[test]
    fn non_incremental_mode_rebuilds_once_per_depth() {
        let options = opts(GateLibrary::mct()).with_incremental(false);
        let shared = shared_matches_separate(&unrelated_specs(), &options, 6);
        // Depths 1..=6 each rebuilt from F_0 once, for all targets.
        assert_eq!(shared.levels_built(), (1..=6).sum::<u64>());
    }

    #[test]
    fn node_limit_aborts() {
        let spec = Spec::from_permutation(&Permutation::from_map(3, vec![7, 1, 4, 3, 0, 2, 6, 5]));
        let mut e = BddEngine::new(&spec, &opts(GateLibrary::mct()).with_bdd_node_limit(50));
        let err = (0..8)
            .find_map(|d| e.solve_depth(d).err())
            .expect("tiny node budget must trip");
        assert!(matches!(
            err,
            SynthesisError::BudgetExceeded {
                resource: crate::Resource::BddNodes,
                ..
            }
        ));
    }

    #[test]
    fn cancelled_token_stops_solve_depth() {
        let spec = Spec::from_permutation(&Permutation::from_map(2, vec![3, 0, 1, 2]));
        let token = crate::CancelToken::new();
        let mut e = BddEngine::new(
            &spec,
            &opts(GateLibrary::mct()).with_cancel_token(token.clone()),
        );
        assert!(e.solve_depth(0).unwrap().is_none());
        token.cancel();
        assert_eq!(
            e.solve_depth(1).unwrap_err(),
            SynthesisError::Cancelled { depth: 1 }
        );
    }

    #[test]
    fn max_solutions_truncates_but_counts_exactly() {
        // The identity at depth 2 has many realizations (g then g⁻¹ for
        // every self-inverse gate). Cap materialization at 3.
        let spec = Spec::from_permutation(&Permutation::identity(2));
        let mut e = BddEngine::new(&spec, &opts(GateLibrary::mct()).with_max_solutions(3));
        // Depth 0 finds the identity; force depth-2 query via fresh engine
        // semantics: ask directly.
        let sols0 = e.solve_depth(0).unwrap().unwrap();
        assert_eq!(sols0.count(), 1);
        let sols2 = e.solve_depth(2).unwrap().expect("g·g⁻¹ realizations");
        assert!(sols2.count() > 3);
        assert_eq!(sols2.circuits().len(), 3);
        assert!(!sols2.is_exhaustive());
    }
}
