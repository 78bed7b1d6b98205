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
//!
//! # Levels in flip form
//!
//! A level is never built as the paper's slot table (every gate's full
//! output per line, muxed by the select bits). Each line instead moves by
//! a flip, `F_{d,j} = F_{d−1,j} ⊕ Δ_j`, where `Δ_j` multiplexes the
//! per-slot *differences* `δ_{k,j} = g_k(F_{d−1})_j ⊕ F_{d−1,j}`: zero on
//! padding slots and off a gate's targets. In enumerate order with
//! LSB-first select bits, each positive-control Toffoli target `t` owns
//! an aligned run of `2^(n−1)` slots, `k = t·2^(n−1) + mask`, mask bit `i`
//! taking line `others_t[i]` as a control; the whole run collapses to
//! `⋀_i (y_i → F_{d−1,others_t[i]})` on line `t`. Fredkin target pairs
//! own aligned runs of `2^(n−2)` slots of the same shape (conjoined with
//! `F_a ⊕ F_b`); Peres and mixed-polarity gates enter one slot at a time.
//! The result is the same function, so the same canonical BDD, as the
//! slot table, which stays as a `#[cfg(test)]` reference.
//!
//! # A cascade outlives its job
//!
//! A [`SynthesisSession`] keeps the cascade of its last BDD job, and the
//! next job over the same lines and library starts from it: it registers
//! its targets, builds only the levels past the deepest one kept, checks
//! depth `d` against the kept `F_d`, and drops its targets at the end.
//! For that the cascade keeps every level `F_0 ..= F_d` rooted, not just
//! the newest. Under `XThenY` level `i` gets the same select variables in
//! every job, so the models — and the circuit order — do not change.
//!
//! Kept levels cost arena space, so they are capped: each level's live-node
//! growth is counted as it is committed, and once the total passes
//! [`RETAINED_SHARE`]`⁻¹` of the node budget the lower levels are let go
//! and the cascade is not handed back. The cap keeps whole small cascades
//! (3- and 4-line MCT to depth 6 count 2.3k and 8.8k nodes) and lets the
//! 5- and 6-line Table 1 rows' levels go within their first few. Kept levels count toward the node budget; when
//! the budget trips while they are held, the engine drops them and
//! rebuilds from `F_0` before it reports a stop. Ablation B (rebuild per
//! depth) and the `YThenX` order never keep a cascade. The opportunistic
//! GC trigger (`last_gc_live`) carries over from job to job: resetting it
//! at every job start would keep any collection from ever firing.

use crate::encode::{decode_circuit, select_bits};
use crate::error::{Resource, SynthesisError};
use crate::options::{SynthesisOptions, VarOrder};
use crate::session::{
    passes_check_in_audit, ManagerPool, PooledManager, ResourceGovernor, SynthesisSession,
};
use crate::solutions::SolutionSet;
use qsyn_bdd::Bdd;
use qsyn_revlogic::{Circuit, Gate, GateLibrary, LineSet, Spec};

/// BDD-based depth oracle; see the module docs.
pub struct BddEngine {
    options: SynthesisOptions,
    gates: Vec<Gate>,
    /// The closed-form runs among `gates`, by slot.
    runs: Vec<Run>,
    sbits: u32,
    governor: ResourceGovernor,
    cascade: Cascade,
    targets: Vec<Target>,
    /// Cascade levels constructed so far, across rebuilds.
    levels_built: u64,
}

/// The spec-independent BDD state of a (possibly partial) cascade
/// construction. Its arena also holds every registered [`Target`]'s sets.
/// A session keeps one across jobs (see the module docs).
#[derive(Debug)]
pub(crate) struct Cascade {
    m: PooledManager,
    /// The library the levels were built from; a later job reuses the
    /// cascade only under the same library and line count.
    library: GateLibrary,
    /// Variable index of each input line.
    x_vars: Vec<u32>,
    /// Select variables so far, level-major, LSB first.
    y_vars: Vec<u32>,
    /// Cascade outputs `F_0 ..= F_depth`, per line over `X ∪ Y`. While
    /// `retain` holds every level is rooted; otherwise only the newest,
    /// and the lower ones are empty.
    levels: Vec<Vec<Bdd>>,
    /// Live-node count right after the last garbage collection (or after
    /// construction); the opportunistic trigger compares against it.
    last_gc_live: usize,
    /// Live-node growth counted over the committed levels.
    level_nodes: usize,
    /// The `level_nodes` past which the levels stop being kept.
    retained_cap: usize,
    /// Every level stays rooted, so the cascade can outlive its job.
    retain: bool,
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

/// An aligned run of `2^free.len()` select slots from `base` whose gates
/// share their targets and differ only in which `free` lines they take as
/// controls: slot `base + mask` takes line `free[i]` iff bit `i` of `mask`
/// is set. One closed form covers the whole run
/// ([`Cascade::run_delta`]).
struct Run {
    base: usize,
    free: Vec<u32>,
    kind: RunKind,
}

#[derive(Clone, Copy)]
enum RunKind {
    /// Positive-control Toffoli gates on this target.
    Toffoli(u32),
    /// Fredkin gates on these targets.
    Fredkin(u32, u32),
}

impl RunKind {
    fn targets(self) -> LineSet {
        match self {
            RunKind::Toffoli(t) => LineSet::EMPTY.with(t),
            RunKind::Fredkin(a, b) => LineSet::EMPTY.with(a).with(b),
        }
    }

    fn gate(self, controls: LineSet) -> Gate {
        match self {
            RunKind::Toffoli(t) => Gate::toffoli(controls, t),
            RunKind::Fredkin(a, b) => Gate::fredkin(controls, a, b),
        }
    }
}

/// The closed-form runs of `gates` (in select order) over `lines` lines,
/// by slot. [`GateLibrary::enumerate`](qsyn_revlogic::GateLibrary::enumerate)
/// lists each Toffoli target's `2^(n−1)` positive-control gates and each
/// Fredkin target pair's `2^(n−2)` gates as such runs, at aligned offsets;
/// every gate outside a run (Peres, mixed-polarity Toffoli) is a slot of
/// its own.
fn closed_form_runs(gates: &[Gate], lines: u32) -> Vec<Run> {
    let mut runs = Vec::new();
    let mut k = 0;
    while k < gates.len() {
        let kind = match gates[k] {
            Gate::Toffoli {
                controls,
                negative_controls,
                target,
            } if controls.is_empty() && negative_controls.is_empty() => {
                Some(RunKind::Toffoli(target))
            }
            Gate::Fredkin {
                controls,
                targets: (a, b),
            } if controls.is_empty() => Some(RunKind::Fredkin(a, b)),
            _ => None,
        };
        if let Some(kind) = kind {
            let targets = kind.targets();
            let free: Vec<u32> = (0..lines).filter(|&l| !targets.contains(l)).collect();
            let len = 1usize << free.len();
            let controls = |mask: usize| -> LineSet {
                let on = free.iter().enumerate().filter(|&(i, _)| mask >> i & 1 == 1);
                on.map(|(_, &l)| l).collect()
            };
            let is_run = k % len == 0
                && gates.get(k..k + len).is_some_and(|slots| {
                    let mut masks = slots.iter().enumerate();
                    masks.all(|(mask, g)| *g == kind.gate(controls(mask)))
                });
            if is_run {
                runs.push(Run {
                    base: k,
                    free,
                    kind,
                });
                k += len;
                continue;
            }
        }
        k += 1;
    }
    runs
}

/// Below this arena size an opportunistic collection is never worth its
/// mandatory computed-table flush.
const GC_MIN_NODES: usize = 8_192;
/// Opportunistic-GC trigger: collect once the arena has grown past this
/// multiple of its size right after the previous collection (CUDD's
/// growth-based heuristic — it bounds both sweep frequency and the
/// fraction of time spent re-deriving flushed cache entries).
const GC_GROWTH_FACTOR: usize = 2;

/// A cascade keeps its levels while their node growth stays within this
/// fraction of the node budget (≈ 9.8k nodes of the default 20M): whole
/// 3- and 4-line MCT cascades to depth 6, while the 5- and 6-line Table 1
/// rows pass it early and peak and collect as a cascade that keeps
/// nothing.
const RETAINED_SHARE: usize = 2048;

impl std::fmt::Debug for BddEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BddEngine")
            .field("lines", &self.cascade.x_vars.len())
            .field("gates", &self.gates.len())
            .field("depth", &self.cascade.depth())
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

    /// Prepares an engine inside `session`: it starts from the cascade the
    /// session kept when that one fits (same lines and library), else from
    /// a manager checked out of the session's [`ManagerPool`] (recycled
    /// with warm table capacity when a retired one is available). All
    /// budgets are enforced through a [`ResourceGovernor`] built from
    /// `options`.
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
        let runs = closed_form_runs(&gates, spec.lines());
        let sbits = select_bits(gates.len());
        let governor = ResourceGovernor::from_options(options);
        governor.arm();
        let kept = session.take_cascade(spec.lines(), options);
        let resumed = kept.is_some();
        let cascade = match kept {
            Some(mut cascade) => {
                cascade.arm(options, &governor);
                cascade
            }
            None => Cascade::fresh(spec.lines(), options, sbits, &session.pool(), &governor),
        };
        let mut engine = BddEngine {
            options: options.clone(),
            gates,
            runs,
            sbits,
            governor,
            cascade,
            targets: Vec::new(),
            levels_built: 0,
        };
        engine.add_target(spec);
        if !resumed {
            engine.cascade.last_gc_live = engine.cascade.m.node_count();
        }
        engine
    }

    /// Ends the engine's job: its cascade goes back to `session` for the
    /// next job when it kept all its levels and its manager is sound (not
    /// overflowed, not interrupted, passes the check-in audit — a failed
    /// audit quarantines it); otherwise the manager returns to the pool.
    /// The targets are dropped; their sets become garbage for the next
    /// collection.
    pub(crate) fn retire(self, session: &mut SynthesisSession) {
        let mut cascade = self.cascade;
        if !cascade.retain || cascade.m.is_overflowed() || cascade.m.is_interrupted() {
            return;
        }
        // The probe captures this job's token; never carry it across jobs.
        cascade.m.set_interrupt_poll(None);
        if passes_check_in_audit(&cascade.m) {
            session.keep_cascade(cascade);
        } else {
            cascade.m.quarantine();
        }
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
        let solutions_bdd = match self.check_at(target, d) {
            Err(SynthesisError::BudgetExceeded {
                resource: Resource::BddNodes,
                spent,
                limit,
                ..
            }) if self.cascade.retain && spent > limit => {
                // The kept levels count toward the budget and may be what
                // ran it out: let them go and rebuild from F_0, keeping
                // only F_d, before reporting a stop. (An overflow latched
                // below the budget — the fault plane's simulated OOM — is
                // not theirs, and is reported as it is.)
                self.cascade.retain = false;
                self.restart();
                self.check_at(target, d)?
            }
            outcome => outcome?,
        };
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

    /// The quantified check of `target` at depth `d`, on a cascade brought
    /// to `F_d`.
    fn check_at(&mut self, target: usize, d: u32) -> Result<Bdd, SynthesisError> {
        self.extend_to(d)?;
        self.cascade.check(&self.governor, &self.targets, target, d)
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
        if !self.options.incremental && self.cascade.depth() != d {
            // Ablation B: every depth builds its cascade from F_0 — once
            // per depth, shared by every target checked at it.
            self.restart();
        }
        // A kept cascade holds every level it reached, so it may already
        // be past `d`; any other cascade holds only its newest.
        assert!(
            self.cascade.depth() <= d || self.cascade.retain,
            "depths must be queried in increasing order (at {}, asked {d})",
            self.cascade.depth()
        );
        while self.cascade.depth() < d {
            self.governor.check(d)?;
            self.cascade
                .extend_one_level(&self.gates, &self.runs, self.sbits, &self.options)?;
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
        // A kept cascade may reach past `d`; the solutions are over the
        // select variables of levels 1..=d only.
        let y_vars = &b.y_vars[..(d * self.sbits) as usize];
        let total = b.m.count_models(solutions, y_vars);
        let cap = self.options.max_solutions;
        let mut circuits = Vec::new();
        for model in b.m.models(solutions, y_vars).take(cap) {
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

    /// Whether a cascade built under `options` may outlive its job:
    /// ablation B rebuilds every depth from `F_0`, and under `YThenX` the
    /// select block is sized by the job's depth cap.
    fn retains(options: &SynthesisOptions) -> bool {
        options.incremental && options.var_order == VarOrder::XThenY
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
            library: options.library,
            x_vars: (x_base..x_base + lines).collect(),
            y_vars: Vec::new(),
            levels: Vec::new(),
            last_gc_live: 0,
            level_nodes: 0,
            retained_cap: 0,
            retain: Cascade::retains(options),
        };
        cascade.start(options, governor);
        cascade
    }

    /// Whether a job over `lines` lines under `options` may start from this
    /// kept cascade: same lines and library, in an order and mode that keep
    /// cascades. (A budget the kept levels crowd is handled when it trips;
    /// see [`BddEngine::solve_target`].)
    pub(crate) fn fits(&self, lines: u32, options: &SynthesisOptions) -> bool {
        self.retain
            && Cascade::retains(options)
            && self.x_vars.len() == lines as usize
            && self.library == options.library
    }

    /// The cumulative counters of the cascade's manager.
    pub(crate) fn manager_stats(&self) -> qsyn_bdd::ManagerStats {
        self.m.stats()
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
        self.arm(options, governor);
        self.levels = vec![self.x_vars.iter().map(|&v| self.m.var(v)).collect()];
        self.y_vars.clear();
        self.level_nodes = 0;
    }

    /// Arms the manager for a job under `options`: a fresh one, or a kept
    /// one whose previous job ran under other budgets (the supervisor
    /// scales them per attempt).
    fn arm(&mut self, options: &SynthesisOptions, governor: &ResourceGovernor) {
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
        self.retained_cap = options.bdd_node_limit / RETAINED_SHARE;
    }

    /// The number of cascade levels past `F_0`.
    pub(crate) fn depth(&self) -> u32 {
        self.levels.len() as u32 - 1
    }

    /// `F_{depth, line}`, the newest level's output on `line`.
    fn top(&self, line: u32) -> Bdd {
        self.levels[self.levels.len() - 1][line as usize]
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
    /// collection at a safe point — the cascade levels still held (all of
    /// them while the cascade is kept, else just the newest) and every
    /// registered target's per-line ON/DC sets. (Projection BDDs of bare
    /// variables are deliberately not rooted: `Manager::var` re-creates
    /// them on demand.)
    fn gc_roots(&self, targets: &[Target]) -> Vec<Bdd> {
        let mut roots: Vec<Bdd> = self.levels.concat();
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

    /// Applies one universal gate: `F_{d+1} = U_G(F_d, Y_{d+1})`, in the
    /// flip form of [`flip_level`](Self::flip_level).
    fn extend_one_level(
        &mut self,
        gates: &[Gate],
        runs: &[Run],
        sbits: u32,
        options: &SynthesisOptions,
    ) -> Result<(), SynthesisError> {
        let level_vars = self.next_level_vars(sbits, options)?;
        let (next, grown) = self.flip_level(gates, runs, &level_vars);
        self.commit_level(next, level_vars, grown);
        Ok(())
    }

    /// The select variables of level `depth + 1`, LSB first: appended to
    /// the order under `XThenY`, taken from the pre-allocated block under
    /// `YThenX`.
    fn next_level_vars(
        &mut self,
        sbits: u32,
        options: &SynthesisOptions,
    ) -> Result<Vec<u32>, SynthesisError> {
        match options.var_order {
            VarOrder::XThenY => {
                let base = self.m.add_vars(sbits);
                Ok((base..base + sbits).collect())
            }
            VarOrder::YThenX => {
                let depth = self.depth();
                if depth >= options.max_depth {
                    return Err(SynthesisError::BudgetExceeded {
                        depth: depth + 1,
                        resource: Resource::SelectVarBlock,
                        spent: u64::from(depth + 1),
                        limit: u64::from(options.max_depth),
                    });
                }
                let base = depth * sbits;
                Ok((base..base + sbits).collect())
            }
        }
    }

    /// Makes `state` the cascade `F_{d+1}` over the new `level_vars`;
    /// building it grew the arena by `grown` live nodes. The lower levels
    /// stay rooted while the cascade is kept and the growth summed over
    /// its levels stays within the cap; past it they are let go for good.
    fn commit_level(&mut self, state: Vec<Bdd>, level_vars: Vec<u32>, grown: usize) {
        self.levels.push(state);
        self.y_vars.extend(level_vars);
        if self.retain {
            self.level_nodes += grown;
            self.retain = self.level_nodes <= self.retained_cap;
        }
        if !self.retain {
            let top = self.levels.len() - 1;
            self.levels[..top].iter_mut().for_each(Vec::clear);
        }
    }

    /// The next level's outputs in flip form, `F_{d+1,j} = F_{d,j} ⊕ Δ_j`.
    /// Slot `k`'s output on line `j` is `F_{d,j} ⊕ δ_{k,j}`, and `⊕ F_{d,j}`
    /// commutes with the multiplexer over the select cube, so `Δ_j` is the
    /// multiplexer of the per-slot differences `δ_{k,j}` — built by
    /// [`delta`](Self::delta) without materializing any slot's output.
    /// The result is the same function, hence the same canonical BDD, as
    /// multiplexing the `2^s` gate outputs themselves.
    ///
    /// Also returns the level's new nodes: every node one `ite` creates is
    /// part of its result, so the live-node growth over the final `ite`s
    /// counts them without a traversal. The `⊕` is spelled out as
    /// [`Manager::xor`](qsyn_bdd::Manager::xor) computes it, so the `¬Δ_j`
    /// it needs is left out of the count (without complement edges it is
    /// a full copy, and garbage once the level is built).
    fn flip_level(
        &mut self,
        gates: &[Gate],
        runs: &[Run],
        level_vars: &[u32],
    ) -> (Vec<Bdd>, usize) {
        let top = level_vars.len() as u32;
        let mut grown = 0;
        let level = (0..self.x_vars.len() as u32)
            .map(|j| {
                let delta = self.delta(gates, runs, level_vars, j, top, 0);
                let f = self.top(j);
                let not_delta = self.m.not(delta);
                let before = self.m.node_count();
                let out = self.m.ite(f, not_delta, delta);
                grown += self.m.node_count() - before;
                out
            })
            .collect();
        (level, grown)
    }

    /// `Δ_j` over the aligned slots `base .. base + 2^bit`: the select bits
    /// from `bit` up are fixed by the caller's ITEs, the bits below are
    /// free. Padding slots (past the last gate) change nothing, a
    /// closed-form [`Run`] answers for all of its slots at once, and any
    /// other single slot is its gate's own difference.
    fn delta(
        &mut self,
        gates: &[Gate],
        runs: &[Run],
        level_vars: &[u32],
        j: u32,
        bit: u32,
        base: usize,
    ) -> Bdd {
        if base >= gates.len() {
            return self.m.zero();
        }
        if let Ok(i) = runs.binary_search_by_key(&base, |r| r.base) {
            if runs[i].free.len() as u32 == bit {
                return self.run_delta(&runs[i], level_vars, j);
            }
        }
        if bit == 0 {
            return self.gate_delta(&gates[base], j);
        }
        let lo = self.delta(gates, runs, level_vars, j, bit - 1, base);
        let hi = self.delta(gates, runs, level_vars, j, bit - 1, base + (1 << (bit - 1)));
        let y = self.m.var(level_vars[bit as usize - 1]);
        self.m.ite(y, hi, lo)
    }

    /// A run's `Δ_j` in closed form: `⊥` unless `j` is one of its targets,
    /// else `⋀_i (y_i → F_{d,free_i})` — slot `mask` changes line `j`
    /// exactly where its controls `{free_i : y_i}` all hold — and, for a
    /// Fredkin run, `∧ (F_{d,a} ⊕ F_{d,b})`: a swap changes a target only
    /// where the two targets differ.
    fn run_delta(&mut self, run: &Run, level_vars: &[u32], j: u32) -> Bdd {
        let mut parts = Vec::with_capacity(run.free.len() + 1);
        match run.kind {
            RunKind::Toffoli(t) if t == j => {}
            RunKind::Fredkin(a, b) if a == j || b == j => {
                let (fa, fb) = (self.top(a), self.top(b));
                parts.push(self.m.xor(fa, fb));
            }
            _ => return self.m.zero(),
        }
        for (&line, &yv) in run.free.iter().zip(level_vars) {
            let y = self.m.var(yv);
            let f = self.top(line);
            parts.push(self.m.implies(y, f));
        }
        self.m.and_all(parts)
    }

    /// One gate's difference on line `j`: `δ_j = g(F_d)_j ⊕ F_{d,j}`.
    fn gate_delta(&mut self, g: &Gate, j: u32) -> Bdd {
        let top = &self.levels[self.levels.len() - 1];
        let f = |l: u32| top[l as usize];
        match *g {
            Gate::Toffoli {
                controls,
                negative_controls,
                target,
            } if target == j => {
                let mut parts: Vec<Bdd> = controls.iter().map(f).collect();
                for c in negative_controls.iter() {
                    parts.push(self.m.not(f(c)));
                }
                self.m.and_all(parts)
            }
            Gate::Fredkin {
                controls,
                targets: (a, b),
            } if a == j || b == j => {
                let mut parts: Vec<Bdd> = controls.iter().map(f).collect();
                parts.push(self.m.xor(f(a), f(b)));
                self.m.and_all(parts)
            }
            // t₁ ↦ c ⊕ t₁ and t₂ ↦ c·t₁ ⊕ t₂.
            Gate::Peres {
                control,
                targets: (a, _),
            } if a == j => f(control),
            Gate::Peres {
                control,
                targets: (a, b),
            } if b == j => self.m.and(f(control), f(a)),
            _ => self.m.zero(),
        }
    }

    /// The slot-table construction that [`flip_level`](Self::flip_level)
    /// replaces, kept as its reference: per line, the full output of every
    /// one of the `2^s` gate slots (the input itself for the padding
    /// slots), reduced by the multiplexer over the select bits, LSB first.
    #[cfg(test)]
    fn slot_table_level(&mut self, gates: &[Gate], level_vars: &[u32]) -> Vec<Bdd> {
        let mut slots: Vec<Vec<Bdd>> = (0..self.x_vars.len() as u32)
            .map(|line| vec![self.top(line); 1 << level_vars.len()])
            .collect();
        for (k, g) in gates.iter().enumerate() {
            for (line, out) in self.apply_gate(g) {
                slots[line as usize][k] = out;
            }
        }
        for line in &mut slots {
            let mut len = line.len();
            for &yv in level_vars {
                let y = self.m.var(yv);
                len /= 2;
                for i in 0..len {
                    line[i] = self.m.ite(y, line[2 * i + 1], line[2 * i]);
                }
            }
        }
        slots.into_iter().map(|line| line[0]).collect()
    }

    /// Symbolic application of a concrete gate to the current state,
    /// returning only the changed lines.
    #[cfg(test)]
    fn apply_gate(&mut self, g: &Gate) -> Vec<(u32, Bdd)> {
        let top = &self.levels[self.levels.len() - 1];
        let f = |l: u32| top[l as usize];
        match *g {
            Gate::Toffoli {
                controls,
                negative_controls,
                target,
            } => {
                let parts: Vec<Bdd> = controls.iter().map(f).collect();
                let mut cond = self.m.and_all(parts);
                for c in negative_controls.iter() {
                    let nc = self.m.not(f(c));
                    cond = self.m.and(cond, nc);
                }
                vec![(target, self.m.xor(f(target), cond))]
            }
            Gate::Fredkin { controls, targets } => {
                let parts: Vec<Bdd> = controls.iter().map(f).collect();
                let cond = self.m.and_all(parts);
                let (a, b) = (f(targets.0), f(targets.1));
                let out_a = self.m.ite(cond, b, a);
                let out_b = self.m.ite(cond, a, b);
                vec![(targets.0, out_a), (targets.1, out_b)]
            }
            Gate::Peres { control, targets } => {
                let (c, a, b) = (f(control), f(targets.0), f(targets.1));
                let out_a = self.m.xor(c, a);
                let ca = self.m.and(c, a);
                let out_b = self.m.xor(ca, b);
                vec![(targets.0, out_a), (targets.1, out_b)]
            }
        }
    }

    /// Computes `∀X ⋀_l (f_l^dc ∨ (F_{d,l} ⊙ f_l^on))` for the spec of
    /// `targets[target]` — the quantified formula of Section 4 — and
    /// returns the BDD over `Y`. `F_d` is level `d`: the newest, or a
    /// lower one a kept cascade holds. Every target stays rooted across
    /// the collections this triggers.
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
        let n = self.x_vars.len();
        let Target { on, dc, .. } = &targets[target];
        let mut oks = Vec::with_capacity(n);
        for l in 0..n {
            governor.check(d)?;
            let f = self.levels[d as usize][l];
            let agree = self.m.xnor(f, on[l]);
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
        for l in 0..self.x_vars.len() {
            let f = self.top(l as u32);
            let agree = self.m.xnor(f, target.on[l]);
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
    use qsyn_revlogic::benchmarks::random_permutation;
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

    /// Builds cascade levels 1..=6 for `lines` lines under `options` and
    /// asserts at each that the flip form returns the same `F_d` handles
    /// as the slot-table reference built from the same `F_{d−1}` in the
    /// same arena.
    fn flip_form_matches_slot_table(lines: u32, options: &SynthesisOptions) {
        let spec = Spec::from_permutation(&Permutation::identity(lines));
        let mut e = BddEngine::new(&spec, options);
        for d in 1..=6 {
            if !options.incremental {
                // As every depth of ablation B does: F_{d−1} is rebuilt
                // from F_0, in a recycled arena, by the flip form.
                e.restart();
            }
            e.extend_to(d - 1).unwrap();
            let c = &mut e.cascade;
            let vars = c.next_level_vars(e.sbits, options).unwrap();
            let (flip, grown) = c.flip_level(&e.gates, &e.runs, &vars);
            let slots = c.slot_table_level(&e.gates, &vars);
            let label = options.library.label();
            assert!(!c.m.is_overflowed(), "{label}, {lines} lines, level {d}");
            assert_eq!(flip, slots, "{label}, {lines} lines, level {d}");
            c.commit_level(flip, vars, grown);
        }
    }

    /// The libraries other than plain MCT whose runs or single slots the
    /// flip form builds differently.
    fn other_libraries() -> [GateLibrary; 4] {
        [
            GateLibrary::mct_mcf(),
            GateLibrary::mct_peres(),
            GateLibrary::all(),
            GateLibrary::mct().with_mixed_polarity(),
        ]
    }

    #[test]
    fn flip_form_equals_the_slot_table_for_mct() {
        for lines in 1..=5 {
            flip_form_matches_slot_table(lines, &opts(GateLibrary::mct()));
        }
        for lines in 1..=4 {
            let rebuilt = opts(GateLibrary::mct()).with_incremental(false);
            flip_form_matches_slot_table(lines, &rebuilt);
        }
    }

    #[test]
    fn flip_form_equals_the_slot_table_for_every_library() {
        for lib in other_libraries() {
            for lines in 1..=3 {
                flip_form_matches_slot_table(lines, &opts(lib));
                flip_form_matches_slot_table(lines, &opts(lib).with_incremental(false));
            }
        }
    }

    #[test]
    fn flip_form_equals_the_slot_table_under_y_then_x() {
        // With the select block above the inputs, 3-line cascades already
        // take seconds per level (the X,Y-order ablation's point), so the
        // debug suite stops at 2 lines; the ignored test below adds MCT on 3.
        for lib in std::iter::once(GateLibrary::mct()).chain(other_libraries()) {
            for lines in 1..=2 {
                let y_first = opts(lib).with_var_order(VarOrder::YThenX);
                flip_form_matches_slot_table(lines, &y_first);
            }
        }
    }

    /// The configurations that take seconds each in a release build: the
    /// other libraries on 4 lines, incrementally and rebuilt, and MCT on 3
    /// lines under Y-then-X.
    #[test]
    #[ignore = "about 15 s in release; run with --ignored (nightly CI job)"]
    fn flip_form_equals_the_slot_table_on_4_lines_and_y_then_x_on_3() {
        for lib in other_libraries() {
            flip_form_matches_slot_table(4, &opts(lib));
            flip_form_matches_slot_table(4, &opts(lib).with_incremental(false));
        }
        let y_first = opts(GateLibrary::mct()).with_var_order(VarOrder::YThenX);
        flip_form_matches_slot_table(3, &y_first);
    }

    #[test]
    fn runs_cover_the_positive_toffoli_and_fredkin_blocks() {
        // MCT+MCF+P on 3 lines: 3 Toffoli runs of 4, 6 Fredkin runs of 2,
        // then 6 Peres gates as single slots.
        let gates = GateLibrary::all().enumerate(3);
        let runs = closed_form_runs(&gates, 3);
        let shape: Vec<(usize, usize)> = runs.iter().map(|r| (r.base, r.free.len())).collect();
        let mut expected: Vec<(usize, usize)> = (0..3).map(|t| (4 * t, 2)).collect();
        expected.extend((0..6).map(|p| (12 + 2 * p, 1)));
        assert_eq!(shape, expected);
        // Mixed polarity interleaves negative controls: only the aligned
        // positive prefix of a target's gates (NOT, CNOT) forms a run.
        let mixed = GateLibrary::mct().with_mixed_polarity().enumerate(2);
        let shape: Vec<(usize, usize)> = closed_form_runs(&mixed, 2)
            .iter()
            .map(|r| (r.base, r.free.len()))
            .collect();
        assert_eq!(shape, vec![(0, 1)]);
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

    /// `count` seeded 3-line functions of every depth `0..=7`: random MCT
    /// circuits of 0 to 5 gates (so of at most that depth) and random
    /// permutations (mostly of depth 5 to 7), in a seeded shuffle that
    /// makes a kept cascade serve jobs both shallower and deeper than
    /// itself.
    fn shuffled_three_line_functions(count: usize, seed: u64) -> Vec<Spec> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as usize
        };
        let gates = GateLibrary::mct().enumerate(3);
        let mut specs: Vec<Spec> = (0..count)
            .map(|i| match i % 8 {
                6 | 7 => Spec::from_permutation(&random_permutation(3, next() as u64)),
                len => {
                    let circuit =
                        Circuit::from_gates(3, (0..len).map(|_| gates[next() % gates.len()]));
                    Spec::from_permutation(&Permutation::from_fn(3, |v| circuit.simulate(v)))
                }
            })
            .collect();
        for i in (1..specs.len()).rev() {
            specs.swap(i, next() % (i + 1));
        }
        specs
    }

    /// Everything a caller sees of a search: depth, permutation, #SOL and
    /// the circuits in order.
    fn answer(r: &crate::permuted::PermutedSynthesisResult) -> (u32, Vec<u32>, u128, Vec<Circuit>) {
        let s = r.result.solutions();
        (
            r.result.depth(),
            r.permutation.clone(),
            s.count(),
            s.circuits().to_vec(),
        )
    }

    #[test]
    fn a_kept_cascade_answers_every_job_like_a_fresh_session() {
        use crate::permuted::synthesize_with_output_permutation_in as permuted;
        let options = opts(GateLibrary::mct());
        let mut kept = SynthesisSession::new();
        let mut depths = [0usize; 9];
        for (i, spec) in shuffled_three_line_functions(200, 7).iter().enumerate() {
            // Alternate the permutation search and plain synthesis: both
            // draw on the one kept cascade.
            let (a, b) = if i % 2 == 0 {
                let a = permuted(spec, &options, &mut kept).unwrap();
                let b = permuted(spec, &options, &mut SynthesisSession::new()).unwrap();
                (answer(&a), answer(&b))
            } else {
                let plain = |session: &mut SynthesisSession| {
                    let r = crate::synthesize_in(spec, &options, session).unwrap();
                    answer(&crate::permuted::PermutedSynthesisResult::plain(r, 3))
                };
                (plain(&mut kept), plain(&mut SynthesisSession::new()))
            };
            assert_eq!(a, b, "job {i}");
            depths[a.0 as usize] += 1;
        }
        assert!(depths[..8].iter().all(|&n| n > 0), "depth mix {depths:?}");
        let stats = kept.stats();
        assert_eq!(stats.managers, 1);
        assert_eq!(stats.resets, 0, "every job reused the kept cascade");
        let deepest = kept.kept_depth().expect("the cascade is kept");
        assert_eq!(
            stats.search.levels_built,
            u64::from(deepest),
            "each level built once"
        );
    }

    #[test]
    fn a_job_whose_depth_is_kept_builds_no_level() {
        let options = opts(GateLibrary::mct());
        let mut session = SynthesisSession::new();
        let deep = crate::synthesize_in(
            &qsyn_revlogic::benchmarks::spec_3_17(),
            &options,
            &mut session,
        )
        .unwrap();
        assert_eq!(deep.depth(), 6);
        assert_eq!(session.kept_depth(), Some(6));
        let before = session.stats().search.levels_built;
        let cnot = Spec::from_permutation(&Permutation::from_fn(3, |v| v ^ ((v & 1) << 1)));
        let r = crate::synthesize_in(&cnot, &options, &mut session).unwrap();
        assert_eq!(r.depth(), 1);
        assert_eq!(
            session.stats().search.levels_built,
            before,
            "no level built"
        );
        assert_eq!(session.kept_depth(), Some(6), "the deeper levels stay kept");
        // The session's counters see the kept cascade's manager.
        let stats = session.stats();
        assert_eq!((stats.managers, stats.resets), (1, 0));
        assert_eq!(stats.peak_live, r.bdd_stats().unwrap().peak_live);
        assert!(stats.cache_misses > 0 && stats.gc_runs == r.bdd_stats().unwrap().gc_runs);
    }

    /// Debug builds audit a cascade as it is handed back, as they audit a
    /// manager checked into the pool.
    #[cfg(debug_assertions)]
    #[test]
    fn a_cascade_that_fails_its_audit_is_quarantined_not_kept() {
        let options = opts(GateLibrary::mct());
        let mut session = SynthesisSession::new();
        let spec = qsyn_revlogic::benchmarks::spec_3_17();
        let mut e = BddEngine::new_in(&spec, &options, &mut session);
        e.solve_depth(6).unwrap().expect("3_17 needs 6 gates");
        let f = e.cascade.levels[6][0];
        let (lo, hi) = e.cascade.m.children(f);
        let var = e.cascade.m.root_var(f).unwrap();
        e.cascade.m.corrupt_node_for_audit(f, var, hi, lo);
        e.retire(&mut session);
        assert_eq!(session.kept_depth(), None);
        assert_eq!(session.pool().quarantined(), 1);
        assert_eq!(session.stats().managers, 0);
    }

    #[test]
    fn a_job_that_panics_leaves_no_cascade_and_the_next_job_answers() {
        let options = opts(GateLibrary::mct());
        let spec = qsyn_revlogic::benchmarks::spec_3_17();
        let mut session = SynthesisSession::new();
        let expected = crate::synthesize_in(&spec, &options, &mut session).unwrap();
        assert_eq!(session.kept_depth(), Some(6));
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut e = BddEngine::new_in(&spec, &options, &mut session);
            assert!(e.cascade.retain, "the job took the kept cascade");
            // Target 1 was never registered: the check at depth 5 panics
            // indexing it, with the kept cascade taken out of the session.
            let _ = e.solve_target(1, 5);
        }));
        assert!(crashed.is_err());
        assert_eq!(
            session.kept_depth(),
            None,
            "the cascade went down with the job"
        );
        assert_eq!(
            session.pool().quarantined(),
            1,
            "its manager is quarantined"
        );
        let again = crate::synthesize_in(&spec, &options, &mut session).unwrap();
        assert_eq!(again.depth(), expected.depth());
        assert_eq!(
            again.solutions().circuits(),
            expected.solutions().circuits()
        );
        assert_eq!(session.kept_depth(), Some(6));
    }

    #[test]
    fn a_budget_the_kept_levels_exceed_rebuilds_from_f0() {
        // Shallow jobs under tight budgets start from the depth-6 cascade
        // an unconstrained 3_17 job kept, whose levels alone outgrow the
        // tighter budgets. A fresh session under the same budget keeps
        // nothing past level 1 (its share of the budget is under one
        // node), so it answers as a cascade without retention does. The
        // kept session must never fail where that one answers, and must
        // answer exactly as it does; it may answer where that one runs out
        // (a kept level left no construction garbage, and an overflow
        // mid-construction depends on the garbage around it).
        let options = opts(GateLibrary::mct());
        let mut session = SynthesisSession::new();
        let (mut rebuilt, mut refused) = (0, 0);
        for spec in &shuffled_three_line_functions(16, 3) {
            let free = crate::synthesize_in(spec, &options, &mut SynthesisSession::new()).unwrap();
            if free.depth() > 3 {
                continue;
            }
            for limit in [50, 200, 800, 3_200] {
                let deep = qsyn_revlogic::benchmarks::spec_3_17();
                crate::synthesize_in(&deep, &options, &mut session).unwrap();
                assert_eq!(session.kept_depth(), Some(6));
                let before = session.stats().search.levels_built;
                let tight = options.clone().with_bdd_node_limit(limit);
                let kept = crate::synthesize_in(spec, &tight, &mut session);
                let fresh = crate::synthesize_in(spec, &tight, &mut SynthesisSession::new());
                let nodes = |e: &SynthesisError| {
                    matches!(
                        e,
                        SynthesisError::BudgetExceeded {
                            resource: Resource::BddNodes,
                            ..
                        }
                    )
                };
                match (&kept, &fresh) {
                    (Ok(a), _) => {
                        let b = fresh.as_ref().unwrap_or(&free);
                        assert_eq!(a.depth(), b.depth(), "limit {limit}");
                        let (a, b) = (a.solutions(), b.solutions());
                        assert_eq!(a.count(), b.count(), "limit {limit}");
                        assert_eq!(a.circuits(), b.circuits(), "limit {limit}");
                        // The kept cascade reaches depth 6, so any level
                        // built came from a rebuild, which keeps nothing.
                        if session.stats().search.levels_built > before {
                            rebuilt += 1;
                            assert_eq!(session.kept_depth(), None, "limit {limit}");
                        }
                    }
                    (Err(a), Err(b)) if nodes(a) && nodes(b) => refused += 1,
                    _ => panic!("limit {limit}: kept {kept:?}, fresh {fresh:?}"),
                }
            }
        }
        assert!(rebuilt > 0, "no answer came from a rebuild");
        assert!(refused > 0, "no budget was too small");
    }

    #[test]
    fn ablation_b_and_y_then_x_never_keep_a_cascade() {
        let spec = qsyn_revlogic::benchmarks::spec_3_17();
        for options in [
            opts(GateLibrary::mct()).with_incremental(false),
            opts(GateLibrary::mct()).with_var_order(VarOrder::YThenX),
        ] {
            let mut session = SynthesisSession::new();
            // A kept cascade from a default job is let go, not reused.
            crate::synthesize_in(&spec, &opts(GateLibrary::mct()), &mut session).unwrap();
            assert_eq!(session.kept_depth(), Some(6));
            let r = crate::synthesize_in(&spec, &options, &mut session).unwrap();
            assert_eq!(r.depth(), 6);
            assert_eq!(session.kept_depth(), None);
            assert_eq!(
                session.stats().managers,
                1,
                "its manager went back to the pool"
            );
        }
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
