//! A CDCL SAT solver in the MiniSat lineage.
//!
//! Features: two-watched-literal propagation, VSIDS (exponentially decayed
//! variable activities with an indexed max-heap), first-UIP conflict
//! analysis with non-chronological backjumping, phase saving, Luby-sequence
//! restarts and activity-based learnt-clause database reduction. Clauses
//! live inline in one flat arena (see [`crate::arena`]).

use crate::arena::ClauseArena;
use crate::cnf::CnfFormula;
use crate::types::{Lit, Var};

/// Outcome of [`Solver::solve`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolveResult {
    /// Satisfiable, with a complete model indexed by variable.
    Sat(Vec<bool>),
    /// Proven unsatisfiable.
    Unsat,
}

impl SolveResult {
    /// `true` if the result is [`SolveResult::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, SolveResult::Sat(_))
    }

    /// The model, if satisfiable.
    pub fn model(&self) -> Option<&[bool]> {
        match self {
            SolveResult::Sat(m) => Some(m),
            SolveResult::Unsat => None,
        }
    }
}

/// Search statistics, for the benchmark harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Total conflicts encountered.
    pub conflicts: u64,
    /// Decisions made.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learnt clauses currently kept.
    pub learnts: usize,
}

#[derive(Clone, Copy)]
struct Watcher {
    cref: u32,
    blocker: Lit,
}

/// CDCL SAT solver. Build with [`Solver::new`]/[`Solver::from_formula`],
/// add clauses, then call [`Solver::solve`].
pub struct Solver {
    /// Every clause, inline; a `cref` is a clause's offset in it.
    arena: ClauseArena,
    /// `watches[l.code()]`: clauses in which `¬l` is watched — inspected
    /// when `l` becomes true.
    watches: Vec<Vec<Watcher>>,
    // Assignment state.
    assign: Vec<Option<bool>>,
    level: Vec<u32>,
    reason: Vec<Option<u32>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    // Heuristics.
    activity: Vec<f64>,
    var_inc: f64,
    heap: IndexedHeap,
    phase: Vec<bool>,
    cla_inc: f64,
    // Conflict analysis scratch.
    seen: Vec<bool>,
    /// The clause `analyze` learns, reused across conflicts.
    learnt: Vec<Lit>,
    /// Variables `analyze` marked seen, reused across conflicts.
    to_clear: Vec<usize>,
    /// Normalization buffer of `add_clause`.
    add_buf: Vec<Lit>,
    // Status.
    ok: bool,
    stats: SolverStats,
    num_learnts: usize,
    max_learnts: usize,
    /// Clause-arena compactions so far.
    compactions: u64,
    /// Optional conflict budget; `solve` returns `None` via `solve_limited`
    /// when exhausted.
    conflict_budget: Option<u64>,
    /// External abort probe (deadline / cancellation), polled roughly every
    /// [`BUDGET_POLL_STRIDE`] propagated literals. Returning `true` makes the
    /// in-flight `solve_*_limited` call stop and return `None`.
    budget_callback: Option<Box<dyn FnMut() -> bool + Send>>,
    /// Latched when `budget_callback` fires; cleared at the start of the
    /// next solve call.
    externally_aborted: bool,
    /// Clausal proof log (learnt clauses in order), when enabled.
    proof: Option<Vec<Vec<Lit>>>,
}

/// How many propagated literals pass between polls of the budget callback.
/// Coarse enough to keep the probe off the propagation fast path, fine
/// enough that a deadline is noticed within a fraction of a millisecond.
const BUDGET_POLL_STRIDE: u64 = 4096;

impl std::fmt::Debug for Solver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Solver")
            .field("vars", &self.assign.len())
            .field("arena_words", &self.arena.len())
            .field("compactions", &self.compactions)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Solver {
    /// Creates a solver over `num_vars` variables with no clauses.
    pub fn new(num_vars: u32) -> Solver {
        let n = num_vars as usize;
        Solver {
            arena: ClauseArena::default(),
            watches: vec![Vec::new(); 2 * n],
            assign: vec![None; n],
            level: vec![0; n],
            reason: vec![None; n],
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: vec![0.0; n],
            var_inc: 1.0,
            heap: IndexedHeap::full(n),
            phase: vec![false; n],
            cla_inc: 1.0,
            seen: vec![false; n],
            learnt: Vec::new(),
            to_clear: Vec::new(),
            add_buf: Vec::new(),
            ok: true,
            stats: SolverStats::default(),
            num_learnts: 0,
            max_learnts: 4000,
            compactions: 0,
            conflict_budget: None,
            budget_callback: None,
            externally_aborted: false,
            proof: None,
        }
    }

    /// Creates a solver pre-loaded with every clause of `formula`.
    pub fn from_formula(formula: &CnfFormula) -> Solver {
        let mut s = Solver::new(formula.num_vars());
        for c in formula.clauses() {
            s.add_clause(c.lits().iter().copied());
        }
        s
    }

    /// Number of variables.
    pub fn num_vars(&self) -> u32 {
        self.assign.len() as u32
    }

    /// Grows the variable universe to at least `num_vars` (no-op if the
    /// solver already has that many). New variables start unassigned with
    /// zero activity and a `false` saved phase, exactly as in
    /// [`Solver::new`], so an incremental caller can extend the instance
    /// between solve calls while keeping every learnt clause, activity and
    /// phase accumulated so far.
    ///
    /// # Panics
    ///
    /// Panics if called after search has started (the trail is not at
    /// decision level 0); like [`add_clause`](Solver::add_clause), growth is
    /// only meaningful between solve calls.
    pub fn ensure_vars(&mut self, num_vars: u32) {
        assert!(self.trail_lim.is_empty(), "ensure_vars during search");
        let n = num_vars as usize;
        if n <= self.assign.len() {
            return;
        }
        let old = self.assign.len();
        self.watches.resize_with(2 * n, Vec::new);
        self.assign.resize(n, None);
        self.level.resize(n, 0);
        self.reason.resize(n, None);
        self.activity.resize(n, 0.0);
        self.phase.resize(n, false);
        self.seen.resize(n, false);
        self.heap.grow(n);
        for v in old..n {
            self.heap.insert(v, &self.activity);
        }
    }

    /// Search statistics so far.
    pub fn stats(&self) -> SolverStats {
        let mut s = self.stats;
        s.learnts = self.num_learnts;
        s
    }

    /// Limits the number of conflicts `solve_limited` may spend.
    pub fn set_conflict_budget(&mut self, budget: u64) {
        self.conflict_budget = Some(budget);
    }

    /// Installs (or removes) an external abort probe. The probe is polled
    /// from inside unit propagation roughly every few thousand propagated
    /// literals; the first time it returns `true`, the in-flight
    /// [`solve_limited`](Solver::solve_limited) /
    /// [`solve_assuming_limited`](Solver::solve_assuming_limited) call
    /// backtracks to level 0 and returns `None`, exactly like an exhausted
    /// conflict budget. The solver remains usable afterwards.
    ///
    /// Callers using the panicking [`solve`](Solver::solve) /
    /// [`solve_assuming`](Solver::solve_assuming) wrappers must not install
    /// a probe: an abort would be indistinguishable from budget exhaustion
    /// and trip their `expect`.
    pub fn set_budget_callback(&mut self, callback: Option<Box<dyn FnMut() -> bool + Send>>) {
        self.budget_callback = callback;
        self.externally_aborted = false;
    }

    /// `true` if the most recent solve call stopped because the budget
    /// callback fired (as opposed to exhausting the conflict budget).
    pub fn was_interrupted(&self) -> bool {
        self.externally_aborted
    }

    /// Starts recording a clausal proof (see [`crate::proof`]): every learnt
    /// clause, and a terminating empty clause when global unsatisfiability
    /// is concluded. Retrieve it with [`take_proof`](Solver::take_proof).
    pub fn enable_proof_logging(&mut self) {
        self.proof = Some(Vec::new());
    }

    /// Takes the recorded proof, leaving logging enabled with a fresh log.
    /// `None` if logging was never enabled.
    pub fn take_proof(&mut self) -> Option<Vec<Vec<Lit>>> {
        self.proof.replace(Vec::new())
    }

    fn log_proof_step(&mut self, clause: &[Lit]) {
        if let Some(p) = self.proof.as_mut() {
            p.push(clause.to_vec());
        }
    }

    /// Adds a clause. Returns `false` if the solver is already in an
    /// unsatisfiable state (adding an empty clause, or a unit contradicting
    /// level-0 knowledge).
    ///
    /// # Panics
    ///
    /// Panics if called after search has started (the trail is not at
    /// decision level 0), or if a literal is out of range.
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, new_lits: I) -> bool {
        assert!(self.trail_lim.is_empty(), "add_clause during search");
        if !self.ok {
            return false;
        }
        let mut lits = std::mem::take(&mut self.add_buf);
        lits.clear();
        lits.extend(new_lits);
        for l in &lits {
            assert!(l.var().index() < self.assign.len(), "literal out of range");
        }
        lits.sort_unstable();
        lits.dedup();
        // Tautology / level-0 simplification, in place: the kept prefix
        // never overtakes the literal being examined.
        let mut kept = 0;
        let mut satisfied = false;
        for i in 0..lits.len() {
            let l = lits[i];
            if i + 1 < lits.len() && lits[i + 1] == !l {
                satisfied = true; // tautology: x, ¬x adjacent after sort
                break;
            }
            match self.value(l) {
                Some(true) => {
                    satisfied = true; // already satisfied at level 0
                    break;
                }
                Some(false) => {} // false at level 0: drop literal
                None => {
                    lits[kept] = l;
                    kept += 1;
                }
            }
        }
        lits.truncate(kept);
        let ok = match lits.len() {
            _ if satisfied => true,
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(lits[0], None);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.attach_clause(&lits, false);
                true
            }
        };
        self.add_buf = lits;
        ok
    }

    fn attach_clause(&mut self, lits: &[Lit], learnt: bool) -> u32 {
        let cref = self.arena.alloc(lits, learnt);
        let w0 = Watcher {
            cref,
            blocker: lits[1],
        };
        let w1 = Watcher {
            cref,
            blocker: lits[0],
        };
        self.watches[(!lits[0]).code()].push(w0);
        self.watches[(!lits[1]).code()].push(w1);
        if learnt {
            self.num_learnts += 1;
        }
        cref
    }

    #[inline]
    fn value(&self, l: Lit) -> Option<bool> {
        lit_value(&self.assign, l)
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, l: Lit, reason: Option<u32>) {
        debug_assert_eq!(self.value(l), None);
        let v = l.var().index();
        self.assign[v] = Some(l.is_positive());
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Unit propagation. Returns the conflicting clause reference, if any.
    ///
    /// May also stop early with `None` when the budget callback fires; the
    /// queue head is left untouched in that case, so a later call resumes
    /// exactly where this one stopped.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            if self.budget_callback.is_some()
                && self.stats.propagations.is_multiple_of(BUDGET_POLL_STRIDE)
                && self.poll_budget_callback()
            {
                self.externally_aborted = true;
                return None;
            }
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let mut ws = std::mem::take(&mut self.watches[p.code()]);
            let mut i = 0;
            let mut conflict = None;
            'watchers: while i < ws.len() {
                let w = ws[i];
                // Fast path: blocker already satisfied.
                if self.value(w.blocker) == Some(true) {
                    i += 1;
                    continue;
                }
                let Some(lits) = self.arena.live_lits_mut(w.cref) else {
                    ws.swap_remove(i);
                    continue;
                };
                // Make sure the false literal (¬p) is at position 1.
                let false_lit = (!p).raw();
                if lits[0] == false_lit {
                    lits.swap(0, 1);
                }
                debug_assert_eq!(lits[1], false_lit);
                let first = Lit::from_raw(lits[0]);
                if first != w.blocker && lit_value(&self.assign, first) == Some(true) {
                    ws[i].blocker = first;
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                for k in 2..lits.len() {
                    let cand = Lit::from_raw(lits[k]);
                    if lit_value(&self.assign, cand) != Some(false) {
                        lits.swap(1, k);
                        self.watches[(!cand).code()].push(Watcher {
                            cref: w.cref,
                            blocker: first,
                        });
                        ws.swap_remove(i);
                        continue 'watchers;
                    }
                }
                // No new watch: clause is unit or conflicting.
                if self.value(first) == Some(false) {
                    conflict = Some(w.cref);
                    self.qhead = self.trail.len();
                    break;
                }
                self.enqueue(first, Some(w.cref));
                i += 1;
            }
            // Put back the untouched suffix plus kept watchers.
            let list = &mut self.watches[p.code()];
            // `ws` currently holds kept watchers in [0, i) plus unprocessed
            // ones (on conflict) in [i, len).
            ws.append(list);
            *list = ws;
            if let Some(c) = conflict {
                return Some(c);
            }
        }
        None
    }

    fn poll_budget_callback(&mut self) -> bool {
        self.budget_callback.as_mut().is_some_and(|cb| cb())
    }

    fn bump_var(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.update(v, &self.activity);
    }

    fn decay_var_activity(&mut self) {
        self.var_inc /= 0.95;
    }

    fn bump_clause(&mut self, cref: u32) {
        let activity = self.arena.activity(cref) + self.cla_inc;
        self.arena.set_activity(cref, activity);
        if activity > 1e20 {
            self.arena.scale_activities(1e-20);
            self.cla_inc *= 1e-20;
        }
    }

    fn decay_clause_activity(&mut self) {
        self.cla_inc /= 0.999;
    }

    /// First-UIP conflict analysis. Leaves the learnt clause (asserting
    /// literal first) in `self.learnt` and returns the backjump level.
    fn analyze(&mut self, confl: u32) -> u32 {
        let mut learnt = std::mem::take(&mut self.learnt);
        learnt.clear();
        learnt.push(Lit::pos(0)); // placeholder slot 0
        let mut counter = 0u32;
        let mut p: Option<Lit> = None;
        let mut cref = confl;
        let mut idx = self.trail.len();
        loop {
            if self.arena.is_learnt(cref) {
                self.bump_clause(cref);
            }
            let start = usize::from(p.is_some()); // skip lits[0] for reasons
            for k in start..self.arena.lits(cref).len() {
                let q = Lit::from_raw(self.arena.lits(cref)[k]);
                let v = q.var().index();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.to_clear.push(v);
                    self.bump_var(v);
                    if self.level[v] >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Pick the next seen literal from the trail.
            loop {
                idx -= 1;
                if self.seen[self.trail[idx].var().index()] {
                    break;
                }
            }
            let pl = self.trail[idx];
            p = Some(pl);
            counter -= 1;
            if counter == 0 {
                break;
            }
            cref = self.reason[pl.var().index()].expect("non-decision on path");
        }
        learnt[0] = !p.expect("UIP literal");
        // Clause minimization: drop literals implied by the rest.
        self.minimize(&mut learnt);
        // Compute backjump level and move its literal to slot 1.
        let blevel = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };
        for &v in &self.to_clear {
            self.seen[v] = false;
        }
        self.to_clear.clear();
        self.learnt = learnt;
        blevel
    }

    /// Local clause minimization: removes a literal whose reason clause's
    /// other literals are all already in the learnt clause (self-subsuming
    /// resolution, non-recursive variant).
    fn minimize(&mut self, learnt: &mut Vec<Lit>) {
        let mut i = 1;
        while i < learnt.len() {
            let v = learnt[i].var().index();
            let redundant = match self.reason[v] {
                None => false,
                Some(cref) => self.arena.lits(cref)[1..].iter().all(|&q| {
                    let u = Lit::from_raw(q).var().index();
                    self.seen[u] || self.level[u] == 0
                }),
            };
            if redundant {
                learnt.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }

    fn cancel_until(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let lim = self.trail_lim[level as usize];
        for k in (lim..self.trail.len()).rev() {
            let l = self.trail[k];
            let v = l.var().index();
            self.phase[v] = l.is_positive();
            self.assign[v] = None;
            self.reason[v] = None;
            self.heap.insert(v, &self.activity);
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    fn pick_branch_var(&mut self) -> Option<usize> {
        while let Some(v) = self.heap.pop(&self.activity) {
            if self.assign[v].is_none() {
                return Some(v);
            }
        }
        None
    }

    /// Deletes the lower-activity half of the learnt clauses (except those
    /// locked as reasons).
    fn reduce_db(&mut self) {
        let mut learnt_refs: Vec<u32> = self
            .arena
            .crefs()
            .filter(|&c| {
                self.arena.is_learnt(c)
                    && !self.arena.is_deleted(c)
                    && self.arena.lits(c).len() > 2
                    && !self.is_locked(c)
            })
            .collect();
        learnt_refs.sort_by(|&a, &b| {
            self.arena
                .activity(a)
                .partial_cmp(&self.arena.activity(b))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let to_delete = learnt_refs.len() / 2;
        for &c in &learnt_refs[..to_delete] {
            self.arena.delete(c);
            self.num_learnts -= 1;
        }
        // Deleted clauses are purged from watch lists lazily in propagate.
        if self.arena.needs_compaction() {
            self.compact_arena();
        }
    }

    /// Compacts the clause arena and rewrites every `cref` the solver
    /// holds: watchers (deleted clauses still watched keep a tombstone, so
    /// no watcher moves within its list) and reasons (always live: a
    /// clause that is a reason is locked, so never deleted).
    fn compact_arena(&mut self) {
        let mut pinned: Vec<u32> = self
            .watches
            .iter()
            .flatten()
            .map(|w| w.cref)
            .filter(|&c| self.arena.is_deleted(c))
            .collect();
        pinned.sort_unstable();
        pinned.dedup();
        let moved = self.arena.compact(&pinned);
        for w in self.watches.iter_mut().flatten() {
            w.cref = moved.get(w.cref);
        }
        for r in self.reason.iter_mut().flatten() {
            *r = moved.get(*r);
        }
        self.compactions += 1;
    }

    fn is_locked(&self, cref: u32) -> bool {
        let first = Lit::from_raw(self.arena.lits(cref)[0]);
        self.assign[first.var().index()].is_some() && self.reason[first.var().index()] == Some(cref)
    }

    /// Runs the CDCL search to completion.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_limited()
            .expect("no conflict budget set, solve cannot be indeterminate")
    }

    /// Incremental solving: decides the formula **under the given
    /// assumptions** (extra unit constraints for this call only). The
    /// solver — including everything it has learnt — remains usable
    /// afterwards, so a sequence of related queries shares work, MiniSat
    /// style.
    ///
    /// `Unsat` means *unsatisfiable under the assumptions*; the formula
    /// itself may still be satisfiable.
    ///
    /// # Panics
    ///
    /// Panics if the conflict budget is exhausted mid-call (use
    /// [`solve_assuming_limited`](Solver::solve_assuming_limited)) or an
    /// assumption literal is out of range.
    pub fn solve_assuming(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.solve_assuming_limited(assumptions)
            .expect("no conflict budget set, solve cannot be indeterminate")
    }

    /// Like [`solve`](Solver::solve) but returns `None` when the configured
    /// conflict budget (see [`set_conflict_budget`](Solver::set_conflict_budget))
    /// is exhausted.
    pub fn solve_limited(&mut self) -> Option<SolveResult> {
        self.solve_assuming_limited(&[])
    }

    /// Budgeted incremental solving; see [`solve_assuming`](Solver::solve_assuming).
    pub fn solve_assuming_limited(&mut self, assumptions: &[Lit]) -> Option<SolveResult> {
        if !self.ok {
            self.log_proof_step(&[]);
            return Some(SolveResult::Unsat);
        }
        for l in assumptions {
            assert!(
                l.var().index() < self.assign.len(),
                "assumption out of range"
            );
        }
        self.externally_aborted = false;
        let mut luby_index = 0u64;
        let mut restart_limit = 100 * luby(luby_index);
        let mut conflicts_since_restart = 0u64;
        loop {
            let propagated = self.propagate();
            if self.externally_aborted {
                // The external probe fired mid-propagation. Unwind to the
                // root; the preserved queue head means a later call resumes
                // propagation without missing implications.
                self.cancel_until(0);
                return None;
            }
            if let Some(confl) = propagated {
                self.stats.conflicts += 1;
                conflicts_since_restart += 1;
                if let Some(budget) = self.conflict_budget {
                    if self.stats.conflicts > budget {
                        self.cancel_until(0);
                        return None;
                    }
                }
                if self.decision_level() == 0 {
                    self.ok = false;
                    self.log_proof_step(&[]);
                    return Some(SolveResult::Unsat);
                }
                let blevel = self.analyze(confl);
                let learnt = std::mem::take(&mut self.learnt);
                self.log_proof_step(&learnt);
                self.cancel_until(blevel);
                if learnt.len() == 1 {
                    // A literal forced at the root — but only enqueue at
                    // level 0; after an assumption-scoped backjump the
                    // current level may be deeper.
                    if self.decision_level() == 0 {
                        self.enqueue(learnt[0], None);
                    } else {
                        self.cancel_until(0);
                        self.enqueue(learnt[0], None);
                    }
                } else {
                    let asserting = learnt[0];
                    let cref = self.attach_clause(&learnt, true);
                    self.bump_clause(cref);
                    self.enqueue(asserting, Some(cref));
                }
                self.learnt = learnt;
                self.decay_var_activity();
                self.decay_clause_activity();
            } else {
                if conflicts_since_restart >= restart_limit {
                    self.stats.restarts += 1;
                    luby_index += 1;
                    restart_limit = 100 * luby(luby_index);
                    conflicts_since_restart = 0;
                    self.cancel_until(0);
                    continue;
                }
                if self.num_learnts > self.max_learnts {
                    self.reduce_db();
                    self.max_learnts += self.max_learnts / 2;
                }
                // Re-establish pending assumptions as pseudo-decisions.
                if (self.decision_level() as usize) < assumptions.len() {
                    let p = assumptions[self.decision_level() as usize];
                    match self.value(p) {
                        Some(true) => {
                            // Already implied: open an empty level so the
                            // remaining assumptions line up with levels.
                            self.trail_lim.push(self.trail.len());
                        }
                        Some(false) => {
                            // Conflicts with level-0 knowledge or earlier
                            // assumptions.
                            self.cancel_until(0);
                            return Some(SolveResult::Unsat);
                        }
                        None => {
                            self.stats.decisions += 1;
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(p, None);
                        }
                    }
                    continue;
                }
                match self.pick_branch_var() {
                    None => {
                        // Complete assignment: extract model.
                        let model = self
                            .assign
                            .iter()
                            .enumerate()
                            .map(|(v, a)| a.unwrap_or(self.phase[v]))
                            .collect();
                        self.cancel_until(0);
                        return Some(SolveResult::Sat(model));
                    }
                    Some(v) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let lit = Lit::new(v as u32, self.phase[v]);
                        self.enqueue(lit, None);
                    }
                }
            }
        }
    }

    /// The current level-0 value of a variable, if forced.
    pub fn fixed_value(&self, v: Var) -> Option<bool> {
        let idx = v.index();
        match self.assign[idx] {
            Some(val) if self.level[idx] == 0 => Some(val),
            _ => None,
        }
    }
}

#[cfg(test)]
impl Solver {
    /// How many times `reduce_db` ran, read back from the growth of
    /// `max_learnts` (each reduction raises it by half).
    pub(crate) fn db_reductions(&self) -> u32 {
        let (mut limit, mut n) = (Solver::new(0).max_learnts, 0);
        while limit < self.max_learnts {
            limit += limit / 2;
            n += 1;
        }
        n
    }

    /// Whether clause activities were ever rescaled. Without a rescale,
    /// `cla_inc` is `0.999^-k` after `k` decays, `k ≤ conflicts`; each
    /// rescale multiplies it by `1e-20`.
    pub(crate) fn clause_activity_rescaled(&self) -> bool {
        let conflicts = i32::try_from(self.stats.conflicts).unwrap_or(i32::MAX);
        self.cla_inc < 1e-10 * 0.999f64.powi(-conflicts)
    }
}

/// Value of `l` under `assign`, free of `&self` so propagation can read
/// assignments while it holds a clause's literals mutably.
#[inline]
fn lit_value(assign: &[Option<bool>], l: Lit) -> Option<bool> {
    assign[l.var().index()].map(|v| l.apply(v))
}

/// Luby restart sequence: 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,…
fn luby(mut i: u64) -> u64 {
    // Find the finite subsequence containing index i and its position.
    let mut k = 1u32;
    loop {
        let seq_len = (1u64 << k) - 1;
        if i + 1 == seq_len {
            return 1 << (k - 1);
        }
        if i + 1 < seq_len {
            // Recurse into the subsequence: strip the prefix of length
            // 2^(k−1) − 1 and scan again.
            k -= 1;
            i -= (1u64 << k) - 1;
            return luby(i);
        }
        k += 1;
    }
}

/// Binary max-heap over variable indices ordered by activity, with
/// positions for O(log n) updates.
struct IndexedHeap {
    heap: Vec<usize>,
    pos: Vec<Option<usize>>,
}

impl IndexedHeap {
    /// Heap initially containing all of `0..n` (equal activities).
    fn full(n: usize) -> IndexedHeap {
        IndexedHeap {
            heap: (0..n).collect(),
            pos: (0..n).map(Some).collect(),
        }
    }

    /// Extends the position table to cover variables `0..n` without
    /// enqueueing the new ones (the caller inserts them explicitly).
    fn grow(&mut self, n: usize) {
        if n > self.pos.len() {
            self.pos.resize(n, None);
        }
    }

    fn insert(&mut self, v: usize, act: &[f64]) {
        if self.pos[v].is_some() {
            return;
        }
        self.pos[v] = Some(self.heap.len());
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, act);
    }

    fn update(&mut self, v: usize, act: &[f64]) {
        if let Some(i) = self.pos[v] {
            self.sift_up(i, act);
        }
    }

    fn pop(&mut self, act: &[f64]) -> Option<usize> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty");
        self.pos[top] = None;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last] = Some(0);
            self.sift_down(0, act);
        }
        Some(top)
    }

    fn sift_up(&mut self, mut i: usize, act: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if act[self.heap[i]] <= act[self.heap[parent]] {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize, act: &[f64]) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut best = i;
            if l < self.heap.len() && act[self.heap[l]] > act[self.heap[best]] {
                best = l;
            }
            if r < self.heap.len() && act[self.heap[r]] > act[self.heap[best]] {
                best = r;
            }
            if best == i {
                return;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.pos[self.heap[i]] = Some(i);
        self.pos[self.heap[j]] = Some(j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(xs: &[i32]) -> Vec<Lit> {
        xs.iter()
            .map(|&x| Lit::new(x.unsigned_abs() - 1, x > 0))
            .collect()
    }

    fn solver_with(nvars: u32, clauses: &[&[i32]]) -> Solver {
        let mut s = Solver::new(nvars);
        for c in clauses {
            s.add_clause(lits(c));
        }
        s
    }

    #[test]
    fn trivial_sat() {
        let mut s = solver_with(1, &[&[1]]);
        let r = s.solve();
        assert_eq!(r, SolveResult::Sat(vec![true]));
    }

    #[test]
    fn trivial_unsat() {
        let mut s = solver_with(1, &[&[1], &[-1]]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new(3);
        assert!(s.solve().is_sat());
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new(1);
        assert!(!s.add_clause(std::iter::empty()));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn implication_chain_propagates() {
        // 1, 1→2, 2→3, 3→4
        let mut s = solver_with(4, &[&[1], &[-1, 2], &[-2, 3], &[-3, 4]]);
        match s.solve() {
            SolveResult::Sat(m) => assert!(m.iter().all(|&b| b)),
            SolveResult::Unsat => panic!("should be sat"),
        }
    }

    #[test]
    fn pigeonhole_two_in_one_is_unsat() {
        // Two pigeons, one hole: p1h1, p2h1, ¬p1h1∨¬p2h1.
        let mut s = solver_with(2, &[&[1], &[2], &[-1, -2]]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_3_pigeons_2_holes() {
        // Variables p_{i,j} = pigeon i in hole j, i∈{0,1,2}, j∈{0,1}.
        // var(i,j) = 2i + j + 1 (1-based DIMACS style for the helper).
        let v = |i: i32, j: i32| 2 * i + j + 1;
        let mut clauses: Vec<Vec<i32>> = Vec::new();
        for i in 0..3 {
            clauses.push(vec![v(i, 0), v(i, 1)]);
        }
        for j in 0..2 {
            for a in 0..3 {
                for b in (a + 1)..3 {
                    clauses.push(vec![-v(a, j), -v(b, j)]);
                }
            }
        }
        let refs: Vec<&[i32]> = clauses.iter().map(|c| c.as_slice()).collect();
        let mut s = solver_with(6, &refs);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn model_satisfies_all_clauses() {
        let clauses: &[&[i32]] = &[&[1, 2, -3], &[-1, 3], &[2, 3], &[-2, -3, 4], &[1, -4]];
        let mut s = solver_with(4, clauses);
        let SolveResult::Sat(m) = s.solve() else {
            panic!("should be sat")
        };
        for c in clauses {
            assert!(
                c.iter()
                    .any(|&x| m[(x.unsigned_abs() - 1) as usize] == (x > 0)),
                "clause {c:?} falsified"
            );
        }
    }

    #[test]
    fn duplicate_and_tautological_clauses_ignored() {
        let mut s = Solver::new(2);
        assert!(s.add_clause(lits(&[1, 1, 2])));
        assert!(s.add_clause(lits(&[1, -1])));
        assert!(s.solve().is_sat());
    }

    #[test]
    fn fixed_value_after_unit() {
        let s = solver_with(2, &[&[-1]]);
        assert_eq!(s.fixed_value(Var(0)), Some(false));
        assert_eq!(s.fixed_value(Var(1)), None);
    }

    #[test]
    fn conflict_budget_returns_none_on_hard_instance() {
        // A PHP-style instance large enough to need > 1 conflict.
        let v = |i: i32, j: i32| 4 * i + j + 1;
        let mut clauses: Vec<Vec<i32>> = Vec::new();
        for i in 0..5 {
            clauses.push((0..4).map(|j| v(i, j)).collect());
        }
        for j in 0..4 {
            for a in 0..5 {
                for b in (a + 1)..5 {
                    clauses.push(vec![-v(a, j), -v(b, j)]);
                }
            }
        }
        let refs: Vec<&[i32]> = clauses.iter().map(|c| c.as_slice()).collect();
        let mut s = solver_with(20, &refs);
        s.set_conflict_budget(1);
        assert_eq!(s.solve_limited(), None);
    }

    #[test]
    fn assumptions_restrict_without_committing() {
        // x1 ∨ x2; assuming ¬x1 forces x2, assuming ¬x1 ∧ ¬x2 is unsat,
        // and the solver stays usable afterwards.
        let mut s = solver_with(2, &[&[1, 2]]);
        let SolveResult::Sat(m) = s.solve_assuming(&lits(&[-1])) else {
            panic!("sat under ¬x1");
        };
        assert!(!m[0] && m[1]);
        assert_eq!(s.solve_assuming(&lits(&[-1, -2])), SolveResult::Unsat);
        // Not committed: still globally satisfiable.
        assert!(s.solve().is_sat());
        let SolveResult::Sat(m) = s.solve_assuming(&lits(&[1])) else {
            panic!("sat under x1");
        };
        assert!(m[0]);
    }

    #[test]
    fn assumptions_conflicting_with_level0_are_unsat() {
        let mut s = solver_with(2, &[&[-1]]);
        assert_eq!(s.solve_assuming(&lits(&[1])), SolveResult::Unsat);
        assert!(s.solve().is_sat(), "solver not poisoned");
    }

    #[test]
    fn assumptions_on_implied_literals_are_free() {
        // Unit x1 at level 0; assuming x1 must not break anything.
        let mut s = solver_with(3, &[&[1], &[-1, 2]]);
        let SolveResult::Sat(m) = s.solve_assuming(&lits(&[1, 2])) else {
            panic!("sat");
        };
        assert!(m[0] && m[1]);
    }

    #[test]
    fn incremental_queries_share_learnt_clauses() {
        // A mildly hard instance queried twice: the second call should not
        // redo all conflicts.
        let v = |i: i32, j: i32| 3 * i + j + 1;
        let mut clauses: Vec<Vec<i32>> = Vec::new();
        for i in 0..4 {
            clauses.push((0..3).map(|j| v(i, j)).collect());
        }
        for j in 0..3 {
            for a in 0..4 {
                for b in (a + 1)..4 {
                    clauses.push(vec![-v(a, j), -v(b, j)]);
                }
            }
        }
        let refs: Vec<&[i32]> = clauses.iter().map(|c| c.as_slice()).collect();
        let mut s = solver_with(12, &refs);
        assert_eq!(s.solve_assuming(&[]), SolveResult::Unsat);
        let after_first = s.stats().conflicts;
        assert_eq!(s.solve(), SolveResult::Unsat);
        // Global unsat was established; the second call is free.
        assert_eq!(s.stats().conflicts, after_first);
    }

    #[test]
    fn luby_sequence_prefix() {
        let expected = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (0..expected.len() as u64).map(luby).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn solve_is_repeatable() {
        let mut s = solver_with(3, &[&[1, 2], &[-1, 3], &[-2, -3]]);
        let r1 = s.solve();
        let r2 = s.solve();
        assert_eq!(r1.is_sat(), r2.is_sat());
    }

    /// PHP(5,4), unsat, no unit clauses — propagation happens only inside
    /// solve, so the budget callback is polled there.
    fn php_5_4() -> Solver {
        let v = |i: i32, j: i32| 4 * i + j + 1;
        let mut clauses: Vec<Vec<i32>> = Vec::new();
        for i in 0..5 {
            clauses.push((0..4).map(|j| v(i, j)).collect());
        }
        for j in 0..4 {
            for a in 0..5 {
                for b in (a + 1)..5 {
                    clauses.push(vec![-v(a, j), -v(b, j)]);
                }
            }
        }
        let refs: Vec<&[i32]> = clauses.iter().map(|c| c.as_slice()).collect();
        solver_with(20, &refs)
    }

    #[test]
    fn budget_callback_aborts_and_solver_stays_usable() {
        let mut s = php_5_4();
        s.set_budget_callback(Some(Box::new(|| true)));
        assert_eq!(s.solve_limited(), None, "probe must abort the search");
        assert!(s.was_interrupted());
        // Removing the probe lets the same solver finish the proof.
        s.set_budget_callback(None);
        assert!(!s.was_interrupted());
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn ensure_vars_extends_the_instance_between_solves() {
        // Solve over 2 vars, then grow to 4 and constrain the new ones;
        // the same solver answers both queries.
        let mut s = solver_with(2, &[&[1, 2]]);
        assert!(s.solve().is_sat());
        s.ensure_vars(4);
        assert_eq!(s.num_vars(), 4);
        assert!(s.add_clause(lits(&[3, 4])));
        assert!(s.add_clause(lits(&[-3])));
        let SolveResult::Sat(m) = s.solve() else {
            panic!("grown instance should be sat");
        };
        assert_eq!(m.len(), 4);
        assert!(!m[2] && m[3]);
        // Shrinking requests and repeats are no-ops.
        s.ensure_vars(1);
        s.ensure_vars(4);
        assert_eq!(s.num_vars(), 4);
    }

    #[test]
    fn learnt_clauses_survive_variable_growth() {
        // PHP(4,3) guarded by an activation literal a (var 13): unsat under
        // the assumption a, satisfiable without it — the shape of one depth
        // of the incremental-deepening encoding. After proving the guarded
        // instance unsat, grow the universe and re-query: the learnt
        // refutation must be reused (no new conflicts).
        let act = 13i32;
        let v = |i: i32, j: i32| 3 * i + j + 1;
        let mut clauses: Vec<Vec<i32>> = Vec::new();
        for i in 0..4 {
            let mut c: Vec<i32> = (0..3).map(|j| v(i, j)).collect();
            c.push(-act);
            clauses.push(c);
        }
        for j in 0..3 {
            for a in 0..4 {
                for b in (a + 1)..4 {
                    clauses.push(vec![-v(a, j), -v(b, j), -act]);
                }
            }
        }
        let refs: Vec<&[i32]> = clauses.iter().map(|c| c.as_slice()).collect();
        let mut s = solver_with(13, &refs);
        assert_eq!(s.solve_assuming(&lits(&[act])), SolveResult::Unsat);
        let after_first = s.stats().conflicts;
        assert!(after_first > 0, "the guarded PHP needs real conflicts");
        s.ensure_vars(15);
        assert!(s.add_clause(lits(&[14, 15])));
        assert_eq!(s.solve_assuming(&lits(&[act])), SolveResult::Unsat);
        assert_eq!(s.stats().conflicts, after_first, "refutation reused");
        assert!(s.solve().is_sat(), "unguarded instance stays sat");
    }

    #[test]
    fn clauses_added_after_a_sat_call_constrain_the_next() {
        // The incremental-deepening usage pattern: solve, learn the answer
        // is wrong, add blocking clauses, solve again.
        let mut s = solver_with(2, &[&[1, 2]]);
        let SolveResult::Sat(m) = s.solve() else {
            panic!("sat");
        };
        // Block the returned model over the clause variables.
        let block: Vec<Lit> = (0..2).map(|i| Lit::new(i, !m[i as usize])).collect();
        assert!(s.add_clause(block));
        assert!(s.solve().is_sat(), "three assignments remain");
    }

    #[test]
    fn quiet_budget_callback_does_not_change_results() {
        let mut s = php_5_4();
        s.set_budget_callback(Some(Box::new(|| false)));
        assert_eq!(s.solve_limited(), Some(SolveResult::Unsat));
        assert!(!s.was_interrupted());
    }

    /// Random 3-SAT block over variables `0..nvars`.
    fn random_block(rng: &mut rand::rngs::StdRng, nvars: u32, nclauses: usize) -> CnfFormula {
        use rand::Rng;
        let mut f = CnfFormula::new(nvars);
        for _ in 0..nclauses {
            let mut vars = Vec::with_capacity(3);
            while vars.len() < 3 {
                let v = rng.gen_range(0..nvars);
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
            f.add_clause(vars.iter().map(|&v| Lit::new(v, rng.gen())));
        }
        f
    }

    /// Every watcher points at a record of the arena (a live clause or a
    /// tombstone), and every reason at a live clause whose first literal
    /// is the one it implies.
    fn assert_crefs_valid(s: &Solver) {
        let records: std::collections::BTreeSet<u32> = s.arena.crefs().collect();
        for w in s.watches.iter().flatten() {
            assert!(records.contains(&w.cref), "watcher of a dropped record");
        }
        for (v, r) in s.reason.iter().enumerate() {
            if let Some(c) = *r {
                assert!(records.contains(&c) && !s.arena.is_deleted(c));
                assert_eq!(Lit::from_raw(s.arena.lits(c)[0]).var().index(), v);
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "tens of thousands of conflicts")]
    fn persistent_solver_matches_fresh_solvers_across_compactions() {
        // One guarded 3-SAT block per round, the shape of incremental
        // deepening: grow the universe by an activation variable a_k, add
        // the block with ¬a_k in every clause, solve under a_k (every third
        // round under a_{k-1} too), and retire a_k when its block alone is
        // refuted. Twelve rounds run several reductions and compactions.
        use rand::SeedableRng;
        const BASE: u32 = 150;
        let mut rng = rand::rngs::StdRng::seed_from_u64(19);
        let mut s = Solver::new(BASE);
        let mut blocks: Vec<CnfFormula> = Vec::new();
        for k in 0..12u32 {
            let act = Lit::pos(BASE + k);
            s.ensure_vars(BASE + k + 1);
            let block = random_block(&mut rng, BASE, 600 + 5 * k as usize);
            for c in block.clauses() {
                assert!(s.add_clause(c.lits().iter().copied().chain([!act])));
            }
            blocks.push(block);
            let mut assumptions = vec![act];
            if k % 3 == 2 {
                assumptions.push(Lit::pos(BASE + k - 1));
            }
            let answer = s.solve_assuming(&assumptions);
            // A fresh solver over just the assumed blocks, unguarded.
            let mut fresh = CnfFormula::new(BASE);
            for a in &assumptions {
                for c in blocks[(a.var().0 - BASE) as usize].clauses() {
                    fresh.add_clause(c.lits().iter().copied());
                }
            }
            assert_eq!(
                answer.is_sat(),
                Solver::from_formula(&fresh).solve().is_sat(),
                "round {k}"
            );
            match &answer {
                SolveResult::Sat(m) => assert!(fresh.eval(&m[..BASE as usize]), "round {k}"),
                SolveResult::Unsat if assumptions.len() == 1 => {
                    assert!(s.add_clause([!act]));
                }
                SolveResult::Unsat => {}
            }
            assert!(
                s.arena.wasted() * 5 <= s.arena.len(),
                "round {k}: {} of {} words dead",
                s.arena.wasted(),
                s.arena.len()
            );
            assert_crefs_valid(&s);
        }
        assert!(s.db_reductions() >= 3, "{} reductions", s.db_reductions());
        assert!(s.compactions >= 2, "{} compactions", s.compactions);
    }

    #[test]
    fn compaction_keeps_a_learnt_reason_valid() {
        // Two learnt clauses are deleted ahead of a third, R = x0 ∨ ¬x1 ∨
        // ¬x2, which is the reason for x0 at level 2. Compaction shrinks
        // the deleted pair to tombstones (their watchers were never
        // purged), slides R down and must re-point x0's reason at it.
        let originals: &[&[i32]] = &[&[-1, 4], &[-1, -5, 6], &[-1, -5, -6], &[6, 7, 8]];
        let mut s = solver_with(8, originals);
        let dead: Vec<u32> = [lits(&[4, 5, 6]), lits(&[6, 7, 8])]
            .iter()
            .map(|c| s.attach_clause(c, true))
            .collect();
        let r = s.attach_clause(&lits(&[1, -2, -3]), true);
        for &c in &dead {
            s.arena.delete(c);
            s.num_learnts -= 1;
        }
        for decision in lits(&[2, 3]) {
            s.trail_lim.push(s.trail.len());
            s.enqueue(decision, None);
            assert_eq!(s.propagate(), None);
        }
        assert_eq!(s.reason[0], Some(r), "R implies x0");
        assert!(s.is_locked(r));
        s.compact_arena();
        let moved = s.reason[0].unwrap();
        assert!(moved < r, "R slid over the dead words");
        assert_eq!(Lit::from_raw(s.arena.lits(moved)[0]), Lit::pos(0));
        let mut got: Vec<Lit> = s
            .arena
            .lits(moved)
            .iter()
            .map(|&l| Lit::from_raw(l))
            .collect();
        got.sort_unstable();
        assert_eq!(got, {
            let mut want = lits(&[1, -2, -3]);
            want.sort_unstable();
            want
        });
        assert!(s.is_locked(moved) && s.arena.is_learnt(moved));
        assert_eq!(s.arena.wasted(), 2, "two tombstones, one word each");
        assert_crefs_valid(&s);
        // The search goes on over the moved reason: deciding x4 at level 3
        // conflicts on ¬x0 ∨ ¬x4 ∨ ¬x5, and minimizing the learnt ¬x4 ∨ ¬x0
        // reads R's literals through x0's rewritten reason.
        s.trail_lim.push(s.trail.len());
        s.enqueue(Lit::pos(4), None);
        let confl = s.propagate().expect("¬x0 ∨ ¬x4 ∨ ¬x5 is falsified");
        assert_eq!(s.analyze(confl), 2);
        assert_eq!(s.learnt, vec![Lit::neg(4), Lit::neg(0)]);
        s.cancel_until(0);
        let mut fresh = solver_with(8, originals);
        assert!(fresh.add_clause(lits(&[1, -2, -3])));
        assert_eq!(s.solve().is_sat(), fresh.solve().is_sat());
    }
}
