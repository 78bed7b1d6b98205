//! Per-worker synthesis sessions: recyclable BDD managers and a unified
//! resource governor.
//!
//! # Why sessions
//!
//! A `qsyn batch` run multiplies the paper's per-depth oracle calls into
//! thousands of engine constructions, and until this module existed every
//! one of them built its state — BDD [`Manager`], solver, scratch — from
//! scratch, then threw the grown hash tables away. A [`SynthesisSession`]
//! is the per-worker context that survives across jobs: it owns a
//! [`ManagerPool`] of recyclable managers ([`Manager::reset`] clears
//! contents but keeps allocated capacity, so the unique table, computed
//! table and arena stay warm), and a job counter for reporting.
//!
//! # Why a pool and not a single manager
//!
//! The brute-force reference search drives up to `n!` BDD engines in lock
//! step, each needing its own manager at the same time (a synthesis
//! search holds one, its shared cascade's). The pool starts empty, grows
//! to the high-water mark of simultaneously live managers on the first
//! job, and recycles them all afterwards — steady-state batch work
//! allocates no new arenas at all.
//!
//! # The kept cascade
//!
//! Besides the pool, a session keeps the BDD cascade of its last job: the
//! manager, every level `F_0 ..= F_D` still rooted in it, and the select
//! variables in the order they were appended. The cascade depends only on
//! the line count, the gate library and the variable order, so the next
//! BDD job over the same lines and library takes it
//! ([`take_cascade`](SynthesisSession::take_cascade)), registers its own
//! targets, builds only the levels past `F_D`, and — only if it returns
//! normally — hands it back ([`keep_cascade`](SynthesisSession::keep_cascade)).
//! A job that panics drops the cascade during unwinding, which
//! quarantines its manager; a job that fails, or whose manager overflowed
//! or was interrupted, drops it into the pool as before. A cascade that
//! outgrows its share of the node budget is not kept at all (see
//! `bdd_engine`). This is how CUDD is meant to be used: one long-lived
//! manager whose shared subgraphs outlive any one query.
//!
//! # Resource governance
//!
//! A [`ResourceGovernor`] is the *only* component that raises
//! [`SynthesisError::BudgetExceeded`]: it folds the wall-clock deadline,
//! the live-BDD-node budget, the SAT-conflict budget and the
//! [`CancelToken`] behind one [`check`](ResourceGovernor::check) surface.
//! Engines never hand-roll a deadline, node-limit or cancellation test —
//! they ask their governor, so every engine reports exhaustion
//! identically and a future budget kind needs exactly one new method
//! here.

use crate::bdd_engine::Cascade;
use crate::cancel::CancelToken;
use crate::error::{Resource, SynthesisError};
use crate::options::SynthesisOptions;
use crate::permuted::PermutedSearchStats;
use qsyn_bdd::{Manager, ManagerStats};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Unified budget enforcement for one synthesis run; see the module docs.
///
/// Cheap to clone: clones share the underlying [`CancelToken`], so a
/// governor handed to an engine observes the same stop conditions as the
/// driver's.
#[derive(Clone, Debug)]
pub struct ResourceGovernor {
    cancel: CancelToken,
    time_budget: Option<Duration>,
    node_limit: usize,
    conflict_limit: u64,
}

impl ResourceGovernor {
    /// A governor enforcing the budgets configured in `options`, polling
    /// the options' [`CancelToken`].
    pub fn from_options(options: &SynthesisOptions) -> ResourceGovernor {
        ResourceGovernor {
            cancel: options.cancel.clone(),
            time_budget: options.time_budget,
            node_limit: options.bdd_node_limit,
            conflict_limit: options.conflict_limit,
        }
    }

    /// Starts the wall-clock budget, once: if the token already carries a
    /// deadline (an outer driver armed it, or an injected fault expired
    /// it), the earlier arming stands — re-entering the driver must never
    /// extend a run's budget. Supervised attempts each run on a fresh
    /// token, so each arms its own (scaled) budget.
    pub fn arm(&self) {
        if let Some(budget) = self.time_budget {
            if !self.cancel.has_budget() {
                self.cancel.set_budget(budget);
            }
        }
    }

    /// Polls the cancel flag and the deadline, attributing a failure to
    /// `depth`.
    ///
    /// # Errors
    ///
    /// [`SynthesisError::Cancelled`], or [`SynthesisError::BudgetExceeded`]
    /// with [`Resource::WallClock`].
    pub fn check(&self, depth: u32) -> Result<(), SynthesisError> {
        self.cancel.check(depth)
    }

    /// The live-BDD-node budget.
    pub fn node_limit(&self) -> usize {
        self.node_limit
    }

    /// The per-depth SAT-conflict budget (the QBF engine's expansion solve
    /// spends it too).
    pub fn conflict_limit(&self) -> u64 {
        self.conflict_limit
    }

    /// The governed token (for merging into sub-tokens).
    pub fn token(&self) -> &CancelToken {
        &self.cancel
    }

    /// The node budget ran out at `depth` with `spent` live nodes.
    pub fn nodes_exceeded(&self, depth: u32, spent: usize) -> SynthesisError {
        SynthesisError::BudgetExceeded {
            depth,
            resource: Resource::BddNodes,
            spent: spent as u64,
            limit: self.node_limit as u64,
        }
    }

    /// The conflict budget ran out at `depth` after `spent` conflicts.
    pub fn conflicts_exceeded(&self, depth: u32, spent: u64) -> SynthesisError {
        SynthesisError::BudgetExceeded {
            depth,
            resource: Resource::SatConflicts,
            spent,
            limit: self.conflict_limit,
        }
    }

    /// An abort probe for [`Manager::set_interrupt_poll`]: fires when the
    /// governed token is cancelled or its deadline has passed, so a single
    /// giant BDD operation stops mid-recursion instead of running to
    /// completion. The manager latches the interrupt and collapses results
    /// to ⊥; the engine's next [`check`](Self::check) turns that into the
    /// structured error.
    ///
    /// Carries the fault-plane site `bdd.gc-sweep`, polled at the BDD
    /// safe points (garbage-collection entry and the construction-stride
    /// poll): an injected fault expires the governed token's deadline, so
    /// the interrupt latches and the engine reports a wall-clock budget
    /// trip exactly as a real deadline would — never the fatal
    /// "interrupted without a tripped token" invariant error.
    pub fn interrupt_probe(&self) -> Box<dyn Fn() -> bool + Send> {
        let token = self.cancel.clone();
        Box::new(move || {
            if qsyn_faults::hit(qsyn_faults::Site::BddGcSweep).is_some() {
                token.expire();
            }
            token.is_cancelled() || token.deadline_expired()
        })
    }

    /// The same probe shaped for
    /// [`Solver::set_budget_callback`](qsyn_sat::Solver::set_budget_callback):
    /// aborts CDCL propagation when the run is cancelled or out of time.
    ///
    /// Carries the fault-plane site `sat.propagate`: an injected fault
    /// expires the governed token's deadline, so the abort latches and the
    /// engine's next check reports a wall-clock budget trip exactly as a
    /// real deadline would.
    pub fn sat_abort_probe(&self) -> Box<dyn FnMut() -> bool + Send> {
        let token = self.cancel.clone();
        Box::new(move || {
            if qsyn_faults::hit(qsyn_faults::Site::SatPropagate).is_some() {
                token.expire();
            }
            token.is_cancelled() || token.deadline_expired()
        })
    }

    /// Polls the fault-plane site `sat.retain` at the incremental engines'
    /// clause-retention point — just before a depth delta is fed to the
    /// persistent solver. An injected fault expires the governed token's
    /// deadline, so the very check this probe performs reports a wall-clock
    /// budget trip exactly as a real deadline observed between depths
    /// would, and the supervised retry re-runs the job from scratch with
    /// the retained clauses gone.
    ///
    /// # Errors
    ///
    /// See [`check`](Self::check).
    pub fn retention_probe(&self, depth: u32) -> Result<(), SynthesisError> {
        if qsyn_faults::hit(qsyn_faults::Site::SatRetain).is_some() {
            self.cancel.expire();
        }
        self.check(depth)
    }
}

/// A shared pool of recyclable BDD managers; see the module docs.
///
/// Clones share the pool. [`checkout`](ManagerPool::checkout) pops a
/// retired manager (resetting it to the requested variable count, keeping
/// its allocated capacity) or allocates a fresh one; dropping the returned
/// [`PooledManager`] checks the manager back in.
///
/// # Quarantine
///
/// A manager is **quarantined** — dropped on the floor instead of checked
/// back in — when its loan ends during a panic unwind (the job that held
/// it crashed mid-build, so its arena state is suspect), when the holder
/// calls [`PooledManager::quarantine`] explicitly, or when the post-job
/// structural audit fails at check-in. Quarantined managers are counted in
/// [`SessionStats::quarantined`] and are never re-issued: the next
/// checkout allocates fresh.
#[derive(Clone, Debug, Default)]
pub struct ManagerPool {
    inner: Arc<Mutex<PoolState>>,
}

#[derive(Debug, Default)]
struct PoolState {
    idle: Vec<Manager>,
    quarantined: u64,
    retries: u64,
}

/// Largest manager the check-in audit will walk; beyond this the audit is
/// skipped rather than stalling the worker between jobs.
const CHECK_IN_AUDIT_NODE_CAP: usize = 100_000;

/// The audit a manager passes before it may serve another job, whether it
/// returns to the pool or stays in a kept cascade. Walking the arena costs
/// O(nodes) — enough to dominate small jobs — so release builds only pay
/// it while the fault plane is *armed* (injected faults are what can leave
/// an arena torn, and the chaos harness depends on the quarantine); debug
/// builds always audit.
pub(crate) fn passes_check_in_audit(m: &Manager) -> bool {
    let audit = (cfg!(debug_assertions) || qsyn_faults::FaultPlane::armed())
        && m.node_count() <= CHECK_IN_AUDIT_NODE_CAP;
    !audit || qsyn_audit::bdd_audit::audit_manager(m).is_ok()
}

/// The fault-plane site `session.checkout`: a poisoned manager surfacing
/// while a worker prepares a job.
fn poll_checkout_fault() {
    if qsyn_faults::hit(qsyn_faults::Site::SessionCheckout).is_some() {
        panic!("fault-plane: injected panic at session.checkout");
    }
}

impl ManagerPool {
    /// An empty pool.
    pub fn new() -> ManagerPool {
        ManagerPool::default()
    }

    /// A manager over `num_vars` variables: recycled if one is available,
    /// freshly allocated otherwise.
    ///
    /// # Panics
    ///
    /// Only under fault injection: the fault-plane site
    /// `session.checkout` models a poisoned manager surfacing while a
    /// worker prepares a job.
    pub fn checkout(&self, num_vars: u32) -> PooledManager {
        poll_checkout_fault();
        let recycled = self.inner.lock().expect("manager pool lock").idle.pop();
        let m = match recycled {
            Some(mut m) => {
                m.reset(num_vars);
                m
            }
            None => Manager::new(num_vars),
        };
        PooledManager {
            m: Some(m),
            pool: self.clone(),
        }
    }

    /// Number of managers currently checked in.
    pub fn idle(&self) -> usize {
        self.inner.lock().expect("manager pool lock").idle.len()
    }

    /// Managers quarantined so far (never re-issued).
    pub fn quarantined(&self) -> u64 {
        self.inner.lock().expect("manager pool lock").quarantined
    }

    /// Records one supervised retry attempt (see
    /// [`SessionStats::retries`]); called by the supervisor
    /// (`qsyn_portfolio::supervise`).
    pub fn note_retry(&self) {
        self.inner.lock().expect("manager pool lock").retries += 1;
    }

    /// Sums the cumulative counters of every checked-in manager.
    fn stats(&self) -> SessionStats {
        let pool = self.inner.lock().expect("manager pool lock");
        let mut agg = SessionStats {
            managers: pool.idle.len() as u64,
            quarantined: pool.quarantined,
            retries: pool.retries,
            ..SessionStats::default()
        };
        for m in pool.idle.iter() {
            // concheck resolves `m.stats()` by bare name and merges it
            // with this very function, inferring a self.inner re-lock.
            // `m` is a `Manager`, whose `stats()` reads plain counters
            // and takes no lock.
            let s = m.stats(); // lint: allow(lock-order)
            agg.merge(&SessionStats::of_manager(&s));
        }
        agg
    }

    fn check_in(&self, mut m: Manager) {
        // A returning manager must pass the structural audit before it can
        // serve another job; a corrupted arena is quarantined, not
        // recycled.
        if !passes_check_in_audit(&m) {
            self.note_quarantine();
            return;
        }
        // Never retain a caller's abort probe across jobs: the closure
        // captures a token whose lifetime ends with the job.
        m.set_interrupt_poll(None);
        self.inner.lock().expect("manager pool lock").idle.push(m);
    }

    fn note_quarantine(&self) {
        // The manager itself is dropped by the caller going out of scope.
        self.inner.lock().expect("manager pool lock").quarantined += 1;
    }
}

/// A [`Manager`] on loan from a [`ManagerPool`]; derefs to the manager
/// and checks itself back in on drop — unless the drop happens during a
/// panic unwind, in which case the manager is quarantined (see
/// [`ManagerPool`]).
#[derive(Debug)]
pub struct PooledManager {
    m: Option<Manager>,
    pool: ManagerPool,
}

impl PooledManager {
    /// Ends this loan and starts a new one over `num_vars` variables from
    /// the same pool. The manager is checked in *before* the checkout, so
    /// the pool re-issues it (reset, capacity kept) instead of allocating a
    /// second one while the first is still held.
    pub(crate) fn recycle(&mut self, num_vars: u32) {
        if let Some(m) = self.m.take() {
            self.pool.check_in(m);
        }
        *self = self.pool.checkout(num_vars);
    }

    /// Quarantines the manager explicitly: it is dropped, counted in
    /// [`SessionStats::quarantined`], and never returns to the pool. Use
    /// when the holder knows the manager's state is suspect (a failed
    /// audit, an inconsistent result) without a panic in flight.
    pub fn quarantine(mut self) {
        if self.m.take().is_some() {
            self.pool.note_quarantine();
        }
    }
}

impl std::ops::Deref for PooledManager {
    type Target = Manager;
    fn deref(&self) -> &Manager {
        self.m.as_ref().expect("manager present until drop")
    }
}

impl std::ops::DerefMut for PooledManager {
    fn deref_mut(&mut self) -> &mut Manager {
        self.m.as_mut().expect("manager present until drop")
    }
}

impl Drop for PooledManager {
    fn drop(&mut self) {
        if let Some(m) = self.m.take() {
            // A loan ending mid-unwind means the owning job panicked with
            // the manager possibly half-updated; poison it out of the pool
            // instead of handing the wreckage to the next job.
            if std::thread::panicking() {
                drop(m);
                self.pool.note_quarantine();
            } else {
                self.pool.check_in(m);
            }
        }
    }
}

/// Aggregated per-session counters, for `qsyn batch --stats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Jobs run through the session.
    pub jobs: u64,
    /// Managers the pool owns (its high-water mark of simultaneous use).
    pub managers: u64,
    /// Total manager recycles ([`Manager::reset`] calls).
    pub resets: u64,
    /// Highest live-node count any manager reached.
    pub peak_live: usize,
    /// Computed-table hits, summed.
    pub cache_hits: u64,
    /// Computed-table misses, summed.
    pub cache_misses: u64,
    /// Computed-table evictions, summed.
    pub cache_evictions: u64,
    /// Garbage collections, summed.
    pub gc_runs: u64,
    /// Nodes reclaimed by collections, summed.
    pub gc_freed: u64,
    /// Managers quarantined (dropped after a panic, an explicit
    /// quarantine, or a failed check-in audit) — never re-issued.
    pub quarantined: u64,
    /// Supervised retry attempts recorded by the supervisor.
    pub retries: u64,
    /// Every search the session ran, summed: plain synthesis is the
    /// search over one labeling, so a plain job adds 1 to `permutations`
    /// and its depth queries to `probes_run`. Its `levels_built` counts
    /// the cascade levels the session constructed: a job whose depth a
    /// kept cascade already reaches adds none.
    pub search: PermutedSearchStats,
}

impl SessionStats {
    /// One manager's cumulative BDD counters, to be folded in through
    /// [`SessionStats::merge`].
    fn of_manager(s: &ManagerStats) -> SessionStats {
        SessionStats {
            resets: s.resets,
            peak_live: s.peak_live,
            cache_hits: s.cache_hits,
            cache_misses: s.cache_misses,
            cache_evictions: s.cache_evictions,
            gc_runs: s.gc_runs,
            gc_freed: s.gc_freed,
            ..SessionStats::default()
        }
    }

    /// Merges another session's counters into this one (for aggregating
    /// across batch workers).
    pub fn merge(&mut self, other: &SessionStats) {
        self.jobs += other.jobs;
        self.managers += other.managers;
        self.resets += other.resets;
        self.peak_live = self.peak_live.max(other.peak_live);
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_evictions += other.cache_evictions;
        self.gc_runs += other.gc_runs;
        self.gc_freed += other.gc_freed;
        self.quarantined += other.quarantined;
        self.retries += other.retries;
        self.search.merge(&other.search);
    }

    /// Computed-table hit rate in percent (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            100.0 * self.cache_hits as f64 / lookups as f64
        }
    }
}

impl std::fmt::Display for SessionStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} jobs, {} managers, {} resets, peak {} live nodes, \
             cache {} hits / {} misses ({:.1}% hit rate, {} evictions), \
             {} GCs freeing {} nodes, {} retries, {} quarantined",
            self.jobs,
            self.managers,
            self.resets,
            self.peak_live,
            self.cache_hits,
            self.cache_misses,
            self.hit_rate(),
            self.cache_evictions,
            self.gc_runs,
            self.gc_freed,
            self.retries,
            self.quarantined,
        )?;
        let s = &self.search;
        if s.permutations > 0 {
            write!(
                f,
                ", perm search: {} probes over {} classes from {} permutations \
                 ({} floor skips, {} levels built)",
                s.probes_run, s.classes, s.permutations, s.depth_floor_skips, s.levels_built,
            )?;
        }
        let inc = &s.incremental;
        if inc.depths > 0 {
            write!(
                f,
                ", incremental SAT: {} depth queries retaining {} clauses \
                 ({} added, {} learnts reused, {} conflicts)",
                inc.depths,
                inc.clauses_retained,
                inc.clauses_added,
                inc.learnt_reused,
                inc.conflicts,
            )?;
        }
        Ok(())
    }
}

/// Per-worker synthesis context; see the module docs.
///
/// Create one per worker thread, pass it to the `*_in` entry points
/// ([`synthesize_in`](crate::synthesize_in),
/// [`synthesize_with_output_permutation_in`](crate::permuted::synthesize_with_output_permutation_in))
/// for every job the worker runs, and read [`stats`](Self::stats) at the
/// end. A session is deliberately cheap when unused: the pool starts
/// empty and no cascade is kept.
#[derive(Debug, Default)]
pub struct SynthesisSession {
    pool: ManagerPool,
    jobs: u64,
    search: PermutedSearchStats,
    /// The BDD cascade the last job handed back; see the module docs.
    cascade: Option<Cascade>,
}

impl SynthesisSession {
    /// A fresh session with an empty manager pool.
    pub fn new() -> SynthesisSession {
        SynthesisSession::default()
    }

    /// The session's manager pool (a shared handle).
    pub fn pool(&self) -> ManagerPool {
        self.pool.clone()
    }

    /// Records the start of a job (for [`stats`](Self::stats)).
    pub fn begin_job(&mut self) {
        self.jobs += 1;
    }

    /// Accumulates one search's probe-space and solver counters — plain
    /// or permuted alike (surfaced through [`SessionStats`] for
    /// `qsyn batch --stats`).
    pub fn note_permuted_search(&mut self, s: &PermutedSearchStats) {
        self.search.merge(s);
    }

    /// Takes the kept cascade out of the session for a BDD job over
    /// `lines` lines under `options`: `Some` when the cascade was built for
    /// the same lines and library and `options` let it be reused, `None`
    /// otherwise (a kept cascade that does not fit returns its manager to
    /// the pool, and the caller checks one out). Taking it polls the
    /// fault-plane site `session.checkout` as the checkout it replaces
    /// would, so each engine polls the site exactly once.
    ///
    /// # Panics
    ///
    /// Only under fault injection (the session keeps its cascade then).
    pub(crate) fn take_cascade(
        &mut self,
        lines: u32,
        options: &SynthesisOptions,
    ) -> Option<Cascade> {
        if !self
            .cascade
            .as_ref()
            .is_some_and(|c| c.fits(lines, options))
        {
            self.cascade = None;
            return None;
        }
        poll_checkout_fault();
        self.cascade.take()
    }

    /// Keeps `cascade` for the next job; the caller has cleared its
    /// manager's interrupt probe and audited it.
    pub(crate) fn keep_cascade(&mut self, cascade: Cascade) {
        self.cascade = Some(cascade);
    }

    /// The depth of the kept cascade, if the session keeps one.
    #[cfg(test)]
    pub(crate) fn kept_depth(&self) -> Option<u32> {
        self.cascade.as_ref().map(Cascade::depth)
    }

    /// Aggregated counters over everything this session has run, the kept
    /// cascade's manager included. Call between jobs: managers still
    /// checked out are not counted.
    pub fn stats(&self) -> SessionStats {
        let mut stats = SessionStats {
            jobs: self.jobs,
            search: self.search,
            ..self.pool.stats()
        };
        if let Some(cascade) = &self.cascade {
            stats.managers += 1;
            stats.merge(&SessionStats::of_manager(&cascade.manager_stats()));
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::Engine;
    use qsyn_revlogic::GateLibrary;

    fn opts() -> SynthesisOptions {
        SynthesisOptions::new(GateLibrary::mct(), Engine::Bdd)
    }

    #[test]
    fn pool_recycles_managers() {
        let pool = ManagerPool::new();
        let stamp;
        {
            let mut m = pool.checkout(4);
            let a = m.var(0);
            let b = m.var(1);
            let _ = m.and(a, b);
            stamp = m.stats().allocated;
            assert!(stamp > 0);
        }
        assert_eq!(pool.idle(), 1);
        let m2 = pool.checkout(6);
        assert_eq!(pool.idle(), 0);
        assert_eq!(m2.stats().resets, 1, "checkout reuses the retired manager");
        assert_eq!(m2.node_count(), 2, "reset manager starts empty");
    }

    #[test]
    fn pool_grows_under_simultaneous_checkout() {
        let pool = ManagerPool::new();
        let a = pool.checkout(2);
        let b = pool.checkout(2);
        drop(a);
        drop(b);
        assert_eq!(pool.idle(), 2);
        let c = pool.checkout(2);
        let d = pool.checkout(2);
        assert_eq!(pool.idle(), 0);
        drop(c);
        drop(d);
        assert_eq!(pool.idle(), 2, "steady state allocates no new managers");
    }

    #[test]
    fn session_stats_aggregate_cumulative_counters() {
        let mut session = SynthesisSession::new();
        let pool = session.pool();
        for _ in 0..3 {
            session.begin_job();
            let mut m = pool.checkout(3);
            let x = m.var(0);
            let y = m.var(1);
            let _ = m.xor(x, y);
        }
        let s = session.stats();
        assert_eq!(s.jobs, 3);
        assert_eq!(s.managers, 1, "one worker at a time needs one manager");
        assert_eq!(s.resets, 2, "first job allocates, later jobs recycle");
        assert!(s.cache_misses > 0, "counters survive recycling");
        assert!(!s.to_string().is_empty());
    }

    #[test]
    fn governor_reports_each_resource_kind() {
        let g = ResourceGovernor::from_options(&opts());
        assert_eq!(
            g.nodes_exceeded(2, 42),
            SynthesisError::BudgetExceeded {
                depth: 2,
                resource: Resource::BddNodes,
                spent: 42,
                limit: opts().bdd_node_limit as u64,
            }
        );
        assert!(matches!(
            g.conflicts_exceeded(1, 7),
            SynthesisError::BudgetExceeded {
                resource: Resource::SatConflicts,
                ..
            }
        ));
    }

    #[test]
    fn governor_arm_is_idempotent() {
        let options = opts().with_time_budget(Duration::from_secs(3600));
        let g = ResourceGovernor::from_options(&options);
        g.arm();
        assert!(options.cancel.has_budget());
        assert!(g.check(0).is_ok());
        // A second arming (the permuted winner re-run) must not move the
        // deadline: expire it manually and re-arm.
        options.cancel.expire();
        g.arm();
        assert!(g.check(0).is_err(), "re-arming must not extend the budget");
    }

    #[test]
    fn a_deadline_forced_before_arming_reports_the_budget() {
        // The supervisor's `scheduler.worker` cancel fault expires the
        // attempt's token before the run arms its governor.
        let options = opts().with_time_budget(Duration::from_secs(60));
        options.cancel.expire();
        let g = ResourceGovernor::from_options(&options);
        g.arm();
        match g.check(4) {
            Err(SynthesisError::BudgetExceeded {
                depth: 4,
                resource: Resource::WallClock,
                limit: 60_000,
                ..
            }) => {}
            other => panic!("expected the armed 60 s budget, got {other:?}"),
        }
    }

    #[test]
    fn interrupt_probe_tracks_token() {
        let options = opts();
        let g = ResourceGovernor::from_options(&options);
        let probe = g.interrupt_probe();
        assert!(!probe());
        options.cancel.cancel();
        assert!(probe());
    }

    #[test]
    fn panicking_job_quarantines_its_manager() {
        let pool = ManagerPool::new();
        let p = pool.clone();
        let worker = std::thread::spawn(move || {
            let mut m = p.checkout(3);
            let a = m.var(0);
            let b = m.var(1);
            let _ = m.and(a, b);
            panic!("job crashed mid-build");
        });
        assert!(worker.join().is_err());
        assert_eq!(
            pool.idle(),
            0,
            "a panicking job's manager must never reach the next job"
        );
        assert_eq!(pool.quarantined(), 1);
        // The next checkout allocates fresh rather than recycling wreckage.
        let m = pool.checkout(3);
        assert_eq!(m.stats().resets, 0);
    }

    #[test]
    fn explicit_quarantine_never_reissues() {
        let pool = ManagerPool::new();
        let m = pool.checkout(2);
        m.quarantine();
        assert_eq!(pool.idle(), 0);
        assert_eq!(pool.quarantined(), 1);
        let m2 = pool.checkout(2);
        assert_eq!(m2.stats().resets, 0, "quarantined manager is not recycled");
    }

    #[test]
    fn stats_carry_quarantine_and_retry_counters() {
        let session = SynthesisSession::new();
        let pool = session.pool();
        pool.checkout(2).quarantine();
        pool.note_retry();
        pool.note_retry();
        let s = session.stats();
        assert_eq!(s.quarantined, 1);
        assert_eq!(s.retries, 2);
        let mut merged = SessionStats::default();
        merged.merge(&s);
        merged.merge(&s);
        assert_eq!(merged.quarantined, 2);
        assert_eq!(merged.retries, 4);
        let text = s.to_string();
        assert!(text.contains("2 retries") && text.contains("1 quarantined"));
    }

    #[test]
    fn checked_in_manager_loses_its_interrupt_probe() {
        let pool = ManagerPool::new();
        {
            let mut m = pool.checkout(2);
            m.set_interrupt_poll(Some(Box::new(|| true)));
        }
        let m = pool.checkout(2);
        assert!(!m.is_interrupted());
    }
}
