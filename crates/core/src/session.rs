//! Per-worker synthesis sessions: one kept BDD arena and a unified
//! resource governor.
//!
//! # Why sessions
//!
//! A `qsyn batch` run multiplies the paper's per-depth oracle calls into
//! thousands of engine constructions. Built from scratch, each would
//! allocate its BDD [`Manager`](qsyn_bdd::Manager) anew and then throw
//! the grown hash tables away. A [`SynthesisSession`] is the per-worker
//! context that survives across jobs: it owns at most one BDD arena, and
//! the job, retry and quarantine counters for reporting.
//!
//! # The kept arena
//!
//! Between jobs the session holds its arena by value: the cascade of its
//! last BDD job — the manager, every level `F_0 ..= F_D` still rooted in
//! it, and the select variables in the order they were appended — or,
//! when that job kept no levels, just the manager, to be reset. Each BDD
//! engine borrows the arena ([`lend`](SynthesisSession::lend)) and gives
//! it back ([`hand_back`](SynthesisSession::hand_back)); that pair is the
//! only way an arena enters or leaves a session, and a session lends one
//! at a time.
//!
//! The cascade depends only on the line count, the gate library and the
//! variable order, so the next BDD job over the same lines and library
//! resumes it: it registers its own targets and builds only the levels
//! past `F_D`. Any other job resets the manager in place
//! ([`Manager::reset`](qsyn_bdd::Manager::reset) clears contents but
//! keeps allocated capacity, so the unique table, computed table and
//! arena stay warm) and starts at `F_0`. A job hands the arena back on
//! every exit but a panic; one whose manager overflowed or was
//! interrupted hands it back only to be reset, and a cascade that
//! outgrows its share of the node budget is not kept at all (see
//! `bdd_engine`). This is how CUDD is meant to be used: one long-lived
//! manager whose shared subgraphs outlive any one query.
//!
//! # Quarantine
//!
//! A manager is **quarantined** — dropped, counted in
//! [`SessionStats::quarantined`] and never re-issued — when its job
//! panics, or when it fails the structural audit it must pass before it
//! serves another job. A panicking job's loan never comes back: unwinding
//! drops the engine and its manager with it, and the session counts the
//! loan still out at its next lend (or [`stats`](SynthesisSession::stats)
//! call). The next job gets a new manager.
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
use qsyn_bdd::ManagerStats;
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

    /// An abort probe for
    /// [`Manager::set_interrupt_poll`](qsyn_bdd::Manager::set_interrupt_poll):
    /// fires when the governed token is cancelled or its deadline has
    /// passed, so a single giant BDD operation stops mid-recursion instead
    /// of running to completion. The manager latches the interrupt and
    /// collapses results to ⊥; the engine's next [`check`](Self::check)
    /// turns that into the structured error.
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

/// The fault-plane site `session.checkout`: a poisoned manager surfacing
/// while a worker prepares a job.
fn poll_checkout_fault() {
    if qsyn_faults::hit(qsyn_faults::Site::SessionCheckout).is_some() {
        panic!("fault-plane: injected panic at session.checkout");
    }
}

counter_set! {
    /// Aggregated per-session counters, for `qsyn batch --stats`. Merging
    /// sums every counter but `peak_live`, which keeps the maximum, for
    /// aggregating across batch workers.
    pub struct SessionStats {
        /// Searches started: one per attempt of a job, so a job the
        /// supervisor retried once counts 2 (next to 1 retry), and the
        /// brute-force permutation reference counts 2 per call because its
        /// winner re-runs through plain synthesis. Only successful attempts
        /// record their search counters in `search`.
        sum jobs: u64,
        /// Managers kept between jobs: one at most per session, summed
        /// across sessions.
        sum managers: u64,
        /// Total manager recycles
        /// ([`Manager::reset`](qsyn_bdd::Manager::reset) calls).
        sum resets: u64,
        /// Highest live-node count any manager reached.
        max peak_live: usize,
        /// Computed-table hits, summed.
        sum cache_hits: u64,
        /// Computed-table misses, summed.
        sum cache_misses: u64,
        /// Computed-table evictions, summed.
        sum cache_evictions: u64,
        /// Garbage collections, summed.
        sum gc_runs: u64,
        /// Nodes reclaimed by collections, summed.
        sum gc_freed: u64,
        /// Supervised retry attempts recorded by the supervisor.
        sum retries: u64,
        /// Managers quarantined (dropped after a panic or a failed audit)
        /// — never re-issued.
        sum quarantined: u64,
        /// Every successful search the session ran, summed: plain synthesis
        /// is the search over one labeling, so a plain job adds 1 to
        /// `permutations` and its depth queries to `probes_run`. Its
        /// `levels_built` counts the cascade levels the session
        /// constructed: a job whose depth a kept cascade already reaches
        /// adds none.
        nested search: PermutedSearchStats,
    }
}

impl SessionStats {
    /// One kept manager with its cumulative BDD counters, to be folded in
    /// through [`SessionStats::merge`]: the one place the session copies
    /// [`ManagerStats`] counters (seven of them).
    fn of_manager(s: &ManagerStats) -> SessionStats {
        SessionStats {
            managers: 1,
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
}

/// Per-worker synthesis context; see the module docs.
///
/// Create one per worker thread, pass it to the `*_in` entry points
/// ([`synthesize_in`](crate::synthesize_in),
/// [`synthesize_with_output_permutation_in`](crate::permuted::synthesize_with_output_permutation_in))
/// for every job the worker runs, and read [`stats`](Self::stats) at the
/// end. A session is deliberately cheap when unused: it holds no arena
/// until its first BDD job hands one back.
#[derive(Debug, Default)]
pub struct SynthesisSession {
    /// Jobs, retries, quarantines and searches; the arena's manager
    /// counters are folded in by [`stats`](Self::stats).
    counters: SessionStats,
    /// The BDD arena between jobs: the last job's kept cascade, or a
    /// manager to reset; see the module docs.
    arena: Option<Cascade>,
    /// An arena is on loan to an engine. Still set at the next lend (or
    /// at [`stats`](Self::stats)), the loan was lost to a panic.
    lent: bool,
}

impl SynthesisSession {
    /// A fresh session holding no arena.
    pub fn new() -> SynthesisSession {
        SynthesisSession::default()
    }

    /// Records the start of a search (see [`SessionStats::jobs`]).
    pub fn begin_job(&mut self) {
        self.counters.jobs += 1;
    }

    /// Records one supervised retry attempt (see
    /// [`SessionStats::retries`]); called by the supervisor
    /// (`qsyn_portfolio::supervise`).
    pub fn note_retry(&mut self) {
        self.counters.retries += 1;
    }

    /// Accumulates one search's probe-space and solver counters — plain
    /// or permuted alike (surfaced through [`SessionStats`] for
    /// `qsyn batch --stats`).
    pub fn note_permuted_search(&mut self, s: &PermutedSearchStats) {
        self.counters.search.merge(s);
    }

    /// Lends the session's arena to a BDD engine, `None` when the session
    /// holds none. The engine resumes a kept cascade that fits its job and
    /// resets anything else. A loan still out from an earlier lend went
    /// down with a panicking job: its manager is counted as quarantined.
    /// Lending polls the fault-plane site `session.checkout`, once per BDD
    /// engine.
    ///
    /// # Panics
    ///
    /// Only under fault injection (the session keeps its arena then).
    pub(crate) fn lend(&mut self) -> Option<Cascade> {
        poll_checkout_fault();
        if std::mem::replace(&mut self.lent, true) {
            self.counters.quarantined += 1;
        }
        self.arena.take()
    }

    /// Ends the current loan: `arena` is what the engine gives back, `None`
    /// when it quarantined the lent manager, and `quarantined` counts the
    /// managers the engine dropped for failing their audit.
    pub(crate) fn hand_back(&mut self, arena: Option<Cascade>, quarantined: u64) {
        self.lent = false;
        self.counters.quarantined += quarantined;
        self.arena = arena;
    }

    /// The depth of the kept cascade, if the session keeps one.
    #[cfg(test)]
    pub(crate) fn kept_depth(&self) -> Option<u32> {
        self.arena.as_ref().and_then(Cascade::kept_depth)
    }

    /// Aggregated counters over everything this session has run, its
    /// arena's manager included. Call between jobs: a loan still out is
    /// counted as quarantined.
    pub fn stats(&self) -> SessionStats {
        let mut stats = self.counters;
        stats.quarantined += u64::from(self.lent);
        if let Some(arena) = &self.arena {
            stats.merge(&SessionStats::of_manager(&arena.manager_stats()));
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::Engine;
    use crate::BddEngine;
    use qsyn_revlogic::{GateLibrary, Permutation, Spec};

    fn opts() -> SynthesisOptions {
        SynthesisOptions::new(GateLibrary::mct(), Engine::Bdd)
    }

    /// NOT on line 0 of `lines` lines: one gate.
    fn not(lines: u32) -> Spec {
        Spec::from_permutation(&Permutation::from_fn(lines, |v| v ^ 1))
    }

    #[test]
    fn session_stats_aggregate_cumulative_counters() {
        let mut session = SynthesisSession::new();
        // A job over other lines cannot resume the kept cascade: the one
        // manager is reset in place for it.
        for lines in [2, 3, 2] {
            crate::synthesize_in(&not(lines), &opts(), &mut session).unwrap();
        }
        let s = session.stats();
        assert_eq!(s.jobs, 3);
        assert_eq!(s.managers, 1, "one worker at a time needs one manager");
        assert_eq!(s.resets, 2, "first job allocates, later jobs recycle");
        assert_eq!(s.quarantined, 0);
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
        let mut session = SynthesisSession::new();
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _engine = BddEngine::new_in(&not(3), &opts(), &mut session);
            panic!("job crashed mid-build");
        }));
        assert!(crashed.is_err());
        let s = session.stats();
        assert_eq!(
            (s.managers, s.quarantined),
            (0, 1),
            "a panicking job's manager must never reach the next job"
        );
        // The next job allocates fresh rather than recycling wreckage.
        let e = BddEngine::new_in(&not(3), &opts(), &mut session);
        assert_eq!(e.manager_stats().resets, 0);
        e.retire(&mut session);
        assert_eq!(session.stats().quarantined, 1, "the loss counts once");
    }

    #[test]
    fn stats_carry_quarantine_and_retry_counters() {
        let mut session = SynthesisSession::new();
        // A loan that never comes back.
        assert!(session.lend().is_none());
        session.note_retry();
        session.note_retry();
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
        let options = opts();
        let mut session = SynthesisSession::new();
        BddEngine::new_in(&not(2), &options, &mut session).retire(&mut session);
        // The job's token trips after the job: the kept manager must not
        // poll it any more.
        options.cancel.cancel();
        let m = session
            .arena
            .as_mut()
            .expect("arena handed back")
            .manager_mut();
        for _ in 0..10_000 {
            let _ = m.var(0);
        }
        assert!(!m.is_interrupted());
    }
}
