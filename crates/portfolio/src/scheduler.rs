//! Batch synthesis and the one supervisor every synthesis job runs under.
//!
//! [`supervise`] runs one job on the calling thread: it retries
//! budget-tripped attempts with escalated budgets down the
//! [`RetryPolicy`]'s engine ladder, re-runs panicked attempts unchanged,
//! and reports how the job ended ([`JobStatus`]). `qsyn synth`/`bench`
//! call it for their one job, [`run_batch`] workers for each queued job,
//! and the `qsyn-serve` workers with [`RetryPolicy::none`]. Its panic
//! containment, [`contain`], also guards each engine-race thread. A
//! panicking attempt's BDD manager is quarantined: the unwind drops it
//! with the engine that borrowed it, and the session never sees it again
//! (see `qsyn_core::SynthesisSession`), so recovery never recycles
//! wreckage into the next attempt.
//!
//! [`run_batch`] owns the concurrency story so the synthesis code doesn't
//! have to: jobs are pushed into a bounded [`WorkQueue`], `--jobs N`
//! worker threads drain it, and a panicking job marks *that job* failed
//! without poisoning the queue or taking down its worker. Results come
//! back in input order regardless of completion order, so a parallel
//! batch is byte-for-byte comparable to a sequential one.
//!
//! # Retry policy
//!
//! Exact synthesis is an iterative-deepening search whose cost is hard to
//! predict, so budget trips are a normal outcome, not an anomaly. What is
//! retryable is deliberately narrow (see [`classify`]): resource
//! exhaustion and worker panics are; an explicit cancellation is the
//! caller's intent and a deterministic failure (unsatisfiable depth
//! bound, oversized spec) would only fail identically again. Exponential
//! backoff between attempts keeps a sick machine (the usual cause of
//! repeated panics) from being hammered.

use qsyn_core::{
    CancelToken, Engine, SessionStats, SynthesisError, SynthesisOptions, SynthesisSession,
};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, Once};
use std::time::{Duration, Instant};

/// A bounded multi-producer multi-consumer queue with explicit shutdown.
///
/// `push` blocks while the queue is at capacity; `pop` blocks while it is
/// empty and not closed. After [`close`](Self::close), pushes are rejected
/// and pops drain the remainder, then return `None`.
#[derive(Debug)]
pub struct WorkQueue<T> {
    state: Mutex<QueueState<T>>,
    /// Signals consumers (items available / closed).
    can_pop: Condvar,
    /// Signals producers (capacity available / closed).
    can_push: Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> WorkQueue<T> {
    /// A queue holding at most `capacity` items (at least 1).
    pub fn bounded(capacity: usize) -> WorkQueue<T> {
        WorkQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            can_pop: Condvar::new(),
            can_push: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Blocks until there is room, then enqueues `item`. Returns the item
    /// back when the queue has been closed in the meantime.
    ///
    /// `concheck` treats `queue.push` as a blocking operation
    /// (receiver-qualified): never call it while holding another lock.
    /// `try_push` is the non-blocking admission-control alternative.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if state.closed {
                return Err(item);
            }
            if state.items.len() < self.capacity {
                state.items.push_back(item);
                self.can_pop.notify_one();
                return Ok(());
            }
            state = self.can_push.wait(state).expect("queue lock");
        }
    }

    /// Non-blocking [`push`](Self::push): enqueues `item` only when there
    /// is room right now, handing it back otherwise. The admission-control
    /// primitive for serving layers — a full queue is an *overloaded*
    /// signal to bounce back to the client, not a reason to park its
    /// connection thread on the producer condvar.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut state = self.state.lock().expect("queue lock");
        if state.closed || state.items.len() >= self.capacity {
            return Err(item);
        }
        state.items.push_back(item);
        self.can_pop.notify_one();
        Ok(())
    }

    /// Items currently queued (racy by nature; for stats and tests).
    pub fn pending(&self) -> usize {
        self.state.lock().expect("queue lock").items.len()
    }

    /// Blocks until an item is available (returning it) or the queue is
    /// closed *and* drained (returning `None`).
    ///
    /// Like [`push`](Self::push), `queue.pop` is a `concheck`-qualified
    /// blocking operation: workers call it lock-free at the top of their
    /// loop.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if let Some(item) = state.items.pop_front() {
                self.can_push.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.can_pop.wait(state).expect("queue lock");
        }
    }

    /// Closes the queue: pending items still drain, further pushes fail,
    /// and blocked consumers wake up once the queue empties.
    pub fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
        self.can_pop.notify_all();
        self.can_push.notify_all();
    }
}

/// Scheduler configuration.
#[derive(Clone, Debug)]
pub struct BatchConfig {
    /// Worker threads (at least 1).
    pub workers: usize,
    /// Recovery plan for budget-tripped and panicked jobs;
    /// [`RetryPolicy::none`] (the default) preserves the old
    /// fail-on-first-error behaviour.
    pub retry: RetryPolicy,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig {
            workers: 1,
            retry: RetryPolicy::none(),
        }
    }
}

/// How one job ended.
#[derive(Clone, Debug)]
pub enum JobStatus<R> {
    /// The job function returned a value on its first attempt.
    Done(R),
    /// The job recovered: it returned a value, but only after retries
    /// and/or degradation down the engine ladder.
    Degraded {
        /// The recovered result.
        result: R,
        /// Attempts run, including the successful one.
        attempts: u32,
        /// Engines the degradation ladder routed retries through, in
        /// order; empty when the retries kept the job's own engine.
        ladder_path: Vec<Engine>,
    },
    /// The job function returned an error (including
    /// [`SynthesisError::Cancelled`] after a shutdown and
    /// [`SynthesisError::BudgetExceeded`] after its deadline), and the
    /// retry policy — if any — was exhausted or did not apply.
    Failed(SynthesisError),
    /// The job function panicked on its last attempt. Other jobs are
    /// unaffected.
    Panicked(PanicReport),
}

impl<R> JobStatus<R> {
    /// The result, if the job produced one (cleanly or after recovery).
    pub fn result(&self) -> Option<&R> {
        match self {
            JobStatus::Done(r) => Some(r),
            JobStatus::Degraded { result, .. } => Some(result),
            _ => None,
        }
    }
}

/// Per-job report, in input order.
#[derive(Clone, Debug)]
pub struct JobReport<R> {
    /// The job's name, as supplied.
    pub name: String,
    /// How it ended.
    pub status: JobStatus<R>,
    /// Wall-clock time the job spent in its worker, summed over all
    /// attempts (including retry backoff).
    pub elapsed: Duration,
    /// Attempts run (1 for a job that settled on its first try).
    pub attempts: u32,
}

/// A finished batch: one report per job **in input order**, plus the
/// session counters summed over every worker.
#[derive(Clone, Debug)]
pub struct BatchOutcome<R> {
    /// Per-job reports, in input order.
    pub reports: Vec<JobReport<R>>,
    /// Session counters aggregated across all worker sessions (jobs,
    /// managers, resets, peak live nodes, cache traffic, GC work).
    pub session_stats: SessionStats,
}

/// Runs `run` over all `jobs` on `config.workers` threads and returns one
/// report per job **in input order**. Each job runs under [`supervise`]
/// with the config's retry policy: `run` receives the job's payload, the
/// attempt's cancellation token, the worker's [`SynthesisSession`] and
/// the current [`Attempt`] (apply it to the job's options with
/// [`Attempt::apply`] so retries actually escalate); honour the token to
/// make deadlines and shutdown effective mid-job. Each worker owns one
/// session for its whole lifetime, so BDD managers (and their warmed
/// unique/computed tables) are recycled from job to job instead of
/// rebuilt; the aggregated counters come back in
/// [`BatchOutcome::session_stats`]. `shutdown`, when supplied, aborts the
/// batch gracefully once it is cancelled: queued jobs are dropped
/// (reported as [`SynthesisError::Cancelled`]), running jobs see their
/// tokens trip, and no retries are scheduled.
pub fn run_batch<J, R, F>(
    jobs: Vec<(String, J)>,
    config: &BatchConfig,
    shutdown: Option<&CancelToken>,
    run: F,
) -> BatchOutcome<R>
where
    J: Send,
    R: Send,
    F: Fn(&J, &CancelToken, &mut SynthesisSession, &Attempt) -> Result<R, SynthesisError> + Sync,
{
    let total = jobs.len();
    let workers = config.workers.max(1).min(total.max(1));
    // Bounded at the worker count: the feeder stays a few jobs ahead of
    // the pool without materializing the whole batch in the queue.
    let queue: WorkQueue<(usize, String, J)> = WorkQueue::bounded(workers);
    let reports: Mutex<Vec<Option<JobReport<R>>>> = Mutex::new((0..total).map(|_| None).collect());
    let session_totals: Mutex<SessionStats> = Mutex::new(SessionStats::default());
    let default_token = CancelToken::new();
    let shutdown = shutdown.unwrap_or(&default_token);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut session = SynthesisSession::new();
                while let Some((idx, name, job)) = queue.pop() {
                    let start = Instant::now();
                    let (status, attempts) = supervise(
                        &config.retry,
                        shutdown,
                        &mut session,
                        |token, s, attempt| run(&job, token, s, attempt),
                    );
                    reports.lock().expect("reports lock")[idx] = Some(JobReport {
                        name,
                        status,
                        elapsed: start.elapsed(),
                        attempts,
                    });
                }
                session_totals
                    .lock()
                    .expect("session stats lock")
                    .merge(&session.stats());
            });
        }
        // Feed from this thread; with the bounded queue this blocks until
        // workers free up, which is exactly the backpressure we want.
        for (idx, (name, job)) in jobs.into_iter().enumerate() {
            if shutdown.is_cancelled() {
                reports.lock().expect("reports lock")[idx] = Some(JobReport {
                    name,
                    status: JobStatus::Failed(SynthesisError::Cancelled { depth: 0 }),
                    elapsed: Duration::ZERO,
                    attempts: 0,
                });
                continue;
            }
            if let Err((_, name, _)) = queue.push((idx, name, job)) {
                reports.lock().expect("reports lock")[idx] = Some(JobReport {
                    name,
                    status: JobStatus::Failed(SynthesisError::Cancelled { depth: 0 }),
                    elapsed: Duration::ZERO,
                    attempts: 0,
                });
            }
        }
        queue.close();
    });

    BatchOutcome {
        reports: reports
            .into_inner()
            .expect("reports lock")
            .into_iter()
            .map(|r| r.expect("every job reported"))
            .collect(),
        session_stats: session_totals.into_inner().expect("session stats lock"),
    }
}

/// Recovery plan for budget-tripped or panicked synthesis attempts; see
/// the module docs.
#[derive(Clone, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts allowed, including the first (minimum 1).
    pub max_attempts: u32,
    /// Budget multiplier applied on each budget-trip retry, compounding:
    /// attempt `k` runs at `budget_escalation^(k-1)` times the configured
    /// budgets.
    pub budget_escalation: f64,
    /// Engines to degrade through on budget-trip retries, in order. The
    /// first attempt always uses the job's own engine; rung `i` of the
    /// ladder serves the `i+1`-th budget-tripped attempt. Empty means
    /// retry on the same engine.
    pub engine_ladder: Vec<Engine>,
    /// Base backoff slept before the second attempt; doubles per further
    /// attempt.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::none()
    }
}

impl RetryPolicy {
    /// One attempt, no recovery.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            budget_escalation: 1.0,
            engine_ladder: Vec::new(),
            backoff: Duration::ZERO,
        }
    }

    /// `max_attempts` tries with doubled budgets per retry, degrading
    /// down `ladder` on budget trips.
    pub fn escalating(max_attempts: u32, ladder: Vec<Engine>) -> RetryPolicy {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            budget_escalation: 2.0,
            engine_ladder: ladder,
            backoff: Duration::from_millis(25),
        }
    }

    /// The first attempt: the job's own engine at its configured budgets.
    pub fn first(&self) -> Attempt {
        Attempt {
            number: 1,
            budget_scale: 1.0,
            engine: None,
            rung: 0,
        }
    }

    /// The follow-up to `prev` ending in `failure`, or `None` when the
    /// failure is not retryable or the attempts are exhausted.
    ///
    /// Budget trips escalate the budget scale and advance one ladder rung
    /// when rungs remain; panics retry the same configuration (the crash
    /// was environmental, not a budget misfit).
    pub fn next(&self, prev: &Attempt, failure: FailureKind) -> Option<Attempt> {
        if prev.number >= self.max_attempts {
            return None;
        }
        match failure {
            FailureKind::Fatal => None,
            FailureKind::Panic => Some(Attempt {
                number: prev.number + 1,
                ..prev.clone()
            }),
            FailureKind::Budget => {
                let (engine, rung) = match self.engine_ladder.get(prev.rung) {
                    Some(&next_engine) => (Some(next_engine), prev.rung + 1),
                    None => (prev.engine, prev.rung),
                };
                Some(Attempt {
                    number: prev.number + 1,
                    budget_scale: prev.budget_scale * self.budget_escalation,
                    engine,
                    rung,
                })
            }
        }
    }

    /// Exponential backoff to sleep before `attempt` runs: zero for the
    /// first attempt, `backoff * 2^(n-2)` for attempt `n ≥ 2`.
    pub fn backoff_before(&self, attempt: &Attempt) -> Duration {
        if attempt.number < 2 || self.backoff.is_zero() {
            return Duration::ZERO;
        }
        self.backoff
            .saturating_mul(1u32 << (attempt.number - 2).min(16))
    }
}

/// One scheduled try of a job: attempt number, compound budget scale, and
/// the ladder's engine override (when the job has been degraded).
#[derive(Clone, Debug, PartialEq)]
pub struct Attempt {
    /// 1-based attempt number.
    pub number: u32,
    /// Compound budget multiplier for this attempt.
    pub budget_scale: f64,
    /// Engine override from the degradation ladder; `None` runs the job's
    /// own engine.
    pub engine: Option<Engine>,
    /// Next ladder rung to consume on a further budget trip.
    rung: usize,
}

impl Attempt {
    /// `options` as this attempt runs them: the ladder's engine override,
    /// and the node, conflict and wall-clock budgets scaled by the
    /// compound factor (saturating). The wall-clock budget is armed on
    /// the attempt's own token when the job starts, so each attempt gets
    /// the whole (scaled) budget.
    pub fn apply(&self, options: &SynthesisOptions) -> SynthesisOptions {
        let mut o = options.clone();
        if let Some(engine) = self.engine {
            o = o.with_engine(engine);
        }
        if self.budget_scale > 1.0 {
            let nodes = self.scale(o.bdd_node_limit as u64);
            o.bdd_node_limit = usize::try_from(nodes).unwrap_or(usize::MAX);
            o.conflict_limit = self.scale(o.conflict_limit);
            o.time_budget = o.time_budget.map(|b| b.mul_f64(self.budget_scale));
        }
        o
    }

    /// Scales an integral budget by this attempt's compound factor,
    /// saturating.
    fn scale(&self, budget: u64) -> u64 {
        let scaled = (budget as f64) * self.budget_scale;
        if scaled >= u64::MAX as f64 {
            u64::MAX
        } else {
            scaled as u64
        }
    }
}

/// How a failed attempt is classified for retry purposes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// A resource budget tripped — retry with escalation / degradation.
    Budget,
    /// The attempt panicked — retry unchanged.
    Panic,
    /// Deterministic or intentional failure — never retried.
    Fatal,
}

/// Classifies a synthesis error: only [`SynthesisError::BudgetExceeded`]
/// is retryable. Cancellation is caller intent; everything else would
/// fail identically on a second run.
pub fn classify(error: &SynthesisError) -> FailureKind {
    match error {
        SynthesisError::BudgetExceeded { .. } => FailureKind::Budget,
        _ => FailureKind::Fatal,
    }
}

/// Runs one job under `policy` on the calling thread, attempt after
/// attempt until one settles, and returns how it ended plus the number
/// of attempts run.
///
/// Each attempt gets a fresh token merged with `shutdown`, so the job's
/// governor arms its wall-clock budget anew (scaled by
/// [`Attempt::apply`]) and an expired deadline never leaks forward. The
/// attempt runs inside [`contain`]: a panic becomes
/// [`JobStatus::Panicked`] or a retry, and the panicking attempt's BDD
/// manager is quarantined: it went down with the attempt, so the retry
/// gets a new one. Once `shutdown` is cancelled no further attempt
/// starts.
pub fn supervise<R>(
    policy: &RetryPolicy,
    shutdown: &CancelToken,
    session: &mut SynthesisSession,
    mut run: impl FnMut(&CancelToken, &mut SynthesisSession, &Attempt) -> Result<R, SynthesisError>,
) -> (JobStatus<R>, u32) {
    let mut attempt = policy.first();
    let mut ladder_path: Vec<Engine> = Vec::new();
    loop {
        if shutdown.is_cancelled() {
            return (
                JobStatus::Failed(SynthesisError::Cancelled { depth: 0 }),
                attempt.number,
            );
        }
        let backoff = policy.backoff_before(&attempt);
        if !backoff.is_zero() {
            std::thread::sleep(backoff);
        }
        if let Some(engine) = attempt.engine {
            if ladder_path.last() != Some(&engine) {
                ladder_path.push(engine);
            }
        }
        let token = CancelToken::merged([shutdown]);
        let end = contain(|| {
            // Fault-plane site `scheduler.worker`, polled once per
            // attempt: a panic fault crashes the attempt (inside the
            // containment, so the caller survives), a cancel fault
            // expires the attempt's deadline so the job trips its
            // wall-clock budget at the next governor check.
            if let Some(kind) = qsyn_faults::hit(qsyn_faults::Site::SchedulerWorker) {
                match kind {
                    qsyn_faults::FaultKind::Panic => {
                        panic!("fault-plane: injected panic at scheduler.worker")
                    }
                    _ => token.expire(),
                }
            }
            run(&token, session, &attempt)
        });
        let failure = match &end {
            Ok(Ok(_)) => None,
            Ok(Err(e)) => Some(classify(e)),
            Err(_) => Some(FailureKind::Panic),
        };
        match failure.and_then(|f| policy.next(&attempt, f)) {
            Some(next) => {
                session.note_retry();
                attempt = next;
            }
            None => {
                let attempts = attempt.number;
                let status = match end {
                    Ok(Ok(result)) if attempts > 1 => JobStatus::Degraded {
                        result,
                        attempts,
                        ladder_path,
                    },
                    Ok(Ok(result)) => JobStatus::Done(result),
                    Ok(Err(e)) => JobStatus::Failed(e),
                    Err(p) => JobStatus::Panicked(p),
                };
                return (status, attempts);
            }
        }
    }
}

/// A panic caught by [`contain`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PanicReport {
    /// The panic payload's message, when it was a string.
    pub message: String,
    /// `file:line:column` of the panic site, captured by the panic hook.
    pub location: Option<String>,
    /// A captured backtrace, when `RUST_BACKTRACE` is set (and not `0`)
    /// in the environment.
    pub backtrace: Option<String>,
}

/// `panicked: <message> at <file:line:column>` — how every surface
/// (`synth`, `batch`, the daemon's log, a lost race) reports a contained
/// panic.
impl std::fmt::Display for PanicReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "panicked: {}", self.message)?;
        match &self.location {
            Some(at) => write!(f, " at {at}"),
            None => Ok(()),
        }
    }
}

/// Runs `f` on the calling thread, turning a panic into a
/// [`PanicReport`] that carries the panic's message, its location and
/// (with `RUST_BACKTRACE` set) a backtrace. The panic is reported only
/// through the returned error, not on stderr. The one panic-containment
/// step: [`supervise`] wraps each attempt in it, the engine race each
/// racer thread.
///
/// # Errors
///
/// The [`PanicReport`] when `f` panicked.
pub fn contain<R>(f: impl FnOnce() -> R) -> Result<R, PanicReport> {
    install_panic_hook();
    let outer = CAPTURING.with(|flag| flag.replace(true));
    let caught = catch_unwind(AssertUnwindSafe(f));
    CAPTURING.with(|flag| flag.set(outer));
    caught.map_err(|payload| {
        let mut report = LAST_PANIC
            .with(|slot| slot.borrow_mut().take())
            .unwrap_or_default();
        report.message = panic_message(payload.as_ref());
        report
    })
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

thread_local! {
    /// `true` while this thread is inside [`contain`], so the global hook
    /// knows to capture context (and suppress the default stderr print —
    /// the panic is reported through the returned error).
    static CAPTURING: Cell<bool> = const { Cell::new(false) };
    /// Location and backtrace of the most recent contained panic on this
    /// thread; `catch_unwind` only sees the payload, by which point they
    /// are gone.
    static LAST_PANIC: RefCell<Option<PanicReport>> = const { RefCell::new(None) };
}

static INSTALL_HOOK: Once = Once::new();

/// Installs (once, process-wide) a panic hook that records the panic
/// location — and a backtrace when `RUST_BACKTRACE` is set and not `0` —
/// for panics inside [`contain`], delegating every other panic to the
/// previously installed hook.
fn install_panic_hook() {
    INSTALL_HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if CAPTURING.with(Cell::get) {
                let location = info
                    .location()
                    .map(|l| format!("{}:{}:{}", l.file(), l.line(), l.column()));
                let backtrace = std::env::var_os("RUST_BACKTRACE")
                    .filter(|v| v != "0")
                    .map(|_| std::backtrace::Backtrace::force_capture().to_string());
                LAST_PANIC.with(|slot| {
                    *slot.borrow_mut() = Some(PanicReport {
                        message: String::new(),
                        location,
                        backtrace,
                    })
                });
            } else {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsyn_core::permuted::synthesize_with_output_permutation_in;
    use qsyn_core::{BddEngine, GateLibrary, Resource};
    use qsyn_revlogic::{Permutation, Spec};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn budget_error() -> SynthesisError {
        SynthesisError::BudgetExceeded {
            depth: 3,
            resource: Resource::BddNodes,
            spent: 10,
            limit: 10,
        }
    }

    #[test]
    fn none_policy_never_retries() {
        let p = RetryPolicy::none();
        let first = p.first();
        assert_eq!(p.next(&first, FailureKind::Budget), None);
        assert_eq!(p.next(&first, FailureKind::Panic), None);
    }

    #[test]
    fn budget_trips_escalate_and_degrade() {
        let p = RetryPolicy::escalating(3, vec![Engine::Sat]);
        let a1 = p.first();
        assert_eq!(a1.engine, None);
        let a2 = p.next(&a1, FailureKind::Budget).expect("second attempt");
        assert_eq!(a2.number, 2);
        assert_eq!(a2.engine, Some(Engine::Sat), "first rung degrades");
        assert_eq!(a2.scale(1_000), 2_000);
        let a3 = p.next(&a2, FailureKind::Budget).expect("third attempt");
        assert_eq!(a3.engine, Some(Engine::Sat), "ladder exhausted, stay put");
        assert_eq!(a3.scale(1_000), 4_000, "escalation compounds");
        assert_eq!(p.next(&a3, FailureKind::Budget), None, "attempts spent");
    }

    #[test]
    fn panics_retry_without_escalation() {
        let p = RetryPolicy::escalating(3, vec![Engine::Sat]);
        let a2 = p.next(&p.first(), FailureKind::Panic).expect("retry");
        assert_eq!(a2.engine, None, "panic retry keeps the engine");
        assert_eq!(a2.budget_scale, 1.0, "and the budget");
    }

    #[test]
    fn fatal_failures_never_retry() {
        let p = RetryPolicy::escalating(5, vec![]);
        assert_eq!(p.next(&p.first(), FailureKind::Fatal), None);
        assert_eq!(
            classify(&SynthesisError::Cancelled { depth: 0 }),
            FailureKind::Fatal
        );
        assert_eq!(classify(&budget_error()), FailureKind::Budget);
    }

    #[test]
    fn backoff_is_exponential_from_the_second_attempt() {
        let p = RetryPolicy {
            backoff: Duration::from_millis(10),
            ..RetryPolicy::escalating(4, vec![])
        };
        let a1 = p.first();
        assert_eq!(p.backoff_before(&a1), Duration::ZERO);
        let a2 = p.next(&a1, FailureKind::Budget).expect("a2");
        assert_eq!(p.backoff_before(&a2), Duration::from_millis(10));
        let a3 = p.next(&a2, FailureKind::Budget).expect("a3");
        assert_eq!(p.backoff_before(&a3), Duration::from_millis(20));
    }

    #[test]
    fn apply_overrides_the_engine_and_scales_every_budget() {
        let base = SynthesisOptions::new(GateLibrary::mct(), Engine::Bdd)
            .with_bdd_node_limit(1_000)
            .with_conflict_limit(50)
            .with_time_budget(Duration::from_secs(3));
        let p = RetryPolicy::escalating(3, vec![Engine::Sat]);
        let first = p.first().apply(&base);
        assert_eq!(first.engine, Engine::Bdd);
        assert_eq!(first.bdd_node_limit, 1_000);
        assert_eq!(first.time_budget, Some(Duration::from_secs(3)));
        let a2 = p.next(&p.first(), FailureKind::Budget).expect("a2");
        let second = a2.apply(&base);
        assert_eq!(second.engine, Engine::Sat);
        assert_eq!(second.bdd_node_limit, 2_000);
        assert_eq!(second.conflict_limit, 100);
        assert_eq!(second.time_budget, Some(Duration::from_secs(6)));
        let huge = base.with_conflict_limit(u64::MAX);
        assert_eq!(a2.apply(&huge).conflict_limit, u64::MAX, "saturates");
    }

    #[test]
    fn supervise_runs_on_the_calling_thread_with_a_fresh_token_per_attempt() {
        let p = RetryPolicy {
            backoff: Duration::ZERO,
            ..RetryPolicy::escalating(3, vec![Engine::Sat])
        };
        let caller = std::thread::current().id();
        let mut seen = Vec::new();
        let (status, attempts) = supervise(
            &p,
            &CancelToken::new(),
            &mut SynthesisSession::new(),
            |token, _, attempt| {
                assert_eq!(std::thread::current().id(), caller);
                assert!(!token.deadline_expired(), "no deadline leaks forward");
                token.expire();
                seen.push((attempt.number, attempt.engine));
                if attempt.number < 3 {
                    Err(budget_error())
                } else {
                    Ok(attempt.scale(100))
                }
            },
        );
        assert_eq!(attempts, 3);
        match status {
            JobStatus::Degraded {
                result,
                attempts,
                ladder_path,
            } => {
                assert_eq!((result, attempts), (400, 3));
                assert_eq!(ladder_path, vec![Engine::Sat]);
            }
            other => panic!("expected recovery, got {other:?}"),
        }
        assert_eq!(
            seen,
            vec![(1, None), (2, Some(Engine::Sat)), (3, Some(Engine::Sat))]
        );
    }

    #[test]
    fn contain_reports_the_message_and_site_and_nests() {
        let outer = contain(|| {
            let inner = contain(|| -> u32 { panic!("inner {}", 7) });
            let report = inner.expect_err("inner panic contained");
            assert_eq!(report.message, "inner 7");
            let at = report.location.as_deref().expect("hook captured the site");
            assert!(at.contains("scheduler.rs"), "got location {at}");
            panic!("outer")
        });
        let report = outer.expect_err("outer panic contained");
        assert_eq!(report.message, "outer");
        assert!(
            report.location.is_some(),
            "the outer capture survives nesting"
        );
        assert_eq!(contain(|| 5), Ok(5));
    }

    fn config(workers: usize) -> BatchConfig {
        BatchConfig {
            workers,
            retry: RetryPolicy::none(),
        }
    }

    #[test]
    fn results_keep_input_order_across_workers() {
        // Reverse-sorted sleep times force out-of-order completion.
        let jobs: Vec<(String, u64)> = (0..8u64)
            .map(|i| (format!("job{i}"), (8 - i) * 2))
            .collect();
        let outcome = run_batch(jobs, &config(4), None, |&ms, _, _, _| {
            std::thread::sleep(Duration::from_millis(ms));
            Ok(ms)
        });
        let reports = outcome.reports;
        assert_eq!(reports.len(), 8);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.name, format!("job{i}"));
            assert_eq!(r.status.result(), Some(&((8 - i as u64) * 2)));
        }
    }

    #[test]
    fn worker_pool_is_actually_bounded() {
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let jobs: Vec<(String, ())> = (0..12).map(|i| (format!("j{i}"), ())).collect();
        run_batch(jobs, &config(3), None, |(), _, _, _| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(3));
            live.fetch_sub(1, Ordering::SeqCst);
            Ok(())
        });
        assert!(peak.load(Ordering::SeqCst) <= 3);
    }

    #[test]
    fn a_panicking_job_fails_alone() {
        let jobs: Vec<(String, u32)> = (0..6).map(|i| (format!("j{i}"), i)).collect();
        let outcome = run_batch(jobs, &config(2), None, |&i, _, _, _| {
            if i == 2 {
                panic!("job {i} exploded");
            }
            Ok(i * 10)
        });
        for (i, r) in outcome.reports.iter().enumerate() {
            if i == 2 {
                match &r.status {
                    JobStatus::Panicked(p) => {
                        assert!(p.message.contains("exploded"));
                        let loc = p.location.as_deref().expect("hook captured the site");
                        assert!(loc.contains("scheduler.rs"), "got location {loc}");
                        assert_eq!(p.to_string(), format!("panicked: job 2 exploded at {loc}"));
                    }
                    other => panic!("expected panic report, got {other:?}"),
                }
            } else {
                assert_eq!(r.status.result(), Some(&(i as u32 * 10)));
            }
        }
    }

    #[test]
    fn budget_tripped_jobs_recover_down_the_ladder() {
        let cfg = BatchConfig {
            workers: 2,
            retry: RetryPolicy {
                backoff: Duration::ZERO,
                ..RetryPolicy::escalating(3, vec![Engine::Sat])
            },
        };
        let jobs: Vec<(String, u32)> = (0..4).map(|i| (format!("j{i}"), i)).collect();
        let outcome = run_batch(jobs, &cfg, None, |&i, _, _, attempt: &Attempt| {
            // Odd jobs trip their budget until the ladder degrades them.
            if i % 2 == 1 && attempt.engine != Some(Engine::Sat) {
                return Err(SynthesisError::BudgetExceeded {
                    depth: 1,
                    resource: Resource::BddNodes,
                    spent: 9,
                    limit: 9,
                });
            }
            Ok(i)
        });
        for (i, r) in outcome.reports.iter().enumerate() {
            assert_eq!(r.status.result(), Some(&(i as u32)), "job {i} recovered");
            if i % 2 == 1 {
                match &r.status {
                    JobStatus::Degraded {
                        attempts,
                        ladder_path,
                        ..
                    } => {
                        assert_eq!(*attempts, 2);
                        assert_eq!(ladder_path, &vec![Engine::Sat]);
                    }
                    other => panic!("expected degraded report, got {other:?}"),
                }
                assert_eq!(r.attempts, 2);
            } else {
                assert!(matches!(r.status, JobStatus::Done(_)));
                assert_eq!(r.attempts, 1);
            }
        }
        assert_eq!(outcome.session_stats.retries, 2, "one retry per odd job");
    }

    #[test]
    fn panicked_attempts_are_retried_and_quarantined() {
        let cfg = BatchConfig {
            workers: 1,
            retry: RetryPolicy {
                backoff: Duration::ZERO,
                ..RetryPolicy::escalating(2, vec![])
            },
        };
        let outcome = run_batch(
            vec![("flaky".to_string(), ())],
            &cfg,
            None,
            |(), _, session: &mut SynthesisSession, attempt: &Attempt| {
                // Hold an engine's manager across the panic: the unwind
                // must quarantine it, not recycle it into the retry.
                let spec = Spec::from_permutation(&Permutation::from_fn(3, |v| v ^ 1));
                let options = SynthesisOptions::new(GateLibrary::mct(), Engine::Bdd);
                let engine = BddEngine::new_in(&spec, &options, session);
                if attempt.number == 1 {
                    panic!("first attempt crashes");
                }
                let resets = engine.manager_stats().resets;
                engine.retire(session);
                Ok(resets)
            },
        );
        let r = &outcome.reports[0];
        match &r.status {
            JobStatus::Degraded {
                result, attempts, ..
            } => {
                assert_eq!(*attempts, 2);
                assert_eq!(
                    *result, 0,
                    "retry got a fresh manager, not the quarantined one"
                );
            }
            other => panic!("expected recovery, got {other:?}"),
        }
        assert_eq!(outcome.session_stats.quarantined, 1);
        assert_eq!(outcome.session_stats.retries, 1);
    }

    /// Field-wise totals of several counter-set walks.
    fn totals<W>(walks: impl Iterator<Item = W>) -> Vec<(&'static str, u64)>
    where
        W: Iterator<Item = (&'static str, u64)>,
    {
        let mut sum: Vec<(&'static str, u64)> = Vec::new();
        for walk in walks {
            for (i, (name, value)) in walk.enumerate() {
                match sum.get_mut(i) {
                    Some(total) => total.1 += value,
                    None => sum.push((name, value)),
                }
            }
        }
        sum
    }

    #[test]
    fn merged_session_counters_do_not_depend_on_the_worker_count() {
        // Eight 3-line functions through the output-permutation search;
        // every third trips a zero time budget on its first attempt, so the
        // supervisor retries it.
        let jobs: Vec<(String, (bool, Spec))> = (0..8u32)
            .map(|k| {
                let spec = Spec::from_permutation(&Permutation::from_fn(3, |v| {
                    ((v ^ k) * (2 * k + 1) + k / 2) % 8
                }));
                (format!("j{k}"), (k % 3 == 0, spec))
            })
            .collect();
        let run = |engine: Engine, workers: usize| {
            let cfg = BatchConfig {
                workers,
                retry: RetryPolicy {
                    backoff: Duration::ZERO,
                    ..RetryPolicy::escalating(2, vec![])
                },
            };
            // A kept BDD cascade makes `levels_built` depend on which jobs
            // shared a worker, so the BDD leg rebuilds per depth (ablation
            // B); the SAT leg keeps its solver warm across depths.
            let options = SynthesisOptions::new(GateLibrary::mct(), engine)
                .with_incremental(engine == Engine::Sat);
            run_batch(
                jobs.clone(),
                &cfg,
                None,
                |(trip, spec), token, session, attempt| {
                    let mut o = attempt.apply(&options).with_cancel_token(token.clone());
                    if *trip && attempt.number == 1 {
                        o = o.with_time_budget(Duration::ZERO);
                    }
                    synthesize_with_output_permutation_in(spec, &o, session)
                },
            )
        };
        for engine in [Engine::Bdd, Engine::Sat] {
            let one = run(engine, 1);
            let two = run(engine, 2);
            let searches: Vec<_> = one
                .reports
                .iter()
                .map(|r| r.status.result().expect("every job recovers").stats)
                .collect();
            for s in [one.session_stats, two.session_stats] {
                assert_eq!((s.jobs, s.retries, s.quarantined), (11, 3, 0), "{engine}");
                assert_eq!(s.search, one.session_stats.search, "{engine}");
                // The merged totals equal the per-job counters summed by
                // hand, so a merge that dropped or doubled a field fails.
                assert_eq!(
                    s.search.counters().collect::<Vec<_>>(),
                    totals(searches.iter().map(|p| p.counters())),
                    "{engine}"
                );
                assert_eq!(
                    s.search.incremental.counters().collect::<Vec<_>>(),
                    totals(searches.iter().map(|p| p.incremental.counters())),
                    "{engine}"
                );
            }
            let s = one.session_stats.search;
            assert_eq!(s.permutations, 8 * 6, "{engine}");
            assert!(s.probes_run > 0 && s.levels_built > 0 || engine == Engine::Sat);
            assert_eq!(s.incremental.depths > 0, engine == Engine::Sat);
        }
    }

    #[test]
    fn exhausted_retries_report_the_last_error() {
        let cfg = BatchConfig {
            workers: 1,
            retry: RetryPolicy {
                backoff: Duration::ZERO,
                ..RetryPolicy::escalating(2, vec![])
            },
        };
        let outcome = run_batch(
            vec![("doomed".to_string(), ())],
            &cfg,
            None,
            |(), _, _, _| -> Result<(), SynthesisError> {
                Err(SynthesisError::BudgetExceeded {
                    depth: 0,
                    resource: Resource::SatConflicts,
                    spent: 1,
                    limit: 1,
                })
            },
        );
        let r = &outcome.reports[0];
        assert!(matches!(r.status, JobStatus::Failed(_)));
        assert_eq!(r.attempts, 2, "both attempts were spent");
    }

    #[test]
    fn shutdown_cancels_running_and_queued_jobs() {
        let shutdown = CancelToken::new();
        let started = AtomicUsize::new(0);
        // 1 worker, several jobs: the first job triggers shutdown itself,
        // so later jobs never run.
        let trigger = shutdown.clone();
        let jobs: Vec<(String, usize)> = (0..5).map(|i| (format!("j{i}"), i)).collect();
        let outcome = run_batch(jobs, &config(1), Some(&shutdown), move |&i, token, _, _| {
            started.fetch_add(1, Ordering::SeqCst);
            if i == 0 {
                trigger.cancel();
            }
            token.check(0)?;
            Ok(i)
        });
        let reports = outcome.reports;
        assert!(matches!(
            reports[0].status,
            JobStatus::Failed(SynthesisError::Cancelled { .. })
        ));
        let cancelled = reports
            .iter()
            .filter(|r| {
                matches!(
                    r.status,
                    JobStatus::Failed(SynthesisError::Cancelled { .. })
                )
            })
            .count();
        assert_eq!(cancelled, 5, "every job observed the shutdown");
    }

    #[test]
    fn queue_drains_after_close_and_rejects_new_pushes() {
        let q: WorkQueue<u32> = WorkQueue::bounded(4);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.close();
        assert_eq!(q.push(3), Err(3));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn try_push_bounces_on_full_or_closed_instead_of_blocking() {
        let q: WorkQueue<u32> = WorkQueue::bounded(2);
        assert_eq!(q.pending(), 0);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.pending(), 2);
        // Full: the item comes straight back (no blocking, no enqueue).
        assert_eq!(q.try_push(3), Err(3));
        assert_eq!(q.pop(), Some(1));
        q.try_push(3).unwrap();
        q.close();
        assert_eq!(q.try_push(4), Err(4));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn bounded_push_blocks_until_a_pop() {
        let q: WorkQueue<u32> = WorkQueue::bounded(1);
        q.push(1).unwrap();
        std::thread::scope(|s| {
            let pusher = s.spawn(|| q.push(2).unwrap());
            std::thread::sleep(Duration::from_millis(5));
            assert!(!pusher.is_finished(), "push must block at capacity");
            assert_eq!(q.pop(), Some(1));
            pusher.join().unwrap();
        });
        assert_eq!(q.pop(), Some(2));
    }
}
