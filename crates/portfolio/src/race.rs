//! Engine racing: run several synthesis attempts on worker threads, keep
//! the first one that *proves* a minimal result, cancel the rest.
//!
//! Iterative deepening makes every engine's first SAT answer minimal, so
//! whichever engine answers first is as good as any other — the only thing
//! racing changes is the wall clock. Each racer gets its own
//! [`CancelToken`]; the moment a winner is in, the supervisor cancels the
//! losers, and the tokens are polled inside the engines' per-depth inner
//! loops (between BDD levels, between solver conflict chunks), so losers
//! stop promptly instead of running their depth to completion.
//!
//! [`race`] is generic over what the racers actually run — the engine
//! portfolio ([`race_engines`], [`race_engines_permuted`]) is just the
//! common instantiation, and tests can inject scripted racers to observe
//! cancellation deterministically.

use crate::scheduler::{contain, PanicReport};
use qsyn_core::permuted::{synthesize_with_output_permutation_in, PermutedSynthesisResult};
use qsyn_core::{
    synthesize_in, CancelToken, Engine, SynthesisError, SynthesisOptions, SynthesisResult,
    SynthesisSession,
};
use qsyn_revlogic::Spec;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// One competitor in a [`race`]: a label and the closure to run. The
/// closure receives the racer's private [`CancelToken`] and must poll it
/// (directly, or by threading it into [`SynthesisOptions`]) to honour
/// cancellation.
pub struct Racer<T> {
    label: String,
    run: Box<dyn FnOnce(CancelToken) -> Result<T, SynthesisError> + Send>,
}

impl<T> Racer<T> {
    /// A racer running `run` under the given display label.
    pub fn new<F>(label: impl Into<String>, run: F) -> Racer<T>
    where
        F: FnOnce(CancelToken) -> Result<T, SynthesisError> + Send + 'static,
    {
        Racer {
            label: label.into(),
            run: Box::new(run),
        }
    }
}

/// How one racer ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RacerOutcome {
    /// Produced the first successful result.
    Won,
    /// Observed its cancellation token and stopped
    /// ([`SynthesisError::Cancelled`]).
    Cancelled,
    /// Succeeded, but after the winner (its result is discarded).
    FinishedLate,
    /// Failed with a real error (budget, depth limit, …).
    Failed(SynthesisError),
    /// Panicked; the panic was contained (by the scheduler's
    /// [`contain`]) and did not take down the race.
    Panicked(PanicReport),
}

/// Per-racer report, in the order the racers were supplied.
#[derive(Clone, Debug)]
pub struct RacerReport {
    /// The racer's label.
    pub label: String,
    /// How it ended.
    pub outcome: RacerOutcome,
    /// Wall-clock time until it ended.
    pub elapsed: Duration,
}

/// A decided race: the winning result plus what happened to everyone.
#[derive(Clone, Debug)]
pub struct RaceResult<T> {
    /// The first successful result.
    pub winner: T,
    /// Label of the racer that produced it.
    pub winner_label: String,
    /// One report per racer, in input order.
    pub reports: Vec<RacerReport>,
}

/// Why one racer of a lost race did not win.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RacerFailure {
    /// Returned an error (cancellation included).
    Error(SynthesisError),
    /// Panicked; the contained report.
    Panicked(PanicReport),
}

impl std::fmt::Display for RacerFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RacerFailure::Error(e) => write!(f, "{e}"),
            RacerFailure::Panicked(p) => write!(f, "{p}"),
        }
    }
}

/// A race nobody won.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RaceError {
    /// Called with an empty racer list.
    NoRacers,
    /// Every racer failed; why each one did, in input order.
    AllFailed(Vec<(String, RacerFailure)>),
}

impl std::fmt::Display for RaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RaceError::NoRacers => write!(f, "race started with no racers"),
            RaceError::AllFailed(fails) => {
                write!(f, "every racer failed:")?;
                for (label, failure) in fails {
                    write!(f, " [{label}: {failure}]")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for RaceError {}

impl RaceError {
    /// Collapses a lost race into the most informative single engine error:
    /// the first non-[`Cancelled`](SynthesisError::Cancelled) racer error,
    /// falling back to any racer error, then to an internal-invariant
    /// report when every racer panicked (or there were none). Lets callers
    /// that treat the race as "just another engine" (the batch scheduler,
    /// the cache compute hook) keep a single error type.
    #[must_use]
    pub fn into_synthesis_error(self) -> SynthesisError {
        let fallback = SynthesisError::Internal {
            what: "portfolio race ended with no reportable error",
        };
        match self {
            RaceError::NoRacers => fallback,
            RaceError::AllFailed(fails) => {
                let mut errors = fails.into_iter().filter_map(|(_, failure)| match failure {
                    RacerFailure::Error(e) => Some(e),
                    RacerFailure::Panicked(_) => None,
                });
                match errors.next() {
                    None => fallback,
                    Some(first) => {
                        if matches!(first, SynthesisError::Cancelled { .. }) {
                            errors
                                .find(|e| !matches!(e, SynthesisError::Cancelled { .. }))
                                .unwrap_or(first)
                        } else {
                            first
                        }
                    }
                }
            }
        }
    }
}

/// Runs all racers concurrently and returns the first success; the
/// remaining racers are cancelled through their tokens and joined before
/// returning, so no racer outlives the call.
///
/// A racer that panics is contained ([`RacerOutcome::Panicked`]) and simply
/// cannot win.
///
/// # Errors
///
/// [`RaceError::NoRacers`] for an empty field; [`RaceError::AllFailed`]
/// when every racer errored or panicked.
pub fn race<T: Send + 'static>(racers: Vec<Racer<T>>) -> Result<RaceResult<T>, RaceError> {
    if racers.is_empty() {
        return Err(RaceError::NoRacers);
    }
    let labels: Vec<String> = racers.iter().map(|r| r.label.clone()).collect();
    let tokens: Vec<CancelToken> = racers.iter().map(|_| CancelToken::new()).collect();
    let (tx, rx) = mpsc::channel();
    let start = Instant::now();
    let handles: Vec<_> = racers
        .into_iter()
        .zip(&tokens)
        .enumerate()
        .map(|(idx, (racer, token))| {
            let tx = tx.clone();
            let token = token.clone();
            std::thread::spawn(move || {
                let run = racer.run;
                let verdict = contain(move || run(token));
                // The receiver hangs up once all messages are in; a failed
                // send can only mean the supervisor itself panicked.
                let _ = tx.send((idx, verdict, start.elapsed()));
            })
        })
        .collect();
    drop(tx);

    let mut winner: Option<(usize, T)> = None;
    let mut outcomes: Vec<Option<(RacerOutcome, Duration)>> = labels.iter().map(|_| None).collect();
    // Why each racer lost, kept whole (a cancelled racer's depth
    // included) in case nobody wins.
    let mut failures: Vec<Option<RacerFailure>> = labels.iter().map(|_| None).collect();
    for (idx, verdict, elapsed) in rx {
        let outcome = match verdict {
            Ok(Ok(result)) => {
                if winner.is_none() {
                    winner = Some((idx, result));
                    // The race is decided: stop everyone else promptly.
                    for (i, t) in tokens.iter().enumerate() {
                        if i != idx {
                            t.cancel();
                        }
                    }
                    RacerOutcome::Won
                } else {
                    RacerOutcome::FinishedLate
                }
            }
            Ok(Err(e)) => {
                let outcome = match &e {
                    SynthesisError::Cancelled { .. } => RacerOutcome::Cancelled,
                    e => RacerOutcome::Failed(e.clone()),
                };
                failures[idx] = Some(RacerFailure::Error(e));
                outcome
            }
            Err(panic) => {
                failures[idx] = Some(RacerFailure::Panicked(panic.clone()));
                RacerOutcome::Panicked(panic)
            }
        };
        outcomes[idx] = Some((outcome, elapsed));
    }
    for h in handles {
        let _ = h.join();
    }

    let reports: Vec<RacerReport> = labels
        .into_iter()
        .zip(outcomes)
        .map(|(label, o)| {
            let (outcome, elapsed) = o.expect("every racer reports exactly once");
            RacerReport {
                label,
                outcome,
                elapsed,
            }
        })
        .collect();
    match winner {
        Some((idx, result)) => Ok(RaceResult {
            winner: result,
            winner_label: reports[idx].label.clone(),
            reports,
        }),
        None => Err(RaceError::AllFailed(
            reports
                .into_iter()
                .zip(failures)
                .filter_map(|(r, failure)| Some((r.label, failure?)))
                .collect(),
        )),
    }
}

/// The engines entered into a portfolio race, in report order.
pub const RACE_ENGINES: [Engine; 3] = [Engine::Bdd, Engine::Sat, Engine::Qbf];

/// Races the three engines on one specification with plain (identity
/// output) synthesis. `options.engine` is ignored — each racer runs its own
/// engine; everything else (library, budgets, `time_budget`) applies to
/// every racer. An already-supplied cancel token in `options` still works:
/// cancelling it stops the whole race.
///
/// # Errors
///
/// See [`race`].
pub fn race_engines(
    spec: &Spec,
    options: &SynthesisOptions,
) -> Result<RaceResult<SynthesisResult>, RaceError> {
    race(entrants(spec, options, |spec, options, session| {
        synthesize_in(&spec, &options, session)
    }))
}

/// Races the three engines on output-permutation synthesis
/// (`qsyn_core::synthesize_with_output_permutation`); otherwise as
/// [`race_engines`].
///
/// # Errors
///
/// See [`race`].
pub fn race_engines_permuted(
    spec: &Spec,
    options: &SynthesisOptions,
) -> Result<RaceResult<PermutedSynthesisResult>, RaceError> {
    race(entrants(spec, options, |spec, options, session| {
        synthesize_with_output_permutation_in(&spec, &options, session)
    }))
}

/// Builds one racer per engine in [`RACE_ENGINES`], each running `f` on a
/// clone of the options with that engine selected and the racer's token
/// chained onto any caller-supplied one. Every racer owns a private
/// [`SynthesisSession`] for the attempt — sessions are thread-local by
/// design, and the loser's BDD arena is freed with it when the racer is
/// cancelled.
fn entrants<T, F>(spec: &Spec, options: &SynthesisOptions, f: F) -> Vec<Racer<T>>
where
    T: Send + 'static,
    F: Fn(Spec, SynthesisOptions, &mut SynthesisSession) -> Result<T, SynthesisError>
        + Clone
        + Send
        + 'static,
{
    RACE_ENGINES
        .iter()
        .map(|&engine| {
            let spec = spec.clone();
            let options = options.clone();
            let f = f.clone();
            Racer::new(engine.to_string(), move |token: CancelToken| {
                // The engine polls one token that trips when either the
                // race decides against this racer or the caller cancels
                // the whole run.
                let merged = CancelToken::merged([&token, &options.cancel]);
                let opts = options.with_engine(engine).with_cancel_token(merged);
                f(spec, opts, &mut SynthesisSession::new())
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsyn_revlogic::{benchmarks, GateLibrary, Permutation};

    fn opts() -> SynthesisOptions {
        SynthesisOptions::new(GateLibrary::mct(), Engine::Bdd)
    }

    /// A racer that only ever exits through its cancellation token — the
    /// deterministic way to observe loser cancellation.
    fn blocked_racer(label: &str) -> Racer<u32> {
        Racer::new(label, |token: CancelToken| loop {
            token.check(7)?;
            std::thread::sleep(Duration::from_millis(1));
        })
    }

    #[test]
    fn first_success_wins_and_losers_are_cancelled() {
        let fast = Racer::new("fast", |_token| Ok(42u32));
        let r = race(vec![blocked_racer("stuck"), fast]).unwrap();
        assert_eq!(r.winner, 42);
        assert_eq!(r.winner_label, "fast");
        assert_eq!(r.reports.len(), 2);
        assert_eq!(r.reports[0].outcome, RacerOutcome::Cancelled);
        assert_eq!(r.reports[1].outcome, RacerOutcome::Won);
    }

    #[test]
    fn panicking_racer_cannot_win_and_is_contained() {
        let bomb: Racer<u32> = Racer::new("bomb", |_token| panic!("boom"));
        let slow = Racer::new("slow", |token: CancelToken| {
            std::thread::sleep(Duration::from_millis(5));
            token.check(0)?;
            Ok(7u32)
        });
        let r = race(vec![bomb, slow]).unwrap();
        assert_eq!(r.winner, 7);
        match &r.reports[0].outcome {
            RacerOutcome::Panicked(p) => {
                assert_eq!(p.message, "boom");
                let at = p.location.as_deref().expect("hook captured the site");
                assert!(at.contains("race.rs"), "got location {at}");
            }
            other => panic!("expected a contained panic, got {other:?}"),
        }
    }

    #[test]
    fn all_failures_are_collected() {
        let a: Racer<u32> = Racer::new("a", |_| {
            Err(SynthesisError::DepthLimitReached { max_depth: 1 })
        });
        let b: Racer<u32> = Racer::new("b", |_| panic!("dead"));
        let err = race(vec![a, b]).unwrap_err();
        match err {
            RaceError::AllFailed(fails) => {
                assert_eq!(fails.len(), 2);
                assert_eq!(
                    fails[0],
                    (
                        "a".to_string(),
                        RacerFailure::Error(SynthesisError::DepthLimitReached { max_depth: 1 })
                    )
                );
                match &fails[1] {
                    (label, RacerFailure::Panicked(p)) => {
                        assert_eq!((label.as_str(), p.message.as_str()), ("b", "dead"));
                    }
                    other => panic!("expected b's panic, got {other:?}"),
                }
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn a_race_where_every_racer_panics_reports_each_panic() {
        let racers: Vec<Racer<u32>> = vec![
            Racer::new("bdd", |_| panic!("arena poisoned")),
            Racer::new("sat", |_| panic!("solver poisoned")),
        ];
        let err = race(racers).unwrap_err();
        let text = err.to_string();
        assert!(text.starts_with("every racer failed:"), "{text}");
        for (label, message) in [("bdd", "arena poisoned"), ("sat", "solver poisoned")] {
            let at = text
                .split(&format!("[{label}: panicked: {message} at "))
                .nth(1)
                .unwrap_or_else(|| panic!("{label}'s report missing from {text}"));
            assert!(at.contains("race.rs:"), "{label} location in {text}");
        }
        assert!(matches!(
            err.into_synthesis_error(),
            SynthesisError::Internal { .. }
        ));
    }

    #[test]
    fn a_cancelled_race_reports_the_cancellation() {
        let token = CancelToken::new();
        token.cancel();
        let racers: Vec<Racer<u32>> = vec![Racer::new("bdd", move |_| {
            token.check(4)?;
            Ok(1)
        })];
        let err = race(racers).unwrap_err();
        assert_eq!(
            err.to_string(),
            "every racer failed: [bdd: synthesis cancelled before finishing depth 4]"
        );
        assert_eq!(
            err.into_synthesis_error(),
            SynthesisError::Cancelled { depth: 4 }
        );
    }

    #[test]
    fn empty_race_is_an_error() {
        assert_eq!(race::<u32>(vec![]).unwrap_err(), RaceError::NoRacers);
    }

    #[test]
    fn engine_race_agrees_with_single_engine() {
        let spec = benchmarks::spec_3_17();
        let raced = race_engines(&spec, &opts()).unwrap();
        assert_eq!(raced.winner.depth(), 6, "3_17's known minimal MCT depth");
        assert!(spec.is_realized_by(&raced.winner.solutions().circuits()[0]));
        assert_eq!(raced.reports.len(), 3);
        assert!(raced.reports.iter().any(|r| r.outcome == RacerOutcome::Won));
    }

    #[test]
    fn permuted_engine_race_finds_free_swap() {
        let spec = Spec::from_permutation(&Permutation::from_fn(2, |v| ((v & 1) << 1) | (v >> 1)));
        let raced = race_engines_permuted(&spec, &opts()).unwrap();
        assert_eq!(raced.winner.result.depth(), 0);
        assert!(!raced.winner.is_identity_permutation());
    }
}
