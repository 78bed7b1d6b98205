//! Cooperative cancellation for synthesis runs.
//!
//! A [`CancelToken`] is a cheap, clonable handle shared between a synthesis
//! run and whoever supervises it (the portfolio racer, the batch scheduler,
//! a signal handler). It carries two independent stop conditions:
//!
//! * an explicit **cancel flag**, raised with [`CancelToken::cancel`] —
//!   surfaces as [`SynthesisError::Cancelled`];
//! * an optional **deadline**, armed by the
//!   [`ResourceGovernor`](crate::ResourceGovernor) from
//!   [`SynthesisOptions::time_budget`](crate::SynthesisOptions) — surfaces
//!   as [`SynthesisError::BudgetExceeded`] with
//!   [`Resource::WallClock`](crate::Resource), or with
//!   [`Resource::ForcedDeadline`](crate::Resource) when an injected fault
//!   forced it ([`CancelToken::expire`]) on a run that had no budget.
//!
//! Engines poll the token inside their per-depth inner loops (between BDD
//! levels and quantification steps, between solver conflict chunks), so a
//! single runaway depth no longer ignores the budget and a losing portfolio
//! racer stops promptly instead of running to completion.

use crate::error::{Resource, SynthesisError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Shared cancellation handle; see the module docs.
///
/// Clones share state: cancelling any clone cancels them all. The default
/// token is never cancelled and has no deadline, so polling it is free of
/// side effects and cheap (one relaxed atomic load on the fast path).
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    cancelled: AtomicBool,
    /// Armed lazily (the budget is relative to the run's start, which is
    /// only known once the driver begins). `Mutex` rather than an atomic:
    /// `Instant` is opaque, and the poll rate is bounded by chunk sizes.
    deadline: Mutex<Option<Deadline>>,
    has_deadline: AtomicBool,
    /// Upstream tokens (see [`CancelToken::merged`]): this token also
    /// reports cancelled/expired when any of them does.
    parents: Vec<Arc<Inner>>,
}

impl Inner {
    /// This token's own armed deadline, if any; unarmed tokens answer
    /// from the flag without taking the lock.
    fn armed(&self) -> Option<Deadline> {
        if !self.has_deadline.load(Ordering::Acquire) {
            return None;
        }
        *self.deadline.lock().expect("deadline lock")
    }
}

/// An armed deadline.
#[derive(Clone, Copy, Debug)]
struct Deadline {
    at: Instant,
    /// When the wall-clock budget was armed, and its length, so expiry can
    /// report elapsed-vs-budget; `None` when the deadline was forced
    /// ([`CancelToken::expire`]) on a token that had no budget.
    budget: Option<(Instant, Duration)>,
}

/// How a passed deadline is reported.
enum Expiry {
    /// A budget ran out: milliseconds spent since arming, and the budget.
    Budget { spent: u64, limit: u64 },
    /// A deadline was forced on a token without a budget.
    Forced,
}

impl CancelToken {
    /// A fresh, uncancelled token with no deadline.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A fresh token that expires `budget` from now.
    pub fn with_timeout(budget: Duration) -> CancelToken {
        let t = CancelToken::new();
        t.set_budget(budget);
        t
    }

    /// A token that additionally trips whenever any of `sources` trips
    /// (cancel flag or deadline), while cancelling *it* leaves the sources
    /// untouched. This is how a portfolio racer obeys both its private
    /// "you lost" token and a caller's run-wide token with a single poll.
    pub fn merged<'a>(sources: impl IntoIterator<Item = &'a CancelToken>) -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner {
                parents: sources.into_iter().map(|t| Arc::clone(&t.inner)).collect(),
                ..Inner::default()
            }),
        }
    }

    /// Raises the cancel flag on every clone of this token (parents of a
    /// merged token are unaffected).
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// `true` once [`cancel`](Self::cancel) has been called on this token
    /// or any of its merge sources (deadline expiry is *not* reported
    /// here; use [`check`](Self::check)).
    pub fn is_cancelled(&self) -> bool {
        fn walk(inner: &Inner) -> bool {
            inner.cancelled.load(Ordering::Acquire) || inner.parents.iter().any(|p| walk(p))
        }
        walk(&self.inner)
    }

    /// Arms a wall-clock budget of `budget`, starting now. A deadline
    /// already forced earlier ([`expire`](Self::expire)) stays in force, and
    /// its expiry is then reported against this budget.
    pub fn set_budget(&self, budget: Duration) {
        let now = Instant::now();
        self.rearm(|armed| {
            let at = now + budget;
            Deadline {
                at: armed.map_or(at, |d| d.at.min(at)),
                budget: Some((now, budget)),
            }
        });
    }

    /// Forces the deadline to now: how an injected fault or a supervisor's
    /// cancel fault stops a run as if its time were up. An armed budget
    /// keeps its arming instant and length, so expiry still reports the
    /// time spent against the real budget; on a token without one the
    /// expiry is reported as forced rather than as a zero-millisecond
    /// budget ([`Resource::ForcedDeadline`]).
    pub fn expire(&self) {
        let now = Instant::now();
        self.rearm(|armed| match armed {
            Some(d) => Deadline {
                at: d.at.min(now),
                ..d
            },
            None => Deadline {
                at: now,
                budget: None,
            },
        });
    }

    /// Replaces this token's own deadline with `next(current)`, under one
    /// lock.
    fn rearm(&self, next: impl FnOnce(Option<Deadline>) -> Deadline) {
        let mut deadline = self.inner.deadline.lock().expect("deadline lock");
        *deadline = Some(next(*deadline));
        self.inner.has_deadline.store(true, Ordering::Release);
    }

    /// `true` if a wall-clock budget is armed on this token itself (merge
    /// sources are not consulted; a forced deadline is not a budget). The
    /// [`ResourceGovernor`](crate::ResourceGovernor) uses this to arm a
    /// run's budget exactly once, so re-entering the driver (e.g. the
    /// permuted search re-running its winner) never extends the budget.
    pub fn has_budget(&self) -> bool {
        matches!(
            self.inner.armed(),
            Some(Deadline {
                budget: Some(_),
                ..
            })
        )
    }

    /// `true` if a deadline is armed and has passed, on this token or any
    /// of its merge sources.
    pub fn deadline_expired(&self) -> bool {
        self.expiry().is_some()
    }

    /// How the first passed deadline found (on this token or a merge
    /// source) is reported, if any has passed.
    fn expiry(&self) -> Option<Expiry> {
        fn walk(inner: &Inner, now: Instant) -> Option<Expiry> {
            if let Some(d) = inner.armed() {
                if now >= d.at {
                    return Some(match d.budget {
                        Some((armed_at, budget)) => Expiry::Budget {
                            spent: now.duration_since(armed_at).as_millis() as u64,
                            limit: budget.as_millis() as u64,
                        },
                        None => Expiry::Forced,
                    });
                }
            }
            inner.parents.iter().find_map(|p| walk(p, now))
        }
        walk(&self.inner, Instant::now())
    }

    /// Polls both stop conditions, attributing a failure to `depth`.
    ///
    /// # Errors
    ///
    /// * [`SynthesisError::Cancelled`] when the flag is raised,
    /// * [`SynthesisError::BudgetExceeded`] with [`Resource::WallClock`]
    ///   when the deadline passed, or [`Resource::ForcedDeadline`] when it
    ///   was forced on a token without a budget.
    pub fn check(&self, depth: u32) -> Result<(), SynthesisError> {
        if self.is_cancelled() {
            return Err(SynthesisError::Cancelled { depth });
        }
        match self.expiry() {
            None => Ok(()),
            Some(Expiry::Budget { spent, limit }) => Err(SynthesisError::BudgetExceeded {
                depth,
                resource: Resource::WallClock,
                spent,
                limit,
            }),
            Some(Expiry::Forced) => Err(SynthesisError::BudgetExceeded {
                depth,
                resource: Resource::ForcedDeadline,
                spent: 0,
                limit: 0,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_token_never_trips() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(!t.deadline_expired());
        assert_eq!(t.check(3), Ok(()));
    }

    #[test]
    fn cancel_propagates_to_clones() {
        let t = CancelToken::new();
        let clone = t.clone();
        t.cancel();
        assert!(clone.is_cancelled());
        assert_eq!(clone.check(5), Err(SynthesisError::Cancelled { depth: 5 }));
    }

    #[test]
    fn expired_deadline_reports_wall_clock_budget() {
        let t = CancelToken::with_timeout(Duration::ZERO);
        assert!(t.deadline_expired());
        assert!(t.has_budget());
        match t.check(2) {
            Err(SynthesisError::BudgetExceeded {
                depth: 2,
                resource: Resource::WallClock,
                limit: 0,
                ..
            }) => {}
            other => panic!("expected wall-clock budget error, got {other:?}"),
        }
    }

    #[test]
    fn future_deadline_does_not_trip() {
        let t = CancelToken::with_timeout(Duration::from_secs(3600));
        assert_eq!(t.check(0), Ok(()));
    }

    #[test]
    fn cancel_takes_precedence_over_deadline() {
        let t = CancelToken::with_timeout(Duration::ZERO);
        t.cancel();
        assert_eq!(t.check(1), Err(SynthesisError::Cancelled { depth: 1 }));
    }

    #[test]
    fn merged_token_observes_every_source() {
        let a = CancelToken::new();
        let b = CancelToken::new();
        let m = CancelToken::merged([&a, &b]);
        assert!(!m.is_cancelled());
        b.cancel();
        assert!(m.is_cancelled());
        assert!(!a.is_cancelled(), "sources stay independent");
    }

    #[test]
    fn cancelling_a_merged_token_spares_the_sources() {
        let a = CancelToken::new();
        let m = CancelToken::merged([&a]);
        m.cancel();
        assert!(m.is_cancelled());
        assert!(!a.is_cancelled());
    }

    #[test]
    fn merged_token_inherits_source_deadlines() {
        let a = CancelToken::with_timeout(Duration::ZERO);
        let m = CancelToken::merged([&a]);
        assert!(m.deadline_expired());
        assert!(!m.has_budget(), "has_budget reports the token itself");
        assert!(matches!(
            m.check(3),
            Err(SynthesisError::BudgetExceeded {
                depth: 3,
                resource: Resource::WallClock,
                ..
            })
        ));
    }

    #[test]
    fn forcing_an_armed_budget_keeps_its_arming_instant() {
        let t = CancelToken::with_timeout(Duration::from_secs(3600));
        std::thread::sleep(Duration::from_millis(20));
        t.expire();
        match t.check(3) {
            Err(SynthesisError::BudgetExceeded {
                depth: 3,
                resource: Resource::WallClock,
                spent,
                limit: 3_600_000,
            }) => assert!((20..3_600_000).contains(&spent), "spent {spent}"),
            other => panic!("expected the armed budget, got {other:?}"),
        }
    }

    #[test]
    fn a_budget_armed_after_a_forced_deadline_reports_itself() {
        let t = CancelToken::new();
        t.expire();
        assert!(!t.has_budget(), "a forced deadline is not a budget");
        t.set_budget(Duration::from_secs(60));
        assert!(t.has_budget());
        match t.check(1) {
            Err(SynthesisError::BudgetExceeded {
                depth: 1,
                resource: Resource::WallClock,
                spent,
                limit: 60_000,
            }) => assert!(spent < 60_000, "spent {spent}"),
            other => panic!("expected the forced deadline to stay, got {other:?}"),
        }
    }

    #[test]
    fn forcing_a_token_without_a_budget_claims_none() {
        let t = CancelToken::new();
        t.expire();
        assert!(!t.has_budget() && t.deadline_expired());
        let err = t.check(2).unwrap_err();
        assert_eq!(
            err,
            SynthesisError::BudgetExceeded {
                depth: 2,
                resource: Resource::ForcedDeadline,
                spent: 0,
                limit: 0,
            }
        );
        let text = err.to_string();
        assert!(!text.contains("spent of"), "{text}");
        // A merged token reports its source's forced deadline alike.
        let m = CancelToken::merged([&t]);
        assert_eq!(m.check(2), Err(err));
    }
}
