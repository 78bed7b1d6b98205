//! Engine portfolio on top of `qsyn-core`: race the BDD/SAT/QBF engines on
//! one specification, schedule whole benchmark batches across a worker
//! pool, and resolve results by canonical spec through a memo over the
//! circuit store.
//!
//! Independent pieces, composable but not entangled:
//!
//! * [`mod@race`] — spawn one thread per engine with per-racer
//!   [`CancelToken`](qsyn_core::CancelToken)s; the first engine to *prove*
//!   a minimal circuit wins and the losers are cancelled mid-depth.
//! * [`scheduler`] — the one supervisor every synthesis job runs under
//!   ([`supervise`]: retry with escalated budgets down an engine ladder,
//!   panic containment), plus a bounded work queue and a fixed
//!   `--jobs N` worker pool with graceful shutdown and input-ordered
//!   reports.
//! * [`cache`] — the resolve path: canonicalize under output permutation,
//!   then answer from the memo, the circuit store or a compute, and
//!   publish fresh results to both; an equivalent request is answered by
//!   permuting the class record instead of re-synthesizing. `qsyn batch`
//!   and the `qsyn-serve` daemon share it.
//! * [`journal`] — crash-safe batch resume: one record per completed
//!   job on the circuit store's fsync'd log (`qsyn_store::log`),
//!   replayed by `qsyn batch --resume`.
//! * [`json`] — the one JSON codec: a strict one-object parser and a
//!   compact one-line writer, shared by the journal, the daemon's wire
//!   protocol, the chaos harness and the trajectory gate.
//!
//! Everything is built on `std::thread`/`std::sync` only.

#![warn(missing_docs)]

pub mod cache;
pub mod journal;
pub mod json;
pub mod race;
pub mod scheduler;

pub use cache::{canonicalize, CanonicalSpec, SpecCache};
pub use journal::{job_key, open_journal, read_journal, JournalRecord};
pub use race::{
    race, race_engines, race_engines_permuted, RaceError, RaceResult, Racer, RacerFailure,
    RacerOutcome, RacerReport, RACE_ENGINES,
};
pub use scheduler::{
    classify, contain, run_batch, supervise, Attempt, BatchConfig, BatchOutcome, FailureKind,
    JobReport, JobStatus, PanicReport, RetryPolicy, WorkQueue,
};
