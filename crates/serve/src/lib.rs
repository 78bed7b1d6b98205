//! The `qsyn` synthesis daemon: serve exact-synthesis answers from a
//! persistent circuit database, computing only what was never seen.
//!
//! # Architecture
//!
//! ```text
//!             TCP (newline-delimited JSON, one object per line)
//!   client ──────────────► connection thread
//!                               │ canonicalize
//!                               ▼
//!                     ┌─ SpecCache lookup ─┐   hit: compose the stored
//!                     │ memo, then the     │──► permutation, no engine,
//!                     │ disk store, if any │   no lock on workers
//!                     └─────────┬──────────┘
//!                          miss │ in-flight dedup (one job per class)
//!                               ▼
//!                 bounded WorkQueue  ── full ──► rejected (retryable)
//!                               │ try_push = admission control
//!                               ▼
//!                  worker pool (one SynthesisSession each)
//!                               │ synthesize_with_output_permutation_in
//!                               ▼
//!                  SpecCache publish: memo, then the disk store
//! ```
//!
//! The lookup and publish halves are `qsyn-portfolio`'s resolve path
//! ([`SpecCache`]), the same one `qsyn batch` uses: one record derivation,
//! one validation of stored records (an unusable record is reported,
//! synthesized fresh and superseded), one permutation composition.
//!
//! Three admission-control layers keep the daemon inside its budgets:
//! the **bounded queue** ([`WorkQueue::try_push`]) bounces cold work when
//! the backlog is full (an overloaded, retryable error — never a blocked
//! connection thread); each job runs under
//! **[`ResourceGovernor`](qsyn_core::ResourceGovernor) budgets**
//! (wall-clock deadline, BDD node limit, conflict limit) from
//! the per-request [`SynthesisOptions`], so one adversarial spec cannot
//! monopolize a worker; and **in-flight deduplication** collapses
//! concurrent requests for one equivalence class into a single engine
//! run that every waiter shares.
//!
//! Answers are canonical: requests are reduced to their output-permutation
//! class representative ([`canonicalize`]) before lookup, so any of the
//! `n!` equivalent phrasings of a function hits the same record, and the
//! reply's permutation is composed per-request from the canonicalization
//! witness.
//!
//! # Connection lifecycle
//!
//! [`serve_tcp`] runs a non-blocking accept loop that waits for readiness
//! on the listener (`poll(2)` on Unix) for at most one 25 ms tick: a
//! connection is accepted the moment it arrives, and the loop re-checks
//! the shutdown and drain flags at least every tick without needing a
//! wake-up connection. Each accepted socket gets per-direction timeouts
//! ([`ServeConfig::read_timeout`] / [`write_timeout`](ServeConfig::write_timeout)):
//! a client that connects and sends nothing — or stops reading its reply
//! — is disconnected when the timeout fires and its thread exits (the
//! `socket_timeouts` metric counts these reaps, which double as
//! idle-connection reaping). Concurrent connection threads are capped at
//! [`ServeConfig::max_connections`]. An accept at the cap waits up to one
//! tick for a slot to free, since a client's next connection can arrive
//! before the thread serving its last one has seen EOF. If none frees,
//! the daemon writes one retryable `overloaded` error line, reads and
//! discards the client's input until it closes (at most one tick, so the
//! close does not reset the connection under the line) and closes
//! (`connections_refused`). The old unbounded one-thread-per-accept growth
//! cannot happen.
//!
//! # Drain
//!
//! Two paths stop the daemon: the wire `shutdown` verb, and — once
//! [`install_drain_signals`] has run — `SIGTERM`/`SIGINT`. Both set
//! flags the accept loop checks at least every tick; it then stops
//! accepting, joins the connection threads (in-flight jobs finish and
//! answer; new cold misses refuse retryably with `shutting down`), stops
//! the worker pool and returns the final snapshot. The store needs no
//! extra flush: every record was fsync'd when it was written. A drained
//! daemon exits 0.

#![warn(missing_docs)]

pub mod metrics;
pub mod protocol;

use metrics::{Metrics, MetricsSnapshot};
use qsyn_core::permuted::synthesize_with_output_permutation_in;
use qsyn_core::{
    CancelToken, Engine, GateLibrary, SynthesisError, SynthesisOptions, SynthesisSession,
};
use qsyn_portfolio::cache::Lookup;
use qsyn_portfolio::{canonicalize, supervise, JobStatus, SpecCache, WorkQueue};
use qsyn_revlogic::Spec;
use qsyn_store::{Store, StoredCircuit};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

pub use qsyn_store::CompactionReport;

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Synthesis worker threads (each owns a [`SynthesisSession`]).
    pub workers: usize,
    /// Cold-miss backlog bound; a full queue rejects new work
    /// (admission control).
    pub queue_capacity: usize,
    /// Gate library for synthesis.
    pub library: GateLibrary,
    /// Decision engine for cold misses.
    pub engine: Engine,
    /// Depth cap per job.
    pub max_depth: u32,
    /// Wall-clock budget per job (the
    /// [`ResourceGovernor`](qsyn_core::ResourceGovernor) deadline); a
    /// request over budget fails retryable instead of pinning a worker.
    pub time_budget: Option<Duration>,
    /// Per-socket read timeout: a connection that sends no complete
    /// request line within this window is reaped (its thread exits and
    /// `socket_timeouts` counts it). `None` waits forever — the
    /// pre-hardening behavior, kept reachable for debugging only.
    pub read_timeout: Option<Duration>,
    /// Per-socket write timeout: a client that stops reading its reply
    /// cannot pin a connection thread past this window.
    pub write_timeout: Option<Duration>,
    /// Hard cap on concurrently-serving connection threads; accepts past
    /// it are answered with one retryable `overloaded` line and closed.
    pub max_connections: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            library: GateLibrary::mct(),
            engine: Engine::Bdd,
            max_depth: 32,
            time_budget: Some(Duration::from_secs(120)),
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            max_connections: 64,
        }
    }
}

/// Serving-path failures (the wire's `"ok":false` replies).
#[derive(Clone, Debug)]
pub enum ServeError {
    /// Admission control bounced the request: the cold-miss queue was
    /// full. Retry after a backoff.
    Overloaded {
        /// Jobs pending when the request was bounced.
        pending: usize,
    },
    /// The synthesis engine failed (budget exhausted, depth cap, …).
    Synthesis(SynthesisError),
    /// The worker thread panicked mid-job; the panic was contained, its
    /// message logged, and the manager it held quarantined: it went down
    /// with the job, and the worker's session counts it.
    WorkerPanicked,
    /// The daemon is draining; no new work is accepted.
    ShuttingDown,
}

impl ServeError {
    /// `true` when the same request may succeed later (overload, budget,
    /// cancellation); `false` for deterministic failures.
    pub fn is_retryable(&self) -> bool {
        match self {
            ServeError::Overloaded { .. } | ServeError::ShuttingDown => true,
            ServeError::Synthesis(e) => matches!(
                e,
                SynthesisError::BudgetExceeded { .. } | SynthesisError::Cancelled { .. }
            ),
            ServeError::WorkerPanicked => false,
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { pending } => {
                write!(f, "overloaded: {pending} cold jobs pending, retry later")
            }
            ServeError::Synthesis(e) => write!(f, "synthesis failed: {e}"),
            ServeError::WorkerPanicked => write!(f, "internal: synthesis worker panicked"),
            ServeError::ShuttingDown => write!(f, "shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Where an answer came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// The circuit database (no engine ran for this request).
    Store,
    /// A synthesis engine ran (or the request joined an in-flight run).
    Engine,
}

impl Source {
    /// Wire form (`"store"` / `"engine"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Source::Store => "store",
            Source::Engine => "engine",
        }
    }
}

/// A served answer: the stored canonical record plus the permutation
/// composed for the spec as the client phrased it.
#[derive(Clone, Debug)]
pub struct ServedResult {
    /// Provenance of the answer.
    pub source: Source,
    /// The canonical record (digest, circuit, metadata).
    pub record: Arc<StoredCircuit>,
    /// Output permutation for the *requested* spec: entry `j` is the
    /// circuit output line driving spec line `j`.
    pub permutation: Vec<u32>,
    /// Request wall-clock latency.
    pub elapsed: Duration,
}

/// One scheduled cold miss.
struct Job {
    canonical: Spec,
    name: String,
    slot: Arc<Slot>,
}

/// The rendezvous between a waiting request and the worker computing its
/// class.
struct Slot {
    result: Mutex<Option<Result<Arc<StoredCircuit>, ServeError>>>,
    ready: Condvar,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            result: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    fn fill(&self, outcome: Result<Arc<StoredCircuit>, ServeError>) {
        *self.result.lock().expect("slot lock") = Some(outcome);
        self.ready.notify_all();
    }

    fn wait(&self) -> Result<Arc<StoredCircuit>, ServeError> {
        let mut guard = self.result.lock().expect("slot lock");
        loop {
            if let Some(outcome) = guard.as_ref() {
                return outcome.clone();
            }
            guard = self.ready.wait(guard).expect("slot lock");
        }
    }
}

/// Shared state between connection threads and workers.
struct Shared {
    queue: WorkQueue<Job>,
    /// The resolve path: memo over the disk store (if any), keyed by
    /// canonical spec and this daemon's gate-library tag, so a store file
    /// shared across differently-configured daemons never replays a
    /// wrong minimum.
    cache: SpecCache,
    /// Classes currently being synthesized, by canonical spec. Lock
    /// order: `inflight` may nest the memo inside it (never the store
    /// mutex); never the reverse.
    inflight: Mutex<HashMap<Spec, Arc<Slot>>>,
    metrics: Metrics,
    options: SynthesisOptions,
    /// Socket lifecycle knobs, copied from [`ServeConfig`] for the
    /// accept loop and connection threads.
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
    max_connections: usize,
    /// Live connection threads, for the accept-time cap. Behind a mutex
    /// (not an atomic) so the accept loop can wait on `slot_freed`
    /// without missing a release.
    active_connections: Mutex<usize>,
    /// Signalled by [`ConnectionSlot`]'s drop when a slot frees.
    slot_freed: Condvar,
    closing: AtomicBool,
}

/// The daemon core: index + store + worker pool, independent of any
/// transport. [`serve_tcp`] puts the line protocol in front of it; tests
/// and benches drive it in-process.
pub struct ServeCore {
    shared: Arc<Shared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl ServeCore {
    /// Boots the core over `store` (if given) and starts the worker
    /// pool. Stored records are read lazily, on the first request for
    /// their class.
    pub fn start(config: &ServeConfig, store: Option<Store>) -> ServeCore {
        let options =
            SynthesisOptions::new(config.library, config.engine).with_max_depth(config.max_depth);
        let options = match config.time_budget {
            Some(budget) => options.with_time_budget(budget),
            None => options,
        };
        let shared = Arc::new(Shared {
            queue: WorkQueue::bounded(config.queue_capacity.max(1)),
            cache: SpecCache::with_store(store, &qsyn_store::library_config(config.library)),
            inflight: Mutex::new(HashMap::new()),
            metrics: Metrics::new(),
            options,
            read_timeout: config.read_timeout,
            write_timeout: config.write_timeout,
            max_connections: config.max_connections.max(1),
            active_connections: Mutex::new(0),
            slot_freed: Condvar::new(),
            closing: AtomicBool::new(false),
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("qsyn-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn serve worker")
            })
            .collect();
        ServeCore {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// Answers one synthesis request: store hit, in-flight join, or cold
    /// scheduling — see the module docs for the flow.
    ///
    /// # Errors
    ///
    /// [`ServeError`]; [`ServeError::is_retryable`] tells transient from
    /// deterministic failures.
    pub fn request(&self, name: &str, spec: &Spec) -> Result<ServedResult, ServeError> {
        let start = Instant::now();
        let m = &self.shared.metrics;
        Metrics::inc(&m.requests);
        let finish = |outcome: Result<ServedResult, ServeError>| {
            m.latency.record(start.elapsed().as_micros() as u64);
            if outcome.is_err() {
                Metrics::inc(&m.errors);
            }
            outcome
        };
        let canonical = canonicalize(spec);
        let answer = |source, record: Arc<StoredCircuit>| ServedResult {
            source,
            permutation: canonical.compose(&record.permutation),
            record,
            elapsed: start.elapsed(),
        };
        let hit = |record| {
            Metrics::inc(&m.hits);
            finish(Ok(answer(Source::Store, record)))
        };
        match self.shared.cache.lookup(&canonical.spec) {
            Lookup::Hit(record) => return hit(record),
            Lookup::Miss(Some(reason)) => {
                eprintln!(
                    "qsyn-serve: store record skipped for {name}: {reason} (synthesized fresh)"
                );
            }
            Lookup::Miss(None) => {}
        }
        if self.shared.closing.load(Ordering::SeqCst) {
            m.latency.record(start.elapsed().as_micros() as u64);
            return Err(ServeError::ShuttingDown);
        }
        let slot = {
            let mut inflight = self.shared.inflight.lock().expect("inflight lock");
            // Re-check the memo under the lock: a worker publishes to the
            // memo *before* retiring its in-flight entry, so a class
            // absent from both is genuinely cold.
            if let Some(record) = self.shared.cache.memo_get(&canonical.spec) {
                return hit(record);
            }
            if let Some(slot) = inflight.get(&canonical.spec) {
                Metrics::inc(&m.inflight_dedup);
                Arc::clone(slot)
            } else {
                let slot = Arc::new(Slot::new());
                let job = Job {
                    canonical: canonical.spec.clone(),
                    name: name.to_string(),
                    slot: Arc::clone(&slot),
                };
                if self.shared.queue.try_push(job).is_err() {
                    Metrics::inc(&m.rejected);
                    m.latency.record(start.elapsed().as_micros() as u64);
                    return Err(ServeError::Overloaded {
                        pending: self.shared.queue.pending(),
                    });
                }
                Metrics::inc(&m.misses);
                inflight.insert(canonical.spec.clone(), Arc::clone(&slot));
                slot
            }
        };
        finish(slot.wait().map(|record| answer(Source::Engine, record)))
    }

    /// Warm-start: runs `jobs` through the normal request path (so
    /// already-stored classes cost a lookup and cold ones synthesize),
    /// blocking until each lands. Returns `(served, failed)`.
    pub fn preload(&self, jobs: &[(String, Spec)]) -> (usize, usize) {
        let mut served = 0;
        let mut failed = 0;
        for (name, spec) in jobs {
            loop {
                match self.request(name, spec) {
                    Ok(_) => {
                        served += 1;
                        break;
                    }
                    Err(ServeError::Overloaded { .. }) => {
                        // Preload is the one caller that wants back-pressure
                        // over rejection: wait for the queue to drain.
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    Err(_) => {
                        failed += 1;
                        break;
                    }
                }
            }
        }
        (served, failed)
    }

    /// Counters + store gauges, for `STATS` and `--stats`.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let cache = &self.shared.cache;
        let (records, bytes) = match cache.store_stats() {
            Some(s) => (s.records as u64, s.file_bytes),
            None => (cache.len() as u64, 0),
        };
        self.shared.metrics.snapshot(records, bytes)
    }

    /// Compacts the attached circuit store (the wire `compact` verb and
    /// `qsyn store compact`'s daemon-side twin), updating the
    /// `compactions` / `reclaimed_bytes` metrics on success.
    ///
    /// # Errors
    ///
    /// `(message, retryable)`: not-retryable when no store is attached,
    /// otherwise per [`qsyn_store::StoreError::is_retryable`].
    pub fn compact_store(&self) -> Result<CompactionReport, (String, bool)> {
        let no_store = || {
            (
                "no circuit store attached to this daemon".to_string(),
                false,
            )
        };
        let report = (self.shared.cache.compact_store().ok_or_else(no_store)?)
            .map_err(|e| (e.to_string(), e.is_retryable()))?;
        Metrics::inc(&self.shared.metrics.compactions);
        Metrics::add(&self.shared.metrics.reclaimed_bytes, report.reclaimed());
        Ok(report)
    }

    /// Flags the daemon as draining: subsequent cold misses are refused
    /// (hits still serve) and [`serve_tcp`] stops accepting within one
    /// accept-loop tick.
    pub fn begin_shutdown(&self) {
        self.shared.closing.store(true, Ordering::SeqCst);
    }

    /// `true` once [`begin_shutdown`](Self::begin_shutdown) was called.
    pub fn is_closing(&self) -> bool {
        self.shared.closing.load(Ordering::SeqCst)
    }

    /// Drains the queue, stops the workers and returns the final
    /// snapshot. Idempotent.
    pub fn stop(&self) -> MetricsSnapshot {
        self.begin_shutdown();
        self.shared.queue.close();
        let workers = std::mem::take(&mut *self.workers.lock().expect("workers lock"));
        for w in workers {
            let _ = w.join();
        }
        self.snapshot()
    }
}

impl Drop for ServeCore {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Process-wide drain request, set by the signal handlers installed via
/// [`install_drain_signals`] and polled by [`serve_tcp`]'s accept loop.
static DRAIN_REQUESTED: AtomicBool = AtomicBool::new(false);

/// `true` once a `SIGTERM`/`SIGINT` drain was requested (handlers must
/// have been installed first).
pub fn drain_requested() -> bool {
    DRAIN_REQUESTED.load(Ordering::SeqCst)
}

/// Installs `SIGTERM` and `SIGINT` handlers that flag a graceful drain
/// (see the module docs) instead of killing the process. Call once,
/// before [`serve_tcp`]; idempotent. On non-Unix targets this is a no-op
/// and only the wire `shutdown` verb stops the daemon.
///
/// The handler body is a single atomic store — async-signal-safe (no
/// allocation, no locks). The repo carries no libc dependency, so the
/// two POSIX pieces this needs — `signal(2)` and the `SIGTERM`/`SIGINT`
/// numbers, fixed by the Linux/BSD ABIs — are declared locally. The
/// crate has two `unsafe` calls: this registration, and the accept
/// loop's `poll(2)` on the listener. The accept loop sees the flag
/// within one tick; sooner when the signal lands on its own thread and
/// cuts its `poll` short (`EINTR`).
pub fn install_drain_signals() {
    #[cfg(unix)]
    {
        extern "C" fn flag_drain(_signum: i32) {
            DRAIN_REQUESTED.store(true, Ordering::SeqCst);
        }
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        // SAFETY: `signal` is the POSIX registration call with the
        // documented signature; the handler is an `extern "C" fn(i32)`
        // whose body is one atomic store, which POSIX permits in a
        // handler (async-signal-safe).
        let handler = flag_drain as extern "C" fn(i32) as *const () as usize;
        unsafe {
            signal(SIGTERM, handler);
            signal(SIGINT, handler);
        }
    }
}

/// The worker loop: pop cold jobs, synthesize each under the one
/// supervisor (one attempt, fresh token, panic contained) and the
/// options' budgets, publish through the cache (memo, then store), fill
/// the waiters' slot.
fn worker_loop(shared: &Arc<Shared>) {
    let mut session = SynthesisSession::new();
    while let Some(job) = shared.queue.pop() {
        // The class may have landed while this job sat in the queue
        // (preload + concurrent client): serve it without an engine.
        if let Some(record) = shared.cache.memo_get(&job.canonical) {
            publish(shared, job, Ok(record));
            continue;
        }
        Metrics::inc(&shared.metrics.engine_invocations);
        // The supervisor hands each attempt a fresh token, so the
        // template's budgets re-arm from zero for every request
        // (ResourceGovernor deadlines are first-arming-wins per token).
        let (status, _) = supervise(
            &qsyn_portfolio::RetryPolicy::none(),
            &CancelToken::new(),
            &mut session,
            |token, session, _| {
                let options = shared.options.clone().with_cancel_token(token.clone());
                synthesize_with_output_permutation_in(&job.canonical, &options, session)
            },
        );
        match status {
            JobStatus::Done(r) | JobStatus::Degraded { result: r, .. } => {
                let (record, write_error) = shared.cache.publish(&job.canonical, &job.name, &r);
                if let Some(e) = write_error {
                    // Served from memory regardless; the record is
                    // re-synthesized after a restart. Count it.
                    Metrics::inc(&shared.metrics.errors);
                    eprintln!("qsyn-serve: store write failed for {}: {e}", job.name);
                }
                publish(shared, job, Ok(record));
            }
            JobStatus::Failed(e) => publish(shared, job, Err(ServeError::Synthesis(e))),
            JobStatus::Panicked(p) => {
                eprintln!("qsyn-serve: worker on {}: {p}", job.name);
                publish(shared, job, Err(ServeError::WorkerPanicked));
            }
        }
    }
}

/// Publishes a finished job to its waiters: slot fill, then in-flight
/// retirement. A successful record is already in the memo, so a request
/// that misses both the memo and the in-flight map is genuinely cold.
fn publish(shared: &Arc<Shared>, job: Job, outcome: Result<Arc<StoredCircuit>, ServeError>) {
    job.slot.fill(outcome);
    shared
        .inflight
        .lock()
        .expect("inflight lock")
        .remove(&job.canonical);
}

/// The accept loop's one tick. It bounds three waits: how long the loop
/// waits for a connection before it re-checks its stop flags, how long
/// an accept at the connection cap waits for a slot to free, and how
/// long a refused connection is drained before it closes. Connections
/// never wait for the tick to run out: the loop wakes when one arrives.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// Serves the line protocol on `listener` until a `shutdown` verb
/// arrives or a drain signal fires (see [`install_drain_signals`]), then
/// drains — joins the connection threads so every in-flight job answers,
/// stops the workers — and returns the final snapshot. One thread per
/// connection, at most [`ServeConfig::max_connections`] at a time.
///
/// # Errors
///
/// Only on accept-loop I/O failures; per-connection errors are answered
/// on the wire and logged, never fatal.
pub fn serve_tcp(listener: TcpListener, core: &Arc<ServeCore>) -> std::io::Result<MetricsSnapshot> {
    // Non-blocking accepts + a bounded readiness wait: a connection is
    // accepted the moment it arrives, and the loop still observes the
    // closing and drain flags within ACCEPT_POLL without needing a
    // wake-up connection (the old shutdown path's self-connect hack).
    listener.set_nonblocking(true)?;
    let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        if drain_requested() {
            core.begin_shutdown();
        }
        if core.is_closing() {
            break;
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                connections.retain(|h| !h.is_finished());
                wait_for_connection(&listener, ACCEPT_POLL);
                continue;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        // Some platforms hand out accepted sockets non-blocking, like the
        // listener; the per-socket timeouts below need blocking ones.
        if let Err(e) = stream.set_nonblocking(false) {
            eprintln!("qsyn-serve: connection setup failed: {e}");
            continue;
        }
        // A client's next connection can arrive before the thread serving
        // its last one has seen EOF, so a full cap waits one tick for a
        // slot before it refuses.
        let Some(slot) = ConnectionSlot::reserve(core, ACCEPT_POLL) else {
            Metrics::inc(&core.shared.metrics.connections_refused);
            refuse_connection(stream, core.shared.write_timeout);
            continue;
        };
        // The slot is released when the thread's closure is dropped: on
        // return, on unwind, or — when the spawn itself fails — by the
        // failed spawn dropping the unrun closure.
        let spawned = std::thread::Builder::new()
            .name("qsyn-serve-conn".to_string())
            .spawn(move || {
                if let Err(e) = handle_connection(stream, &slot.0) {
                    eprintln!("qsyn-serve: connection error: {e}");
                }
            });
        match spawned {
            Ok(handle) => {
                connections.push(handle);
                connections.retain(|h| !h.is_finished());
            }
            Err(e) => eprintln!("qsyn-serve: spawn failed: {e}"),
        }
    }
    // Drain: connection threads finish their in-flight requests (workers
    // are still running and filling slots) and idle ones are reaped by
    // their read timeout.
    for h in connections {
        let _ = h.join();
    }
    Ok(core.stop())
}

/// Blocks until `listener` has a connection waiting or `timeout` passes,
/// whichever comes first; a signal (`EINTR`) only ends the wait early.
/// Unix waits with `poll(2)` on the listener. The repo carries no libc
/// dependency, so `poll`, `struct pollfd` and `POLLIN` are declared
/// locally, as `signal(2)` is in [`install_drain_signals`].
#[cfg(unix)]
fn wait_for_connection(listener: &TcpListener, timeout: Duration) {
    use std::os::unix::io::AsRawFd;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    /// `nfds_t`: `unsigned long` on Linux/Android, `unsigned int` on
    /// Apple and the BSDs.
    #[cfg(any(target_os = "linux", target_os = "android"))]
    type Nfds = std::ffi::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    type Nfds = std::ffi::c_uint;
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout_ms: i32) -> i32;
    }
    const POLLIN: i16 = 0x1;

    let mut fd = PollFd {
        fd: listener.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let timeout_ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
    // SAFETY: `poll` is the POSIX call with the documented signature;
    // `fd` is one live, exclusively borrowed `pollfd` (matching
    // `nfds = 1`) for the whole call, and the borrowed listener keeps
    // its descriptor open.
    let ready = unsafe { poll(&mut fd, 1, timeout_ms) };
    if ready < 0 && std::io::Error::last_os_error().kind() != ErrorKind::Interrupted {
        // A poll that keeps failing must not turn the loop into a spin.
        std::thread::sleep(timeout);
    }
}

/// Non-Unix targets have no readiness wait here: sleep out the tick.
#[cfg(not(unix))]
fn wait_for_connection(_listener: &TcpListener, timeout: Duration) {
    std::thread::sleep(timeout);
}

/// One reserved connection slot of the [`ServeConfig::max_connections`]
/// cap, held by the connection thread and released on drop — so a
/// connection thread that unwinds cannot leak its slot.
struct ConnectionSlot(Arc<ServeCore>);

impl ConnectionSlot {
    /// Takes a slot, waiting up to `patience` for one to free while the
    /// cap is full; `None` when none freed in time. The cap is never
    /// exceeded.
    fn reserve(core: &Arc<ServeCore>, patience: Duration) -> Option<ConnectionSlot> {
        let shared = &core.shared;
        let deadline = Instant::now() + patience;
        let mut active = shared
            .active_connections
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while *active >= shared.max_connections {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            active = shared
                .slot_freed
                .wait_timeout(active, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        *active += 1;
        Some(ConnectionSlot(Arc::clone(core)))
    }
}

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        let shared = &self.0.shared;
        *shared
            .active_connections
            .lock()
            .unwrap_or_else(PoisonError::into_inner) -= 1;
        shared.slot_freed.notify_one();
    }
}

/// Answers an over-cap accept with one retryable `overloaded` line, then
/// closes with a linger: shut the write side, discard what the client
/// sends until it closes, for at most one [`ACCEPT_POLL`] tick. Closing
/// with the client's request unread would reset the connection, and the
/// reset can beat the line to the client. Best-effort throughout.
fn refuse_connection(mut stream: TcpStream, write_timeout: Option<Duration>) {
    let _ = stream.set_write_timeout(write_timeout);
    let line = protocol::render_error("overloaded: connection limit reached, retry later", true);
    if stream.write_all(format!("{line}\n").as_bytes()).is_err() {
        return;
    }
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + ACCEPT_POLL;
    let mut discard = [0u8; 512];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return;
        }
        // EOF, a reset or the timeout ends the linger.
        if !matches!(stream.read(&mut discard), Ok(n) if n > 0) {
            return;
        }
    }
}

/// `true` for the error kinds a fired socket timeout surfaces as
/// (platform-dependent: `WouldBlock` on Unix, `TimedOut` on Windows).
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// One client connection: read request lines until EOF, answer each. A
/// read or write hitting its socket timeout reaps the connection (clean
/// return, `socket_timeouts` counted) instead of pinning the thread.
fn handle_connection(stream: TcpStream, core: &Arc<ServeCore>) -> std::io::Result<()> {
    stream.set_read_timeout(core.shared.read_timeout)?;
    stream.set_write_timeout(core.shared.write_timeout)?;
    let mut writer = stream.try_clone()?;
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let line = match line {
            Ok(line) => line,
            Err(e) if is_timeout(&e) => {
                Metrics::inc(&core.shared.metrics.socket_timeouts);
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        if line.trim().is_empty() {
            continue;
        }
        // One write per line: reply and newline leave in one segment.
        let mut reply = dispatch(core, &line);
        reply.push('\n');
        if let Err(e) = writer.write_all(reply.as_bytes()) {
            if is_timeout(&e) {
                Metrics::inc(&core.shared.metrics.socket_timeouts);
                return Ok(());
            }
            return Err(e);
        }
        if core.is_closing() {
            break;
        }
    }
    Ok(())
}

/// Executes one request line and renders its reply line.
fn dispatch(core: &Arc<ServeCore>, line: &str) -> String {
    if protocol::retry_header(line).is_some() {
        Metrics::inc(&core.shared.metrics.client_retries);
    }
    match protocol::parse_request(line) {
        Err(e) => protocol::render_error(&e, false),
        Ok(protocol::Request::Ping) => protocol::render_pong(),
        Ok(protocol::Request::Stats) => protocol::render_stats(&core.snapshot()),
        Ok(protocol::Request::Compact) => match core.compact_store() {
            Ok(report) => protocol::render_compacted(&report),
            Err((message, retryable)) => protocol::render_error(&message, retryable),
        },
        Ok(protocol::Request::Shutdown) => {
            // The accept loop observes the flag within one tick.
            core.begin_shutdown();
            protocol::render_closing()
        }
        Ok(protocol::Request::Synth { name, spec, bench }) => {
            let (name, spec) = match resolve_spec(name, spec, bench) {
                Ok(pair) => pair,
                Err(e) => return protocol::render_error(&e, false),
            };
            match core.request(&name, &spec) {
                Ok(served) => protocol::render_synth_reply(&protocol::SynthReply {
                    source: served.source.as_str().to_string(),
                    name,
                    depth: served.record.depth,
                    solutions: served.record.count_display(),
                    quantum_cost: served.record.quantum_cost,
                    permutation: served.permutation,
                    circuit: served.record.circuit.clone(),
                    elapsed_us: served.elapsed.as_micros() as u64,
                }),
                Err(e) => protocol::render_error(&e.to_string(), e.is_retryable()),
            }
        }
    }
}

/// Resolves a synth request's `spec`/`bench` fields to a named [`Spec`].
fn resolve_spec(
    name: Option<String>,
    spec: Option<String>,
    bench: Option<String>,
) -> Result<(String, Spec), String> {
    if let Some(bench) = bench {
        let b = qsyn_revlogic::benchmarks::by_name(&bench)
            .ok_or_else(|| format!("unknown benchmark {bench:?}"))?;
        return Ok((name.unwrap_or_else(|| bench.clone()), b.spec));
    }
    let text = spec.ok_or("synth needs a \"spec\" or a \"bench\" field")?;
    let parsed = qsyn_revlogic::spec_format::parse_spec(&text).map_err(|e| e.to_string())?;
    Ok((name.unwrap_or_else(|| "spec".to_string()), parsed))
}

/// Client retry policy for [`roundtrip_with_retry`]: capped exponential
/// backoff with deterministic seeded jitter.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Maximum retries after the first attempt (`qsyn query --retries`).
    pub retries: u32,
    /// Total wall-clock allowance across all attempts and sleeps
    /// (`--retry-budget`); a delay that would overrun it ends the loop.
    pub budget: Duration,
    /// First backoff delay; doubles per retry.
    pub base: Duration,
    /// Ceiling on any single delay.
    pub cap: Duration,
    /// Jitter seed. The schedule is a pure function of the policy, so a
    /// fixed seed reproduces the exact delays (tests rely on this); live
    /// clients seed per-process so synchronized retry herds decorrelate.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            retries: 4,
            budget: Duration::from_secs(30),
            base: Duration::from_millis(50),
            cap: Duration::from_secs(2),
            seed: 0,
        }
    }
}

/// splitmix64 step — the repo's standard cheap deterministic generator.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The full backoff schedule a policy produces: delay `i` is jittered
/// uniformly (by seeded splitmix64) into `[d/2, d]` for
/// `d = min(cap, base · 2^i)` — equal-jitter backoff, deterministic in
/// the seed. Pure, so tests can pin exact schedules.
pub fn backoff_schedule(policy: &RetryPolicy) -> Vec<Duration> {
    let mut state = policy.seed ^ 0x6a09_e667_f3bc_c908;
    (0..policy.retries)
        .map(|attempt| {
            let capped = policy
                .base
                .saturating_mul(1u32 << attempt.min(16))
                .min(policy.cap);
            let half = capped / 2;
            let span_us = (capped - half).as_micros() as u64;
            let jitter_us = if span_us == 0 {
                0
            } else {
                splitmix64(&mut state) % (span_us + 1)
            };
            half + Duration::from_micros(jitter_us)
        })
        .collect()
}

/// What [`roundtrip_with_retry`] settled on.
#[derive(Clone, Debug)]
pub struct RetryOutcome {
    /// The final reply line (which may still be a non-retryable error —
    /// the caller renders it either way).
    pub reply: String,
    /// Retries performed after the first attempt.
    pub retries: u32,
}

/// [`roundtrip`] plus the protocol's retry contract: a reply with
/// `"retryable":1` (overload, drain window, exhausted budget) or a
/// connect/I-O failure is retried on the policy's backoff schedule, each
/// retry carrying a `"retry":N` header so the daemon's `client_retries`
/// metric observes it. Stops on the first non-retryable reply, when
/// retries run out, or when the next delay would overrun the budget —
/// returning the last attempt's outcome unchanged.
///
/// # Errors
///
/// The last attempt's I/O error, when even the final retry could not
/// complete a round trip.
pub fn roundtrip_with_retry(
    addr: &str,
    line: &str,
    policy: &RetryPolicy,
) -> std::io::Result<RetryOutcome> {
    let schedule = backoff_schedule(policy);
    let started = Instant::now();
    let mut retries = 0u32;
    loop {
        let request = if retries == 0 {
            line.to_string()
        } else {
            protocol::with_retry_header(line, u64::from(retries))
        };
        let attempt = roundtrip(addr, &request);
        let transient = match &attempt {
            Ok(reply) => matches!(protocol::parse_error(reply), Some((_, true))),
            // Connect refused / reset: the daemon may be mid-drain or
            // restarting — exactly what the backoff is for.
            Err(_) => true,
        };
        if !transient || (retries as usize) >= schedule.len() {
            return attempt.map(|reply| RetryOutcome { reply, retries });
        }
        let delay = schedule[retries as usize];
        if started.elapsed() + delay > policy.budget {
            return attempt.map(|reply| RetryOutcome { reply, retries });
        }
        std::thread::sleep(delay);
        retries += 1;
    }
}

/// Client helper: one request line, one reply line, over a fresh
/// connection.
///
/// # Errors
///
/// Propagates connection and I/O failures; a daemon that closes without
/// replying surfaces as `UnexpectedEof`.
pub fn roundtrip(addr: &str, line: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(format!("{line}\n").as_bytes())?;
    let mut reply = String::new();
    let mut reader = BufReader::new(stream);
    reader.read_line(&mut reply)?;
    if reply.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "daemon closed the connection without replying",
        ));
    }
    Ok(reply.trim_end().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsyn_revlogic::{real, Circuit, Permutation};

    fn cnot_spec() -> Spec {
        Spec::from_permutation(&Permutation::from_map(2, vec![0, 3, 2, 1]))
    }

    /// The same function phrased under a different output permutation —
    /// output bits of [`cnot_spec`] swapped (`f'(x) = swap(f(x))`): must
    /// hit the same canonical record.
    fn cnot_spec_swapped() -> Spec {
        Spec::from_permutation(&Permutation::from_map(2, vec![0, 3, 1, 2]))
    }

    fn quick_config() -> ServeConfig {
        ServeConfig {
            workers: 1,
            queue_capacity: 4,
            max_depth: 6,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn second_request_is_a_store_hit_without_an_engine() {
        let core = ServeCore::start(&quick_config(), None);
        let first = core.request("cnot", &cnot_spec()).unwrap();
        assert_eq!(first.source, Source::Engine);
        let invocations_after_first = core.snapshot().engine_invocations;
        assert_eq!(invocations_after_first, 1);

        let second = core.request("cnot", &cnot_spec()).unwrap();
        assert_eq!(second.source, Source::Store);
        // Equivalent-under-permutation request also hits, with a
        // different composed permutation.
        let third = core.request("cnot-swapped", &cnot_spec_swapped()).unwrap();
        assert_eq!(third.source, Source::Store);
        assert!(cnot_spec_swapped().num_rows() > 0);

        let s = core.snapshot();
        assert_eq!(s.engine_invocations, 1, "repeats must not re-synthesize");
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 1);
        assert_eq!(s.requests, 3);

        // Every reply's circuit must realize the requested spec through
        // its composed permutation.
        for (spec, served) in [(cnot_spec(), &second), (cnot_spec_swapped(), &third)] {
            let circuit = real::parse_real(&served.record.circuit).unwrap();
            for row in 0..spec.num_rows() as u32 {
                let out = circuit.simulate(row);
                let sr = spec.row(row);
                for (j, &p) in served.permutation.iter().enumerate() {
                    let bit = 1u32 << j;
                    if sr.care & bit != 0 {
                        assert_eq!((out >> p) & 1, (sr.value >> j) & 1, "row {row} line {j}");
                    }
                }
            }
        }
    }

    #[test]
    fn disk_store_round_trips_through_restart() {
        let path =
            std::env::temp_dir().join(format!("qsyn-serve-restart-{}.qstore", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let store = Store::open(&path).unwrap();
            let core = ServeCore::start(&quick_config(), Some(store));
            core.request("cnot", &cnot_spec()).unwrap();
            assert_eq!(core.snapshot().store_records, 1);
            core.stop();
        }
        // A restarted daemon serves the class from disk: zero engine
        // invocations.
        let store = Store::open(&path).unwrap();
        assert_eq!(store.truncated_tail_bytes(), 0);
        let core = ServeCore::start(&quick_config(), Some(store));
        let served = core.request("cnot", &cnot_spec()).unwrap();
        assert_eq!(served.source, Source::Store);
        let s = core.snapshot();
        assert_eq!(s.engine_invocations, 0);
        assert_eq!(s.hits, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn admission_control_bounces_when_the_queue_is_full() {
        // Filling the core's queue deterministically would need a worker
        // paused mid-job; exercise the primitive and the error mapping
        // directly instead (the request-path plumbing is three lines).
        let q: WorkQueue<u32> = WorkQueue::bounded(1);
        q.try_push(1).unwrap();
        assert!(q.try_push(2).is_err());
        // The ServeError it maps to is retryable.
        let e = ServeError::Overloaded { pending: 1 };
        assert!(e.is_retryable());
        assert!(e.to_string().contains("overloaded"));
    }

    #[test]
    fn preload_then_requests_all_hit() {
        let core = ServeCore::start(&quick_config(), None);
        let jobs: Vec<(String, Spec)> = vec![
            ("cnot".to_string(), cnot_spec()),
            ("cnot-swapped".to_string(), cnot_spec_swapped()),
        ];
        let (served, failed) = core.preload(&jobs);
        assert_eq!((served, failed), (2, 0));
        // Both phrasings share one class: one engine run total.
        assert_eq!(core.snapshot().engine_invocations, 1);
        let r = core.request("again", &cnot_spec()).unwrap();
        assert_eq!(r.source, Source::Store);
        assert_eq!(core.snapshot().engine_invocations, 1);
    }

    #[test]
    fn plain_preload_records_replay_correctly_for_every_class_member() {
        // SWAP's class contains the identity, so its canonical
        // representative needs zero gates. The worker solves the
        // *canonical* spec, so the stored record must still answer the
        // original phrasing through permutation composition.
        let swap = Spec::from_permutation(&Permutation::from_map(2, vec![0, 2, 1, 3]));
        let core = ServeCore::start(&quick_config(), None);
        let (served, failed) = core.preload(&[("swap".to_string(), swap.clone())]);
        assert_eq!((served, failed), (1, 0));

        let r = core.request("swap-again", &swap).unwrap();
        assert_eq!(r.source, Source::Store);
        assert_eq!(
            core.snapshot().engine_invocations,
            1,
            "the preload fill is the only engine run"
        );
        let circuit = real::parse_real(&r.record.circuit).unwrap();
        for row in 0..swap.num_rows() as u32 {
            let out = circuit.simulate(row);
            let sr = swap.row(row);
            for (j, &p) in r.permutation.iter().enumerate() {
                let bit = 1u32 << j;
                if sr.care & bit != 0 {
                    assert_eq!((out >> p) & 1, (sr.value >> j) & 1, "row {row} line {j}");
                }
            }
        }
    }

    /// The served circuit, read through the served permutation, must
    /// reproduce `spec` on every cared bit.
    fn assert_realizes(spec: &Spec, circuit: &str, permutation: &[u32]) {
        let circuit = real::parse_real(circuit).unwrap();
        for row in 0..spec.num_rows() as u32 {
            let out = circuit.simulate(row);
            let sr = spec.row(row);
            for (j, &p) in permutation.iter().enumerate() {
                if sr.care & (1 << j) != 0 {
                    assert_eq!((out >> p) & 1, (sr.value >> j) & 1, "row {row} line {j}");
                }
            }
        }
    }

    /// A store at a fresh temp path holding `bad` for 3_17's class.
    fn store_with_bad_3_17_record(tag: &str, bad: BadRecord) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!(
            "qsyn-serve-bad-{tag}-{}.qstore",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let canonical = canonicalize(&bench_3_17()).spec;
        Store::open(&path).unwrap().put(bad(&canonical)).unwrap();
        path
    }

    type BadRecord = fn(&Spec) -> StoredCircuit;

    fn bench_3_17() -> Spec {
        qsyn_revlogic::benchmarks::by_name("3_17").unwrap().spec
    }

    /// Zero solutions and no circuit: a record that can never replay.
    fn zero_solution_record(canonical: &Spec) -> StoredCircuit {
        StoredCircuit::for_spec(
            canonical,
            "MCT",
            "3_17",
            0,
            0,
            0,
            true,
            (0..canonical.lines()).collect(),
            String::new(),
        )
    }

    /// A parsable circuit with a permutation covering one line of three.
    fn short_permutation_record(canonical: &Spec) -> StoredCircuit {
        StoredCircuit::for_spec(
            canonical,
            "MCT",
            "3_17",
            0,
            0,
            1,
            true,
            vec![0],
            real::write_real(&Circuit::new(canonical.lines())),
        )
    }

    #[test]
    fn unusable_stored_records_are_resynthesized_and_superseded() {
        let bad_records: [(&str, BadRecord); 2] = [
            ("zero", zero_solution_record),
            ("short", short_permutation_record),
        ];
        for (tag, bad) in bad_records {
            let path = store_with_bad_3_17_record(tag, bad);
            let core = ServeCore::start(&quick_config(), Some(Store::open(&path).unwrap()));
            let spec = bench_3_17();
            let served = core.request("3_17", &spec).unwrap();
            assert_eq!(served.source, Source::Engine, "{tag}");
            assert_eq!(served.record.depth, 5, "{tag}");
            assert_realizes(&spec, &served.record.circuit, &served.permutation);
            core.stop();

            // The fresh record superseded the bad one on disk.
            let store = Store::open(&path).unwrap();
            let canonical = canonicalize(&spec).spec;
            let stored = store.get(&canonical, "MCT").unwrap().unwrap();
            assert_eq!(stored.depth, 5, "{tag}");
            assert!(stored.solution_count > 0, "{tag}");
            assert_eq!(stored.permutation.len(), 3, "{tag}");
            assert!(store.dead_bytes() > 0, "{tag}: the bad frame is dead bytes");
            store.verify().unwrap();
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn unusable_stored_record_over_tcp_answers_and_frees_its_connection() {
        let path = store_with_bad_3_17_record("tcp", short_permutation_record);
        let (addr, core, server) = boot_tcp(&quick_config(), Some(Store::open(&path).unwrap()));
        let line = protocol::render_synth_request(None, None, Some("3_17"));
        let reply = protocol::parse_synth_reply(&roundtrip(&addr, &line).unwrap()).unwrap();
        assert_eq!(reply.source, "engine");
        assert_eq!(reply.depth, 5);
        assert_realizes(&bench_3_17(), &reply.circuit, &reply.permutation);
        // The connection thread observes the client's close and releases
        // its slot.
        let active = || active_connections(&core);
        for _ in 0..250 {
            if active() == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(active(), 0);
        roundtrip(&addr, &protocol::render_verb_request("shutdown")).unwrap();
        server.join().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    fn active_connections(core: &ServeCore) -> usize {
        *core.shared.active_connections.lock().unwrap()
    }

    #[test]
    fn connection_slot_is_released_when_its_thread_panics() {
        let core = Arc::new(ServeCore::start(&quick_config(), None));
        let slot = ConnectionSlot::reserve(&core, Duration::ZERO).unwrap();
        assert_eq!(active_connections(&core), 1);
        let unwound = std::thread::spawn(move || {
            let _slot = slot;
            panic!("connection thread unwinds");
        })
        .join();
        assert!(unwound.is_err());
        assert_eq!(active_connections(&core), 0);
    }

    #[test]
    fn errors_are_not_cached() {
        let mut config = quick_config();
        config.max_depth = 0; // CNOT needs 1 gate: depth cap trips
        let core = ServeCore::start(&config, None);
        let err = core.request("cnot", &cnot_spec()).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Synthesis(SynthesisError::DepthLimitReached { .. })
        ));
        assert!(!err.is_retryable());
        let s = core.snapshot();
        assert_eq!(s.errors, 1);
        assert_eq!(s.store_records, 0, "failures must not enter the store");
        // The in-flight entry was retired: a retry schedules a fresh job
        // (and fails the same way) instead of deadlocking.
        let err = core.request("cnot", &cnot_spec()).unwrap_err();
        assert!(matches!(err, ServeError::Synthesis(_)));
    }

    #[test]
    fn tcp_round_trip_hit_miss_stats_shutdown() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let core = Arc::new(ServeCore::start(&quick_config(), None));
        let server = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || serve_tcp(listener, &core).unwrap())
        };

        let ping = roundtrip(&addr, &protocol::render_verb_request("ping")).unwrap();
        assert_eq!(ping, protocol::render_pong());

        // Cold miss by benchmark name…
        let line = protocol::render_synth_request(None, None, Some("3_17"));
        let reply = protocol::parse_synth_reply(&roundtrip(&addr, &line).unwrap()).unwrap();
        assert_eq!(reply.source, "engine");
        assert_eq!(reply.name, "3_17");
        assert!(reply.depth > 0);
        // …then a repeat: served from the store, no new engine run.
        let reply2 = protocol::parse_synth_reply(&roundtrip(&addr, &line).unwrap()).unwrap();
        assert_eq!(reply2.source, "store");
        assert_eq!(reply2.depth, reply.depth);
        assert_eq!(reply2.circuit, reply.circuit);

        let stats_line = roundtrip(&addr, &protocol::render_verb_request("stats")).unwrap();
        let stats = protocol::parse_stats(&stats_line).unwrap();
        assert_eq!(stats.engine_invocations, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);

        // Bad requests answer on the wire, they don't kill the daemon.
        let (msg, retryable) =
            protocol::parse_error(&roundtrip(&addr, "{\"verb\":\"nope\"}").unwrap()).unwrap();
        assert!(msg.contains("nope"));
        assert!(!retryable);

        let bye = roundtrip(&addr, &protocol::render_verb_request("shutdown")).unwrap();
        assert_eq!(bye, protocol::render_closing());
        let final_stats = server.join().unwrap();
        assert_eq!(final_stats.engine_invocations, 1);
    }

    /// Boots a TCP daemon with `config`, returning its address, core and
    /// server thread.
    fn boot_tcp(
        config: &ServeConfig,
        store: Option<Store>,
    ) -> (
        String,
        Arc<ServeCore>,
        std::thread::JoinHandle<MetricsSnapshot>,
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let core = Arc::new(ServeCore::start(config, store));
        let server = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || serve_tcp(listener, &core).unwrap())
        };
        (addr, core, server)
    }

    #[test]
    fn silent_client_is_disconnected_within_the_read_timeout() {
        let mut config = quick_config();
        config.read_timeout = Some(Duration::from_millis(150));
        let (addr, _core, server) = boot_tcp(&config, None);

        // Connect and send nothing: the daemon must reap us, not wait.
        let started = Instant::now();
        let silent = TcpStream::connect(&addr).unwrap();
        silent
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reader = BufReader::new(silent);
        let mut buf = String::new();
        let n = reader.read_line(&mut buf).unwrap();
        assert_eq!(n, 0, "reaped connection closes without data, got {buf:?}");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "read-timeout reap took {:?}",
            started.elapsed()
        );

        let stats_line = roundtrip(&addr, &protocol::render_verb_request("stats")).unwrap();
        let stats = protocol::parse_stats(&stats_line).unwrap();
        assert!(stats.socket_timeouts >= 1, "{stats:?}");

        roundtrip(&addr, &protocol::render_verb_request("shutdown")).unwrap();
        let final_stats = server.join().unwrap();
        assert!(final_stats.socket_timeouts >= 1);
    }

    #[test]
    fn connection_cap_refuses_with_a_retryable_overloaded_line() {
        let mut config = quick_config();
        config.max_connections = 1;
        let (addr, _core, server) = boot_tcp(&config, None);

        // Occupy the single slot, and prove it is registered by finishing
        // a round trip on that connection.
        let holder = TcpStream::connect(&addr).unwrap();
        let mut w = holder.try_clone().unwrap();
        w.write_all(protocol::render_verb_request("ping").as_bytes())
            .unwrap();
        w.write_all(b"\n").unwrap();
        let mut reader = BufReader::new(holder.try_clone().unwrap());
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert_eq!(reply.trim_end(), protocol::render_pong());

        // The second connection is refused with one retryable line.
        let refused = roundtrip(&addr, &protocol::render_verb_request("ping")).unwrap();
        let (msg, retryable) = protocol::parse_error(&refused).unwrap();
        assert!(msg.contains("overloaded"), "{msg}");
        assert!(retryable);

        // Freeing the slot lets the next connection through. All three
        // descriptors (the socket and both clones) must close for the
        // daemon to see EOF.
        drop(reader);
        drop(w);
        drop(holder);
        // The holder's thread must observe the close before the cap
        // frees; poll rather than assume scheduling.
        let mut through = None;
        for _ in 0..100 {
            let reply = roundtrip(&addr, &protocol::render_verb_request("stats")).unwrap();
            if let Some(stats) = protocol::parse_stats(&reply) {
                through = Some(stats);
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let stats = through.expect("a freed slot admits new connections");
        assert!(stats.connections_refused >= 1, "{stats:?}");

        roundtrip(&addr, &protocol::render_verb_request("shutdown")).unwrap();
        server.join().unwrap();
    }

    #[test]
    fn fresh_connections_are_accepted_when_they_arrive_not_on_the_tick() {
        let (addr, _core, server) = boot_tcp(&quick_config(), None);
        let ping = protocol::render_verb_request("ping");
        // Each round trip opens a fresh connection, the way `qsyn query`
        // does; a loop that sleeps out ACCEPT_POLL between accepts would
        // take about 40 ticks here.
        let started = Instant::now();
        for i in 0..40 {
            assert_eq!(
                roundtrip(&addr, &ping).unwrap(),
                protocol::render_pong(),
                "ping {i}"
            );
        }
        let took = started.elapsed();
        assert!(
            took < Duration::from_millis(250),
            "40 fresh pings took {took:?}"
        );
        roundtrip(&addr, &protocol::render_verb_request("shutdown")).unwrap();
        server.join().unwrap();
    }

    #[test]
    fn back_to_back_connections_at_the_cap_are_never_refused() {
        let mut config = quick_config();
        config.max_connections = 1;
        let (addr, core, server) = boot_tcp(&config, None);
        // A closed-loop client's next connection can arrive before the
        // thread serving its last one has seen EOF and freed the slot.
        let ping = protocol::render_verb_request("ping");
        for i in 0..100 {
            assert_eq!(
                roundtrip(&addr, &ping).unwrap(),
                protocol::render_pong(),
                "ping {i}"
            );
        }
        assert_eq!(core.snapshot().connections_refused, 0);
        let bye = roundtrip(&addr, &protocol::render_verb_request("shutdown")).unwrap();
        assert_eq!(bye, protocol::render_closing());
        assert_eq!(server.join().unwrap().connections_refused, 0);
    }

    #[test]
    fn a_full_cap_waits_for_a_slot_then_gives_up() {
        let mut config = quick_config();
        config.max_connections = 1;
        let core = Arc::new(ServeCore::start(&config, None));
        let held = ConnectionSlot::reserve(&core, Duration::ZERO).unwrap();
        assert!(ConnectionSlot::reserve(&core, Duration::from_millis(5)).is_none());
        // A slot freed mid-wait is taken, and the cap still holds.
        let release = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            drop(held);
        });
        let next = ConnectionSlot::reserve(&core, Duration::from_secs(10));
        release.join().unwrap();
        assert!(next.is_some());
        assert_eq!(active_connections(&core), 1);
    }

    #[test]
    fn compact_verb_reclaims_superseded_records_over_the_wire() {
        let path =
            std::env::temp_dir().join(format!("qsyn-serve-compact-{}.qstore", std::process::id()));
        let _ = std::fs::remove_file(&path);
        // Seed a store whose one class was superseded once: dead bytes
        // exist before the daemon boots.
        {
            let mut store = Store::open(&path).unwrap();
            let spec = cnot_spec();
            let record = StoredCircuit::for_spec(
                &spec,
                "MCT",
                "cold",
                1,
                1,
                1,
                true,
                vec![0, 1],
                ".numvars 2\n.variables x1 x2\n.begin\nt2 x1 x2\n.end\n".to_string(),
            );
            store.put(record.clone()).unwrap();
            let mut warm = record;
            warm.name = "warm".to_string();
            store.put_superseding(warm).unwrap();
            assert!(store.dead_bytes() > 0);
        }
        let store = Store::open(&path).unwrap();
        let dead = store.dead_bytes();
        assert!(dead > 0);
        let (addr, _core, server) = boot_tcp(&quick_config(), Some(store));

        let line = roundtrip(&addr, &protocol::render_verb_request("compact")).unwrap();
        let report = protocol::parse_compacted(&line).expect("compact reply");
        assert_eq!(report.reclaimed(), dead);
        assert_eq!(report.records, 1);

        let stats_line = roundtrip(&addr, &protocol::render_verb_request("stats")).unwrap();
        let stats = protocol::parse_stats(&stats_line).unwrap();
        assert_eq!(stats.compactions, 1);
        assert_eq!(stats.reclaimed_bytes, dead);
        assert_eq!(stats.store_bytes, report.bytes_after);

        roundtrip(&addr, &protocol::render_verb_request("shutdown")).unwrap();
        server.join().unwrap();
        // The compacted store reopens clean and still answers.
        let store = Store::open(&path).unwrap();
        assert_eq!(store.truncated_tail_bytes(), 0);
        assert_eq!(store.dead_bytes(), 0);
        assert_eq!(store.len(), 1);
        store.verify().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compact_without_a_store_is_a_clean_not_retryable_error() {
        let core = ServeCore::start(&quick_config(), None);
        let (msg, retryable) = core.compact_store().unwrap_err();
        assert!(msg.contains("no circuit store"), "{msg}");
        assert!(!retryable);
    }

    #[test]
    fn backoff_schedule_is_deterministic_capped_and_jittered() {
        let policy = RetryPolicy {
            retries: 6,
            budget: Duration::from_secs(60),
            base: Duration::from_millis(100),
            cap: Duration::from_millis(800),
            seed: 42,
        };
        let a = backoff_schedule(&policy);
        let b = backoff_schedule(&policy);
        assert_eq!(a, b, "fixed seed must reproduce the exact delays");
        assert_eq!(a.len(), 6);
        for (i, d) in a.iter().enumerate() {
            let nominal = policy.base.saturating_mul(1 << i).min(policy.cap);
            assert!(
                *d >= nominal / 2 && *d <= nominal,
                "delay {i} = {d:?} outside [{:?}, {nominal:?}]",
                nominal / 2
            );
        }
        // Delays grow until the cap region, then stay bounded by it.
        assert!(a[1] > a[0] / 2, "exponential growth dominates jitter");
        assert!(a.iter().all(|d| *d <= policy.cap));
        // A different seed gives a different schedule (jitter is live).
        let other = backoff_schedule(&RetryPolicy { seed: 43, ..policy });
        assert_ne!(a, other);
    }

    #[test]
    fn retry_loop_heals_a_transient_overload_and_reports_the_header() {
        // A hand-rolled one-shot server: first connection gets a
        // retryable overload line, the second (which must carry the
        // retry header) gets a pong.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let fake = std::thread::spawn(move || {
            let mut seen = Vec::new();
            for attempt in 0..2 {
                let (stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                seen.push(line.trim_end().to_string());
                let reply = if attempt == 0 {
                    protocol::render_error("overloaded: try later", true)
                } else {
                    protocol::render_pong()
                };
                let mut w = stream;
                w.write_all(reply.as_bytes()).unwrap();
                w.write_all(b"\n").unwrap();
            }
            seen
        });
        let policy = RetryPolicy {
            retries: 3,
            budget: Duration::from_secs(10),
            base: Duration::from_millis(5),
            cap: Duration::from_millis(20),
            seed: 7,
        };
        let line = protocol::render_verb_request("ping");
        let outcome = roundtrip_with_retry(&addr, &line, &policy).unwrap();
        assert_eq!(outcome.reply, protocol::render_pong());
        assert_eq!(outcome.retries, 1);
        let seen = fake.join().unwrap();
        assert_eq!(protocol::retry_header(&seen[0]), None);
        assert_eq!(
            protocol::retry_header(&seen[1]),
            Some(1),
            "the retry must declare itself: {}",
            seen[1]
        );
    }

    #[test]
    fn retry_loop_stops_on_non_retryable_replies() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let fake = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let mut w = stream;
            w.write_all(protocol::render_error("bad spec", false).as_bytes())
                .unwrap();
            w.write_all(b"\n").unwrap();
        });
        let outcome = roundtrip_with_retry(
            &addr,
            &protocol::render_verb_request("ping"),
            &RetryPolicy::default(),
        )
        .unwrap();
        assert_eq!(outcome.retries, 0, "deterministic failures never retry");
        assert!(outcome.reply.contains("bad spec"));
        fake.join().unwrap();
    }
}
