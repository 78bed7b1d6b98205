//! Deterministic fault injection for the synthesis hot paths.
//!
//! Long-running exact synthesis meets budget trips, worker panics and
//! interrupted batches as a matter of course; the recovery machinery
//! (supervised retries, manager quarantine, crash-safe resume) is only
//! trustworthy if it can be exercised on demand. This crate is the
//! fail-point registry that makes those failures reproducible: a seeded
//! [`FaultPlane`] maps each injection [`Site`] to a **deterministic call
//! count** at which it fires exactly once, and to a [`FaultKind`] drawn
//! from the kinds that site can express.
//!
//! # Zero cost unless compiled in
//!
//! Everything here is gated on the crate feature `enabled`, which consumer
//! crates forward from their own `faults` feature. Without it, [`hit`]
//! is an `#[inline(always)]` function returning `None` — the injection
//! sites threaded through `qsyn-bdd`, `qsyn-core`, `qsyn-portfolio` and
//! `qsyn-store` vanish entirely from release builds. With the
//! feature on but no plan armed, the cost is one relaxed atomic load per
//! site visit.
//!
//! # Determinism contract
//!
//! Arming the plane with the same seed yields the same per-site trigger
//! counts and fault kinds. Within a single thread of execution the Nth
//! visit to a site is deterministic, so single-worker chaos runs replay
//! exactly; with several workers the *schedule* decides which job absorbs
//! the fault, but the recovery invariants under test (retries converge to
//! the fault-free answer, quarantined managers never recirculate, audits
//! hold after recovery) are schedule-independent.
//!
//! Each site fires **once** per arming: recovery paths re-execute the
//! same code, and a fault that re-fired forever would make eventual
//! success unobservable.

#![warn(missing_docs)]

/// An injection site: one named choke point in a hot layer.
///
/// The numeric value indexes the plane's per-site state; keep the list in
/// sync with [`Site::ALL`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Site {
    /// BDD node allocation (`Manager::mk`) — fires a simulated OOM (the
    /// manager latches its overflow flag, exactly as a real node-cap trip).
    BddAlloc,
    /// BDD garbage-collection sweep — fires a simulated mid-collection
    /// interrupt (deadline/cancellation observed at the GC safe point).
    BddGcSweep,
    /// SAT propagation-stride budget probe — aborts CDCL propagation as an
    /// exhausted conflict budget would.
    SatPropagate,
    /// Session manager checkout/reset — panics, modelling a poisoned
    /// manager surfacing while a worker prepares a job.
    SessionCheckout,
    /// Batch scheduler worker, polled once per job — panics or cancels,
    /// modelling a worker crash or a shutdown race.
    SchedulerWorker,
    /// Circuit-store record append (`qsyn-store`), polled before any byte
    /// is written — fires a simulated I/O failure that the store surfaces
    /// as a **retryable** error without touching the log, so an injected
    /// write fault can never corrupt the database.
    StoreAppend,
    /// Incremental clause retention: polled as a depth delta is about to be
    /// fed to a persistent SAT instance — fires a simulated deadline expiry
    /// observed *between* depths, so recovery rebuilds the instance (and
    /// its retained clauses) from scratch.
    SatRetain,
    /// Circuit-store compaction (`qsyn-store`), polled before the live
    /// records are rewritten — fires a simulated I/O failure that the
    /// store surfaces as a **retryable** error with the log untouched, so
    /// an injected compaction fault can never lose a record.
    StoreCompact,
}

impl Site {
    /// Every site, in `repr` order.
    pub const ALL: [Site; 8] = [
        Site::BddAlloc,
        Site::BddGcSweep,
        Site::SatPropagate,
        Site::SessionCheckout,
        Site::SchedulerWorker,
        Site::StoreAppend,
        Site::SatRetain,
        Site::StoreCompact,
    ];

    /// Stable lowercase name, used by chaos reports and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            Site::BddAlloc => "bdd.alloc",
            Site::BddGcSweep => "bdd.gc-sweep",
            Site::SatPropagate => "sat.propagate",
            Site::SessionCheckout => "session.checkout",
            Site::SchedulerWorker => "scheduler.worker",
            Site::StoreAppend => "store.append",
            Site::SatRetain => "sat.retain",
            Site::StoreCompact => "store.compact",
        }
    }

    /// How many visits the trigger count is drawn from: hot sites get a
    /// wide window (the fault lands mid-operation), per-job sites a narrow
    /// one (the fault lands within the first few jobs).
    #[cfg(feature = "enabled")]
    fn trigger_window(self) -> u64 {
        match self {
            // The BDD manager polls this site inside `poll_interrupt` —
            // once per interrupt stride (4096 constructions) or garbage
            // collection — so a narrow window still spans tens of
            // thousands of allocations while keeping the disarmed plane
            // entirely off the `mk` hot path.
            Site::BddAlloc => 12,
            Site::BddGcSweep => 8,
            Site::SatPropagate => 2_000,
            Site::SessionCheckout => 6,
            Site::SchedulerWorker => 4,
            Site::StoreAppend => 4,
            // Polled once per depth query; a narrow window lands the fault
            // within the first few depths of the first incremental run.
            Site::SatRetain => 6,
            // Polled once per compaction; compactions are rare, so the
            // fault must land within the first couple of attempts.
            Site::StoreCompact => 2,
        }
    }

    /// The fault kinds this site can express.
    #[cfg(feature = "enabled")]
    fn kinds(self) -> &'static [FaultKind] {
        match self {
            Site::BddAlloc => &[FaultKind::Oom],
            Site::BddGcSweep => &[FaultKind::Deadline, FaultKind::Cancel],
            Site::SatPropagate => &[FaultKind::Deadline, FaultKind::Cancel],
            Site::SessionCheckout => &[FaultKind::Panic],
            Site::SchedulerWorker => &[FaultKind::Panic, FaultKind::Cancel],
            Site::StoreAppend => &[FaultKind::Io],
            Site::SatRetain => &[FaultKind::Deadline],
            Site::StoreCompact => &[FaultKind::Io],
        }
    }
}

impl std::fmt::Display for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What a firing site simulates. The site's own code decides how each
/// kind manifests in its layer (an overflow latch, an aborted probe, a
/// panic) so the failure is indistinguishable from the organic one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Memory exhaustion: the layer behaves as if its node/memory budget
    /// tripped.
    Oom,
    /// Wall-clock deadline expiry observed at this point.
    Deadline,
    /// Cooperative cancellation observed at this point.
    Cancel,
    /// A worker panic (`panic!` raised at the site).
    Panic,
    /// A failed I/O operation (write/fsync error surfaced at the site).
    Io,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::Oom => write!(f, "oom"),
            FaultKind::Deadline => write!(f, "deadline"),
            FaultKind::Cancel => write!(f, "cancel"),
            FaultKind::Panic => write!(f, "panic"),
            FaultKind::Io => write!(f, "io"),
        }
    }
}

/// Polls a site: `Some(kind)` exactly when the armed plan says this visit
/// is the one that fails. Sites call this unconditionally; without the
/// `enabled` feature it is a compiled-out `None`.
#[inline(always)]
pub fn hit(site: Site) -> Option<FaultKind> {
    #[cfg(feature = "enabled")]
    {
        enabled::hit(site)
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = site;
        None
    }
}

/// The seeded fail-point registry. All state is process-global (the sites
/// are free functions on hot paths); arming replaces any previous plan.
pub struct FaultPlane;

impl FaultPlane {
    /// Arms every site from `seed`: per-site trigger counts and kinds are
    /// derived with splitmix64, so equal seeds give equal schedules.
    /// Counters restart at zero. No-op without the `enabled` feature.
    pub fn arm(seed: u64) {
        #[cfg(feature = "enabled")]
        enabled::arm(seed);
        #[cfg(not(feature = "enabled"))]
        let _ = seed;
    }

    /// Disarms all sites and clears counters.
    pub fn disarm() {
        #[cfg(feature = "enabled")]
        enabled::disarm();
    }

    /// `true` while a seeded plan is armed. Lets callers enable
    /// fault-only safety nets (e.g. the session pool's check-in audit)
    /// exactly when injection can actually corrupt state, keeping the
    /// compiled-in-but-disarmed plane at its advertised near-zero cost.
    pub fn armed() -> bool {
        #[cfg(feature = "enabled")]
        {
            enabled::armed()
        }
        #[cfg(not(feature = "enabled"))]
        {
            false
        }
    }

    /// `(site, kind)` of every fault fired since the last arming.
    pub fn fired() -> Vec<(Site, FaultKind)> {
        #[cfg(feature = "enabled")]
        {
            enabled::fired()
        }
        #[cfg(not(feature = "enabled"))]
        {
            Vec::new()
        }
    }

    /// `true` when the plane was compiled in (`--features faults` on the
    /// consumer). Lets a CLI reject `--fault-seed` on builds where arming
    /// would silently do nothing.
    pub fn compiled_in() -> bool {
        cfg!(feature = "enabled")
    }
}

#[cfg(feature = "enabled")]
mod enabled {
    use super::{FaultKind, Site};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Mutex;

    const SITES: usize = Site::ALL.len();

    static ARMED: AtomicBool = AtomicBool::new(false);
    /// Per-site visit counters since the last arming.
    static VISITS: [AtomicU64; SITES] = [const { AtomicU64::new(0) }; SITES];
    /// Per-site trigger: the visit number that fires, or 0 when the site
    /// is disarmed / already fired.
    static TRIGGERS: [AtomicU64; SITES] = [const { AtomicU64::new(0) }; SITES];
    /// Per-site kind, encoded as `FaultKind as u64`.
    static KINDS: [AtomicU64; SITES] = [const { AtomicU64::new(0) }; SITES];
    /// Faults fired since the last arming, for chaos reporting. Leaf
    /// lock: the short record/drain critical sections take no other lock
    /// and do no I/O, so the plane stays invisible to `concheck`'s
    /// lock-order and blocking-under-lock analyses.
    static FIRED: Mutex<Vec<(Site, FaultKind)>> = Mutex::new(Vec::new());

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub(super) fn arm(seed: u64) {
        let mut state = seed;
        for site in Site::ALL {
            let i = site as usize;
            let roll = splitmix64(&mut state);
            let kinds = site.kinds();
            // Bit 0 decides whether the site fires, so the kind comes from
            // the bits above it: drawn from the whole roll, a two-kind
            // site that fires (even roll) would always get its first kind.
            let kind = kinds[((roll >> 1) % kinds.len() as u64) as usize];
            // Not every site fires on every seed: roughly half the sites
            // stay quiet, so schedules vary in shape, not just position.
            let fires = roll & 1 == 0 || site == Site::BddAlloc;
            let trigger = if fires {
                1 + splitmix64(&mut state) % site.trigger_window()
            } else {
                0
            };
            VISITS[i].store(0, Ordering::SeqCst);
            KINDS[i].store(kind as u64, Ordering::SeqCst);
            TRIGGERS[i].store(trigger, Ordering::SeqCst);
        }
        FIRED.lock().expect("fault plane lock").clear();
        ARMED.store(true, Ordering::SeqCst);
    }

    pub(super) fn disarm() {
        ARMED.store(false, Ordering::SeqCst);
        for i in 0..SITES {
            TRIGGERS[i].store(0, Ordering::SeqCst);
            VISITS[i].store(0, Ordering::SeqCst);
        }
    }

    pub(super) fn fired() -> Vec<(Site, FaultKind)> {
        FIRED.lock().expect("fault plane lock").clone()
    }

    pub(super) fn armed() -> bool {
        ARMED.load(Ordering::Relaxed)
    }

    fn decode(kind: u64) -> FaultKind {
        match kind {
            0 => FaultKind::Oom,
            1 => FaultKind::Deadline,
            2 => FaultKind::Cancel,
            4 => FaultKind::Io,
            _ => FaultKind::Panic,
        }
    }

    #[inline]
    pub(super) fn hit(site: Site) -> Option<FaultKind> {
        if !ARMED.load(Ordering::Relaxed) {
            return None;
        }
        let i = site as usize;
        let trigger = TRIGGERS[i].load(Ordering::Relaxed);
        if trigger == 0 {
            return None;
        }
        let visit = VISITS[i].fetch_add(1, Ordering::Relaxed) + 1;
        if visit != trigger {
            return None;
        }
        // One-shot: only the thread that observed the exact trigger visit
        // gets here, and it disarms the site before acting.
        TRIGGERS[i].store(0, Ordering::Relaxed);
        let kind = decode(KINDS[i].load(Ordering::Relaxed));
        FIRED.lock().expect("fault plane lock").push((site, kind));
        Some(kind)
    }
}

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// The plane is process-global; serialize tests that arm it.
    static PLANE_TESTS: Mutex<()> = Mutex::new(());

    fn lock() -> MutexGuard<'static, ()> {
        PLANE_TESTS.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Drains a site: visits it until it fires or the window is exhausted.
    fn drain(site: Site, max: u64) -> Option<(u64, FaultKind)> {
        for visit in 1..=max {
            if let Some(kind) = hit(site) {
                return Some((visit, kind));
            }
        }
        None
    }

    #[test]
    fn same_seed_same_schedule() {
        let _g = lock();
        FaultPlane::arm(42);
        let first: Vec<_> = Site::ALL.map(|s| drain(s, 100_000)).to_vec();
        FaultPlane::arm(42);
        let second: Vec<_> = Site::ALL.map(|s| drain(s, 100_000)).to_vec();
        assert_eq!(first, second, "seed 42 must replay exactly");
        assert!(
            first.iter().any(Option::is_some),
            "some site must fire under any seed (bdd.alloc always does)"
        );
        FaultPlane::disarm();
    }

    #[test]
    fn sites_fire_once_per_arming() {
        let _g = lock();
        FaultPlane::arm(7);
        let fired = drain(Site::BddAlloc, 100_000);
        assert!(fired.is_some(), "bdd.alloc fires on every seed");
        assert_eq!(
            drain(Site::BddAlloc, 200_000),
            None,
            "a fired site stays quiet until re-armed"
        );
        assert_eq!(FaultPlane::fired().len(), 1);
        FaultPlane::disarm();
    }

    #[test]
    fn disarmed_plane_is_silent() {
        let _g = lock();
        FaultPlane::disarm();
        for site in Site::ALL {
            assert_eq!(hit(site), None);
        }
        assert!(FaultPlane::compiled_in());
    }

    #[test]
    fn kinds_respect_site_capabilities() {
        let _g = lock();
        for seed in 0..32 {
            FaultPlane::arm(seed);
            if let Some((_, kind)) = drain(Site::BddAlloc, 100_000) {
                assert_eq!(kind, FaultKind::Oom, "alloc site only simulates OOM");
            }
            if let Some((_, kind)) = drain(Site::SessionCheckout, 100) {
                assert_eq!(kind, FaultKind::Panic);
            }
        }
        FaultPlane::disarm();
    }

    #[test]
    fn every_site_fires_every_kind_it_can_express() {
        let _g = lock();
        let mut reached = std::collections::HashSet::new();
        for seed in 0..64 {
            FaultPlane::arm(seed);
            for site in Site::ALL {
                if let Some((_, kind)) = drain(site, site.trigger_window()) {
                    reached.insert((site, kind));
                }
            }
        }
        FaultPlane::disarm();
        for site in Site::ALL {
            for &kind in site.kinds() {
                assert!(
                    reached.contains(&(site, kind)),
                    "no seed in 0..64 fires {site} {kind}"
                );
            }
        }
    }

    #[test]
    fn store_append_site_only_fires_io() {
        let _g = lock();
        for seed in 0..32 {
            FaultPlane::arm(seed);
            if let Some((_, kind)) = drain(Site::StoreAppend, 100) {
                assert_eq!(
                    kind,
                    FaultKind::Io,
                    "store.append only simulates I/O faults"
                );
            }
        }
        FaultPlane::disarm();
    }

    #[test]
    fn names_are_stable_and_displayable() {
        assert_eq!(Site::BddAlloc.name(), "bdd.alloc");
        assert_eq!(Site::SchedulerWorker.to_string(), "scheduler.worker");
        assert_eq!(Site::SatRetain.name(), "sat.retain");
        assert_eq!(Site::StoreCompact.name(), "store.compact");
        assert_eq!(FaultKind::Deadline.to_string(), "deadline");
    }

    #[test]
    fn store_compact_site_only_fires_io() {
        let _g = lock();
        for seed in 0..32 {
            FaultPlane::arm(seed);
            if let Some((_, kind)) = drain(Site::StoreCompact, 100) {
                assert_eq!(
                    kind,
                    FaultKind::Io,
                    "store.compact only simulates I/O faults"
                );
            }
        }
        FaultPlane::disarm();
    }

    #[test]
    fn sat_retain_site_only_fires_deadlines() {
        let _g = lock();
        for seed in 0..32 {
            FaultPlane::arm(seed);
            if let Some((_, kind)) = drain(Site::SatRetain, 100) {
                assert_eq!(
                    kind,
                    FaultKind::Deadline,
                    "sat.retain only simulates deadline expiry between depths"
                );
            }
        }
        FaultPlane::disarm();
    }
}
