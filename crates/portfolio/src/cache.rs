//! The resolve path over output-permutation classes.
//!
//! Specs that are output permutations of each other share one
//! output-permutation synthesis answer up to relabeling, so qsyn solves one
//! representative per class. `qsyn batch`, the daemon's requests and its
//! `--preload` all resolve through one [`SpecCache`]: canonicalize, look
//! the class up in the memo, then in the attached [`Store`], else run the
//! caller's compute on the canonical spec and publish the result — memo
//! first, then the store (one retry on a retryable error; a failed write
//! is handed back, the answer stands).
//!
//! The memo holds one [`StoredCircuit`] per class, the record the store
//! persists. A stored record answers only after one validation (at least
//! one solution, a `.real` circuit over the spec's lines that parses, a
//! permutation of those lines); an unusable one is reported, synthesized
//! fresh and superseded. Replies compose the record's permutation with the
//! canonicalization witness ([`CanonicalSpec::compose`]).
//!
//! Locks: the memo and store mutexes are never held together, and the
//! store mutex is a leaf — callers hold no lock of their own across
//! [`SpecCache::lookup`], [`SpecCache::publish`] or
//! [`SpecCache::compact_store`] ([`SpecCache::memo_get`] takes only the
//! memo mutex).
//!
//! The canonicalization itself is `O(n! · 2ⁿ)` row comparisons — trivial
//! next to one synthesis run at the `n ≤ 8` sizes exact synthesis handles.

use qsyn_core::permuted::{
    permutations, permute_spec, synthesize_with_output_permutation, PermutedSearchStats,
    PermutedSynthesisResult,
};
use qsyn_core::{SolutionSet, SynthesisError, SynthesisOptions, SynthesisResult};
use qsyn_revlogic::{cost, real, Circuit, Spec};
use qsyn_store::{CompactionReport, Store, StoreError, StoredCircuit};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// A specification reduced to its output-permutation equivalence class.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CanonicalSpec {
    /// The canonical representative: `permute_spec(spec, witness)`.
    pub spec: Spec,
    /// The permutation taking the original spec to the representative.
    pub witness: Vec<u32>,
}

impl CanonicalSpec {
    /// The output permutation for the original spec from a record whose
    /// circuit output `q[i]` drives canonical line `i`: canonical line
    /// `witness[j]` carries original line `j`, so `q[witness[j]]` drives
    /// it. Panics unless `q` covers the lines (records are validated).
    pub fn compose(&self, q: &[u32]) -> Vec<u32> {
        self.witness.iter().map(|&i| q[i as usize]).collect()
    }
}

/// The memo key of a canonical spec: its `(value, care)` row table.
fn row_key(spec: &Spec) -> Vec<(u32, u32)> {
    spec.rows().iter().map(|r| (r.value, r.care)).collect()
}

/// Canonicalizes `spec` under output permutation: among all `n!` permuted
/// row tables, the lexicographically minimal one (comparing `(value, care)`
/// row-wise; the identity wins ties) is the class representative.
/// Equivalent specs — and only those — map to the same representative.
pub fn canonicalize(spec: &Spec) -> CanonicalSpec {
    permutations(spec.lines())
        .into_iter()
        .filter_map(|p| {
            let spec = permute_spec(spec, &p).ok()?;
            Some(CanonicalSpec { spec, witness: p })
        })
        .min_by_key(|c| row_key(&c.spec))
        // The identity always permutes a valid spec; this keeps the
        // function total.
        .unwrap_or_else(|| CanonicalSpec {
            spec: spec.clone(),
            witness: (0..spec.lines()).collect(),
        })
}

/// The record a synthesis of `canonical` publishes. Compute runs on the
/// canonical spec, so its search permutation is already `q`.
fn record_for(
    canonical: &Spec,
    config: &str,
    name: &str,
    p: &PermutedSynthesisResult,
) -> StoredCircuit {
    let solutions = p.result.solutions();
    let best = solutions.best_by_quantum_cost();
    StoredCircuit::for_spec(
        canonical,
        config,
        name,
        p.result.depth(),
        cost::circuit_cost(best),
        solutions.count(),
        solutions.count_is_exact(),
        p.permutation.clone(),
        real::write_real(best),
    )
}

/// The one validation a record passes before it answers for a
/// `lines`-line canonical spec (see the module docs): `Ok` carries the
/// parsed circuit, `Err` the reason the record is unusable.
fn replayable(record: &StoredCircuit, lines: u32) -> Result<Circuit, String> {
    if record.solution_count == 0 {
        return Err("stored record has no solutions".to_string());
    }
    let circuit = real::parse_real(&record.circuit)
        .ok()
        .filter(|c| c.lines() == lines)
        .ok_or_else(|| format!("stored circuit is not a {lines}-line .real circuit"))?;
    let mut sorted = record.permutation.clone();
    sorted.sort_unstable();
    if !sorted.iter().copied().eq(0..lines) {
        return Err(format!(
            "stored permutation {:?} does not cover the spec's {lines} lines",
            record.permutation
        ));
    }
    Ok(circuit)
}

/// What [`SpecCache::lookup`] found for a canonical spec.
#[derive(Clone, Debug)]
pub enum Lookup {
    /// A usable record, from the memo or promoted from the store.
    Hit(Arc<StoredCircuit>),
    /// Nothing usable: compute. `Some` carries why the class's stored
    /// record was bypassed (failed validation or a digest collision).
    Miss(Option<String>),
}

/// A store problem the resolve path worked around; the answer stands.
#[derive(Debug)]
pub enum StoreIssue {
    /// The class's stored record was unusable and was synthesized fresh.
    Unusable(String),
    /// Writing the fresh record failed, after one retry when retryable.
    WriteFailed(StoreError),
}

/// Store-tier counters and gauges of a [`SpecCache`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreStats {
    /// Memo misses answered by a usable stored record.
    pub hits: u64,
    /// Memo misses the store could not answer.
    pub misses: u64,
    /// Live records in the store.
    pub records: usize,
    /// Size of the store's log, in bytes.
    pub file_bytes: u64,
}

/// The memo: one record per class, keyed by the canonical row table.
type Memo = HashMap<Vec<(u32, u32)>, Arc<StoredCircuit>>;

/// The resolve path over canonical specs; see the module docs. One
/// instance serves one synthesis configuration (library, engine,
/// budgets). Concurrent misses on one class may both compute (no lock is
/// held during synthesis); either record is minimal.
#[derive(Debug, Default)]
pub struct SpecCache {
    memo: Mutex<Memo>,
    store: Option<Mutex<Store>>,
    /// Store key tag ([`qsyn_store::library_config`]) and record config.
    config: String,
    hits: AtomicU64,
    misses: AtomicU64,
    store_hits: AtomicU64,
    store_misses: AtomicU64,
}

impl SpecCache {
    /// An empty, memory-only cache.
    pub fn new() -> SpecCache {
        SpecCache::default()
    }

    /// An empty memo over `store` (read lazily, on memo misses), keying
    /// store records by `config`, the [`qsyn_store::library_config`] tag.
    pub fn with_store(store: Option<Store>, config: &str) -> SpecCache {
        SpecCache {
            store: store.map(Mutex::new),
            config: config.to_string(),
            ..SpecCache::default()
        }
    }

    /// Memo `(hits, misses)` so far; every miss is a class resolved
    /// through the store or a compute.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Store-tier counters and gauges, or `None` without a store.
    pub fn store_stats(&self) -> Option<StoreStats> {
        let store = self.store_guard()?;
        Some(StoreStats {
            hits: self.store_hits.load(Ordering::Relaxed),
            misses: self.store_misses.load(Ordering::Relaxed),
            records: store.len(),
            file_bytes: store.file_bytes(),
        })
    }

    /// Number of distinct equivalence classes in the memo.
    pub fn len(&self) -> usize {
        self.memo().len()
    }

    /// `true` when the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn memo(&self) -> MutexGuard<'_, Memo> {
        self.memo.lock().expect("memo lock")
    }

    fn store_guard(&self) -> Option<MutexGuard<'_, Store>> {
        Some(self.store.as_ref()?.lock().expect("store lock"))
    }

    /// The memo's record for `canonical`; touches neither the store nor
    /// the counters.
    pub fn memo_get(&self, canonical: &Spec) -> Option<Arc<StoredCircuit>> {
        self.memo().get(&row_key(canonical)).cloned()
    }

    /// Looks `canonical` up in the memo, then in the store; a usable
    /// stored record is promoted into the memo.
    pub fn lookup(&self, canonical: &Spec) -> Lookup {
        if let Some(record) = self.memo_get(canonical) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Lookup::Hit(record);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let Some(store) = self.store_guard() else {
            return Lookup::Miss(None);
        };
        let found = store.get(canonical, &self.config).map(|r| r.cloned());
        drop(store);
        let bypassed = match found {
            Ok(None) => None,
            Ok(Some(record)) => match replayable(&record, canonical.lines()) {
                Ok(_) => {
                    self.store_hits.fetch_add(1, Ordering::Relaxed);
                    let record = Arc::new(record);
                    self.memo().insert(record.rows.clone(), Arc::clone(&record));
                    return Lookup::Hit(record);
                }
                Err(reason) => Some(reason),
            },
            Err(e) => Some(e.to_string()),
        };
        self.store_misses.fetch_add(1, Ordering::Relaxed);
        Lookup::Miss(bypassed)
    }

    /// Publishes a compute result for `canonical`, the spec the compute
    /// ran on: the derived record enters the memo, then the store.
    /// Returns the record and the store write error, if any.
    pub fn publish(
        &self,
        canonical: &Spec,
        name: &str,
        p: &PermutedSynthesisResult,
    ) -> (Arc<StoredCircuit>, Option<StoreError>) {
        let record = Arc::new(record_for(canonical, &self.config, name, p));
        self.memo().insert(record.rows.clone(), Arc::clone(&record));
        let Some(store) = &self.store else {
            return (record, None);
        };
        // fsync under the store mutex is the durability serialization
        // point — waived in xtask/concheck-allowlist.txt
        // (blocking-under-lock).
        let mut store = store.lock().expect("store lock");
        // A plain put would leave an unusable record for the class live.
        let supersede = matches!(
            store.get(canonical, &self.config),
            Ok(Some(old)) if replayable(old, canonical.lines()).is_err()
        );
        let mut put = || {
            if supersede {
                store.put_superseding((*record).clone())
            } else {
                store.put((*record).clone())
            }
        };
        let mut written = put();
        if written.as_ref().is_err_and(StoreError::is_retryable) {
            written = put();
        }
        (record, written.err())
    }

    /// Output-permutation synthesis of `spec` through the resolve path,
    /// with `compute` (called on the **canonical representative**) run
    /// only when neither the memo nor the store can answer; `name` labels
    /// a fresh store record. The store issues worked around come back
    /// beside the answer. Errors are not cached — a budget or
    /// cancellation failure on one job must not poison the class for
    /// later, better-budgeted requests.
    ///
    /// # Errors
    ///
    /// Whatever `compute` returns.
    pub fn resolve<F>(
        &self,
        spec: &Spec,
        name: &str,
        compute: F,
    ) -> Result<(PermutedSynthesisResult, Vec<StoreIssue>), SynthesisError>
    where
        F: FnOnce(&Spec) -> Result<PermutedSynthesisResult, SynthesisError>,
    {
        let canonical = canonicalize(spec);
        let bypassed = match self.lookup(&canonical.spec) {
            Lookup::Hit(record) => match replayable(&record, canonical.spec.lines()) {
                Ok(circuit) => {
                    let (count, exact) = (record.solution_count, record.count_is_exact);
                    let solutions = SolutionSet::replayed(circuit, count, exact);
                    let replayed = PermutedSynthesisResult {
                        result: SynthesisResult::replayed(solutions, record.depth, "replay"),
                        permutation: canonical.compose(&record.permutation),
                        stats: PermutedSearchStats::default(),
                    };
                    return Ok((replayed, Vec::new()));
                }
                Err(reason) => Some(reason),
            },
            Lookup::Miss(reason) => reason,
        };
        let mut issues: Vec<StoreIssue> = bypassed.into_iter().map(StoreIssue::Unusable).collect();
        let fresh = compute(&canonical.spec)?;
        let (_, write_error) = self.publish(&canonical.spec, name, &fresh);
        issues.extend(write_error.map(StoreIssue::WriteFailed));
        let permutation = canonical.compose(&fresh.permutation);
        let fresh = PermutedSynthesisResult {
            permutation,
            ..fresh
        };
        Ok((fresh, issues))
    }

    /// [`resolve`](Self::resolve) with unnamed records and store issues
    /// dropped, for memory-only caches.
    ///
    /// # Errors
    ///
    /// Whatever `compute` returns on a miss.
    pub fn get_or_compute<F>(
        &self,
        spec: &Spec,
        compute: F,
    ) -> Result<PermutedSynthesisResult, SynthesisError>
    where
        F: FnOnce(&Spec) -> Result<PermutedSynthesisResult, SynthesisError>,
    {
        self.resolve(spec, "", compute).map(|(p, _)| p)
    }

    /// [`get_or_compute`](Self::get_or_compute) with the stock
    /// [`synthesize_with_output_permutation`] as the compute function.
    ///
    /// # Errors
    ///
    /// As for [`synthesize_with_output_permutation`].
    pub fn synthesize(
        &self,
        spec: &Spec,
        options: &SynthesisOptions,
    ) -> Result<PermutedSynthesisResult, SynthesisError> {
        self.get_or_compute(spec, |canonical| {
            synthesize_with_output_permutation(canonical, options)
        })
    }

    /// Compacts the attached store ([`Store::compact`]); `None` without
    /// one.
    pub fn compact_store(&self) -> Option<Result<CompactionReport, StoreError>> {
        let store = self.store.as_ref()?;
        // Compaction excludes appends for the whole rewrite — waived in
        // xtask/concheck-allowlist.txt (blocking-under-lock).
        let mut store = store.lock().expect("store lock");
        Some(store.compact())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsyn_core::Engine;
    use qsyn_revlogic::{benchmarks, GateLibrary, Permutation};

    fn opts() -> SynthesisOptions {
        SynthesisOptions::new(GateLibrary::mct(), Engine::Bdd).with_max_depth(8)
    }

    /// Simulating the returned circuit through the returned permutation
    /// must reproduce the requested spec on every cared bit.
    fn assert_realizes_via_permutation(spec: &Spec, r: &PermutedSynthesisResult) {
        let c = &r.result.solutions().circuits()[0];
        for row in 0..spec.num_rows() as u32 {
            let out = c.simulate(row);
            let sr = spec.row(row);
            for (j, &p) in r.permutation.iter().enumerate() {
                let bit = 1u32 << j;
                if sr.care & bit != 0 {
                    assert_eq!((out >> p) & 1, (sr.value >> j) & 1, "row {row} line {j}");
                }
            }
        }
    }

    #[test]
    fn canonical_form_is_permutation_invariant() {
        let spec = Spec::from_permutation(&Permutation::from_map(3, vec![1, 0, 3, 2, 5, 4, 7, 6]));
        let base = canonicalize(&spec);
        for p in permutations(3) {
            let moved = permute_spec(&spec, &p).unwrap();
            let c = canonicalize(&moved);
            assert_eq!(c.spec.rows(), base.spec.rows(), "permutation {p:?}");
        }
    }

    #[test]
    fn canonicalize_never_conflates_inequivalent_specs() {
        // Every 2-line reversible function: 4! = 24 permutation specs. Two
        // specs share a canonical form iff one is an output permutation of
        // the other.
        let all: Vec<Spec> = permutations(4)
            .into_iter()
            .map(|m| Spec::from_permutation(&Permutation::from_map(2, m)))
            .collect();
        for a in &all {
            for b in &all {
                let equivalent = permutations(2)
                    .iter()
                    .any(|p| permute_spec(a, p).unwrap().rows() == b.rows());
                let same_canon = canonicalize(a).spec.rows() == canonicalize(b).spec.rows();
                assert_eq!(equivalent, same_canon);
            }
        }
    }

    #[test]
    fn hit_replays_to_the_requested_spec() {
        let cache = SpecCache::new();
        let spec = Spec::from_permutation(&Permutation::from_map(2, vec![2, 0, 3, 1]));
        let first = cache.synthesize(&spec, &opts()).unwrap();
        assert_realizes_via_permutation(&spec, &first);
        assert_eq!(cache.stats(), (0, 1));
        // Ask again with a permuted variant of the same class: must hit and
        // still satisfy the *new* request.
        let moved = permute_spec(&spec, &[1, 0]).unwrap();
        let second = cache.synthesize(&moved, &opts()).unwrap();
        assert_realizes_via_permutation(&moved, &second);
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(first.result.depth(), second.result.depth());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn depth_matches_uncached_synthesis() {
        let cache = SpecCache::new();
        for seed in 0..4u64 {
            let spec = Spec::from_permutation(&benchmarks::random_permutation(3, seed));
            let cached = cache.synthesize(&spec, &opts()).unwrap();
            let direct = synthesize_with_output_permutation(&spec, &opts()).unwrap();
            assert_eq!(cached.result.depth(), direct.result.depth(), "seed {seed}");
            assert_realizes_via_permutation(&spec, &cached);
        }
    }

    fn temp_store(tag: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("qsyn-cache-{tag}-{}.qstore", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn store_records_are_promoted_into_the_memo_and_replay_every_member() {
        let path = temp_store("promote");
        let spec = Spec::from_permutation(&Permutation::from_map(2, vec![2, 0, 3, 1]));
        let cold = SpecCache::with_store(Some(Store::open(&path).unwrap()), "MCT");
        cold.synthesize(&spec, &opts()).unwrap();
        let s = cold.store_stats().unwrap();
        assert_eq!((s.hits, s.misses, s.records), (0, 1, 1));

        let warm = SpecCache::with_store(Some(Store::open(&path).unwrap()), "MCT");
        assert!(warm.is_empty(), "nothing is read before a lookup");
        for p in permutations(2) {
            let member = permute_spec(&spec, &p).unwrap();
            let r = warm
                .get_or_compute(&member, |_| panic!("a stored class must replay"))
                .unwrap();
            assert_realizes_via_permutation(&member, &r);
        }
        // The first member promoted the record; the second hit the memo.
        assert_eq!(warm.stats(), (1, 1));
        let s = warm.store_stats().unwrap();
        assert_eq!((s.hits, s.misses), (1, 0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unusable_store_record_is_reported_and_superseded() {
        let path = temp_store("supersede");
        let spec = Spec::from_permutation(&Permutation::from_map(2, vec![2, 0, 3, 1]));
        let canonical = canonicalize(&spec).spec;
        let mut bad = record_for(
            &canonical,
            "MCT",
            "bad",
            &synthesize_with_output_permutation(&canonical, &opts()).unwrap(),
        );
        bad.solution_count = 0;
        Store::open(&path).unwrap().put(bad).unwrap();

        let cache = SpecCache::with_store(Some(Store::open(&path).unwrap()), "MCT");
        let (r, issues) = cache
            .resolve(&spec, "fresh", |s| {
                synthesize_with_output_permutation(s, &opts())
            })
            .unwrap();
        assert_realizes_via_permutation(&spec, &r);
        assert!(
            matches!(&issues[..], [StoreIssue::Unusable(reason)] if reason == "stored record has no solutions"),
            "{issues:?}"
        );
        drop(cache);
        let store = Store::open(&path).unwrap();
        let live = store.get(&canonical, "MCT").unwrap().unwrap();
        assert_eq!(live.name, "fresh");
        assert!(replayable(live, canonical.lines()).is_ok());
        assert!(store.dead_bytes() > 0, "the bad frame is superseded");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn validation_rejects_records_that_cannot_answer() {
        let spec = Spec::from_permutation(&Permutation::from_map(2, vec![2, 0, 3, 1]));
        let canonical = canonicalize(&spec).spec;
        let good = record_for(
            &canonical,
            "MCT",
            "ok",
            &synthesize_with_output_permutation(&canonical, &opts()).unwrap(),
        );
        assert!(replayable(&good, 2).is_ok());
        let broken: [fn(&mut StoredCircuit); 4] = [
            |r| r.solution_count = 0,
            |r| r.circuit = "not a circuit".to_string(),
            |r| r.permutation = vec![0],
            |r| r.permutation = vec![1, 1],
        ];
        for (i, breakage) in broken.iter().enumerate() {
            let mut r = good.clone();
            breakage(&mut r);
            assert!(replayable(&r, 2).is_err(), "breakage {i}");
        }
        // A record over three lines does not answer a two-line spec.
        assert!(replayable(&good, 3).is_err());
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = SpecCache::new();
        let spec = Spec::from_permutation(&Permutation::from_map(2, vec![3, 0, 1, 2]));
        let tiny = opts().with_max_depth(0);
        assert!(cache.synthesize(&spec, &tiny).is_err());
        assert_eq!(cache.len(), 0);
        // The same class then succeeds with a sane budget.
        let ok = cache.synthesize(&spec, &opts()).unwrap();
        assert_realizes_via_permutation(&spec, &ok);
        assert_eq!(cache.len(), 1);
    }
}
