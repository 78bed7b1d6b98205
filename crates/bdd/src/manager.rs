//! The BDD manager: hash-consed node storage with a fixed variable order.
//!
//! # Unique table
//!
//! Hash consing uses CUDD's layout: a power-of-two array of bucket heads
//! whose chains run through the nodes themselves (`Node::next`), so a
//! node's `(var, lo, hi)` key is stored once, in the arena, and the table
//! costs one `u32` per bucket. The bucket count doubles whenever live
//! nodes outnumber it (load factor at most 1); garbage collection rebuilds
//! the chains in the sweep that builds the free list.

use crate::cache::{ComputedTable, OPERAND_LIMIT};
use crate::hash::FibHashMap;

/// Handle to a BDD node inside a [`Manager`].
///
/// Handles are plain indices; they are only meaningful together with the
/// manager that created them. Mixing handles across managers is a logic
/// error (it is memory-safe but yields nonsense results or panics).
///
/// A handle is only valid while its node is **live**: after a
/// [`Manager::collect_garbage`] call, handles that were not reachable from
/// the supplied roots dangle (their slots may be reused by later
/// constructions). Keep every handle you intend to use past a collection in
/// the root set.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bdd(pub(crate) u32);

impl Bdd {
    /// The constant-false function.
    pub const ZERO: Bdd = Bdd(0);
    /// The constant-true function.
    pub const ONE: Bdd = Bdd(1);

    /// Returns `true` if this is the constant-false terminal.
    #[inline]
    pub fn is_zero(self) -> bool {
        self == Bdd::ZERO
    }

    /// Returns `true` if this is the constant-true terminal.
    #[inline]
    pub fn is_one(self) -> bool {
        self == Bdd::ONE
    }

    /// Returns `true` if this is either terminal.
    #[inline]
    pub fn is_terminal(self) -> bool {
        self.0 <= 1
    }

    /// Raw arena index of the handle (terminals are `0` and `1`). Only
    /// meaningful relative to the owning manager; exposed for the audit
    /// layer's range checks.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Debug for Bdd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Bdd::ZERO => write!(f, "Bdd(⊥)"),
            Bdd::ONE => write!(f, "Bdd(⊤)"),
            Bdd(i) => write!(f, "Bdd(#{i})"),
        }
    }
}

/// Variable level used for terminals: compares greater than any real level.
pub(crate) const TERMINAL_LEVEL: u32 = u32::MAX;

/// Variable level marking a slot on the free list. Distinct from
/// [`TERMINAL_LEVEL`] so the audit layer can tell "freed" from "terminal",
/// and still above every declared variable (`Manager::new` caps
/// `num_vars` well below both sentinels).
pub(crate) const FREE_LEVEL: u32 = u32::MAX - 1;

#[derive(Clone, Copy)]
pub(crate) struct Node {
    /// Variable index (== level in the fixed order). `TERMINAL_LEVEL` for
    /// the two terminals, `FREE_LEVEL` for slots on the free list.
    pub var: u32,
    pub lo: Bdd,
    pub hi: Bdd,
    /// Next node in the same unique-table bucket. [`CHAIN_END`] ends the
    /// chain (index 0 is the ⊥ terminal, which is never chained).
    pub next: u32,
}

const _: () = assert!(std::mem::size_of::<Node>() == 16);

/// `Node::next` / bucket-head value marking the end of a chain.
pub(crate) const CHAIN_END: u32 = 0;

/// Bucket count of a fresh unique table (power of two): small, because
/// tests and the session pool create many tiny managers.
const INITIAL_BUCKETS: usize = 1 << 8;

/// Operation tags for the shared computed table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum OpTag {
    Ite,
    Not,
    Exists(u32),
    Forall(u32),
    Compose(u32),
    Restrict,
    /// Fused `∃ varset (f ∧ g)` — see `Manager::and_exists`.
    AndExists(u32),
    /// Fused `∀ varset (f ∧ g)` — see `Manager::and_forall`.
    AndForall(u32),
}

/// Snapshot of manager size counters, useful for resource budgeting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ManagerStats {
    /// Live nodes (including the two terminals): allocated minus freed.
    pub nodes: usize,
    /// High-water mark of live nodes over the manager's lifetime.
    pub peak_live: usize,
    /// Slots of the node arena ever allocated (including freed ones).
    pub allocated: usize,
    /// Slots currently on the free list.
    pub free_slots: usize,
    /// Completed garbage collections.
    pub gc_runs: u64,
    /// Nodes reclaimed by garbage collection, cumulative.
    pub gc_freed: u64,
    /// Entries currently in the computed table.
    pub cache_entries: usize,
    /// Slot capacity of the computed table.
    pub cache_capacity: usize,
    /// Computed-table lookups that found a memoized result.
    pub cache_hits: u64,
    /// Computed-table lookups that missed.
    pub cache_misses: u64,
    /// Computed-table inserts that overwrote a different live entry.
    pub cache_evictions: u64,
    /// Number of declared variables.
    pub vars: usize,
    /// Times this manager was recycled via [`Manager::reset`].
    pub resets: u64,
}

impl ManagerStats {
    /// Cache hit rate in `[0, 1]`; `0` before any lookup.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

impl std::fmt::Display for ManagerStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} live nodes (peak {}), {} gc runs freeing {}, \
             cache {}/{} slots ({:.1}% hit rate, {} evictions), {} vars, {} resets",
            self.nodes,
            self.peak_live,
            self.gc_runs,
            self.gc_freed,
            self.cache_entries,
            self.cache_capacity,
            self.cache_hit_rate() * 100.0,
            self.cache_evictions,
            self.vars,
            self.resets
        )
    }
}

/// Arena-style BDD manager with a fixed variable order.
///
/// Variable `0` is the topmost level. Dead nodes are reclaimed by
/// [`Manager::collect_garbage`] (mark-and-sweep from an explicit root set;
/// see `gc.rs`); their slots are reused by later constructions via a free
/// list. All remaining storage is released when the manager is dropped.
pub struct Manager {
    pub(crate) nodes: Vec<Node>,
    /// Unique-table bucket heads (power-of-two length), chained through
    /// `Node::next`; see the module docs.
    pub(crate) buckets: Vec<u32>,
    /// `64 - log2(buckets.len())`: shifts a key's [`crate::hash::mix`] down
    /// to its bucket.
    bucket_shift: u32,
    /// Direct-mapped lossy memoization table for all recursive operations.
    pub(crate) computed: ComputedTable,
    /// Slots of `nodes` available for reuse (their `var` is `FREE_LEVEL`).
    pub(crate) free: Vec<u32>,
    /// Interned variable sets for quantification, keyed by sorted contents.
    varsets: Vec<Vec<u32>>,
    varset_ids: FibHashMap<Vec<u32>, u32>,
    num_vars: u32,
    /// Hard cap on **live** nodes; see [`Manager::set_node_cap`].
    node_cap: usize,
    overflowed: bool,
    peak_live: usize,
    gc_runs: u64,
    gc_freed: u64,
    /// Times this manager was recycled via [`Manager::reset`].
    resets: u64,
    /// External interrupt probe polled from `mk` (see
    /// [`Manager::set_interrupt_poll`]); `None` disables polling.
    interrupt_poll: Option<Box<dyn Fn() -> bool + Send>>,
    /// Constructions remaining until the next interrupt poll.
    interrupt_countdown: u32,
    /// Latched once the interrupt probe fired; see
    /// [`Manager::is_interrupted`].
    interrupted: bool,
    /// Scratch mark bitmap reused across collections (see `gc.rs`).
    pub(crate) gc_marks: Vec<bool>,
}

/// `mk` calls between two polls of the interrupt probe — cheap enough to
/// be invisible, frequent enough that a cancelled operation stops within
/// microseconds.
const INTERRUPT_POLL_STRIDE: u32 = 4096;

impl std::fmt::Debug for Manager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Manager")
            .field("vars", &self.num_vars)
            .field("nodes", &self.node_count())
            .finish_non_exhaustive()
    }
}

impl Manager {
    /// Creates a manager with `num_vars` variables, indexed `0..num_vars`.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars >= u32::MAX / 2` (far beyond any practical use).
    pub fn new(num_vars: u32) -> Self {
        assert!(num_vars < u32::MAX / 2, "variable count out of range");
        let nodes = vec![
            Node {
                var: TERMINAL_LEVEL,
                lo: Bdd::ZERO,
                hi: Bdd::ZERO,
                next: CHAIN_END,
            },
            Node {
                var: TERMINAL_LEVEL,
                lo: Bdd::ONE,
                hi: Bdd::ONE,
                next: CHAIN_END,
            },
        ];
        Manager {
            nodes,
            buckets: vec![CHAIN_END; INITIAL_BUCKETS],
            bucket_shift: 64 - INITIAL_BUCKETS.trailing_zeros(),
            computed: ComputedTable::default(),
            free: Vec::new(),
            varsets: Vec::new(),
            varset_ids: FibHashMap::default(),
            num_vars,
            node_cap: usize::MAX,
            overflowed: false,
            peak_live: 2,
            gc_runs: 0,
            gc_freed: 0,
            resets: 0,
            interrupt_poll: None,
            interrupt_countdown: INTERRUPT_POLL_STRIDE,
            interrupted: false,
            gc_marks: Vec::new(),
        }
    }

    /// Recycles the manager for a new problem over `num_vars` variables:
    /// the arena is truncated back to the two terminals and the unique
    /// table, free list, variable sets and computed table are emptied —
    /// but every container **keeps its allocated capacity** (the unique
    /// table its bucket count), so a manager that grew large tables on one
    /// job starts the next job warm instead of re-growing them from
    /// scratch. The node cap, overflow flag and interrupt probe are cleared
    /// back to their `new` defaults.
    ///
    /// Cumulative lifetime counters (peak live nodes, GC runs/freed,
    /// cache hits/misses/evictions) survive the reset, and
    /// [`ManagerStats::resets`] counts how often the manager was recycled.
    ///
    /// Every outstanding [`Bdd`] handle dangles after a reset; using one
    /// is a logic error, exactly as with handles across managers.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars >= u32::MAX / 2`, as in [`Manager::new`].
    pub fn reset(&mut self, num_vars: u32) {
        assert!(num_vars < u32::MAX / 2, "variable count out of range");
        self.nodes.truncate(2);
        self.buckets.fill(CHAIN_END);
        self.computed.clear();
        self.free.clear();
        self.varsets.clear();
        self.varset_ids.clear();
        self.num_vars = num_vars;
        self.node_cap = usize::MAX;
        self.overflowed = false;
        self.interrupt_poll = None;
        self.interrupt_countdown = INTERRUPT_POLL_STRIDE;
        self.interrupted = false;
        self.resets += 1;
    }

    /// Installs (or removes) the interrupt probe: a callback polled every
    /// few thousand node constructions. Once it returns `true` the manager
    /// latches into an **interrupted** state that behaves like overflow —
    /// every further construction returns `⊥` promptly, so a caller's
    /// deadline or cancellation takes effect *inside* a long-running BDD
    /// operation instead of only between operations. Check
    /// [`Manager::is_interrupted`] and discard the results.
    ///
    /// The probe must be cheap (an atomic load or a clock read); it runs on
    /// the construction hot path, if only once per
    /// [stride](`Manager::reset`) of `mk` calls.
    pub fn set_interrupt_poll(&mut self, poll: Option<Box<dyn Fn() -> bool + Send>>) {
        self.interrupt_poll = poll;
        self.interrupt_countdown = INTERRUPT_POLL_STRIDE;
        self.interrupted = false;
    }

    /// `true` once the interrupt probe has fired; all results produced
    /// since then are unreliable (they collapse to `⊥`).
    #[inline]
    pub fn is_interrupted(&self) -> bool {
        self.interrupted
    }

    /// Overflow-or-interrupt guard shared by the recursive operations.
    #[inline]
    pub(crate) fn aborted(&self) -> bool {
        self.overflowed || self.interrupted
    }

    /// Polls the interrupt probe now, regardless of the stride. Used at
    /// coarse boundaries (garbage collection) where a poll is cheap
    /// relative to the work it guards.
    ///
    /// Also carries the fault-plane site `bdd.alloc`: polling it here —
    /// once per interrupt stride or collection, inside an already
    /// out-of-line method — keeps the disarmed plane's atomics (and their
    /// code size) out of `mk`'s inlined hot body, where even a strided
    /// check costs double-digit percent. A simulated OOM latches the
    /// overflow flag exactly as a real node-cap trip would.
    pub(crate) fn poll_interrupt(&mut self) {
        if qsyn_faults::hit(qsyn_faults::Site::BddAlloc).is_some() {
            self.overflowed = true;
        }
        if let Some(poll) = &self.interrupt_poll {
            if poll() {
                self.interrupted = true;
            }
        }
    }

    /// Caps the slot count of the computed table (rounded to a power of
    /// two). The table is **lossy** — beyond its capacity colliding results
    /// overwrite older ones — so any cap trades recomputation time for
    /// memory, never correctness.
    pub fn set_cache_cap(&mut self, cap: usize) {
        self.computed.set_max_slots(cap);
    }

    /// Looks up a memoized operation result.
    #[inline]
    pub(crate) fn cache_get(&mut self, key: (OpTag, Bdd, Bdd, Bdd)) -> Option<Bdd> {
        self.computed.get(key)
    }

    /// Memoizes an operation result (may overwrite a colliding entry).
    #[inline]
    pub(crate) fn cache_insert(&mut self, key: (OpTag, Bdd, Bdd, Bdd), value: Bdd) {
        self.computed.insert(key, value);
    }

    /// Installs a hard cap on the number of **live** nodes. Once the cap
    /// is hit, the manager enters an **overflowed** state: every further
    /// construction returns `⊥` and [`Manager::is_overflowed`] reports
    /// `true`. Results produced after overflow are meaningless — callers
    /// must check the flag and discard the manager. This is the
    /// out-of-memory containment strategy (CUDD's `NULL` returns, in Rust
    /// clothing) used by the synthesis engine's node budget.
    ///
    /// Because the cap counts live nodes, garbage collection creates
    /// headroom: callers that free dead roots via
    /// [`Manager::collect_garbage`] before the cap is hit can keep running
    /// where an allocation-counting cap would have overflowed on garbage.
    ///
    /// Whatever the cap, the arena holds at most `2^29 − 1` slots (ids that
    /// fit a computed-table key): a construction that would need a slot
    /// past them overflows the manager the same way.
    pub fn set_node_cap(&mut self, cap: usize) {
        self.node_cap = cap;
    }

    /// `true` once the node cap has been hit; all results produced since
    /// then are unreliable.
    #[inline]
    pub fn is_overflowed(&self) -> bool {
        self.overflowed
    }

    /// Number of declared variables.
    #[inline]
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Declares additional variables *below* all existing ones and returns
    /// the index of the first new variable.
    ///
    /// The synthesis engine uses this to append the gate-select variables of
    /// a new cascade level while keeping all previously built BDDs valid.
    pub fn add_vars(&mut self, count: u32) -> u32 {
        let first = self.num_vars;
        self.num_vars = self
            .num_vars
            .checked_add(count)
            .expect("variable count overflow");
        assert!(self.num_vars < FREE_LEVEL, "variable count out of range");
        first
    }

    /// The constant-false function.
    #[inline]
    pub fn zero(&self) -> Bdd {
        Bdd::ZERO
    }

    /// The constant-true function.
    #[inline]
    pub fn one(&self) -> Bdd {
        Bdd::ONE
    }

    /// Converts a boolean constant into the corresponding terminal.
    #[inline]
    pub fn constant(&self, value: bool) -> Bdd {
        if value {
            Bdd::ONE
        } else {
            Bdd::ZERO
        }
    }

    /// The projection function of variable `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a declared variable.
    pub fn var(&mut self, v: u32) -> Bdd {
        assert!(v < self.num_vars, "variable {v} not declared");
        self.mk(v, Bdd::ZERO, Bdd::ONE)
    }

    /// The negated projection function of variable `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a declared variable.
    pub fn nvar(&mut self, v: u32) -> Bdd {
        assert!(v < self.num_vars, "variable {v} not declared");
        self.mk(v, Bdd::ONE, Bdd::ZERO)
    }

    /// Literal helper: variable `v` if `positive`, else its negation.
    pub fn literal(&mut self, v: u32, positive: bool) -> Bdd {
        if positive {
            self.var(v)
        } else {
            self.nvar(v)
        }
    }

    /// Hash-consing constructor enforcing the two ROBDD reduction rules.
    #[inline]
    pub(crate) fn mk(&mut self, var: u32, lo: Bdd, hi: Bdd) -> Bdd {
        if self.overflowed || self.interrupted {
            return Bdd::ZERO;
        }
        if self.interrupt_poll.is_some() {
            self.interrupt_countdown -= 1;
            if self.interrupt_countdown == 0 {
                self.interrupt_countdown = INTERRUPT_POLL_STRIDE;
                // The stride poll carries the `bdd.alloc` fault site too
                // (see `poll_interrupt`), so both abort flags need
                // re-checking here.
                self.poll_interrupt();
                if self.aborted() {
                    return Bdd::ZERO;
                }
            }
        }
        if lo == hi {
            return lo;
        }
        debug_assert!(
            var < self.level(lo) && var < self.level(hi),
            "order violation"
        );
        let bucket = self.unique_bucket_of(var, lo, hi);
        if let Some(id) = self.find_in_bucket(bucket, var, lo, hi, usize::MAX) {
            return id;
        }
        // Ids at or past `OPERAND_LIMIT` would not fit a computed-table key
        // (see `cache.rs`), so the arena stops there as at the node cap.
        if self.node_count() >= self.node_cap
            || (self.free.is_empty() && self.nodes.len() >= OPERAND_LIMIT as usize)
        {
            self.overflowed = true;
            return Bdd::ZERO;
        }
        let node = Node {
            var,
            lo,
            hi,
            next: self.buckets[bucket],
        };
        let id = if let Some(slot) = self.free.pop() {
            self.nodes[slot as usize] = node;
            slot
        } else {
            let id = self.nodes.len() as u32;
            self.nodes.push(node);
            id
        };
        self.buckets[bucket] = id;
        let live = self.node_count();
        self.peak_live = self.peak_live.max(live);
        if live > self.buckets.len() {
            self.grow_buckets();
        }
        Bdd(id)
    }

    /// The unique-table bucket a node with key `(var, lo, hi)` is chained
    /// in (below [`Manager::unique_bucket_count`]).
    #[inline]
    pub fn unique_bucket_of(&self, var: u32, lo: Bdd, hi: Bdd) -> usize {
        let h = crate::hash::mix([u64::from(var), u64::from(lo.0), u64::from(hi.0)]);
        (h >> self.bucket_shift) as usize
    }

    /// The node with key `(var, lo, hi)` on bucket `bucket`'s chain,
    /// following at most `max_steps` links (so a corrupted, cyclic chain
    /// still ends); `None` when the key is not found or a link leaves the
    /// arena.
    #[inline]
    pub(crate) fn find_in_bucket(
        &self,
        bucket: usize,
        var: u32,
        lo: Bdd,
        hi: Bdd,
        max_steps: usize,
    ) -> Option<Bdd> {
        let mut cur = self.buckets[bucket];
        for _ in 0..max_steps {
            if cur == CHAIN_END {
                return None;
            }
            let n = self.nodes.get(cur as usize)?;
            if n.var == var && n.lo == lo && n.hi == hi {
                return Some(Bdd(cur));
            }
            cur = n.next;
        }
        None
    }

    /// Doubles the bucket count and re-chains every live node. The old
    /// array is released before the new one is allocated, so growth never
    /// holds both.
    #[cold]
    fn grow_buckets(&mut self) {
        let len = self.buckets.len() * 2;
        self.buckets = Vec::new();
        self.buckets = vec![CHAIN_END; len];
        self.bucket_shift = 64 - len.trailing_zeros();
        for i in 2..self.nodes.len() {
            if self.nodes[i].var != FREE_LEVEL {
                self.chain(i as u32);
            }
        }
    }

    /// Pushes live node `id` onto the front of its bucket's chain.
    #[inline]
    pub(crate) fn chain(&mut self, id: u32) {
        let n = self.nodes[id as usize];
        let bucket = self.unique_bucket_of(n.var, n.lo, n.hi);
        self.nodes[id as usize].next = self.buckets[bucket];
        self.buckets[bucket] = id;
    }

    /// Level (variable index) of the root of `f`; terminals report
    /// `TERMINAL_LEVEL`.
    #[inline]
    pub(crate) fn level(&self, f: Bdd) -> u32 {
        self.nodes[f.0 as usize].var
    }

    /// Root variable of `f`, or `None` for terminals.
    pub fn root_var(&self, f: Bdd) -> Option<u32> {
        let l = self.level(f);
        (l != TERMINAL_LEVEL).then_some(l)
    }

    /// Children of a non-terminal node `(lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `f` is a terminal.
    pub fn children(&self, f: Bdd) -> (Bdd, Bdd) {
        assert!(!f.is_terminal(), "terminals have no children");
        let n = self.nodes[f.0 as usize];
        (n.lo, n.hi)
    }

    /// Cofactors of `f` with respect to variable/level `var`, assuming the
    /// root of `f` is at `var` or below.
    #[inline]
    pub(crate) fn cofactors_at(&self, f: Bdd, var: u32) -> (Bdd, Bdd) {
        let n = self.nodes[f.0 as usize];
        if n.var == var {
            (n.lo, n.hi)
        } else {
            (f, f)
        }
    }

    /// Interns a **sorted, deduplicated** variable list for quantification
    /// caching and returns its id.
    pub(crate) fn intern_varset(&mut self, vars: &[u32]) -> u32 {
        debug_assert!(
            vars.windows(2).all(|w| w[0] < w[1]),
            "varset must be sorted"
        );
        if let Some(&id) = self.varset_ids.get(vars) {
            return id;
        }
        let id = u32::try_from(self.varsets.len()).expect("varset table overflow");
        self.varsets.push(vars.to_vec());
        self.varset_ids.insert(vars.to_vec(), id);
        id
    }

    pub(crate) fn varset(&self, id: u32) -> &[u32] {
        &self.varsets[id as usize]
    }

    /// Number of **live** nodes (allocated minus freed, including both
    /// terminals). This is what [`Manager::set_node_cap`] bounds.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// High-water mark of [`Manager::node_count`] over the manager's life.
    #[inline]
    pub fn peak_live_nodes(&self) -> usize {
        self.peak_live
    }

    /// `true` if the slot behind `f` is on the free list (i.e. `f` dangles).
    #[inline]
    pub(crate) fn is_free(&self, f: Bdd) -> bool {
        self.nodes[f.0 as usize].var == FREE_LEVEL
    }

    /// GC bookkeeping used by `gc.rs` when a sweep frees `n` nodes: slots
    /// are pushed onto the free list by the sweep itself.
    pub(crate) fn note_collection(&mut self, freed: u64) {
        self.gc_runs += 1;
        self.gc_freed += freed;
    }

    /// Drops all memoization tables, keeping the node store intact.
    ///
    /// Subsequent operations recompute results but remain correct.
    pub fn clear_caches(&mut self) {
        self.computed.clear();
    }

    /// Current size counters.
    pub fn stats(&self) -> ManagerStats {
        let c = self.computed.counters();
        ManagerStats {
            nodes: self.node_count(),
            peak_live: self.peak_live,
            allocated: self.nodes.len(),
            free_slots: self.free.len(),
            gc_runs: self.gc_runs,
            gc_freed: self.gc_freed,
            cache_entries: c.entries,
            cache_capacity: c.capacity,
            cache_hits: c.hits,
            cache_misses: c.misses,
            cache_evictions: c.evictions,
            vars: self.num_vars as usize,
            resets: self.resets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals_are_preallocated() {
        let m = Manager::new(4);
        assert_eq!(m.node_count(), 2);
        assert!(m.zero().is_zero());
        assert!(m.one().is_one());
        assert!(m.zero().is_terminal() && m.one().is_terminal());
        assert_ne!(m.zero(), m.one());
    }

    #[test]
    fn mk_is_hash_consed() {
        let mut m = Manager::new(4);
        let a = m.var(2);
        let b = m.var(2);
        assert_eq!(a, b);
        assert_eq!(m.node_count(), 3);
    }

    #[test]
    fn mk_elides_redundant_nodes() {
        let mut m = Manager::new(4);
        let t = m.one();
        let r = m.mk(1, t, t);
        assert_eq!(r, t);
        assert_eq!(m.node_count(), 2);
    }

    #[test]
    fn var_and_nvar_differ() {
        let mut m = Manager::new(2);
        let v = m.var(0);
        let nv = m.nvar(0);
        assert_ne!(v, nv);
        assert_eq!(m.children(v), (Bdd::ZERO, Bdd::ONE));
        assert_eq!(m.children(nv), (Bdd::ONE, Bdd::ZERO));
    }

    #[test]
    fn literal_dispatches_on_sign() {
        let mut m = Manager::new(2);
        assert_eq!(m.literal(1, true), m.var(1));
        assert_eq!(m.literal(1, false), m.nvar(1));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn var_out_of_range_panics() {
        let mut m = Manager::new(2);
        let _ = m.var(2);
    }

    #[test]
    fn add_vars_extends_below() {
        let mut m = Manager::new(2);
        let first = m.add_vars(3);
        assert_eq!(first, 2);
        assert_eq!(m.num_vars(), 5);
        let _ = m.var(4);
    }

    #[test]
    fn root_var_reports_level() {
        let mut m = Manager::new(3);
        let v = m.var(1);
        assert_eq!(m.root_var(v), Some(1));
        assert_eq!(m.root_var(Bdd::ONE), None);
    }

    #[test]
    fn varsets_are_interned() {
        let mut m = Manager::new(8);
        let a = m.intern_varset(&[1, 3, 5]);
        let b = m.intern_varset(&[1, 3, 5]);
        let c = m.intern_varset(&[1, 3]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(m.varset(a), &[1, 3, 5]);
    }

    #[test]
    fn node_cap_triggers_overflow_flag() {
        let mut m = Manager::new(8);
        m.set_node_cap(6);
        assert!(!m.is_overflowed());
        // Build a parity function — needs more than 6 nodes.
        let mut f = m.zero();
        for v in 0..8 {
            let x = m.var(v);
            f = m.xor(f, x);
            if m.is_overflowed() {
                break;
            }
        }
        assert!(m.is_overflowed(), "cap of 6 nodes must overflow");
        assert!(m.node_count() <= 7, "allocation stops at the cap");
        // Post-overflow constructions return ⊥ without allocating.
        let before = m.node_count();
        let _ = m.var(3);
        assert_eq!(m.node_count(), before);
    }

    #[test]
    fn uncapped_manager_never_overflows() {
        let mut m = Manager::new(4);
        let a = m.var(0);
        let b = m.var(1);
        let _ = m.xor(a, b);
        assert!(!m.is_overflowed());
    }

    #[test]
    fn stats_and_clear_caches() {
        let mut m = Manager::new(3);
        let a = m.var(0);
        let b = m.var(1);
        let _ = m.and(a, b);
        assert!(m.stats().cache_entries > 0);
        m.clear_caches();
        assert_eq!(m.stats().cache_entries, 0);
        // Operations still work after clearing.
        let c = m.and(a, b);
        assert!(!c.is_terminal());
    }

    #[test]
    fn stats_track_cache_traffic_and_peak() {
        let mut m = Manager::new(6);
        let mut f = m.zero();
        for v in 0..6 {
            let x = m.var(v);
            f = m.xor(f, x);
        }
        let s = m.stats();
        assert!(s.cache_misses > 0, "building xor chain misses the cache");
        assert_eq!(s.nodes, s.allocated - s.free_slots);
        assert!(s.peak_live >= s.nodes);
        assert!(s.cache_hit_rate() >= 0.0 && s.cache_hit_rate() <= 1.0);
        // Re-doing the same op hits the cache.
        let hits_before = m.stats().cache_hits;
        let x0 = m.var(0);
        let x1 = m.var(1);
        let _ = m.xor(x0, x1);
        assert!(m.stats().cache_hits > hits_before);
    }

    #[test]
    fn reset_empties_tables_but_keeps_capacity_and_counters() {
        let mut m = Manager::new(6);
        let mut f = m.zero();
        for v in 0..6 {
            let x = m.var(v);
            f = m.xor(f, x);
        }
        m.set_node_cap(1_000_000);
        let before = m.stats();
        assert!(before.cache_misses > 0 && before.nodes > 2);
        m.reset(4);
        let after = m.stats();
        assert_eq!(after.nodes, 2, "only the terminals survive");
        assert_eq!(after.allocated, 2);
        assert_eq!(after.free_slots, 0);
        assert_eq!(after.cache_entries, 0);
        assert_eq!(after.vars, 4);
        assert_eq!(after.resets, 1);
        assert!(!m.is_overflowed() && !m.is_interrupted());
        // Cumulative counters survive; capacity stays warm.
        assert_eq!(after.cache_misses, before.cache_misses);
        assert_eq!(after.cache_hits, before.cache_hits);
        assert!(after.peak_live >= before.peak_live);
        assert_eq!(after.cache_capacity, before.cache_capacity);
        // The manager is fully usable after a reset.
        let a = m.var(0);
        let b = m.var(3);
        let c = m.and(a, b);
        assert!(!c.is_terminal());
        assert!(m.eval(c, &[true, false, false, true]));
    }

    #[test]
    fn reset_clears_overflow_and_node_cap() {
        let mut m = Manager::new(8);
        m.set_node_cap(4);
        let a = m.var(0);
        let b = m.var(1);
        let _ = m.xor(a, b);
        assert!(m.is_overflowed());
        m.reset(8);
        assert!(!m.is_overflowed());
        let a = m.var(0);
        let b = m.var(1);
        let x = m.xor(a, b);
        assert!(!m.is_overflowed());
        assert!(m.eval(x, &[true, false, false, false, false, false, false, false]));
    }

    #[test]
    fn interrupt_poll_latches_and_collapses_results() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let flag = Arc::new(AtomicBool::new(false));
        let probe = Arc::clone(&flag);
        let mut m = Manager::new(16);
        m.set_interrupt_poll(Some(Box::new(move || probe.load(Ordering::SeqCst))));
        // Build something real first: the probe is false, nothing trips.
        let a = m.var(0);
        let b = m.var(1);
        let ab = m.and(a, b);
        assert!(!m.is_interrupted() && !ab.is_terminal());
        flag.store(true, Ordering::SeqCst);
        // Drive enough constructions through `mk` to cross the poll stride.
        let mut f = m.zero();
        for round in 0..10_000 {
            let x = m.var(round % 16);
            f = m.xor(f, x);
            if m.is_interrupted() {
                break;
            }
        }
        assert!(m.is_interrupted(), "stride-polled probe must latch");
        // Post-interrupt constructions collapse to ⊥ without panicking.
        assert!(m.and(a, b).is_zero());
        // Reset clears the latch and drops the probe.
        m.reset(16);
        assert!(!m.is_interrupted());
        let a = m.var(0);
        let b = m.var(1);
        assert!(!m.and(a, b).is_terminal());
    }

    #[test]
    fn display_stats_mentions_live_and_hit_rate() {
        let mut m = Manager::new(2);
        let a = m.var(0);
        let b = m.var(1);
        let _ = m.and(a, b);
        let text = m.stats().to_string();
        assert!(text.contains("live nodes"));
        assert!(text.contains("hit rate"));
    }
}
