//! Read-only introspection of the manager's internals for external
//! invariant auditing.
//!
//! The `qsyn-audit` crate re-validates the manager's structural invariants
//! (canonicity, variable ordering, unique-table consistency, free-list
//! integrity) and a sample of the computed table *independently* of this
//! crate's own code. The methods here expose just enough raw structure to
//! make that possible without giving callers a way to violate the
//! invariants themselves — with four deliberate exceptions, the
//! `corrupt_*_for_audit` hooks, which exist so the auditors' own
//! rejection paths can be tested.

use crate::manager::{Bdd, Manager, OpTag, CHAIN_END, FREE_LEVEL, TERMINAL_LEVEL};

/// One non-terminal **live** node of the manager's node table, as raw
/// indices. Slots on the free list are not reported here; they appear in
/// [`Manager::free_slot_ids`] instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeEntry {
    /// Handle of the node itself.
    pub id: Bdd,
    /// Variable (= level) the node branches on.
    pub var: u32,
    /// The `var = 0` child.
    pub lo: Bdd,
    /// The `var = 1` child.
    pub hi: Bdd,
}

/// One memoized operation, re-expressed in public terms so an external
/// checker can recompute it from semantics alone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CachedOp {
    /// `ite(f, g, h)`.
    Ite {
        /// Condition.
        f: Bdd,
        /// Then-branch.
        g: Bdd,
        /// Else-branch.
        h: Bdd,
    },
    /// `¬f`.
    Not {
        /// Operand.
        f: Bdd,
    },
    /// `∃ vars . f`.
    Exists {
        /// Operand.
        f: Bdd,
        /// Quantified variables (ascending).
        vars: Vec<u32>,
    },
    /// `∀ vars . f`.
    Forall {
        /// Operand.
        f: Bdd,
        /// Quantified variables (ascending).
        vars: Vec<u32>,
    },
    /// `f[var := g]`.
    Compose {
        /// Host function.
        f: Bdd,
        /// Substituted variable.
        var: u32,
        /// Replacement function.
        g: Bdd,
    },
    /// `f|_{var = value}`.
    Restrict {
        /// Operand.
        f: Bdd,
        /// Restricted variable.
        var: u32,
        /// Value the variable is pinned to.
        value: bool,
    },
    /// Fused `∃ vars (f ∧ g)`.
    AndExists {
        /// Left conjunct.
        f: Bdd,
        /// Right conjunct.
        g: Bdd,
        /// Quantified variables (ascending).
        vars: Vec<u32>,
    },
    /// Fused `∀ vars (f ∧ g)`.
    AndForall {
        /// Left conjunct.
        f: Bdd,
        /// Right conjunct.
        g: Bdd,
        /// Quantified variables (ascending).
        vars: Vec<u32>,
    },
}

/// A cache entry: the operation and the memoized result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheSample {
    /// The memoized operation.
    pub op: CachedOp,
    /// The result the cache claims for it.
    pub result: Bdd,
}

impl Manager {
    /// Iterates over every live non-terminal node in slot order. Free-list
    /// slots are skipped — they hold no function.
    pub fn node_entries(&self) -> impl Iterator<Item = NodeEntry> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .skip(2) // the two terminals
            .filter(|(_, n)| n.var != FREE_LEVEL)
            .map(|(i, n)| NodeEntry {
                id: Bdd(i as u32),
                var: n.var,
                lo: n.lo,
                hi: n.hi,
            })
    }

    /// The raw free list: slots available for reuse, in pop order. For a
    /// consistent manager these are exactly the swept slots — the auditors
    /// check them for duplicates, range violations, terminals, and overlap
    /// with the live nodes of [`Manager::node_entries`].
    pub fn free_slot_ids(&self) -> Vec<Bdd> {
        self.free.iter().map(|&s| Bdd(s)).collect()
    }

    /// `true` if the slot behind `f` carries the free-list sentinel.
    /// Paired with [`Manager::free_slot_ids`]: a consistent manager has
    /// `slot_is_free(s)` for exactly the listed slots.
    pub fn slot_is_free(&self, f: Bdd) -> bool {
        f.index() < self.nodes.len() && self.is_free(f)
    }

    /// Level of the root of `f` as a raw index, with terminals reported as
    /// `u32::MAX` (which compares greater than every real level).
    pub fn raw_level(&self, f: Bdd) -> u32 {
        self.level(f)
    }

    /// Looks up `(var, lo, hi)` in the unique table.
    ///
    /// For a consistent manager this returns `Some(id)` exactly when a live
    /// node `id` with those fields exists; the auditors cross-check this
    /// against the node table itself.
    ///
    /// The walk gives up after as many steps as the arena has slots, so a
    /// corrupted (cyclic) chain reports `None` instead of looping.
    pub fn unique_entry(&self, var: u32, lo: Bdd, hi: Bdd) -> Option<Bdd> {
        let bucket = self.unique_bucket_of(var, lo, hi);
        self.find_in_bucket(bucket, var, lo, hi, self.nodes.len())
    }

    /// Number of unique-table buckets (a power of two).
    pub fn unique_bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// First node of bucket `bucket`'s chain, `None` for an empty bucket.
    /// Panics if `bucket` is not below [`Manager::unique_bucket_count`].
    pub fn unique_bucket_head(&self, bucket: usize) -> Option<Bdd> {
        let id = self.buckets[bucket];
        (id != CHAIN_END).then_some(Bdd(id))
    }

    /// The node after `id` on its unique-table chain, as stored (the link
    /// is not range-checked); `None` at the end of the chain or for a slot
    /// outside the arena.
    pub fn unique_chain_next(&self, id: Bdd) -> Option<Bdd> {
        let next = self.nodes.get(id.index())?.next;
        (next != CHAIN_END).then_some(Bdd(next))
    }

    /// Up to `limit` computed-table entries, taken at an even stride over
    /// the occupied slots so the sample spans the whole table, re-expressed
    /// as [`CacheSample`]s an external checker can recompute.
    pub fn cache_samples(&self, limit: usize) -> Vec<CacheSample> {
        let stride = self
            .computed
            .counters()
            .entries
            .div_ceil(limit.max(1))
            .max(1);
        self.computed
            .iter()
            .step_by(stride)
            .take(limit)
            .map(|((tag, a, b, c), result)| {
                let op = match tag {
                    OpTag::Ite => CachedOp::Ite { f: a, g: b, h: c },
                    OpTag::Not => CachedOp::Not { f: a },
                    OpTag::Exists(id) => CachedOp::Exists {
                        f: a,
                        vars: self.varset(id)[b.0 as usize..].to_vec(),
                    },
                    OpTag::Forall(id) => CachedOp::Forall {
                        f: a,
                        vars: self.varset(id)[b.0 as usize..].to_vec(),
                    },
                    OpTag::Compose(var) => CachedOp::Compose { f: a, var, g: b },
                    OpTag::Restrict => CachedOp::Restrict {
                        f: a,
                        var: b.0,
                        value: c.is_one(),
                    },
                    OpTag::AndExists(id) => CachedOp::AndExists {
                        f: a,
                        g: b,
                        vars: self.varset(id)[c.0 as usize..].to_vec(),
                    },
                    OpTag::AndForall(id) => CachedOp::AndForall {
                        f: a,
                        g: b,
                        vars: self.varset(id)[c.0 as usize..].to_vec(),
                    },
                };
                CacheSample { op, result }
            })
            .collect()
    }

    /// **Test-only corruption hook**: overwrites node `id` in place,
    /// bypassing every invariant the ordinary constructors enforce.
    ///
    /// This exists solely so the audit layer can prove its rejection paths
    /// fire; a manager mutated this way is broken by construction and must
    /// be discarded. Panics if `id` is a terminal or out of range.
    #[doc(hidden)]
    pub fn corrupt_node_for_audit(&mut self, id: Bdd, var: u32, lo: Bdd, hi: Bdd) {
        assert!(!id.is_terminal(), "cannot corrupt a terminal");
        let slot = &mut self.nodes[id.0 as usize];
        assert!(slot.var != TERMINAL_LEVEL, "node out of range");
        slot.var = var;
        slot.lo = lo;
        slot.hi = hi;
    }

    /// **Test-only corruption hook**: unlinks live node `id` from its
    /// unique-table chain, leaving the node itself intact — a later `mk`
    /// of the same triple would then build a duplicate. Panics if `id` is
    /// not on the chain of its own bucket.
    #[doc(hidden)]
    pub fn corrupt_unique_chain_for_audit(&mut self, id: Bdd) {
        let n = self.nodes[id.index()];
        let bucket = self.unique_bucket_of(n.var, n.lo, n.hi);
        if self.buckets[bucket] == id.0 {
            self.buckets[bucket] = n.next;
            return;
        }
        let mut cur = self.buckets[bucket];
        while self.nodes[cur as usize].next != id.0 {
            cur = self.nodes[cur as usize].next;
            assert!(cur != CHAIN_END, "{id:?} is not chained in its bucket");
        }
        self.nodes[cur as usize].next = n.next;
    }

    /// **Test-only corruption hook**: overwrites the chain link out of
    /// node `id` (`Bdd::ZERO` ends the chain); linking a node to itself
    /// makes its chain cyclic.
    #[doc(hidden)]
    pub fn corrupt_chain_link_for_audit(&mut self, id: Bdd, next: Bdd) {
        self.nodes[id.index()].next = next.0;
    }

    /// **Test-only corruption hook**: pushes the slot of a *live* node onto
    /// the free list without sweeping it, so the slot appears both live and
    /// free — exactly the inconsistency the free-list auditor must reject
    /// (a later construction would overwrite a node that is still
    /// reachable). Panics if `id` is a terminal.
    #[doc(hidden)]
    pub fn corrupt_free_list_for_audit(&mut self, id: Bdd) {
        assert!(!id.is_terminal(), "cannot free a terminal");
        self.free.push(id.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_entries_cover_all_nonterminals() {
        let mut m = Manager::new(3);
        let a = m.var(0);
        let b = m.var(1);
        let _ = m.and(a, b);
        let entries: Vec<NodeEntry> = m.node_entries().collect();
        assert_eq!(entries.len(), m.node_count() - 2);
        for e in &entries {
            assert!(!e.id.is_terminal());
            assert_eq!(m.unique_entry(e.var, e.lo, e.hi), Some(e.id));
        }
    }

    #[test]
    fn node_entries_skip_free_slots() {
        let mut m = Manager::new(3);
        let a = m.var(0);
        let b = m.var(1);
        let junk = m.and(a, b);
        let _ = junk;
        let freed = m.collect_garbage(&[a, b]);
        assert!(freed > 0);
        let entries: Vec<NodeEntry> = m.node_entries().collect();
        assert_eq!(entries.len(), m.node_count() - 2);
        let free = m.free_slot_ids();
        assert_eq!(free.len(), freed);
        for f in &free {
            assert!(m.slot_is_free(*f));
            assert!(entries.iter().all(|e| e.id != *f));
        }
    }

    #[test]
    fn cache_samples_report_real_operations() {
        let mut m = Manager::new(3);
        let a = m.var(0);
        let b = m.var(1);
        let ab = m.and(a, b);
        let _ = m.forall(ab, &[0]);
        let samples = m.cache_samples(usize::MAX);
        assert!(!samples.is_empty());
        assert!(samples
            .iter()
            .any(|s| matches!(s.op, CachedOp::Ite { .. } | CachedOp::Forall { .. })));
    }

    #[test]
    fn cache_samples_cover_fused_ops() {
        let mut m = Manager::new(4);
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let f = m.or(a, c);
        let g = m.or(b, c);
        let _ = m.and_forall(f, g, &[2]);
        let _ = m.and_exists(f, g, &[2]);
        let samples = m.cache_samples(usize::MAX);
        assert!(samples
            .iter()
            .any(|s| matches!(&s.op, CachedOp::AndForall { vars, .. } if vars == &[2])));
        assert!(samples
            .iter()
            .any(|s| matches!(&s.op, CachedOp::AndExists { vars, .. } if vars == &[2])));
    }

    #[test]
    fn cache_samples_decode_to_operations_that_recompute_their_results() {
        let mut m = Manager::new(6);
        let v: Vec<Bdd> = (0..6).map(|i| m.var(i)).collect();
        let f = m.or(v[0], v[3]);
        let g = m.xor(v[1], v[3]);
        let h = m.and(f, v[5]);
        let _ = m.not(h);
        let _ = m.exists(g, &[1, 3]);
        let _ = m.forall(f, &[0]);
        let _ = m.compose(f, 3, g);
        let _ = m.restrict(g, 1, false);
        let _ = m.and_forall(f, g, &[3, 4]);
        let _ = m.and_exists(f, h, &[3]);
        let samples = m.cache_samples(usize::MAX);
        let mut kinds = std::collections::HashSet::new();
        for s in &samples {
            let recomputed = match s.op.clone() {
                CachedOp::Ite { f, g, h } => m.ite(f, g, h),
                CachedOp::Not { f } => m.not(f),
                CachedOp::Exists { f, vars } => m.exists(f, &vars),
                CachedOp::Forall { f, vars } => m.forall(f, &vars),
                CachedOp::Compose { f, var, g } => m.compose(f, var, g),
                CachedOp::Restrict { f, var, value } => m.restrict(f, var, value),
                CachedOp::AndExists { f, g, vars } => m.and_exists(f, g, &vars),
                CachedOp::AndForall { f, g, vars } => m.and_forall(f, g, &vars),
            };
            assert_eq!(recomputed, s.result, "{:?}", s.op);
            kinds.insert(std::mem::discriminant(&s.op));
        }
        assert_eq!(kinds.len(), 8, "every operation kind is sampled");
    }

    #[test]
    fn corruption_hook_overwrites_in_place() {
        let mut m = Manager::new(2);
        let v = m.var(1);
        m.corrupt_node_for_audit(v, 1, Bdd::ONE, Bdd::ONE);
        let e = m.node_entries().find(|e| e.id == v).unwrap();
        assert_eq!((e.lo, e.hi), (Bdd::ONE, Bdd::ONE));
    }

    #[test]
    fn chains_hold_exactly_the_live_nodes_in_their_buckets() {
        let mut m = Manager::new(10);
        let mut f = m.zero();
        for v in 0..10 {
            let x = m.var(v);
            let g = m.and(f, x);
            f = m.xor(g, x);
        }
        let _ = m.collect_garbage(&[f]);
        let mut chained = Vec::new();
        for b in 0..m.unique_bucket_count() {
            let mut cur = m.unique_bucket_head(b);
            while let Some(id) = cur {
                let (lo, hi) = m.children(id);
                assert_eq!(m.unique_bucket_of(m.raw_level(id), lo, hi), b);
                chained.push(id);
                cur = m.unique_chain_next(id);
            }
        }
        chained.sort();
        let live: Vec<Bdd> = m.node_entries().map(|e| e.id).collect();
        assert_eq!(chained, live);
        assert!(m.unique_bucket_count().is_power_of_two());
        assert!(m.unique_bucket_count() >= m.node_count());
    }

    #[test]
    fn chain_hooks_unlink_and_loop() {
        let mut m = Manager::new(4);
        let a = m.var(0);
        let b = m.var(1);
        let ab = m.and(a, b);
        let (lo, hi) = m.children(ab);
        m.corrupt_unique_chain_for_audit(ab);
        assert_eq!(m.unique_entry(0, lo, hi), None, "unlinked");
        m.corrupt_chain_link_for_audit(a, a);
        assert_eq!(m.unique_chain_next(a), Some(a));
        // A missing key in `a`'s bucket walks onto the cycle; the bounded
        // walk still terminates.
        let bucket = m.unique_bucket_of(0, Bdd::ZERO, Bdd::ONE);
        let missing = (2..100_000)
            .map(|i| (3, Bdd(i), Bdd::ONE))
            .find(|&(v, lo, hi)| m.unique_bucket_of(v, lo, hi) == bucket)
            .expect("some key shares a's bucket");
        assert_eq!(m.unique_entry(missing.0, missing.1, missing.2), None);
    }

    #[test]
    fn free_list_corruption_hook_aliases_live_slot() {
        let mut m = Manager::new(2);
        let v = m.var(1);
        m.corrupt_free_list_for_audit(v);
        // The slot now shows up both live and free — the inconsistency the
        // external auditor looks for.
        assert!(m.free_slot_ids().contains(&v));
        assert!(m.node_entries().any(|e| e.id == v));
        assert!(!m.slot_is_free(v));
    }
}
