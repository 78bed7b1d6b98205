//! Mark-and-sweep garbage collection for the node arena.
//!
//! # Root protocol
//!
//! The manager has no reference counts: liveness is defined entirely by the
//! **explicit root set** the caller passes to [`Manager::collect_garbage`].
//! Everything reachable from a root (transitively through `lo`/`hi` edges)
//! survives; every other non-terminal slot goes on the free list and will be
//! reused by later constructions, at which point old handles to it dangle.
//!
//! Because intermediate handles held in the stack frames of a recursive
//! operation are *not* visible to the collector, collection is only sound at
//! **safe points**: between top-level manager operations, when the only
//! handles the caller intends to keep using are the ones it can enumerate.
//! The synthesis engine collects between cascade depths and between
//! `check()` calls, rooting its state functions, spec BDDs, and any
//! solution BDDs (see `crates/core/src/bdd_engine.rs`).
//!
//! # What a collection does
//!
//! 1. **Mark**: iterative depth-first traversal from the roots over an
//!    explicit work stack (no recursion — spec BDDs can be deep).
//! 2. **Sweep**: one pass over the arena overwrites every unmarked
//!    non-terminal slot with the `FREE_LEVEL` sentinel and pushes it onto
//!    the free list, and re-chains every marked one into the emptied
//!    unique-table buckets (the chains run through the nodes, so dead
//!    nodes leave them by not being re-linked).
//! 3. **Cache flush**: the computed table is cleared wholesale. This is not
//!    optional: results are keyed by node indices, and a reused slot index
//!    would otherwise alias a stale entry for the *previous* occupant of
//!    that slot — a soundness bug, not a performance detail.
//!
//! The mark bitmap is kept on the manager and reused across collections to
//! avoid re-allocating it each time.

use crate::manager::{Bdd, Manager, Node, CHAIN_END, FREE_LEVEL, TERMINAL_LEVEL};

impl Manager {
    /// Reclaims every node not reachable from `roots`; returns the number
    /// of nodes freed.
    ///
    /// Handles not covered by `roots` dangle afterwards — see the module
    /// docs for the root protocol and safe points. Terminals and already
    /// free slots are never touched. The computed table is cleared (reused
    /// slot indices would alias stale entries); the unique table keeps only
    /// live nodes.
    ///
    /// Collecting an [overflowed](Manager::is_overflowed) manager is
    /// permitted but does not clear the overflow flag: results computed
    /// after an overflow remain unreliable and the manager should be
    /// discarded.
    pub fn collect_garbage(&mut self, roots: &[Bdd]) -> usize {
        // A collection is a natural coarse-grained point to notice an
        // external interrupt (deadline, cancellation) before committing to
        // a full mark-and-sweep pass. The `bdd.gc-sweep` fault site rides
        // the installed probe (see `ResourceGovernor::interrupt_probe` in
        // `qsyn-core`), so an injected deadline trips the governed token
        // and recovers exactly as a real one.
        self.poll_interrupt();
        // -- Mark --------------------------------------------------------
        let mut marks = std::mem::take(&mut self.gc_marks);
        marks.clear();
        marks.resize(self.nodes.len(), false);
        marks[0] = true;
        marks[1] = true;
        // Marked slots are exactly the survivors, terminals included.
        let mut survivors = 2usize;
        let mut stack: Vec<Bdd> = Vec::with_capacity(64);
        for &r in roots {
            debug_assert!((r.index()) < self.nodes.len(), "root out of arena range");
            debug_assert!(
                self.nodes[r.index()].var != FREE_LEVEL,
                "root is already freed"
            );
            if !marks[r.index()] {
                marks[r.index()] = true;
                survivors += 1;
                stack.push(r);
            }
        }
        while let Some(f) = stack.pop() {
            let n = self.nodes[f.index()];
            debug_assert!(n.var != FREE_LEVEL, "live node points at freed slot");
            for child in [n.lo, n.hi] {
                if !marks[child.index()] {
                    marks[child.index()] = true;
                    survivors += 1;
                    stack.push(child);
                }
            }
        }

        // -- Sweep -------------------------------------------------------
        // The survivor count tells whether anything dies before the arena
        // is walked.
        let freed = self.node_count() - survivors;
        if freed > 0 {
            self.sweep(&marks);
            // Cache flush is mandatory when slots were freed: computed-table
            // entries are keyed by node indices, and a reused slot would
            // alias a stale entry for the slot's previous occupant. When
            // nothing was freed no reuse is possible and the cache stands.
            self.clear_caches();
        }
        self.gc_marks = marks;
        self.note_collection(freed as u64);
        freed
    }

    /// One pass over the arena: every unmarked slot gets the `FREE_LEVEL`
    /// sentinel and goes on the free list (in ascending slot order, so the
    /// next constructions pop the highest slots first), and every marked
    /// one is pushed onto its unique-table chain, which are rebuilt from
    /// empty buckets.
    fn sweep(&mut self, marks: &[bool]) {
        self.buckets.fill(CHAIN_END);
        self.free.clear();
        for (i, &live) in marks.iter().enumerate().skip(2) {
            let id = u32::try_from(i).expect("node index fits u32");
            if live {
                debug_assert!(self.nodes[i].var != TERMINAL_LEVEL, "terminal past index 1");
                self.chain(id);
            } else {
                self.nodes[i] = Node {
                    var: FREE_LEVEL,
                    lo: Bdd::ZERO,
                    hi: Bdd::ZERO,
                    next: CHAIN_END,
                };
                self.free.push(id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_with_all_roots_frees_nothing() {
        let mut m = Manager::new(4);
        let a = m.var(0);
        let b = m.var(1);
        let f = m.and(a, b);
        let before = m.node_count();
        let freed = m.collect_garbage(&[a, b, f]);
        assert_eq!(freed, 0);
        assert_eq!(m.node_count(), before);
        // f still evaluates correctly.
        assert!(m.eval(f, &[true, true, false, false]));
        assert!(!m.eval(f, &[true, false, false, false]));
    }

    #[test]
    fn collect_frees_unreachable_nodes_and_reuses_slots() {
        let mut m = Manager::new(6);
        let a = m.var(0);
        let b = m.var(1);
        let keep = m.and(a, b);
        // Build garbage: a large xor chain we then drop.
        let mut junk = m.zero();
        for v in 0..6 {
            let x = m.var(v);
            junk = m.xor(junk, x);
        }
        let _ = junk; // handle goes dead
        let live_before = m.node_count();
        let freed = m.collect_garbage(&[keep]);
        assert!(freed > 0, "xor chain must be reclaimed");
        assert_eq!(m.node_count(), live_before - freed);
        let s = m.stats();
        assert_eq!(s.gc_runs, 1);
        assert_eq!(s.gc_freed, freed as u64);
        assert_eq!(s.free_slots, freed);
        // keep survives with correct semantics.
        assert!(m.eval(keep, &[true, true, false, false, false, false]));
        // New constructions reuse freed slots: the arena does not grow.
        let allocated_before = m.stats().allocated;
        let c = m.var(2);
        let d = m.var(3);
        let _ = m.and(c, d);
        assert_eq!(m.stats().allocated, allocated_before);
    }

    #[test]
    fn collect_preserves_shared_substructure() {
        let mut m = Manager::new(4);
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let ab = m.and(a, b);
        let f = m.or(ab, c); // f shares ab's nodes
        let _ = ab;
        // Root only f: ab's nodes are reachable through f and must survive.
        let _ = m.collect_garbage(&[f]);
        for env in 0..16u32 {
            let e = [env & 1 != 0, env & 2 != 0, env & 4 != 0, env & 8 != 0];
            assert_eq!(m.eval(f, &e), (e[0] && e[1]) || e[2]);
        }
    }

    #[test]
    fn collect_clears_computed_table_on_free() {
        let mut m = Manager::new(4);
        let a = m.var(0);
        let b = m.var(1);
        let junk = m.xor(a, b);
        let _ = junk;
        assert!(m.stats().cache_entries > 0);
        let freed = m.collect_garbage(&[a, b]);
        assert!(freed > 0);
        assert_eq!(
            m.stats().cache_entries,
            0,
            "reused slots must not alias stale cache entries"
        );
    }

    #[test]
    fn rebuilt_after_collect_is_canonical() {
        let mut m = Manager::new(4);
        let a = m.var(0);
        let b = m.var(1);
        let f1 = m.and(a, b);
        let _ = m.collect_garbage(&[a, b, f1]);
        // Rebuilding the same function yields the same handle (canonicity
        // across a collection: the unique table kept the live entries).
        let f2 = m.and(a, b);
        assert_eq!(f1, f2);
        // And rebuilding a freed function works from scratch.
        let g1 = m.xor(a, b);
        let _ = m.collect_garbage(&[a, b]);
        let g2 = m.xor(a, b);
        for env in 0..4u32 {
            let e = [env & 1 != 0, env & 2 != 0, false, false];
            assert_eq!(m.eval(g2, &e), e[0] ^ e[1]);
        }
        let _ = g1; // g1 dangles; only g2 is meaningful now
    }

    #[test]
    fn terminals_and_empty_roots() {
        let mut m = Manager::new(3);
        let a = m.var(0);
        let _ = a;
        let freed = m.collect_garbage(&[]);
        assert_eq!(freed, 1);
        assert_eq!(m.node_count(), 2, "only terminals survive empty roots");
        // Terminals are always valid.
        assert!(m.eval(Bdd::ONE, &[false, false, false]));
        assert!(!m.eval(Bdd::ZERO, &[false, false, false]));
    }

    #[test]
    fn gc_creates_headroom_under_node_cap() {
        let mut m = Manager::new(8);
        m.set_node_cap(40);
        let a = m.var(0);
        let b = m.var(1);
        let keep = m.and(a, b);
        // Fill with garbage, collect, and keep building: the live-node cap
        // must not trip on reclaimed garbage.
        for round in 0..10 {
            let mut junk = m.zero();
            for v in 0..6 {
                let x = m.var(v);
                junk = m.xor(junk, x);
            }
            assert!(!m.is_overflowed(), "round {round} overflowed");
            let _ = m.collect_garbage(&[a, b, keep]);
        }
        assert!(!m.is_overflowed());
        assert!(m.eval(keep, &[true; 8]));
    }

    #[test]
    fn double_collect_is_idempotent() {
        let mut m = Manager::new(4);
        let a = m.var(0);
        let b = m.var(1);
        let f = m.xor(a, b);
        let junk = m.and(a, b);
        let _ = junk;
        let freed1 = m.collect_garbage(&[f, a, b]);
        let freed2 = m.collect_garbage(&[f, a, b]);
        assert!(freed1 > 0);
        assert_eq!(freed2, 0, "second collection finds no new garbage");
        assert_eq!(m.stats().gc_runs, 2);
    }
}
