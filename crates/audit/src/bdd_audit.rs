//! BDD manager audit: structural canonicity plus semantic spot-checks of
//! the operation cache.
//!
//! The manager's correctness argument rests on three structural invariants
//! (Bryant's reduction rules) and one behavioural one:
//!
//! 1. **Ordering** — every edge goes strictly downward in the variable
//!    order; terminals sit below everything.
//! 2. **No redundancy** — no node has `lo == hi` (such a node would be a
//!    no-op test and breaks canonicity).
//! 3. **Unique table agreement** — the `(var, lo, hi) → node` table and
//!    the node arena describe the same set of nodes, with no duplicate
//!    triples (hash consing is what makes equality checks O(1)). The table
//!    is bucket chains threaded through the nodes, so every chain is also
//!    walked: each chained node is live and sits in its key's bucket, no
//!    chain cycles or shares a node with another, and the chained count
//!    equals the live count.
//! 4. **Free-list integrity** — slots on the free list are genuinely dead:
//!    none is a terminal, none is listed twice, none still holds a live
//!    node, and no live node points into a freed slot. A violation here
//!    means a future allocation would overwrite a reachable function.
//! 5. **Cache soundness** — every memoized operation result actually
//!    equals the operation recomputed from scratch.
//!
//! Checks 1–4 are exact and cheap (one pass over the arena). Check 5 is
//! semantic: this module carries its *own* BDD evaluator (a plain
//! node-table walk, sharing no code with `qsyn-bdd`'s apply algorithm) and
//! compares a sample of cache entries against brute-force recomputation —
//! exhaustively over all `2^n` assignments when the manager is small,
//! otherwise over a deterministic pseudo-random sample.

use qsyn_bdd::{Bdd, CacheSample, CachedOp, FibHashMap, Manager, NodeEntry};

use crate::report::{AuditError, AuditFamily, Violation};

/// How many operation-cache entries [`audit_manager`] re-validates, taken
/// at an even stride across the whole table.
pub const CACHE_SAMPLE_LIMIT: usize = 32;

/// Managers with at most this many variables are checked over *all*
/// assignments; larger ones over [`SAMPLED_ENVS`] pseudo-random ones.
pub const EXHAUSTIVE_VAR_LIMIT: u32 = 8;

/// Number of sampled assignments used beyond [`EXHAUSTIVE_VAR_LIMIT`].
pub const SAMPLED_ENVS: usize = 256;

/// Quantifier cache entries over more than this many variables are skipped:
/// verifying `∃/∀ vars . f` requires enumerating all `2^|vars|` assignments
/// to the quantified block, and *sampling* that block is unsound (missing a
/// witness is not a mismatch).
const QUANT_BLOCK_LIMIT: usize = 8;

/// Audits `m` against invariants 1–5 above.
///
/// # Errors
///
/// Returns every violation found; see [`AuditError`].
pub fn audit_manager(m: &Manager) -> Result<(), AuditError> {
    let mut violations = Vec::new();
    let entries: Vec<NodeEntry> = m.node_entries().collect();
    // With the free list, live handles can index past the *live* count, so
    // range checks go against the allocated arena extent instead.
    let allocated = m.stats().allocated;
    let in_range = |f: Bdd| f.index() < allocated;

    let free = m.free_slot_ids();
    // Slot-indexed sets: every free slot is range-checked before lookup.
    let mut live_ids = vec![false; allocated];
    for e in &entries {
        if let Some(live) = live_ids.get_mut(e.id.index()) {
            *live = true;
        }
    }
    let mut seen_free = vec![false; allocated];
    for &slot in &free {
        if slot.is_terminal() {
            violations.push(Violation::new(
                "bdd.free-terminal",
                format!("terminal {slot:?} is on the free list"),
            ));
            continue;
        }
        if !in_range(slot) {
            violations.push(Violation::new(
                "bdd.free-range",
                format!("free slot {slot:?} lies outside the {allocated}-slot arena"),
            ));
            continue;
        }
        if std::mem::replace(&mut seen_free[slot.index()], true) {
            violations.push(Violation::new(
                "bdd.free-duplicate",
                format!("slot {slot:?} appears twice on the free list"),
            ));
            continue;
        }
        if live_ids[slot.index()] || !m.slot_is_free(slot) {
            violations.push(Violation::new(
                "bdd.free-live",
                format!("slot {slot:?} is on the free list but still holds a live node"),
            ));
        }
    }
    // Conservation: every allocated slot is a terminal, a live node, or a
    // free slot — nothing is double-counted and nothing leaks.
    if allocated != entries.len() + 2 + free.len() {
        violations.push(Violation::new(
            "bdd.free-count",
            format!(
                "{allocated} allocated slots but {} live + 2 terminals + {} free",
                entries.len(),
                free.len()
            ),
        ));
    }

    let mut triples: FibHashMap<(u32, Bdd, Bdd), Bdd> = FibHashMap::default();
    triples.reserve(entries.len());
    for e in &entries {
        if e.var >= m.num_vars() {
            violations.push(Violation::new(
                "bdd.var-range",
                format!(
                    "node {:?} tests variable {} of {}",
                    e.id,
                    e.var,
                    m.num_vars()
                ),
            ));
            continue;
        }
        if !in_range(e.lo) || !in_range(e.hi) {
            violations.push(Violation::new(
                "bdd.child-range",
                format!(
                    "node {:?} has dangling child ({:?}, {:?})",
                    e.id, e.lo, e.hi
                ),
            ));
            continue;
        }
        if e.lo == e.hi {
            violations.push(Violation::new(
                "bdd.redundant",
                format!("node {:?} has identical children {:?}", e.id, e.lo),
            ));
        }
        for child in [e.lo, e.hi] {
            if m.slot_is_free(child) {
                violations.push(Violation::new(
                    "bdd.child-free",
                    format!("live node {:?} points at freed slot {child:?}", e.id),
                ));
                continue;
            }
            if m.raw_level(child) <= e.var {
                violations.push(Violation::new(
                    "bdd.ordering",
                    format!(
                        "node {:?} at level {} has child {:?} at level {}",
                        e.id,
                        e.var,
                        child,
                        m.raw_level(child)
                    ),
                ));
            }
        }
        if let Some(prev) = triples.insert((e.var, e.lo, e.hi), e.id) {
            violations.push(Violation::new(
                "bdd.duplicate",
                format!(
                    "nodes {prev:?} and {:?} share triple ({}, {:?}, {:?})",
                    e.id, e.var, e.lo, e.hi
                ),
            ));
        }
        match m.unique_entry(e.var, e.lo, e.hi) {
            Some(id) if id == e.id => {}
            Some(other) => violations.push(Violation::new(
                "bdd.unique-table",
                format!("unique table maps node {:?}'s triple to {other:?}", e.id),
            )),
            None => violations.push(Violation::new(
                "bdd.unique-table",
                format!("node {:?} missing from the unique table", e.id),
            )),
        }
    }

    check_chains(m, &entries, &mut violations);

    // Only spot-check the cache on a structurally sound arena — the
    // evaluator below assumes well-formed nodes.
    if violations.is_empty() {
        let eval = Evaluator::new(&entries);
        let envs = envs(m.num_vars());
        for sample in m.cache_samples(CACHE_SAMPLE_LIMIT) {
            check_sample(&eval, &envs, &sample, &mut violations);
        }
    }

    AuditError::from_violations(AuditFamily::Bdd, violations)
}

/// Walks every unique-table chain (invariant 3). Each step either visits a
/// new in-range slot or stops the chain, so a cycle cannot hang the walk.
fn check_chains(m: &Manager, entries: &[NodeEntry], out: &mut Vec<Violation>) {
    let allocated = m.stats().allocated;
    let mut live: Vec<Option<&NodeEntry>> = vec![None; allocated];
    for e in entries {
        if let Some(slot) = live.get_mut(e.id.index()) {
            *slot = Some(e);
        }
    }
    let mut chained = vec![false; allocated];
    let mut chained_count = 0;
    for bucket in 0..m.unique_bucket_count() {
        let mut cur = m.unique_bucket_head(bucket);
        while let Some(id) = cur {
            if id.is_terminal() || id.index() >= allocated {
                out.push(Violation::new(
                    "bdd.chain-range",
                    format!("bucket {bucket} chains slot {id:?}, not a node of the arena"),
                ));
                break;
            }
            if std::mem::replace(&mut chained[id.index()], true) {
                out.push(Violation::new(
                    "bdd.chain-cycle",
                    format!("bucket {bucket} reaches {id:?} a second time"),
                ));
                break;
            }
            chained_count += 1;
            match live[id.index()] {
                None => out.push(Violation::new(
                    "bdd.chain-dead",
                    format!("bucket {bucket} chains free slot {id:?}"),
                )),
                Some(e) => {
                    let home = m.unique_bucket_of(e.var, e.lo, e.hi);
                    if home != bucket {
                        out.push(Violation::new(
                            "bdd.chain-bucket",
                            format!("node {id:?} is chained in bucket {bucket}, its key hashes to {home}"),
                        ));
                    }
                }
            }
            cur = m.unique_chain_next(id);
        }
    }
    if chained_count != entries.len() {
        out.push(Violation::new(
            "bdd.chain-count",
            format!("{chained_count} nodes chained but {} live", entries.len()),
        ));
    }
}

/// Independent evaluator over a snapshot of the node table, indexed by
/// node id.
struct Evaluator {
    nodes: Vec<Option<(u32, Bdd, Bdd)>>,
}

impl Evaluator {
    fn new(entries: &[NodeEntry]) -> Evaluator {
        let len = entries.iter().map(|e| e.id.index() + 1).max().unwrap_or(0);
        let mut nodes = vec![None; len];
        for e in entries {
            nodes[e.id.index()] = Some((e.var, e.lo, e.hi));
        }
        Evaluator { nodes }
    }

    /// Evaluates `f` under `env` by walking the table; `None` if the walk
    /// hits a handle outside the snapshot.
    fn eval(&self, mut f: Bdd, env: &[bool]) -> Option<bool> {
        loop {
            if f == Bdd::ZERO {
                return Some(false);
            }
            if f == Bdd::ONE {
                return Some(true);
            }
            let (var, lo, hi) = (*self.nodes.get(f.index())?)?;
            f = if *env.get(var as usize)? { hi } else { lo };
        }
    }
}

fn check_sample(
    eval: &Evaluator,
    envs: &[Vec<bool>],
    sample: &CacheSample,
    out: &mut Vec<Violation>,
) {
    if let CachedOp::Exists { vars, .. }
    | CachedOp::Forall { vars, .. }
    | CachedOp::AndExists { vars, .. }
    | CachedOp::AndForall { vars, .. } = &sample.op
    {
        if vars.len() > QUANT_BLOCK_LIMIT {
            return; // see QUANT_BLOCK_LIMIT: sampling the block is unsound
        }
    }
    for env in envs {
        let expected = match &sample.op {
            CachedOp::Ite { f, g, h } => {
                let (f, g, h) = (eval.eval(*f, env), eval.eval(*g, env), eval.eval(*h, env));
                match (f, g, h) {
                    (Some(f), Some(g), Some(h)) => Some(if f { g } else { h }),
                    _ => None,
                }
            }
            CachedOp::Not { f } => eval.eval(*f, env).map(|v| !v),
            CachedOp::Exists { f, vars } => quantify(eval, *f, vars, env, false),
            CachedOp::Forall { f, vars } => quantify(eval, *f, vars, env, true),
            CachedOp::Compose { f, var, g } => eval.eval(*g, env).and_then(|gv| {
                let mut env2 = env.clone();
                env2[*var as usize] = gv;
                eval.eval(*f, &env2)
            }),
            CachedOp::Restrict { f, var, value } => {
                let mut env2 = env.clone();
                env2[*var as usize] = *value;
                eval.eval(*f, &env2)
            }
            CachedOp::AndExists { f, g, vars } => and_quantify(eval, *f, *g, vars, env, false),
            CachedOp::AndForall { f, g, vars } => and_quantify(eval, *f, *g, vars, env, true),
        };
        let actual = eval.eval(sample.result, env);
        let (Some(expected), Some(actual)) = (expected, actual) else {
            out.push(Violation::new(
                "bdd.cache-dangling",
                format!("cache entry {:?} references unknown nodes", sample.op),
            ));
            return;
        };
        if expected != actual {
            out.push(Violation::new(
                "bdd.cache-stale",
                format!(
                    "cache entry {:?} claims {:?} but recomputation disagrees under {env:?}",
                    sample.op, sample.result
                ),
            ));
            return; // one witness per entry is enough
        }
    }
}

/// `∃/∀ vars . f` under `env`, by enumerating the quantified block.
fn quantify(eval: &Evaluator, f: Bdd, vars: &[u32], env: &[bool], forall: bool) -> Option<bool> {
    let mut env2 = env.to_vec();
    for combo in 0u32..(1 << vars.len()) {
        for (i, &v) in vars.iter().enumerate() {
            env2[v as usize] = combo >> i & 1 == 1;
        }
        let value = eval.eval(f, &env2)?;
        if value != forall {
            // ∃ found a witness / ∀ found a counterexample.
            return Some(!forall);
        }
    }
    Some(forall)
}

/// Fused `∃/∀ vars . (f ∧ g)` under `env`, by enumerating the quantified
/// block — the oracle for the manager's `and_exists`/`and_forall` entries.
fn and_quantify(
    eval: &Evaluator,
    f: Bdd,
    g: Bdd,
    vars: &[u32],
    env: &[bool],
    forall: bool,
) -> Option<bool> {
    let mut env2 = env.to_vec();
    for combo in 0u32..(1 << vars.len()) {
        for (i, &v) in vars.iter().enumerate() {
            env2[v as usize] = combo >> i & 1 == 1;
        }
        // Evaluate both conjuncts (no short-circuit) so a dangling handle
        // in either operand is reported rather than masked.
        let fv = eval.eval(f, &env2)?;
        let gv = eval.eval(g, &env2)?;
        if (fv && gv) != forall {
            // ∃ found a witness / ∀ found a counterexample.
            return Some(!forall);
        }
    }
    Some(forall)
}

/// The assignments to check: exhaustive for small managers, a fixed
/// deterministic pseudo-random sample (splitmix-style LCG) otherwise.
fn envs(num_vars: u32) -> Vec<Vec<bool>> {
    if num_vars <= EXHAUSTIVE_VAR_LIMIT {
        (0u32..(1 << num_vars))
            .map(|bits| (0..num_vars).map(|v| bits >> v & 1 == 1).collect())
            .collect()
    } else {
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state >> 33
        };
        (0..SAMPLED_ENVS)
            .map(|_| (0..num_vars).map(|v| next() >> (v % 31) & 1 == 1).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_manager() -> Manager {
        let mut m = Manager::new(5);
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let d = m.var(3);
        let ab = m.and(a, b);
        let cd = m.xor(c, d);
        let f = m.or(ab, cd);
        let _ = m.exists(f, &[1, 2]);
        let _ = m.forall(f, &[0]);
        let _ = m.compose(f, 3, ab);
        let g = m.not(f);
        let _ = m.restrict(g, 2, true);
        m
    }

    #[test]
    fn clean_manager_passes() {
        audit_manager(&busy_manager()).expect("clean manager must audit green");
    }

    #[test]
    fn swapped_children_are_caught() {
        let mut m = busy_manager();
        let a = m.var(0);
        let b = m.var(1);
        let ab = m.and(a, b);
        let (lo, hi) = m.children(ab);
        m.corrupt_node_for_audit(ab, m.raw_level(ab), hi, lo);
        let err = audit_manager(&m).expect_err("corruption must be rejected");
        assert_eq!(err.family, AuditFamily::Bdd);
    }

    #[test]
    fn redundant_node_is_caught() {
        let mut m = Manager::new(3);
        let v = m.var(2);
        m.corrupt_node_for_audit(v, 2, Bdd::ONE, Bdd::ONE);
        let err = audit_manager(&m).expect_err("redundant node must be rejected");
        assert!(err.violations.iter().any(|v| v.check == "bdd.redundant"));
    }

    #[test]
    fn ordering_violation_is_caught() {
        let mut m = Manager::new(3);
        let a = m.var(0);
        let b = m.var(1);
        let ab = m.and(a, b); // root at level 0 with a level-1 child
        let (lo, hi) = m.children(ab);
        // Claim the root tests variable 2: its children now sit above it.
        m.corrupt_node_for_audit(ab, 2, lo, hi);
        let err = audit_manager(&m).expect_err("ordering violation must be rejected");
        assert!(err.violations.iter().any(|v| v.check == "bdd.ordering"));
    }

    #[test]
    fn var_out_of_range_is_caught() {
        let mut m = Manager::new(2);
        let v = m.var(0);
        let (lo, hi) = m.children(v);
        m.corrupt_node_for_audit(v, 7, lo, hi);
        let err = audit_manager(&m).expect_err("out-of-range var must be rejected");
        assert!(err.violations.iter().any(|v| v.check == "bdd.var-range"));
    }

    #[test]
    fn collected_manager_audits_green() {
        let mut m = busy_manager();
        let a = m.var(0);
        let b = m.var(1);
        let keep = m.xor(a, b);
        let freed = m.collect_garbage(&[keep]);
        assert!(freed > 0, "the busy manager has garbage to free");
        audit_manager(&m).expect("a swept manager must still audit green");
        // Slot reuse after the sweep must not disturb the invariants either.
        let c = m.var(2);
        let _ = m.and(keep, c);
        audit_manager(&m).expect("reused slots must audit green");
    }

    #[test]
    fn free_list_aliasing_a_live_node_is_caught() {
        let mut m = busy_manager();
        let a = m.var(0);
        let b = m.var(1);
        let ab = m.and(a, b);
        m.corrupt_free_list_for_audit(ab);
        let err = audit_manager(&m).expect_err("aliased free slot must be rejected");
        assert!(err.violations.iter().any(|v| v.check == "bdd.free-live"));
        assert!(err.violations.iter().any(|v| v.check == "bdd.free-count"));
    }

    #[test]
    fn unlinked_chain_node_is_caught() {
        let mut m = busy_manager();
        let a = m.var(0);
        let b = m.var(1);
        let ab = m.and(a, b);
        m.corrupt_unique_chain_for_audit(ab);
        let err = audit_manager(&m).expect_err("unlinked node must be rejected");
        assert!(err.violations.iter().any(|v| v.check == "bdd.chain-count"));
        assert!(err.violations.iter().any(|v| v.check == "bdd.unique-table"));
    }

    #[test]
    fn cyclic_chain_is_caught_and_the_walk_ends() {
        let mut m = busy_manager();
        let a = m.var(0);
        m.corrupt_chain_link_for_audit(a, a);
        let err = audit_manager(&m).expect_err("cyclic chain must be rejected");
        assert!(err.violations.iter().any(|v| v.check == "bdd.chain-cycle"));
    }

    #[test]
    fn chained_free_slot_is_caught() {
        let mut m = busy_manager();
        let a = m.var(0);
        let b = m.var(1);
        let keep = m.xor(a, b);
        assert!(m.collect_garbage(&[keep]) > 0);
        let dead = m.free_slot_ids()[0];
        m.corrupt_chain_link_for_audit(keep, dead);
        let err = audit_manager(&m).expect_err("chained free slot must be rejected");
        assert!(err.violations.iter().any(|v| v.check == "bdd.chain-dead"));
    }

    #[test]
    fn node_in_the_wrong_bucket_is_caught() {
        // Rewriting a node's key in place leaves it chained under its old
        // key's bucket.
        let mut m = Manager::new(12);
        let mut f = m.zero();
        for v in 0..12 {
            let x = m.var(v);
            f = m.xor(f, x);
        }
        let victim = m
            .node_entries()
            .find(|e| {
                e.var >= 1
                    && m.unique_bucket_of(e.var - 1, e.lo, e.hi)
                        != m.unique_bucket_of(e.var, e.lo, e.hi)
            })
            .expect("some node moves bucket with its variable");
        m.corrupt_node_for_audit(victim.id, victim.var - 1, victim.lo, victim.hi);
        let err = audit_manager(&m).expect_err("misplaced node must be rejected");
        assert!(err.violations.iter().any(|v| v.check == "bdd.chain-bucket"));
    }

    #[test]
    fn reset_manager_audits_green() {
        // `Manager::reset` (the session-recycling path) must leave a
        // structurally pristine manager: empty caches, coherent unique
        // table and free list — both straight after the reset and after
        // building fresh functions over a *different* variable count.
        let mut m = busy_manager();
        m.reset(3);
        audit_manager(&m).expect("freshly reset manager must audit green");
        let a = m.var(0);
        let b = m.var(2);
        let f = m.and(a, b);
        let _ = m.exists(f, &[0]);
        audit_manager(&m).expect("reset manager must stay green under reuse");
        // A second recycle round keeps the invariants too.
        m.reset(5);
        audit_manager(&m).expect("second reset must audit green");
    }

    #[test]
    fn fused_cache_entries_are_revalidated() {
        let mut m = Manager::new(6);
        let vars: Vec<Bdd> = (0..6).map(|v| m.var(v)).collect();
        let f = m.or(vars[0], vars[2]);
        let g = m.or(vars[1], vars[2]);
        let _ = m.and_forall(f, g, &[2, 4]);
        let _ = m.and_exists(f, g, &[2]);
        audit_manager(&m).expect("fused cache entries must revalidate");
    }

    #[test]
    fn fused_entries_deep_in_many_varsets_are_revalidated() {
        // Eight quantified blocks of five variables each, memoized by the
        // fused kernels at every position of their descent, with nothing
        // else in the table: the stride sample lands on entries of many
        // varsets at positions past 0, so a key decoded with its varset id
        // and position swapped recomputes to another function.
        let mut m = Manager::new(14);
        let vars: Vec<Bdd> = (0..14).map(|v| m.var(v)).collect();
        let mut ops = Vec::new();
        for k in 0..8usize {
            let mut f = vars[k];
            let mut g = vars[k + 6];
            for i in 1..6 {
                let fi = m.and(vars[k + i], vars[(k + i + 3) % 14]);
                f = m.xor(f, fi);
                g = m.or(g, vars[(k + 2 * i) % 14]);
            }
            let block: Vec<u32> = (k as u32..k as u32 + 5).collect();
            ops.push((f, g, block));
        }
        m.clear_caches();
        for (f, g, block) in &ops {
            let _ = m.and_forall(*f, *g, block);
            let _ = m.and_exists(*f, *g, block);
        }
        let samples = m.cache_samples(CACHE_SAMPLE_LIMIT);
        let deep = samples.iter().filter(|s| match &s.op {
            CachedOp::AndForall { vars, .. } | CachedOp::AndExists { vars, .. } => vars.len() < 5,
            _ => false,
        });
        assert!(
            deep.count() >= 4,
            "too few fused entries past position 0 sampled"
        );
        audit_manager(&m).expect("fused entries at deep positions must revalidate");
    }

    #[test]
    fn quantifier_cache_entries_are_revalidated() {
        // exists/forall entries over small blocks must be recomputed, and a
        // clean manager's entries must all check out.
        let mut m = Manager::new(6);
        let vars: Vec<Bdd> = (0..6).map(|v| m.var(v)).collect();
        let mut f = vars[0];
        for &v in &vars[1..] {
            f = m.xor(f, v);
        }
        let _ = m.exists(f, &[0, 2, 4]);
        let _ = m.forall(f, &[1, 3]);
        audit_manager(&m).expect("quantifier cache must revalidate");
    }

    #[test]
    fn envs_are_exhaustive_when_small() {
        assert_eq!(envs(3).len(), 8);
        assert_eq!(envs(0).len(), 1);
        let big = envs(20);
        assert_eq!(big.len(), SAMPLED_ENVS);
        assert!(big.iter().all(|e| e.len() == 20));
        // Determinism: two calls agree.
        assert_eq!(big, envs(20));
    }
}
