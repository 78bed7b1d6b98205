//! Quantification, cofactoring and composition.
//!
//! Universal quantification over the input variables `X` is the heart of the
//! DATE 2008 synthesis approach: after building `F_d = f` as a BDD, the
//! formula `∀x₁…x_n (F_d = f)` is computed by `forall` and leaves a BDD over
//! the gate-select variables `Y` only.

use crate::manager::{Bdd, Manager, OpTag};

impl Manager {
    /// Cofactor `f|_{var=value}`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is not a declared variable.
    pub fn restrict(&mut self, f: Bdd, var: u32, value: bool) -> Bdd {
        assert!(var < self.num_vars(), "variable {var} not declared");
        let selector = self.constant(value);
        self.restrict_rec(f, var, selector)
    }

    fn restrict_rec(&mut self, f: Bdd, var: u32, selector: Bdd) -> Bdd {
        if self.aborted() {
            return Bdd::ZERO;
        }
        let level = self.level(f);
        if level > var {
            // Root below var (or terminal): f does not depend on var here.
            return f;
        }
        let key = (OpTag::Restrict, f, Bdd(var), selector);
        if let Some(r) = self.cache_get(key) {
            return r;
        }
        let (lo, hi) = self.children(f);
        let r = if level == var {
            if selector.is_one() {
                hi
            } else {
                lo
            }
        } else {
            let r0 = self.restrict_rec(lo, var, selector);
            let r1 = self.restrict_rec(hi, var, selector);
            self.mk(level, r0, r1)
        };
        self.cache_insert(key, r);
        r
    }

    /// Existential quantification over a single variable:
    /// `∃v f = f|_{v=0} ∨ f|_{v=1}`.
    pub fn exists_var(&mut self, f: Bdd, var: u32) -> Bdd {
        self.exists(f, &[var])
    }

    /// Universal quantification over a single variable:
    /// `∀v f = f|_{v=0} ∧ f|_{v=1}`.
    pub fn forall_var(&mut self, f: Bdd, var: u32) -> Bdd {
        self.forall(f, &[var])
    }

    /// Existential quantification over a set of variables.
    ///
    /// `vars` may be in any order and may contain duplicates; it is
    /// normalized internally.
    ///
    /// # Panics
    ///
    /// Panics if any variable is undeclared.
    pub fn exists(&mut self, f: Bdd, vars: &[u32]) -> Bdd {
        let set = self.normalize_varset(vars);
        if set.is_empty() {
            return f;
        }
        let id = self.intern_varset(&set);
        self.quant_rec(f, id, 0, false)
    }

    /// Universal quantification over a set of variables.
    ///
    /// # Panics
    ///
    /// Panics if any variable is undeclared.
    pub fn forall(&mut self, f: Bdd, vars: &[u32]) -> Bdd {
        let set = self.normalize_varset(vars);
        if set.is_empty() {
            return f;
        }
        let id = self.intern_varset(&set);
        self.quant_rec(f, id, 0, true)
    }

    fn normalize_varset(&self, vars: &[u32]) -> Vec<u32> {
        for &v in vars {
            assert!(v < self.num_vars(), "variable {v} not declared");
        }
        let mut set = vars.to_vec();
        set.sort_unstable();
        set.dedup();
        set
    }

    /// Quantifies the variables `varset(id)[pos..]` out of `f`.
    /// `universal` selects ∀ (AND) vs ∃ (OR) combination.
    fn quant_rec(&mut self, f: Bdd, id: u32, pos: u32, universal: bool) -> Bdd {
        if self.aborted() {
            return Bdd::ZERO;
        }
        if f.is_terminal() {
            return f;
        }
        // Skip set variables above the root of f: they do not occur in f.
        let level = self.level(f);
        let set = self.varset(id);
        let mut pos = pos as usize;
        while pos < set.len() && set[pos] < level {
            pos += 1;
        }
        if pos == set.len() {
            return f;
        }
        let pos = u32::try_from(pos).expect("varset index fits u32");
        let tag = if universal {
            OpTag::Forall(id)
        } else {
            OpTag::Exists(id)
        };
        let key = (tag, f, Bdd(pos), Bdd::ZERO);
        if let Some(r) = self.cache_get(key) {
            return r;
        }
        let next_var = self.varset(id)[pos as usize];
        let (lo, hi) = self.children(f);
        let r = if level == next_var {
            let r0 = self.quant_rec(lo, id, pos + 1, universal);
            // Short-circuit: ⊥ ∧ x = ⊥ and ⊤ ∨ x = ⊤.
            if universal && r0.is_zero() {
                Bdd::ZERO
            } else if !universal && r0.is_one() {
                Bdd::ONE
            } else {
                let r1 = self.quant_rec(hi, id, pos + 1, universal);
                if universal {
                    self.and(r0, r1)
                } else {
                    self.or(r0, r1)
                }
            }
        } else {
            let r0 = self.quant_rec(lo, id, pos, universal);
            let r1 = self.quant_rec(hi, id, pos, universal);
            self.mk(level, r0, r1)
        };
        self.cache_insert(key, r);
        r
    }

    /// Fused **∀-AND** (the universal dual of CUDD's `bddAndAbstract`):
    /// computes `∀ vars (f ∧ g)` in one recursion, never materializing the
    /// conjunction `f ∧ g`.
    ///
    /// The fusion matters for peak memory: the paper's `check()` step
    /// quantifies the inputs `X` out of a wide equivalence conjunction, and
    /// the unquantified product is by far the largest BDD of the whole run.
    /// It also terminates early — under ∀, any `⊥` cofactor kills the whole
    /// subtree before the sibling branch is even visited.
    ///
    /// `vars` may be unsorted and contain duplicates.
    ///
    /// # Panics
    ///
    /// Panics if any variable is undeclared.
    pub fn and_forall(&mut self, f: Bdd, g: Bdd, vars: &[u32]) -> Bdd {
        let set = self.normalize_varset(vars);
        if set.is_empty() {
            return self.and(f, g);
        }
        let id = self.intern_varset(&set);
        self.and_quant_rec(f, g, id, 0, true)
    }

    /// Fused **∃-AND** (CUDD's `bddAndAbstract`, the relational product):
    /// computes `∃ vars (f ∧ g)` in one recursion without building `f ∧ g`.
    ///
    /// `vars` may be unsorted and contain duplicates.
    ///
    /// # Panics
    ///
    /// Panics if any variable is undeclared.
    pub fn and_exists(&mut self, f: Bdd, g: Bdd, vars: &[u32]) -> Bdd {
        let set = self.normalize_varset(vars);
        if set.is_empty() {
            return self.and(f, g);
        }
        let id = self.intern_varset(&set);
        self.and_quant_rec(f, g, id, 0, false)
    }

    /// Multi-operand fused quantified conjunction: `∀ vars (⋀ operands)`.
    ///
    /// The conjunction is quantified **as it is built**: the recursion
    /// descends the quantified block across *all* operands at once,
    /// cofactoring each operand by edge-following, so no intermediate ever
    /// contains the unquantified product. Every leaf of the descent (one
    /// assignment to the block) reduces to a balanced conjunction of its
    /// now `vars`-free cofactors.
    ///
    /// The leaves are combined through **one threaded accumulator**: the
    /// low branch's result is the high branch's accumulator, and each leaf
    /// ANDs its conjunction into it, so the accumulator is always the
    /// conjunction of the leaves visited so far. Combining per branch
    /// (`∀v F = F|₀ ∧ F|₁`) would instead build the ∀-result of every
    /// half, quarter, … of the block — functions that agree on only part
    /// of the rows, far larger than the answer. The descent terminates
    /// early twice over: a `⊥` cofactor kills its leaf, and a `⊥`
    /// accumulator (rows that each are satisfiable but conflict with each
    /// other) aborts it without visiting the remaining leaves.
    ///
    /// This is exactly the shape of the synthesis engine's `check()` step:
    /// the inputs `X` sit on top of the order, each leaf of the descent
    /// is one input row, and on unrealizable depths (most of iterative
    /// deepening) the first row that conflicts with the rows before it
    /// aborts the check before the remaining rows are ever conjoined.
    ///
    /// When an unquantified variable sits *above* a quantified one (the
    /// `Y`-then-`X` ablation order) the descent stops paying off; the
    /// remainder falls back to conjoin-then-quantify, and that result is
    /// ANDed into the accumulator like a leaf's.
    ///
    /// # Panics
    ///
    /// Panics if any variable is undeclared.
    pub fn forall_and_all(&mut self, operands: &[Bdd], vars: &[u32]) -> Bdd {
        let set = self.normalize_varset(vars);
        if set.is_empty() {
            return self.and_all(operands.iter().copied());
        }
        self.forall_and_acc(operands.to_vec(), &set, 0, Bdd::ONE)
    }

    /// Recursive core of [`Manager::forall_and_all`]: computes
    /// `acc ∧ ∀ set[pos..] (⋀ ops)` by n-ary descent over the quantified
    /// block, threading `acc` through the branches low-then-high.
    /// Not memoized — the operand vector and accumulator make a poor cache
    /// key, and the descent has at most `2^|set|` leaves, each of whose
    /// pairwise conjunctions is cached as usual.
    fn forall_and_acc(
        &mut self,
        mut ops: Vec<Bdd>,
        set: &[u32],
        mut pos: usize,
        mut acc: Bdd,
    ) -> Bdd {
        loop {
            if self.aborted() || acc.is_zero() || ops.iter().any(|f| f.is_zero()) {
                return Bdd::ZERO;
            }
            ops.retain(|f| !f.is_one());
            ops.sort_unstable_by_key(|f| f.0);
            ops.dedup();
            if ops.is_empty() {
                return acc;
            }
            if pos == set.len() {
                let row = self.and_all(ops.iter().copied());
                return self.and(acc, row);
            }
            let top = ops
                .iter()
                .map(|&f| self.level(f))
                .min()
                .expect("operand list is nonempty");
            if set[pos] < top {
                // The quantified variable occurs in no operand.
                pos += 1;
                continue;
            }
            if top < set[pos] {
                // An unquantified variable above the rest of the block:
                // the n-ary descent stops paying off here.
                let eq = self.and_all(ops.iter().copied());
                let rest = self.forall(eq, &set[pos..]);
                return self.and(acc, rest);
            }
            // top == set[pos]: cofactor every operand on the shared var.
            let mut lo_ops = Vec::with_capacity(ops.len());
            let mut hi_ops = Vec::with_capacity(ops.len());
            for &f in &ops {
                if self.level(f) == top {
                    let (lo, hi) = self.children(f);
                    lo_ops.push(lo);
                    hi_ops.push(hi);
                } else {
                    lo_ops.push(f);
                    hi_ops.push(f);
                }
            }
            // The low branch's result is the high branch's accumulator; a
            // ⊥ there aborts the high branch at its first check.
            acc = self.forall_and_acc(lo_ops, set, pos + 1, acc);
            ops = hi_ops;
            pos += 1;
        }
    }

    /// Recursive core of [`Manager::and_forall`] / [`Manager::and_exists`]:
    /// computes `Q varset(id)[pos..] (f ∧ g)` where `Q` is ∀ (`universal`)
    /// or ∃.
    fn and_quant_rec(&mut self, f: Bdd, g: Bdd, id: u32, pos: u32, universal: bool) -> Bdd {
        if self.aborted() {
            return Bdd::ZERO;
        }
        // Terminal and collapse cases reduce to plain quantification.
        if f.is_zero() || g.is_zero() {
            return Bdd::ZERO;
        }
        if f.is_one() && g.is_one() {
            return Bdd::ONE;
        }
        if f == g || g.is_one() {
            return self.quant_rec(f, id, pos, universal);
        }
        if f.is_one() {
            return self.quant_rec(g, id, pos, universal);
        }
        // Skip set variables above both roots: they occur in neither operand.
        let top = self.level(f).min(self.level(g));
        let set = self.varset(id);
        let mut pos = pos as usize;
        while pos < set.len() && set[pos] < top {
            pos += 1;
        }
        if pos == set.len() {
            return self.and(f, g);
        }
        let pos = u32::try_from(pos).expect("varset index fits u32");
        // ∧ is commutative: canonicalize the operand order for cache hits.
        let (f, g) = if f.0 <= g.0 { (f, g) } else { (g, f) };
        let tag = if universal {
            OpTag::AndForall(id)
        } else {
            OpTag::AndExists(id)
        };
        let key = (tag, f, g, Bdd(pos));
        if let Some(r) = self.cache_get(key) {
            return r;
        }
        let next_var = self.varset(id)[pos as usize];
        let (f0, f1) = self.cofactors_at(f, top);
        let (g0, g1) = self.cofactors_at(g, top);
        let r = if top == next_var {
            let r0 = self.and_quant_rec(f0, g0, id, pos + 1, universal);
            // Early termination: ⊥ ∧ x = ⊥ and ⊤ ∨ x = ⊤ — the sibling
            // cofactor is never visited.
            if universal && r0.is_zero() {
                Bdd::ZERO
            } else if !universal && r0.is_one() {
                Bdd::ONE
            } else {
                let r1 = self.and_quant_rec(f1, g1, id, pos + 1, universal);
                if universal {
                    self.and(r0, r1)
                } else {
                    self.or(r0, r1)
                }
            }
        } else {
            let r0 = self.and_quant_rec(f0, g0, id, pos, universal);
            let r1 = self.and_quant_rec(f1, g1, id, pos, universal);
            self.mk(top, r0, r1)
        };
        self.cache_insert(key, r);
        r
    }

    /// Functional composition `f[var := g]`: substitutes the function `g`
    /// for the variable `var` in `f`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is not a declared variable.
    pub fn compose(&mut self, f: Bdd, var: u32, g: Bdd) -> Bdd {
        assert!(var < self.num_vars(), "variable {var} not declared");
        self.compose_rec(f, var, g)
    }

    fn compose_rec(&mut self, f: Bdd, var: u32, g: Bdd) -> Bdd {
        if self.aborted() {
            return Bdd::ZERO;
        }
        let level = self.level(f);
        if level > var {
            return f;
        }
        let key = (OpTag::Compose(var), f, g, Bdd::ZERO);
        if let Some(r) = self.cache_get(key) {
            return r;
        }
        let (lo, hi) = self.children(f);
        let r = if level == var {
            self.ite(g, hi, lo)
        } else {
            let r0 = self.compose_rec(lo, var, g);
            let r1 = self.compose_rec(hi, var, g);
            // The substituted g may depend on variables above `level`, so a
            // plain mk() could violate the order; use ite on the level var.
            let v = self.var(level);
            self.ite(v, r1, r0)
        };
        self.cache_insert(key, r);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Manager, Bdd, Bdd, Bdd) {
        let mut m = Manager::new(3);
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        (m, a, b, c)
    }

    #[test]
    fn restrict_projects_cofactor() {
        let (mut m, a, b, _) = setup();
        let f = m.and(a, b);
        assert_eq!(m.restrict(f, 0, true), b);
        assert_eq!(m.restrict(f, 0, false), Bdd::ZERO);
        // Restricting an absent variable is the identity.
        assert_eq!(m.restrict(f, 2, true), f);
    }

    #[test]
    fn exists_is_or_of_cofactors() {
        let (mut m, a, b, _) = setup();
        let f = m.and(a, b);
        let e = m.exists_var(f, 0);
        assert_eq!(e, b);
    }

    #[test]
    fn forall_is_and_of_cofactors() {
        let (mut m, a, b, _) = setup();
        let f = m.or(a, b);
        let g = m.forall_var(f, 0);
        assert_eq!(g, b);
        let h = m.forall_var(f, 1);
        assert_eq!(h, a);
    }

    #[test]
    fn forall_of_tautology_in_var_is_identity_free() {
        let (mut m, a, _, c) = setup();
        // f = a ⊕ a ∨ c = c — no dependence on a.
        let f = m.xor(a, a);
        let f = m.or(f, c);
        assert_eq!(m.forall_var(f, 0), f);
    }

    #[test]
    fn multi_var_quantification() {
        let (mut m, a, b, c) = setup();
        // f = (a ∧ b) ∨ c
        let ab = m.and(a, b);
        let f = m.or(ab, c);
        // ∃a∃b f = ⊤ ∨ c = ⊤? cofactors: a=b=1 gives ⊤... ∃ab f = 1∨c = 1.
        let e = m.exists(f, &[0, 1]);
        assert!(e.is_one());
        // ∀a∀b f = c.
        let g = m.forall(f, &[1, 0]);
        assert_eq!(g, c);
        // Quantifying everything yields a constant.
        let all = m.forall(f, &[0, 1, 2]);
        assert!(all.is_zero());
        let any = m.exists(f, &[0, 1, 2]);
        assert!(any.is_one());
    }

    #[test]
    fn quantifier_duality() {
        let (mut m, a, b, c) = setup();
        let ab = m.xor(a, b);
        let f = m.ite(c, ab, a);
        // ¬∃x f = ∀x ¬f
        let e = m.exists(f, &[0, 2]);
        let lhs = m.not(e);
        let nf = m.not(f);
        let rhs = m.forall(nf, &[0, 2]);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn empty_varset_is_identity() {
        let (mut m, a, b, _) = setup();
        let f = m.or(a, b);
        assert_eq!(m.exists(f, &[]), f);
        assert_eq!(m.forall(f, &[]), f);
    }

    #[test]
    fn duplicate_and_unsorted_vars_are_normalized() {
        let (mut m, a, b, c) = setup();
        let ab = m.and(a, b);
        let f = m.or(ab, c);
        let g1 = m.forall(f, &[1, 0, 1, 0]);
        let g2 = m.forall(f, &[0, 1]);
        assert_eq!(g1, g2);
    }

    #[test]
    fn compose_substitutes_function() {
        let (mut m, a, b, c) = setup();
        // f = a ⊕ b; f[b := (a ∧ c)] = a ⊕ (a ∧ c)
        let f = m.xor(a, b);
        let ac = m.and(a, c);
        let composed = m.compose(f, 1, ac);
        let expected = m.xor(a, ac);
        assert_eq!(composed, expected);
    }

    #[test]
    fn compose_with_variable_above() {
        let (mut m, a, b, c) = setup();
        // f depends on c (level 2); substitute c := a (level 0, above).
        let f = m.and(b, c);
        let composed = m.compose(f, 2, a);
        let expected = m.and(b, a);
        assert_eq!(composed, expected);
    }

    #[test]
    fn compose_with_constant_equals_restrict() {
        let (mut m, a, b, c) = setup();
        let bc = m.or(b, c);
        let f = m.xor(a, bc);
        let via_compose = m.compose(f, 1, Bdd::ONE);
        let via_restrict = m.restrict(f, 1, true);
        assert_eq!(via_compose, via_restrict);
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn quantifying_undeclared_var_panics() {
        let (mut m, a, _, _) = setup();
        let _ = m.exists(a, &[7]);
    }

    #[test]
    fn and_forall_agrees_with_build_then_quantify() {
        let (mut m, a, b, c) = setup();
        let f = m.or(a, b);
        let g = m.or(b, c);
        let fused = m.and_forall(f, g, &[1]);
        let conj = m.and(f, g);
        let unfused = m.forall(conj, &[1]);
        assert_eq!(fused, unfused);
        // ∀b ((a∨b) ∧ (b∨c)) = a ∧ c
        let ac = m.and(a, c);
        assert_eq!(fused, ac);
    }

    #[test]
    fn and_exists_is_the_relational_product() {
        let (mut m, a, b, c) = setup();
        let f = m.xnor(a, b); // a = b
        let g = m.xnor(b, c); // b = c
                              // ∃b (a=b ∧ b=c) = (a=c): composing two identity relations.
        let fused = m.and_exists(f, g, &[1]);
        let expected = m.xnor(a, c);
        assert_eq!(fused, expected);
    }

    #[test]
    fn fused_empty_varset_is_plain_and() {
        let (mut m, a, b, _) = setup();
        let expected = m.and(a, b);
        assert_eq!(m.and_forall(a, b, &[]), expected);
        assert_eq!(m.and_exists(a, b, &[]), expected);
    }

    #[test]
    fn fused_terminal_cases() {
        let (mut m, a, _, _) = setup();
        assert_eq!(m.and_forall(Bdd::ZERO, a, &[0]), Bdd::ZERO);
        assert_eq!(m.and_exists(a, Bdd::ZERO, &[0]), Bdd::ZERO);
        assert_eq!(m.and_forall(Bdd::ONE, Bdd::ONE, &[0]), Bdd::ONE);
        // ⊤ as one operand degrades to plain quantification.
        let fa = m.forall_var(a, 0);
        assert_eq!(m.and_forall(Bdd::ONE, a, &[0]), fa);
        let ea = m.exists_var(a, 0);
        assert_eq!(m.and_exists(a, Bdd::ONE, &[0]), ea);
        // f == g degrades to quantifying f itself (f ∧ f = f).
        assert_eq!(m.and_forall(a, a, &[0]), fa);
    }

    #[test]
    fn fused_operand_order_is_immaterial() {
        let (mut m, a, b, c) = setup();
        let f = m.or(a, b);
        let g = m.xor(b, c);
        let fg = m.and_forall(f, g, &[1, 2]);
        let gf = m.and_forall(g, f, &[1, 2]);
        assert_eq!(fg, gf);
    }

    #[test]
    fn forall_and_all_multi_operand() {
        let (mut m, a, b, c) = setup();
        let l1 = m.or(a, b);
        let l2 = m.or(b, c);
        let l3 = m.implies(a, c);
        for ops in [vec![], vec![l1], vec![l1, l2], vec![l1, l2, l3]] {
            let fused = m.forall_and_all(&ops, &[1]);
            let conj = m.and_all(ops.iter().copied());
            let unfused = m.forall(conj, &[1]);
            assert_eq!(fused, unfused, "operand count {}", ops.len());
        }
        // Empty varset degrades to and_all.
        let plain = m.and_all([l1, l2]);
        assert_eq!(m.forall_and_all(&[l1, l2], &[]), plain);
    }

    #[test]
    fn forall_and_all_short_circuits_to_zero() {
        let (mut m, a, b, _) = setup();
        let na = m.not(a);
        // ∀∅-free vars: a ∧ ¬a ∧ b = ⊥ regardless of quantification.
        assert_eq!(m.forall_and_all(&[a, na, b], &[0, 1]), Bdd::ZERO);
    }

    #[test]
    fn forall_and_all_aborts_when_rows_conflict() {
        // Inputs x0, x1 on top of selects y0, y1, as in the engine's check.
        let mut m = Manager::new(4);
        let (x0, x1, y0, y1) = (m.var(0), m.var(1), m.var(2), m.var(3));
        let l1 = m.xnor(x1, y0); // rows with x1 = 0 need ¬y0, x1 = 1 need y0
        let l2 = m.or(x0, y1); // rows with x0 = 0 need y1
        let ops = [l1, l2];
        // Every row is satisfiable on its own...
        for (v0, v1) in [(false, false), (false, true), (true, false), (true, true)] {
            let r0 = m.restrict(l1, 0, v0);
            let r0 = m.restrict(r0, 1, v1);
            let r1 = m.restrict(l2, 0, v0);
            let r1 = m.restrict(r1, 1, v1);
            assert!(!m.and(r0, r1).is_zero(), "row ({v0}, {v1})");
        }
        // ...but rows (·, 0) and (·, 1) conflict on y0, so the accumulator
        // hits ⊥ and the whole descent returns ⊥.
        let fused = m.forall_and_all(&ops, &[0, 1]);
        assert_eq!(fused, Bdd::ZERO);
        let conj = m.and_all(ops);
        assert_eq!(m.forall(conj, &[0, 1]), fused);
        // Without the conflicting operand the rows agree: ∀x (x0 ∨ y1) = y1.
        assert_eq!(m.forall_and_all(&[l2], &[0, 1]), y1);
    }
    #[test]
    fn fused_ops_beyond_2_16_varsets_are_answered_unmemoized() {
        let mut m = Manager::new(20);
        // Fill the varset ids the computed table can pack (16 bits).
        for i in 1..=(1u32 << 16) {
            let set: Vec<u32> = (0..17).filter(|b| i >> b & 1 == 1).collect();
            m.intern_varset(&set);
        }
        let v: Vec<Bdd> = (0..6).map(|i| m.var(i)).collect();
        let f = m.or(v[0], v[2]);
        let g = m.xor(v[1], v[2]);
        let fg = m.and(f, g);
        let vars = [2, 18, 19];
        let forall = m.forall(fg, &vars);
        let exists = m.exists(fg, &vars);
        let before = m.stats();
        assert_eq!(m.and_forall(f, g, &vars), forall);
        assert_eq!(m.and_exists(f, g, &vars), exists);
        assert!(m.intern_varset(&vars) >= 1 << 16);
        assert!(m.stats().cache_misses > before.cache_misses);
        assert!(!m.cache_samples(usize::MAX).iter().any(|s| matches!(
            s.op,
            crate::CachedOp::AndForall { .. } | crate::CachedOp::AndExists { .. }
        )));
    }
}
