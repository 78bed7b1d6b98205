//! Shared pieces of the universal-gate encoding (Definition 2 of the
//! paper): gate-select dimensioning, select-index decoding, the select
//! block of one level ([`LevelSelects`]), the per-level translation shared
//! by the row-wise SAT instance and the QBF instance ([`level_outputs`]),
//! and the [`IncrementalEncoder`] that emits the row-wise encoding depth
//! by depth for a persistent solver (DESIGN.md §15).
//!
//! A level is encoded in **flip form**: rather than instantiating every
//! library gate's netlist and multiplexing the results, it says which
//! line the chosen gate flips and under what condition, and frames every
//! other line (`out_j = s_j`). A `#[cfg(test)]` copy of the slot-table
//! construction it replaced is the reference it is tested against.

use crate::options::SatSelectEncoding;
use qsyn_revlogic::{Circuit, Gate, Spec, SpecRow};
use qsyn_sat::{Clause, CnfBuilder, Lit};

/// Number of gate-select inputs `⌈log₂ q⌉` for a library of `q` gates.
/// A single-gate library needs no select input.
pub(crate) fn select_bits(q: usize) -> u32 {
    assert!(q > 0, "empty gate library");
    usize::BITS - (q - 1).leading_zeros().min(usize::BITS)
}

/// The gate a select index `k` denotes: `gates[k]` for `k < q`, identity
/// (`None`) for the padding slots `q ≤ k < 2^s` (Definition 2 extends `G`
/// with identity gates when `q` is not a power of two).
pub(crate) fn gate_for_index(gates: &[Gate], k: usize) -> Option<&Gate> {
    gates.get(k)
}

/// Decodes one level's select-bit assignment into an index.
/// `bits[b]` is the value of `y_{i,b}` (LSB first).
pub(crate) fn index_from_bits(bits: &[bool]) -> usize {
    bits.iter()
        .enumerate()
        .fold(0usize, |acc, (b, &v)| acc | (usize::from(v) << b))
}

/// Reconstructs a circuit from a full assignment to all `d·s` select
/// variables (level-major, LSB first within a level). Identity slots are
/// skipped.
pub(crate) fn decode_circuit(
    lines: u32,
    gates: &[Gate],
    sbits: u32,
    assignment: &[bool],
) -> Circuit {
    let mut c = Circuit::new(lines);
    if sbits == 0 {
        // Single-gate library: the number of levels cannot be recovered
        // from an empty assignment; callers handle this case themselves.
        return c;
    }
    assert_eq!(
        assignment.len() % sbits as usize,
        0,
        "assignment length must be a multiple of the select width"
    );
    for level in assignment.chunks(sbits as usize) {
        let k = index_from_bits(level);
        if let Some(g) = gate_for_index(gates, k) {
            c.push(*g);
        }
    }
    c
}

/// Select-variable width of one level: one variable per gate under
/// one-hot, `⌈log₂ q⌉` index bits under binary.
pub(crate) fn select_width(encoding: SatSelectEncoding, q: usize) -> u32 {
    match encoding {
        SatSelectEncoding::OneHot => q as u32,
        SatSelectEncoding::Binary => select_bits(q),
    }
}

/// The literals of one binary select code: `bits = k` is their conjunction.
fn code_lits(bits: &[Lit], k: usize) -> Vec<Lit> {
    bits.iter()
        .enumerate()
        .map(|(i, &l)| if (k >> i) & 1 == 1 { l } else { !l })
        .collect()
}

/// One level's gate selection: the select variables a model is decoded
/// from, and per library gate a literal that holds exactly when that gate
/// is the level's gate.
pub(crate) struct LevelSelects {
    /// One variable per gate under one-hot; the gate index, LSB first,
    /// under binary.
    vars: Vec<Lit>,
    /// `chosen[k]` ⇔ gate `k` is selected: the one-hot variable itself,
    /// or under binary a variable defined as `vars = k` once per level and
    /// shared by every row.
    chosen: Vec<Lit>,
}

impl LevelSelects {
    /// Constrains one level's select variables `vars` to pick exactly one
    /// of `q` gates: at-least-one and pairwise at-most-one under one-hot;
    /// under binary the padding codes `q ≤ k < 2^s` are forbidden (a
    /// minimal-depth network never uses them, and excluding them keeps the
    /// two encodings equivalent).
    pub(crate) fn constrain(
        b: &mut CnfBuilder,
        vars: Vec<Lit>,
        q: usize,
        encoding: SatSelectEncoding,
    ) -> LevelSelects {
        match encoding {
            SatSelectEncoding::OneHot => {
                b.assert_at_least_one(&vars);
                b.assert_at_most_one(&vars);
                LevelSelects {
                    chosen: vars.clone(),
                    vars,
                }
            }
            SatSelectEncoding::Binary => {
                forbid_padding(b, &vars, q);
                LevelSelects::binary(b, vars, q)
            }
        }
    }

    /// A binary level over index bits `bits` with `chosen[k] ↔ (bits = k)`
    /// for each of the `q` gates, and no padding ban: a code `≥ q` chooses
    /// no gate, so the level is the identity there (Definition 2's
    /// padding). The `chosen` variables are non-auxiliary — functions of
    /// the select bits alone.
    pub(crate) fn binary(b: &mut CnfBuilder, bits: Vec<Lit>, q: usize) -> LevelSelects {
        let chosen = (0..q)
            .map(|k| {
                let o = b.new_var();
                let code = code_lits(&bits, k);
                for &l in &code {
                    b.add_clause([!o, l]);
                }
                b.add_clause(code.iter().map(|&l| !l).chain([o]));
                o
            })
            .collect();
        LevelSelects { vars: bits, chosen }
    }
}

/// Applies one universal-gate level to a row's state literals `s` in flip
/// form. Each gate `k` flips line `j` under a conjunction `C` of state
/// literals — its controls for a Toffoli; its controls and `a ⊕ b` on
/// both targets of a Fredkin; `c` on `t₁` and `c ∧ t₁` on `t₂` for a
/// Peres — and the only new variables are `out_j` per line plus one
/// `a ⊕ b` per Fredkin target pair:
///
/// * `chosen_k ∧ C → out_j ≠ s_j`;
/// * `chosen_k ∧ ¬c → out_j = s_j` for each `c ∈ C`;
/// * the frame: `out_j = s_j` unless a gate that flips `j` is chosen.
///
/// No gate's netlist is built and no per-gate output is muxed.
pub(crate) fn level_outputs(
    b: &mut CnfBuilder,
    gates: &[Gate],
    state: &[Lit],
    sel: &LevelSelects,
) -> Vec<Lit> {
    let out: Vec<Lit> = state.iter().map(|_| b.new_aux()).collect();
    // The chosen literal of every gate that flips each line, for the frame.
    let mut flippers: Vec<Vec<Lit>> = vec![Vec::new(); state.len()];
    // `s_a ⊕ s_b` per Fredkin target pair, shared by the pair's gates.
    let mut differs: Vec<((u32, u32), Lit)> = Vec::new();
    let mut cond: Vec<Lit> = Vec::new();
    for (g, &o) in gates.iter().zip(&sel.chosen) {
        match *g {
            Gate::Toffoli {
                controls,
                negative_controls,
                target,
            } => {
                cond.clear();
                cond.extend(controls.iter().map(|c| state[c as usize]));
                cond.extend(negative_controls.iter().map(|c| !state[c as usize]));
                let t = target as usize;
                flip(b, o, &cond, state[t], out[t]);
                flippers[t].push(o);
            }
            Gate::Fredkin { controls, targets } => {
                let (x, y) = (targets.0 as usize, targets.1 as usize);
                let differ = match differs.iter().find(|(pair, _)| *pair == targets) {
                    Some(&(_, l)) => l,
                    None => {
                        let l = b.xor(state[x], state[y]);
                        differs.push((targets, l));
                        l
                    }
                };
                cond.clear();
                cond.extend(controls.iter().map(|c| state[c as usize]));
                cond.push(differ);
                for j in [x, y] {
                    flip(b, o, &cond, state[j], out[j]);
                    flippers[j].push(o);
                }
            }
            Gate::Peres { control, targets } => {
                let (c, a, t) = (
                    state[control as usize],
                    targets.0 as usize,
                    targets.1 as usize,
                );
                flip(b, o, &[c], state[a], out[a]);
                flip(b, o, &[c, state[a]], state[t], out[t]);
                flippers[a].push(o);
                flippers[t].push(o);
            }
        }
    }
    for ((&s, &o), chosen) in state.iter().zip(&out).zip(&flippers) {
        b.add_clause(chosen.iter().copied().chain([!o, s]));
        b.add_clause(chosen.iter().copied().chain([o, !s]));
    }
    out
}

/// The clauses by which a chosen gate (`chosen`) flips line `s → out`
/// exactly when every literal of `cond` holds.
fn flip(b: &mut CnfBuilder, chosen: Lit, cond: &[Lit], s: Lit, out: Lit) {
    let unmet = || cond.iter().map(|&c| !c);
    b.add_clause([!chosen].into_iter().chain(unmet()).chain([out, s]));
    b.add_clause([!chosen].into_iter().chain(unmet()).chain([!out, !s]));
    for &c in cond {
        b.add_clause([!chosen, c, !out, s]);
        b.add_clause([!chosen, c, out, !s]);
    }
}

/// Blocks the binary select codes `q ≤ k < 2^s`.
fn forbid_padding(b: &mut CnfBuilder, bits: &[Lit], q: usize) {
    for k in q..1usize << bits.len() {
        // ¬(bits == k)
        b.add_clause(code_lits(bits, k).into_iter().map(|l| !l));
    }
}

/// The clause/variable increment one encoding step produced, for feeding a
/// persistent solver (and for the delta audit — see
/// `qsyn_audit::formula_audit::audit_incremental_delta`).
pub(crate) struct EncodingDelta<'a> {
    /// Variable count before this step. Consumed only by the
    /// debug-build delta audit, hence dead in release.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    pub prev_num_vars: u32,
    /// Variable count after this step.
    pub num_vars: u32,
    /// The clauses this step appended.
    pub clauses: &'a [Clause],
}

/// Emits the row-wise SAT encoding *incrementally*: the cascade levels are
/// appended depth by depth, and each queried depth's "outputs equal the
/// specification" constraints are guarded by a per-depth **activation
/// literal** `a_d` — assumed while depth `d` is the question, unit-asserted
/// negated once depth `d` is refuted. A single persistent [`qsyn_sat::Solver`]
/// can therefore carry its learnt clauses, variable activities and saved
/// phases across the whole iterative-deepening run (DESIGN.md §15).
///
/// The depth-(d−1) instance is a strict prefix of depth d's, so every step
/// only *adds* variables and clauses; [`take_delta`](Self::take_delta)
/// returns exactly the increment.
pub(crate) struct IncrementalEncoder {
    builder: CnfBuilder,
    gates: Vec<Gate>,
    sbits: u32,
    encoding: SatSelectEncoding,
    lines: u32,
    /// Constrained rows (care ≠ 0) of the specification.
    rows: Vec<SpecRow>,
    /// Current state literals per constrained row, after `levels.len()`
    /// cascade levels.
    row_states: Vec<Vec<Lit>>,
    /// Select literals per appended level.
    levels: Vec<LevelSelects>,
    /// Activation literal per *queried* depth (`None` for depths skipped by
    /// a transferred lower bound — they never got output constraints).
    activations: Vec<Option<Lit>>,
    clause_mark: usize,
    var_mark: u32,
}

impl IncrementalEncoder {
    /// Prepares the depth-0 skeleton: per-row constant input states, no
    /// constraints yet.
    pub(crate) fn new(
        spec: &Spec,
        gates: &[Gate],
        sbits: u32,
        encoding: SatSelectEncoding,
    ) -> IncrementalEncoder {
        let lines = spec.lines();
        let mut builder = CnfBuilder::new(0);
        let mut rows = Vec::new();
        let mut row_states = Vec::new();
        for row in 0..spec.num_rows() as u32 {
            let spec_row = spec.row(row);
            if spec_row.care == 0 {
                continue; // fully unconstrained row adds nothing
            }
            let state: Vec<Lit> = (0..lines)
                .map(|l| {
                    if (row >> l) & 1 == 1 {
                        builder.constant_true()
                    } else {
                        builder.constant_false()
                    }
                })
                .collect();
            rows.push(spec_row);
            row_states.push(state);
        }
        IncrementalEncoder {
            builder,
            gates: gates.to_vec(),
            sbits,
            encoding,
            lines,
            rows,
            row_states,
            levels: Vec::new(),
            activations: Vec::new(),
            clause_mark: 0,
            var_mark: 0,
        }
    }

    /// Current depth of the encoded cascade.
    pub(crate) fn depth(&self) -> u32 {
        self.levels.len() as u32
    }

    /// Total variables allocated so far.
    pub(crate) fn num_vars(&self) -> u32 {
        self.builder.num_vars()
    }

    /// Total clauses emitted so far.
    pub(crate) fn num_clauses(&self) -> usize {
        self.builder.formula().len()
    }

    /// The activation literals of every depth queried so far, in query
    /// order (input to the delta audit's discipline check; the audit —
    /// and so this accessor's only non-test caller — is debug-only).
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    pub(crate) fn activation_lits(&self) -> Vec<Lit> {
        self.activations.iter().filter_map(|a| *a).collect()
    }

    /// Appends cascade levels until the encoded depth reaches `d`. Levels
    /// for depths skipped by a lower-bound start are still built (the
    /// cascade is one prefix-shared object), but only
    /// [`activate`](Self::activate)d depths get output constraints.
    pub(crate) fn extend_to(&mut self, d: u32) {
        while self.depth() < d {
            let width = select_width(self.encoding, self.gates.len());
            let vars: Vec<Lit> = (0..width).map(|_| self.builder.new_var()).collect();
            let sel =
                LevelSelects::constrain(&mut self.builder, vars, self.gates.len(), self.encoding);
            for state in &mut self.row_states {
                *state = level_outputs(&mut self.builder, &self.gates, state, &sel);
            }
            self.levels.push(sel);
        }
    }

    /// Allocates (or returns) the activation literal for depth `d` and
    /// guards the "outputs equal spec after `d` levels" constraints with
    /// it: `a_d → ±state`. Must be called at the current encoded depth.
    pub(crate) fn activate(&mut self, d: u32) -> Lit {
        assert_eq!(self.depth(), d, "activate must follow extend_to(d)");
        if self.activations.len() <= d as usize {
            self.activations.resize(d as usize + 1, None);
        }
        if let Some(act) = self.activations[d as usize] {
            return act;
        }
        let act = self.builder.new_var();
        for (row, state) in self.rows.iter().zip(&self.row_states) {
            for l in 0..self.lines {
                let bit = 1u32 << l;
                if row.care & bit != 0 {
                    let lit = state[l as usize];
                    let lit = if row.value & bit != 0 { lit } else { !lit };
                    self.builder.add_clause([!act, lit]);
                }
            }
        }
        self.activations[d as usize] = Some(act);
        act
    }

    /// Permanently disables depth `d`'s output constraints (after the depth
    /// was refuted): unit-asserts `¬a_d`. The unit reaches the solver with
    /// the next [`take_delta`](Self::take_delta).
    pub(crate) fn retire(&mut self, d: u32) {
        let act = self.activations[d as usize].expect("retire of an unqueried depth");
        self.builder.add_clause([!act]);
    }

    /// The variables and clauses appended since the previous call (or since
    /// construction), advancing the watermark.
    pub(crate) fn take_delta(&mut self) -> EncodingDelta<'_> {
        let prev_num_vars = self.var_mark;
        let start = self.clause_mark;
        self.clause_mark = self.builder.formula().len();
        self.var_mark = self.builder.num_vars();
        EncodingDelta {
            prev_num_vars,
            num_vars: self.var_mark,
            clauses: &self.builder.formula().clauses()[start..],
        }
    }

    /// Reconstructs the depth-`d` circuit a model of the incremental
    /// instance describes. `None` only on a malformed model (a one-hot
    /// level selecting no gate).
    pub(crate) fn decode(&self, d: u32, model: &[bool]) -> Option<Circuit> {
        if self.sbits == 0 {
            // Single-gate library: every level applies that gate.
            return Some(Circuit::from_gates(
                self.lines,
                std::iter::repeat_n(self.gates[0], d as usize),
            ));
        }
        let mut c = Circuit::new(self.lines);
        for sel in self.levels.iter().take(d as usize) {
            match self.encoding {
                SatSelectEncoding::OneHot => {
                    let k = sel.vars.iter().position(|l| model[l.var().index()])?;
                    c.push(self.gates[k]);
                }
                SatSelectEncoding::Binary => {
                    let vals: Vec<bool> = sel.vars.iter().map(|l| model[l.var().index()]).collect();
                    if let Some(g) = gate_for_index(&self.gates, index_from_bits(&vals)) {
                        c.push(*g);
                    }
                }
            }
        }
        Some(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsyn_revlogic::{GateLibrary, Permutation};
    use qsyn_sat::{SolveResult, Solver};

    /// The slot-table level the flip form replaced, kept as its reference:
    /// every gate's full netlist on `state`, then per line `chosen_k →
    /// (out_j ↔ slot_k_j)` under one-hot or a mux tree over all `2^s`
    /// slots (padding slots are the identity) under binary.
    fn slot_table_level(
        b: &mut CnfBuilder,
        gates: &[Gate],
        state: &[Lit],
        sel: &LevelSelects,
        encoding: SatSelectEncoding,
    ) -> Vec<Lit> {
        let slot_count = match encoding {
            SatSelectEncoding::OneHot => gates.len(),
            SatSelectEncoding::Binary => 1 << sel.vars.len(),
        };
        let mut slots: Vec<Vec<Lit>> = vec![state.to_vec(); slot_count];
        for (g, slot) in gates.iter().zip(&mut slots) {
            apply_gate_netlist(b, g, state, slot);
        }
        (0..state.len())
            .map(|j| match encoding {
                SatSelectEncoding::OneHot => {
                    let out = b.new_aux();
                    for (&o, slot) in sel.vars.iter().zip(&slots) {
                        b.add_clause([!o, !slot[j], out]);
                        b.add_clause([!o, slot[j], !out]);
                    }
                    out
                }
                SatSelectEncoding::Binary => {
                    let mut layer: Vec<Lit> = slots.iter().map(|s| s[j]).collect();
                    for &y in &sel.vars {
                        layer = layer.chunks(2).map(|p| b.mux(y, p[1], p[0])).collect();
                    }
                    layer[0]
                }
            })
            .collect()
    }

    /// Applies a concrete gate to `state` as a Tseitin netlist, writing
    /// the changed lines into `slot` (which starts as a copy of `state`).
    fn apply_gate_netlist(b: &mut CnfBuilder, g: &Gate, state: &[Lit], slot: &mut [Lit]) {
        match *g {
            Gate::Toffoli {
                controls,
                negative_controls,
                target,
            } => {
                let ctrl: Vec<Lit> = controls
                    .iter()
                    .map(|c| state[c as usize])
                    .chain(negative_controls.iter().map(|c| !state[c as usize]))
                    .collect();
                let cond = b.and_all(&ctrl);
                slot[target as usize] = b.xor(state[target as usize], cond);
            }
            Gate::Fredkin { controls, targets } => {
                let ctrl: Vec<Lit> = controls.iter().map(|c| state[c as usize]).collect();
                let cond = b.and_all(&ctrl);
                let a = state[targets.0 as usize];
                let t = state[targets.1 as usize];
                slot[targets.0 as usize] = b.mux(cond, t, a);
                slot[targets.1 as usize] = b.mux(cond, a, t);
            }
            Gate::Peres { control, targets } => {
                let c = state[control as usize];
                let a = state[targets.0 as usize];
                let t = state[targets.1 as usize];
                slot[targets.0 as usize] = b.xor(c, a);
                let ca = b.and(c, a);
                slot[targets.1 as usize] = b.xor(ca, t);
            }
        }
    }

    /// One level over free state inputs, built in flip form or as the
    /// slot-table reference, and what it forces: per gate and input row,
    /// the output state — after checking that the model's output is the
    /// only one (each line's opposite value is refuted). Binary padding
    /// codes must be refuted outright.
    fn forced_outputs(
        lines: u32,
        gates: &[Gate],
        encoding: SatSelectEncoding,
        reference: bool,
    ) -> Vec<Vec<u32>> {
        let width = select_width(encoding, gates.len());
        let mut b = CnfBuilder::new(lines + width);
        let state: Vec<Lit> = (0..lines).map(|l| b.input(l)).collect();
        let vars = (lines..lines + width).map(|i| b.input(i)).collect();
        let sel = LevelSelects::constrain(&mut b, vars, gates.len(), encoding);
        let out = if reference {
            slot_table_level(&mut b, gates, &state, &sel, encoding)
        } else {
            level_outputs(&mut b, gates, &state, &sel)
        };
        let mut solver = Solver::from_formula(b.formula());
        let code = |k: usize| -> Vec<Lit> {
            match encoding {
                SatSelectEncoding::OneHot => (0..gates.len())
                    .map(|i| if i == k { sel.vars[i] } else { !sel.vars[i] })
                    .collect(),
                SatSelectEncoding::Binary => code_lits(&sel.vars, k),
            }
        };
        if encoding == SatSelectEncoding::Binary {
            for k in gates.len()..1 << width {
                assert_eq!(solver.solve_assuming(&code(k)), SolveResult::Unsat);
            }
        }
        (0..gates.len())
            .map(|k| {
                (0..1u32 << lines)
                    .map(|row| {
                        let mut assume = code(k);
                        assume.extend(code_lits(&state, row as usize));
                        let SolveResult::Sat(model) = solver.solve_assuming(&assume) else {
                            panic!("gate {k} on row {row}: level unsatisfiable");
                        };
                        let got = out.iter().enumerate().fold(0u32, |acc, (j, l)| {
                            acc | u32::from(l.apply(model[l.var().index()])) << j
                        });
                        for &l in &out {
                            let wrong = if l.apply(model[l.var().index()]) {
                                !l
                            } else {
                                l
                            };
                            let mut pinned = assume.clone();
                            pinned.push(wrong);
                            assert_eq!(
                                solver.solve_assuming(&pinned),
                                SolveResult::Unsat,
                                "gate {k} on row {row}: an output line is left free"
                            );
                        }
                        got
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn flip_form_forces_every_gate_output_like_the_slot_table() {
        let libraries = [
            GateLibrary::mct(),
            GateLibrary::mct_mcf(),
            GateLibrary::mct_peres(),
            GateLibrary::all(),
            GateLibrary::mct().with_mixed_polarity(),
        ];
        for lines in 1..=3 {
            for library in libraries {
                let gates = library.enumerate(lines);
                for encoding in [SatSelectEncoding::OneHot, SatSelectEncoding::Binary] {
                    let what = format!("{} on {lines} lines, {encoding:?}", library.label());
                    let flip = forced_outputs(lines, &gates, encoding, false);
                    for (k, g) in gates.iter().enumerate() {
                        let apply: Vec<u32> = (0..1 << lines).map(|row| g.apply(row)).collect();
                        assert_eq!(flip[k], apply, "{what}: {g:?}");
                    }
                    let reference = forced_outputs(lines, &gates, encoding, true);
                    assert_eq!(flip, reference, "{what}: flip form ≠ slot table");
                }
            }
        }
    }

    #[test]
    fn select_bits_is_ceil_log2() {
        assert_eq!(select_bits(1), 0);
        assert_eq!(select_bits(2), 1);
        assert_eq!(select_bits(3), 2);
        assert_eq!(select_bits(4), 2);
        assert_eq!(select_bits(5), 3);
        assert_eq!(select_bits(12), 4);
        assert_eq!(select_bits(24), 5);
        assert_eq!(select_bits(64), 6);
        assert_eq!(select_bits(65), 7);
    }

    #[test]
    fn index_round_trips_through_bits() {
        for k in 0usize..16 {
            let bits: Vec<bool> = (0..4).map(|b| (k >> b) & 1 == 1).collect();
            assert_eq!(index_from_bits(&bits), k);
        }
    }

    #[test]
    fn padding_slots_are_identity() {
        let gates = GateLibrary::mct().enumerate(3); // 12 gates, 16 slots
        assert_eq!(select_bits(gates.len()), 4);
        assert!(gate_for_index(&gates, 11).is_some());
        assert!(gate_for_index(&gates, 12).is_none());
        assert!(gate_for_index(&gates, 15).is_none());
    }

    #[test]
    fn decode_skips_identity_slots() {
        let gates = GateLibrary::mct().enumerate(3);
        let sbits = select_bits(gates.len());
        // Level 1 selects gate 0, level 2 selects slot 15 (identity).
        let mut assignment = vec![false; (sbits * 2) as usize];
        for b in sbits..2 * sbits {
            assignment[b as usize] = true;
        }
        let c = decode_circuit(3, &gates, sbits, &assignment);
        assert_eq!(c.len(), 1);
        assert_eq!(c.gates()[0], gates[0]);
    }

    fn encoder_for(spec: &Spec, encoding: SatSelectEncoding) -> IncrementalEncoder {
        let gates = GateLibrary::mct().enumerate(spec.lines());
        let sbits = select_bits(gates.len());
        IncrementalEncoder::new(spec, &gates, sbits, encoding)
    }

    /// Drives the incremental encoder through depths 0..=max on one
    /// persistent solver, returning the SAT/UNSAT verdicts.
    fn incremental_verdicts(spec: &Spec, encoding: SatSelectEncoding, max: u32) -> Vec<bool> {
        let mut enc = encoder_for(spec, encoding);
        let mut solver = Solver::new(0);
        let mut verdicts = Vec::new();
        for d in 0..=max {
            enc.extend_to(d);
            let act = enc.activate(d);
            let delta = enc.take_delta();
            solver.ensure_vars(delta.num_vars);
            for c in delta.clauses {
                solver.add_clause(c.lits().iter().copied());
            }
            match solver.solve_assuming(&[act]) {
                SolveResult::Sat(model) => {
                    verdicts.push(true);
                    let circuit = enc.decode(d, &model).expect("decodable model");
                    assert!(
                        spec.is_realized_by(&circuit),
                        "depth {d}: decoded circuit violates the spec"
                    );
                }
                SolveResult::Unsat => {
                    verdicts.push(false);
                    enc.retire(d);
                    let retire = enc.take_delta();
                    for c in retire.clauses {
                        solver.add_clause(c.lits().iter().copied());
                    }
                }
            }
        }
        verdicts
    }

    #[test]
    fn incremental_agrees_with_known_depths_both_encodings() {
        // SWAP: depths 0–2 unsat, 3 sat. CNOT: 0 unsat, 1 sat.
        let swap = Spec::from_permutation(&Permutation::from_fn(2, |v| ((v & 1) << 1) | (v >> 1)));
        let cnot = Spec::from_permutation(&Permutation::from_fn(2, |v| v ^ ((v & 1) << 1)));
        for enc in [SatSelectEncoding::OneHot, SatSelectEncoding::Binary] {
            assert_eq!(
                incremental_verdicts(&swap, enc, 3),
                vec![false, false, false, true],
                "{enc:?} SWAP"
            );
            assert_eq!(
                incremental_verdicts(&cnot, enc, 1),
                vec![false, true],
                "{enc:?} CNOT"
            );
        }
    }

    #[test]
    fn sat_depths_stay_sat_after_earlier_retirements() {
        // Depth monotonicity sanity: once past the minimal depth, the
        // retired activation literals of earlier depths must not leak into
        // later queries... except that forbidding identity padding makes
        // d_min+1 legitimately harder; query exactly d_min after a chain
        // of refutations, which is the driver's usage.
        let spec = Spec::from_permutation(&Permutation::from_map(2, vec![3, 0, 1, 2]));
        for enc in [SatSelectEncoding::OneHot, SatSelectEncoding::Binary] {
            let v = incremental_verdicts(&spec, enc, 8);
            let first_sat = v.iter().position(|&s| s).expect("realizable");
            assert!(
                v[..first_sat].iter().all(|&s| !s),
                "{enc:?}: prefix must be all-unsat"
            );
        }
    }

    #[test]
    fn deltas_are_monotone_and_disciplined() {
        let spec = Spec::from_permutation(&Permutation::from_fn(2, |v| ((v & 1) << 1) | (v >> 1)));
        let mut enc = encoder_for(&spec, SatSelectEncoding::OneHot);
        let mut prior_vars = 0u32;
        for d in 0..3 {
            enc.extend_to(d);
            let act = enc.activate(d);
            let delta = enc.take_delta();
            assert_eq!(delta.prev_num_vars, prior_vars);
            assert!(delta.num_vars >= delta.prev_num_vars);
            assert!(act.var().index() < delta.num_vars as usize);
            // Every delta clause must touch a variable new to this step
            // (the retire units are the one exception, exercised below).
            for c in delta.clauses {
                assert!(
                    c.lits()
                        .iter()
                        .any(|l| l.var().index() >= delta.prev_num_vars as usize),
                    "depth {d}: clause {:?} references only old variables",
                    c.lits()
                );
            }
            prior_vars = delta.num_vars;
            enc.retire(d);
            let retire = enc.take_delta();
            assert_eq!(retire.clauses.len(), 1);
            assert_eq!(retire.clauses[0].lits(), &[!act]);
            assert_eq!(retire.num_vars, prior_vars, "retiring allocates nothing");
        }
        assert_eq!(enc.activation_lits().len(), 3);
    }

    #[test]
    fn skipped_depths_get_no_activation() {
        // A lower-bound start queries depth 2 first: depths 0/1 are built
        // as cascade levels but never constrained.
        let spec = Spec::from_permutation(&Permutation::from_fn(2, |v| ((v & 1) << 1) | (v >> 1)));
        let mut enc = encoder_for(&spec, SatSelectEncoding::OneHot);
        enc.extend_to(2);
        let act = enc.activate(2);
        assert_eq!(enc.activation_lits(), vec![act]);
        let delta = enc.take_delta();
        let mut solver = Solver::new(0);
        solver.ensure_vars(delta.num_vars);
        for c in delta.clauses {
            solver.add_clause(c.lits().iter().copied());
        }
        // SWAP needs 3 gates: depth 2 is unsat even with 0/1 unconstrained.
        assert_eq!(solver.solve_assuming(&[act]), SolveResult::Unsat);
        assert!(solver.solve().is_sat(), "unguarded instance stays sat");
    }
}
