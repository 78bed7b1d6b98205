//! Synthesis configuration.

use crate::cancel::CancelToken;
use qsyn_revlogic::GateLibrary;
use std::time::Duration;

/// Which decision procedure answers the per-depth question
/// *"is there a network of `d` gates realizing `f`?"*.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Engine {
    /// BDD-based quantified synthesis (Section 5.2 — the paper's proposal).
    Bdd,
    /// Prenex-CNF QBF instance handed to a QBF solver (Section 5.1),
    /// decided by expanding `∀X` into one CNF for the CDCL solver.
    Qbf,
    /// Row-wise SAT encoding, the baseline of \[9\]/\[22\] (Section 3).
    Sat,
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Engine::Bdd => write!(f, "BDD"),
            Engine::Qbf => write!(f, "QBF"),
            Engine::Sat => write!(f, "SAT"),
        }
    }
}

/// Gate-select encoding for [`Engine::Sat`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SatSelectEncoding {
    /// One variable per gate and level with an at-most-one constraint, as
    /// in the original exact SAT synthesis \[9\]. Default.
    #[default]
    OneHot,
    /// Binary-encoded select inputs (the universal-gate style), an ablation
    /// matching the improvements of \[22\].
    Binary,
}

/// BDD variable order (ablation knob).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum VarOrder {
    /// Inputs `X` above the gate-select variables `Y` — the paper's fixed
    /// order. Default.
    #[default]
    XThenY,
    /// `Y` above `X`. The paper predicts a blow-up: the sub-diagrams over
    /// `X` then enumerate every function synthesizable with ≤ d gates.
    YThenX,
}

/// All knobs of a synthesis run.
///
/// Construct with [`SynthesisOptions::new`] and adjust with the builder
/// methods.
///
/// # Example
///
/// ```
/// use qsyn_core::{Engine, SynthesisOptions};
/// use qsyn_revlogic::GateLibrary;
///
/// let opts = SynthesisOptions::new(GateLibrary::all(), Engine::Bdd)
///     .with_max_depth(10)
///     .with_max_solutions(1_000);
/// assert_eq!(opts.max_depth, 10);
/// ```
#[derive(Clone, Debug)]
pub struct SynthesisOptions {
    /// Gate types available to the synthesizer.
    pub library: GateLibrary,
    /// Decision engine.
    pub engine: Engine,
    /// Select encoding for the SAT engine.
    pub sat_encoding: SatSelectEncoding,
    /// BDD variable order.
    pub var_order: VarOrder,
    /// Keep per-depth state across depth iterations: the BDD engine's
    /// incremental `F_d = U_G(F_{d−1}, Y_d)` cascade construction and the
    /// SAT engine's one persistent solver. Turning this off rebuilds from
    /// scratch at every depth — BDD ablation B and the SAT engine's
    /// warm/cold oracle. The QBF engine ignores it: every depth solves its
    /// own prenex instance.
    pub incremental: bool,
    /// Hard cap on the search depth; exceeding it is an error.
    pub max_depth: u32,
    /// Cap on the number of explicitly materialized circuits. The exact
    /// solution *count* is always reported; the circuit list is truncated
    /// at this many (quantum-cost statistics then cover the enumerated
    /// prefix only).
    pub max_solutions: usize,
    /// BDD node budget (counting **live** nodes — the engine garbage
    /// collects before concluding the budget is exhausted); exceeding it
    /// aborts with
    /// [`SynthesisError::BudgetExceeded`](crate::SynthesisError).
    pub bdd_node_limit: usize,
    /// Conflict budget per depth for the CDCL solves of the SAT engine and
    /// the QBF engine's ∀-expansion; exceeding it aborts with
    /// [`SynthesisError::BudgetExceeded`](crate::SynthesisError).
    pub conflict_limit: u64,
    /// Wall-clock budget for the whole run. The engine's
    /// [`ResourceGovernor`](crate::ResourceGovernor) arms the
    /// [`cancel`](Self::cancel) token's deadline from this at
    /// construction, so the budget is enforced both between depths and
    /// inside each engine's per-depth inner loops. The first arming wins:
    /// re-entering the driver with the same token never extends the
    /// deadline.
    pub time_budget: Option<Duration>,
    /// Cooperative cancellation handle, polled by the engines mid-depth.
    /// Defaults to a token that never trips. Clones of these options share
    /// the token, so a supervisor holding a clone can stop a run that is
    /// already executing on another thread.
    pub cancel: CancelToken,
    /// Start iterative deepening at the sound lower bound
    /// [`depth_lower_bound`](crate::depth_lower_bound) instead of 0
    /// (minimality is unaffected; the skipped depths are provably
    /// unrealizable).
    pub start_at_lower_bound: bool,
}

impl SynthesisOptions {
    /// Options with the given library and engine and conservative defaults
    /// everywhere else.
    pub fn new(library: GateLibrary, engine: Engine) -> SynthesisOptions {
        SynthesisOptions {
            library,
            engine,
            sat_encoding: SatSelectEncoding::default(),
            var_order: VarOrder::default(),
            incremental: true,
            max_depth: 32,
            max_solutions: 200_000,
            bdd_node_limit: 20_000_000,
            conflict_limit: 20_000_000,
            time_budget: None,
            cancel: CancelToken::new(),
            start_at_lower_bound: true,
        }
    }

    /// Selects the decision engine (the portfolio racer spawns one clone
    /// per engine this way).
    #[must_use]
    pub fn with_engine(mut self, engine: Engine) -> SynthesisOptions {
        self.engine = engine;
        self
    }

    /// Enables or disables starting at the depth lower bound (ablation).
    #[must_use]
    pub fn with_lower_bound_start(mut self, enabled: bool) -> SynthesisOptions {
        self.start_at_lower_bound = enabled;
        self
    }

    /// Sets the depth cap.
    #[must_use]
    pub fn with_max_depth(mut self, d: u32) -> SynthesisOptions {
        self.max_depth = d;
        self
    }

    /// Sets the materialized-solution cap.
    #[must_use]
    pub fn with_max_solutions(mut self, n: usize) -> SynthesisOptions {
        self.max_solutions = n;
        self
    }

    /// Sets the wall-clock budget.
    #[must_use]
    pub fn with_time_budget(mut self, budget: Duration) -> SynthesisOptions {
        self.time_budget = Some(budget);
        self
    }

    /// Installs a cancellation token (see [`CancelToken`]).
    #[must_use]
    pub fn with_cancel_token(mut self, token: CancelToken) -> SynthesisOptions {
        self.cancel = token;
        self
    }

    /// Sets the BDD variable order (ablation).
    #[must_use]
    pub fn with_var_order(mut self, order: VarOrder) -> SynthesisOptions {
        self.var_order = order;
        self
    }

    /// Enables or disables carrying state across depths (see
    /// [`incremental`](Self::incremental)).
    #[must_use]
    pub fn with_incremental(mut self, incremental: bool) -> SynthesisOptions {
        self.incremental = incremental;
        self
    }

    /// Sets the SAT select encoding (ablation).
    #[must_use]
    pub fn with_sat_encoding(mut self, encoding: SatSelectEncoding) -> SynthesisOptions {
        self.sat_encoding = encoding;
        self
    }

    /// Sets the BDD node budget.
    #[must_use]
    pub fn with_bdd_node_limit(mut self, nodes: usize) -> SynthesisOptions {
        self.bdd_node_limit = nodes;
        self
    }

    /// Sets the SAT/QBF conflict budget per depth.
    #[must_use]
    pub fn with_conflict_limit(mut self, conflicts: u64) -> SynthesisOptions {
        self.conflict_limit = conflicts;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let o = SynthesisOptions::new(GateLibrary::mct(), Engine::Bdd);
        assert_eq!(o.engine, Engine::Bdd);
        assert!(o.incremental);
        assert_eq!(o.var_order, VarOrder::XThenY);
        assert!(o.max_depth >= 16);
        assert!(o.time_budget.is_none());
    }

    #[test]
    fn builder_methods_compose() {
        let o = SynthesisOptions::new(GateLibrary::all(), Engine::Sat)
            .with_max_depth(5)
            .with_max_solutions(10)
            .with_var_order(VarOrder::YThenX)
            .with_incremental(false)
            .with_sat_encoding(SatSelectEncoding::Binary)
            .with_bdd_node_limit(1000)
            .with_conflict_limit(99)
            .with_time_budget(Duration::from_secs(1));
        assert_eq!(o.max_depth, 5);
        assert_eq!(o.max_solutions, 10);
        assert_eq!(o.var_order, VarOrder::YThenX);
        assert!(!o.incremental);
        assert_eq!(o.sat_encoding, SatSelectEncoding::Binary);
        assert_eq!(o.bdd_node_limit, 1000);
        assert_eq!(o.conflict_limit, 99);
        assert_eq!(o.time_budget, Some(Duration::from_secs(1)));
    }

    #[test]
    fn cloned_options_share_the_cancel_token() {
        let token = CancelToken::new();
        let o =
            SynthesisOptions::new(GateLibrary::mct(), Engine::Bdd).with_cancel_token(token.clone());
        let clone = o.clone();
        token.cancel();
        assert!(clone.cancel.is_cancelled());
    }

    #[test]
    fn engine_display() {
        assert_eq!(Engine::Bdd.to_string(), "BDD");
        assert_eq!(Engine::Qbf.to_string(), "QBF");
        assert_eq!(Engine::Sat.to_string(), "SAT");
    }
}
