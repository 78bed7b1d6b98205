//! Synthesis errors.

/// The resource kinds a [`ResourceGovernor`](crate::ResourceGovernor)
/// budgets. Each maps to one limit knob on
/// [`SynthesisOptions`](crate::SynthesisOptions).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Resource {
    /// Wall-clock time, measured in milliseconds
    /// ([`SynthesisOptions::time_budget`](crate::SynthesisOptions)).
    WallClock,
    /// Live BDD nodes
    /// ([`SynthesisOptions::bdd_node_limit`](crate::SynthesisOptions)).
    BddNodes,
    /// CDCL solver conflicts per depth
    /// ([`SynthesisOptions::conflict_limit`](crate::SynthesisOptions)).
    SatConflicts,
    /// Pre-allocated select-variable levels (only exhaustible under
    /// [`VarOrder::YThenX`](crate::VarOrder), whose select block is sized
    /// up front from `max_depth`).
    SelectVarBlock,
}

impl std::fmt::Display for Resource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Resource::WallClock => write!(f, "wall-clock (ms)"),
            Resource::BddNodes => write!(f, "live BDD node"),
            Resource::SatConflicts => write!(f, "SAT conflict"),
            Resource::SelectVarBlock => write!(f, "pre-allocated select-level"),
        }
    }
}

/// Reasons a synthesis run can fail.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SynthesisError {
    /// No realization was found up to the configured depth cap.
    DepthLimitReached {
        /// The exhausted cap (every depth `0..=max_depth` is proven
        /// unrealizable).
        max_depth: u32,
    },
    /// A resource budget ran out (wall clock, BDD nodes, solver
    /// conflicts). Raised exclusively by the
    /// [`ResourceGovernor`](crate::ResourceGovernor), so every engine
    /// reports exhaustion identically.
    BudgetExceeded {
        /// Depth being solved when the budget ran out.
        depth: u32,
        /// Which budget was exhausted.
        resource: Resource,
        /// How much had been spent when the governor tripped (same unit
        /// as `limit`).
        spent: u64,
        /// The configured limit.
        limit: u64,
    },
    /// The run was cancelled through its
    /// [`CancelToken`](crate::CancelToken) — e.g. a portfolio racer lost to
    /// a faster engine, or the batch scheduler is shutting down.
    Cancelled {
        /// First depth that was *not* fully solved when the cancellation
        /// was observed.
        depth: u32,
    },
    /// The specification's line count exceeds what exact synthesis
    /// supports here.
    SpecTooLarge {
        /// Offending line count.
        lines: u32,
    },
    /// An internal invariant did not hold — e.g. a solver reported SAT but
    /// produced no usable witness. Always a bug in this crate, never a
    /// property of the input.
    Internal {
        /// The violated invariant.
        what: &'static str,
    },
}

impl SynthesisError {
    /// The depth at which the run stopped, where applicable.
    pub fn depth(&self) -> Option<u32> {
        match *self {
            SynthesisError::DepthLimitReached { max_depth } => Some(max_depth),
            SynthesisError::BudgetExceeded { depth, .. } | SynthesisError::Cancelled { depth } => {
                Some(depth)
            }
            SynthesisError::SpecTooLarge { .. } | SynthesisError::Internal { .. } => None,
        }
    }
}

impl std::fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthesisError::DepthLimitReached { max_depth } => {
                write!(f, "no realization with at most {max_depth} gates")
            }
            SynthesisError::BudgetExceeded {
                depth,
                resource,
                spent,
                limit,
            } => {
                write!(
                    f,
                    "{resource} budget exhausted while solving depth {depth} \
                     ({spent} spent of {limit})"
                )
            }
            SynthesisError::Cancelled { depth } => {
                write!(f, "synthesis cancelled before finishing depth {depth}")
            }
            SynthesisError::SpecTooLarge { lines } => {
                write!(
                    f,
                    "specification with {lines} lines is too large for exact synthesis"
                )
            }
            SynthesisError::Internal { what } => {
                write!(f, "internal invariant violated: {what}")
            }
        }
    }
}

impl std::error::Error for SynthesisError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(SynthesisError::DepthLimitReached { max_depth: 4 }
            .to_string()
            .contains("4 gates"));
        let budget = SynthesisError::BudgetExceeded {
            depth: 3,
            resource: Resource::BddNodes,
            spent: 1_234,
            limit: 1_000,
        };
        assert!(budget.to_string().contains("depth 3"));
        assert!(budget.to_string().contains("1234 spent of 1000"));
        assert!(SynthesisError::BudgetExceeded {
            depth: 2,
            resource: Resource::WallClock,
            spent: 10,
            limit: 5,
        }
        .to_string()
        .contains("wall-clock"));
        assert!(SynthesisError::Cancelled { depth: 5 }
            .to_string()
            .contains("cancelled"));
        assert!(SynthesisError::SpecTooLarge { lines: 20 }
            .to_string()
            .contains("20 lines"));
        assert!(SynthesisError::Internal { what: "no witness" }
            .to_string()
            .contains("no witness"));
    }

    #[test]
    fn depth_accessor() {
        assert_eq!(
            SynthesisError::DepthLimitReached { max_depth: 7 }.depth(),
            Some(7)
        );
        assert_eq!(SynthesisError::Cancelled { depth: 4 }.depth(), Some(4));
        assert_eq!(SynthesisError::SpecTooLarge { lines: 20 }.depth(), None);
        assert_eq!(SynthesisError::Internal { what: "x" }.depth(), None);
    }

    #[test]
    fn is_a_std_error() {
        let e: Box<dyn std::error::Error> = Box::new(SynthesisError::Cancelled { depth: 0 });
        assert!(e.source().is_none());
        assert!(!e.to_string().is_empty());
    }
}
