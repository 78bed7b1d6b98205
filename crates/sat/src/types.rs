//! Variables and literals.

/// A propositional variable, numbered from `0`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

impl Var {
    /// Index of this variable (identity; provided for symmetry with `Lit`).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The positive literal of this variable.
    #[inline]
    pub fn positive(self) -> Lit {
        Lit::pos(self.0)
    }

    /// The negative literal of this variable.
    #[inline]
    pub fn negative(self) -> Lit {
        Lit::neg(self.0)
    }

    /// Literal of this variable with the given sign.
    #[inline]
    pub fn lit(self, positive: bool) -> Lit {
        Lit::new(self.0, positive)
    }
}

impl std::fmt::Debug for Var {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl std::fmt::Display for Var {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0 + 1)
    }
}

/// A literal: a variable or its negation, encoded as `2·var + sign` where
/// `sign = 1` means negated. This is the MiniSat packing; it lets watch
/// lists index directly by literal code.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// Positive literal of variable `var`.
    #[inline]
    pub fn pos(var: u32) -> Lit {
        Lit(var << 1)
    }

    /// Negative literal of variable `var`.
    #[inline]
    pub fn neg(var: u32) -> Lit {
        Lit((var << 1) | 1)
    }

    /// Literal of `var` with explicit sign (`true` = positive).
    #[inline]
    pub fn new(var: u32, positive: bool) -> Lit {
        Lit((var << 1) | u32::from(!positive))
    }

    /// The underlying variable.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// `true` if this is a positive (unnegated) literal.
    #[inline]
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// Packed code `2·var + sign`, usable as an array index.
    #[inline]
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a literal from its packed [`code`](Lit::code).
    #[inline]
    pub fn from_code(code: usize) -> Lit {
        Lit(u32::try_from(code).expect("literal code fits u32"))
    }

    /// Packed code as a `u32`, the form the solver's clause arena stores.
    #[inline]
    pub(crate) fn raw(self) -> u32 {
        self.0
    }

    /// Inverse of [`raw`](Lit::raw).
    #[inline]
    pub(crate) fn from_raw(raw: u32) -> Lit {
        Lit(raw)
    }

    /// Value of this literal when its variable is assigned `value`.
    #[inline]
    pub fn apply(self, value: bool) -> bool {
        value == self.is_positive()
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;

    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl std::fmt::Debug for Lit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_positive() {
            write!(f, "v{}", self.var().0)
        } else {
            write!(f, "¬v{}", self.var().0)
        }
    }
}

impl std::fmt::Display for Lit {
    /// DIMACS rendering: 1-based, negative numbers for negated literals.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let v = i64::from(self.var().0) + 1;
        write!(f, "{}", if self.is_positive() { v } else { -v })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_packing_roundtrip() {
        for var in [0u32, 1, 5, 1000] {
            for positive in [true, false] {
                let l = Lit::new(var, positive);
                assert_eq!(l.var(), Var(var));
                assert_eq!(l.is_positive(), positive);
                assert_eq!(Lit::from_code(l.code()), l);
            }
        }
    }

    #[test]
    fn negation_flips_sign_only() {
        let l = Lit::pos(7);
        assert_eq!(!l, Lit::neg(7));
        assert_eq!(!!l, l);
        assert_eq!((!l).var(), l.var());
    }

    #[test]
    fn apply_respects_sign() {
        assert!(Lit::pos(0).apply(true));
        assert!(!Lit::pos(0).apply(false));
        assert!(Lit::neg(0).apply(false));
        assert!(!Lit::neg(0).apply(true));
    }

    #[test]
    fn var_literal_constructors_agree() {
        let v = Var(3);
        assert_eq!(v.positive(), Lit::pos(3));
        assert_eq!(v.negative(), Lit::neg(3));
        assert_eq!(v.lit(true), Lit::pos(3));
        assert_eq!(v.lit(false), Lit::neg(3));
    }

    #[test]
    fn dimacs_display_is_one_based_signed() {
        assert_eq!(Lit::pos(0).to_string(), "1");
        assert_eq!(Lit::neg(0).to_string(), "-1");
        assert_eq!(Lit::neg(41).to_string(), "-42");
        assert_eq!(Var(0).to_string(), "1");
    }
}
