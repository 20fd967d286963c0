//! Affine inequality constraints `expr >= 0` with integer tightening.

use crate::error::PolyError;
use crate::expr::LinExpr;
use crate::space::Space;
use std::fmt;

/// A single affine constraint, interpreted as `expr >= 0`.
///
/// Constraints are stored *normalised*: the coefficient vector is divided by
/// its gcd `g` and the constant term is tightened to `floor(constant / g)`,
/// which is sound (and often strictly tighter) over integer points.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Constraint {
    expr: LinExpr,
}

impl Constraint {
    /// Build `expr >= 0`, normalising and integer-tightening.
    pub fn ge0(expr: LinExpr) -> Constraint {
        let mut c = Constraint { expr };
        c.normalize();
        c
    }

    /// Build `lhs >= rhs`.
    pub fn ge(lhs: &LinExpr, rhs: &LinExpr) -> Result<Constraint, PolyError> {
        Ok(Constraint::ge0(lhs.checked_sub(rhs)?))
    }

    /// Build `lhs <= rhs`.
    pub fn le(lhs: &LinExpr, rhs: &LinExpr) -> Result<Constraint, PolyError> {
        Ok(Constraint::ge0(rhs.checked_sub(lhs)?))
    }

    /// The underlying expression (`>= 0`).
    pub fn expr(&self) -> &LinExpr {
        &self.expr
    }

    /// Coefficient of column `idx`.
    pub fn coeff(&self, idx: usize) -> i128 {
        self.expr.coeff(idx)
    }

    /// `0 >= 0`-style constraint that is always true.
    pub fn is_tautology(&self) -> bool {
        self.expr.is_constant() && self.expr.constant_term() >= 0
    }

    /// `-1 >= 0`-style constraint that is always false.
    pub fn is_contradiction(&self) -> bool {
        self.expr.is_constant() && self.expr.constant_term() < 0
    }

    /// Does the integer point satisfy this constraint?
    pub fn satisfied_by(&self, point: &[i128]) -> Result<bool, PolyError> {
        Ok(self.expr.eval(point)? >= 0)
    }

    /// Divide by the gcd of the coefficients, tightening the constant
    /// (`a·x + c >= 0` with `g | a` becomes `(a/g)·x + floor(c/g) >= 0`).
    fn normalize(&mut self) {
        let g = self.expr.coeff_gcd();
        if g > 1 {
            self.expr.divide_floor(g);
        }
    }

    /// `self` implies `other` when they share a coefficient vector and
    /// `self`'s constant is <= `other`'s (a tighter lower bound).
    #[cfg(test)]
    pub(crate) fn implies_syntactically(&self, other: &Constraint) -> bool {
        self.expr.coeffs() == other.expr.coeffs()
            && self.expr.constant_term() <= other.expr.constant_term()
    }

    /// Render against a space, e.g. `x + y - N <= 0` shown as `-x - y + N >= 0`.
    pub fn display<'a>(&'a self, space: &'a Space) -> DisplayConstraint<'a> {
        DisplayConstraint { c: self, space }
    }
}

/// Displays a [`Constraint`] using the names of a [`Space`].
pub struct DisplayConstraint<'a> {
    c: &'a Constraint,
    space: &'a Space,
}

impl fmt::Display for DisplayConstraint<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} >= 0", self.c.expr.display(self.space))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn normalisation_divides_by_gcd_and_tightens() {
        // 4x + 6y + 5 >= 0  ->  2x + 3y + 2 >= 0  (floor(5/2) = 2)
        let c = Constraint::ge0(LinExpr::from_parts(vec![4, 6], 5));
        assert_eq!(c.expr().coeffs(), &[2, 3]);
        assert_eq!(c.expr().constant_term(), 2);
    }

    #[test]
    fn tightening_handles_negative_constants() {
        // 2x - 3 >= 0  ->  x + floor(-3/2) = x - 2 >= 0, i.e. x >= 2 (= ceil(3/2))
        let c = Constraint::ge0(LinExpr::from_parts(vec![2], -3));
        assert_eq!(c.expr().coeffs(), &[1]);
        assert_eq!(c.expr().constant_term(), -2);
    }

    #[test]
    fn tautology_and_contradiction() {
        assert!(Constraint::ge0(LinExpr::constant(2, 0)).is_tautology());
        assert!(Constraint::ge0(LinExpr::constant(2, 5)).is_tautology());
        assert!(Constraint::ge0(LinExpr::constant(2, -1)).is_contradiction());
        assert!(!Constraint::ge0(LinExpr::var(2, 0)).is_tautology());
        assert!(!Constraint::ge0(LinExpr::var(2, 0)).is_contradiction());
    }

    #[test]
    fn ge_le_builders() {
        let x = LinExpr::var(2, 0);
        let y = LinExpr::var(2, 1);
        // x >= y  ->  x - y >= 0
        let c = Constraint::ge(&x, &y).unwrap();
        assert_eq!(c.expr().coeffs(), &[1, -1]);
        // x <= y  ->  y - x >= 0
        let c = Constraint::le(&x, &y).unwrap();
        assert_eq!(c.expr().coeffs(), &[-1, 1]);
    }

    #[test]
    fn satisfied_by_point() {
        // x - y >= 0
        let c = Constraint::ge0(LinExpr::from_parts(vec![1, -1], 0));
        assert!(c.satisfied_by(&[3, 2]).unwrap());
        assert!(c.satisfied_by(&[2, 2]).unwrap());
        assert!(!c.satisfied_by(&[1, 2]).unwrap());
    }

    #[test]
    fn syntactic_implication() {
        // x - 3 >= 0 implies x - 1 >= 0
        let tight = Constraint::ge0(LinExpr::from_parts(vec![1], -3));
        let loose = Constraint::ge0(LinExpr::from_parts(vec![1], -1));
        assert!(tight.implies_syntactically(&loose));
        assert!(!loose.implies_syntactically(&tight));
        // Different coefficient vectors never imply syntactically. (Use a
        // 2-column constraint whose gcd is 1 so normalisation keeps it
        // distinct.)
        let tight2 = Constraint::ge0(LinExpr::from_parts(vec![1, 1], -3));
        let other = Constraint::ge0(LinExpr::from_parts(vec![1, 2], -3));
        assert!(!tight2.implies_syntactically(&other));
        assert!(!other.implies_syntactically(&tight2));
    }

    proptest! {
        /// Normalisation never changes the integer solution set.
        #[test]
        fn normalisation_preserves_integer_solutions(
            coeffs in proptest::collection::vec(-6i128..6, 3),
            k in -20i128..20,
            p in proptest::collection::vec(-10i128..10, 3),
        ) {
            let raw = LinExpr::from_parts(coeffs.clone(), k);
            let normalised = Constraint::ge0(raw.clone());
            let raw_sat = raw.eval(&p).unwrap() >= 0;
            prop_assert_eq!(normalised.satisfied_by(&p).unwrap(), raw_sat);
        }
    }
}
