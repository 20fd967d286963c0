//! Affine (linear + constant) expressions with exact `i128` coefficients.

use crate::error::PolyError;
use crate::num;
use crate::space::Space;
use std::fmt;

/// An affine expression `sum_k coeffs[k] * col_k + constant` over the columns
/// of a [`Space`].
///
/// Expressions do not own their space; they carry only the coefficient vector
/// whose length must equal `space.dim()`. All arithmetic is overflow-checked.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LinExpr {
    coeffs: Vec<i128>,
    constant: i128,
}

impl LinExpr {
    /// The zero expression over `dim` columns.
    pub fn zero(dim: usize) -> LinExpr {
        LinExpr {
            coeffs: vec![0; dim],
            constant: 0,
        }
    }

    /// The constant expression `c` over `dim` columns.
    pub fn constant(dim: usize, c: i128) -> LinExpr {
        LinExpr {
            coeffs: vec![0; dim],
            constant: c,
        }
    }

    /// The expression `1 * col_idx`.
    pub fn var(dim: usize, idx: usize) -> LinExpr {
        assert!(idx < dim, "column index out of range");
        let mut e = LinExpr::zero(dim);
        e.coeffs[idx] = 1;
        e
    }

    /// Build from an explicit coefficient vector and constant.
    pub fn from_parts(coeffs: Vec<i128>, constant: i128) -> LinExpr {
        LinExpr { coeffs, constant }
    }

    /// Parse a term like `3*x`, `-y`, `N` or `7` against `space` and add it.
    /// Used by the spec front end; see [`crate::system::parse_constraint`].
    pub fn add_term(
        &mut self,
        coeff: i128,
        name: Option<&str>,
        space: &Space,
    ) -> Result<(), PolyError> {
        match name {
            Some(n) => {
                let idx = space.index(n)?;
                self.coeffs[idx] = num::add(self.coeffs[idx], coeff)?;
            }
            None => self.constant = num::add(self.constant, coeff)?,
        }
        Ok(())
    }

    /// Number of columns this expression spans.
    pub fn dim(&self) -> usize {
        self.coeffs.len()
    }

    /// Coefficient of column `idx`.
    pub fn coeff(&self, idx: usize) -> i128 {
        self.coeffs[idx]
    }

    /// All coefficients, in column order.
    pub fn coeffs(&self) -> &[i128] {
        &self.coeffs
    }

    /// The constant term.
    pub fn constant_term(&self) -> i128 {
        self.constant
    }

    /// Set the coefficient of column `idx`.
    pub fn set_coeff(&mut self, idx: usize, c: i128) {
        self.coeffs[idx] = c;
    }

    /// Set the constant term.
    pub fn set_constant(&mut self, c: i128) {
        self.constant = c;
    }

    /// True when every coefficient is zero (the expression is constant).
    pub fn is_constant(&self) -> bool {
        self.coeffs.iter().all(|&c| c == 0)
    }

    /// Checked sum of two expressions over the same space.
    pub fn checked_add(&self, rhs: &LinExpr) -> Result<LinExpr, PolyError> {
        self.check_dim(rhs)?;
        let mut coeffs = Vec::with_capacity(self.coeffs.len());
        for (a, b) in self.coeffs.iter().zip(&rhs.coeffs) {
            coeffs.push(num::add(*a, *b)?);
        }
        Ok(LinExpr {
            coeffs,
            constant: num::add(self.constant, rhs.constant)?,
        })
    }

    /// Checked difference of two expressions over the same space.
    pub fn checked_sub(&self, rhs: &LinExpr) -> Result<LinExpr, PolyError> {
        self.check_dim(rhs)?;
        let mut coeffs = Vec::with_capacity(self.coeffs.len());
        for (a, b) in self.coeffs.iter().zip(&rhs.coeffs) {
            coeffs.push(num::sub(*a, *b)?);
        }
        Ok(LinExpr {
            coeffs,
            constant: num::sub(self.constant, rhs.constant)?,
        })
    }

    /// Checked scaling by an integer factor.
    pub fn checked_scale(&self, k: i128) -> Result<LinExpr, PolyError> {
        let mut coeffs = Vec::with_capacity(self.coeffs.len());
        for a in &self.coeffs {
            coeffs.push(num::mul(*a, k)?);
        }
        Ok(LinExpr {
            coeffs,
            constant: num::mul(self.constant, k)?,
        })
    }

    /// `self·a + rhs·b`, overflow-checked and built in one pass: the
    /// Fourier–Motzkin combination of two rows.
    pub(crate) fn checked_combine(&self, a: i128, rhs: &Self, b: i128) -> Result<Self, PolyError> {
        self.check_dim(rhs)?;
        // Most columns of a derived row are zero; a zero term cannot overflow.
        let scale = |x: i128, k: i128| if x == 0 { Ok(0) } else { num::mul(x, k) };
        let term = |x: i128, y: i128| num::add(scale(x, a)?, scale(y, b)?);
        let mut coeffs = Vec::with_capacity(self.coeffs.len());
        for (&x, &y) in self.coeffs.iter().zip(&rhs.coeffs) {
            coeffs.push(term(x, y)?);
        }
        Ok(LinExpr {
            coeffs,
            constant: term(self.constant, rhs.constant)?,
        })
    }

    /// Checked negation.
    pub fn neg(&self) -> Result<LinExpr, PolyError> {
        let negate = |c: i128| c.checked_neg().ok_or(PolyError::Overflow("negation"));
        let mut out = self.clone();
        for c in &mut out.coeffs {
            *c = negate(*c)?;
        }
        out.constant = negate(out.constant)?;
        Ok(out)
    }

    /// Divide in place by `g > 0`, which must divide every coefficient; the
    /// constant rounds down (`floor(constant / g)`).
    pub(crate) fn divide_floor(&mut self, g: i128) {
        for c in &mut self.coeffs {
            *c /= g;
        }
        self.constant = num::floor_div(self.constant, g);
    }

    /// Evaluate at a full assignment of all columns.
    pub fn eval(&self, point: &[i128]) -> Result<i128, PolyError> {
        if point.len() != self.coeffs.len() {
            return Err(PolyError::SpaceMismatch {
                expected: self.coeffs.len(),
                found: point.len(),
            });
        }
        let mut acc = self.constant;
        for (&c, &x) in self.coeffs.iter().zip(point) {
            if c != 0 {
                acc = num::add(acc, num::mul(c, x)?)?;
            }
        }
        Ok(acc)
    }

    /// Replace column `idx` with the affine expression `repl`
    /// (i.e. substitute `col_idx := repl`).
    pub fn substitute(&self, idx: usize, repl: &LinExpr) -> Result<LinExpr, PolyError> {
        self.check_dim(repl)?;
        let k = self.coeffs[idx];
        if k == 0 {
            return Ok(self.clone());
        }
        let mut out = self.clone();
        out.coeffs[idx] = 0;
        out.checked_add(&repl.checked_scale(k)?)
    }

    /// gcd of all coefficients (not the constant); 0 if all coefficients are 0.
    pub fn coeff_gcd(&self) -> i128 {
        num::gcd_slice(&self.coeffs)
    }

    /// Render against a space, e.g. `2*x - y + N + 3`.
    pub fn display<'a>(&'a self, space: &'a Space) -> DisplayExpr<'a> {
        DisplayExpr { expr: self, space }
    }

    fn check_dim(&self, rhs: &LinExpr) -> Result<(), PolyError> {
        if self.coeffs.len() != rhs.coeffs.len() {
            return Err(PolyError::SpaceMismatch {
                expected: self.coeffs.len(),
                found: rhs.coeffs.len(),
            });
        }
        Ok(())
    }
}

/// Displays a [`LinExpr`] using the names of a [`Space`].
pub struct DisplayExpr<'a> {
    expr: &'a LinExpr,
    space: &'a Space,
}

impl fmt::Display for DisplayExpr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (i, &c) in self.expr.coeffs.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let name = self.space.name(i);
            if first {
                match c {
                    1 => write!(f, "{name}")?,
                    -1 => write!(f, "-{name}")?,
                    _ => write!(f, "{c}*{name}")?,
                }
                first = false;
            } else if c > 0 {
                if c == 1 {
                    write!(f, " + {name}")?;
                } else {
                    write!(f, " + {c}*{name}")?;
                }
            } else if c == -1 {
                write!(f, " - {name}")?;
            } else {
                write!(f, " - {}*{name}", -c)?;
            }
        }
        let k = self.expr.constant;
        if first {
            write!(f, "{k}")?;
        } else if k > 0 {
            write!(f, " + {k}")?;
        } else if k < 0 {
            write!(f, " - {}", -k)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::VarKind;
    use proptest::prelude::*;

    fn space3() -> Space {
        Space::from_names(&["x", "y"], &["N"]).unwrap()
    }

    #[test]
    fn constructors() {
        let z = LinExpr::zero(3);
        assert!(z.is_constant());
        assert_eq!(z.constant_term(), 0);
        let c = LinExpr::constant(3, 7);
        assert_eq!(c.constant_term(), 7);
        let v = LinExpr::var(3, 1);
        assert_eq!(v.coeff(1), 1);
        assert_eq!(v.coeff(0), 0);
    }

    #[test]
    fn eval_simple() {
        // 2x - y + N + 3 at (x, y, N) = (5, 1, 10) -> 10 - 1 + 10 + 3 = 22
        let e = LinExpr::from_parts(vec![2, -1, 1], 3);
        assert_eq!(e.eval(&[5, 1, 10]).unwrap(), 22);
    }

    #[test]
    fn eval_dim_mismatch() {
        let e = LinExpr::zero(3);
        assert!(matches!(
            e.eval(&[1, 2]),
            Err(PolyError::SpaceMismatch { .. })
        ));
    }

    #[test]
    fn add_sub_scale() {
        let a = LinExpr::from_parts(vec![1, 2, 0], 1);
        let b = LinExpr::from_parts(vec![0, 1, -1], 4);
        assert_eq!(
            a.checked_add(&b).unwrap(),
            LinExpr::from_parts(vec![1, 3, -1], 5)
        );
        assert_eq!(
            a.checked_sub(&b).unwrap(),
            LinExpr::from_parts(vec![1, 1, 1], -3)
        );
        assert_eq!(
            a.checked_scale(-2).unwrap(),
            LinExpr::from_parts(vec![-2, -4, 0], -2)
        );
    }

    #[test]
    fn substitution_replaces_column() {
        // e = 2x + y; substitute x := i + 4t requires same dim, so build in a
        // 4-column space [x, y, i, t].
        let e = LinExpr::from_parts(vec![2, 1, 0, 0], 0);
        let repl = LinExpr::from_parts(vec![0, 0, 1, 4], 0);
        let got = e.substitute(0, &repl).unwrap();
        assert_eq!(got, LinExpr::from_parts(vec![0, 1, 2, 8], 0));
    }

    #[test]
    fn substitute_noop_when_coeff_zero() {
        let e = LinExpr::from_parts(vec![0, 1], 3);
        let repl = LinExpr::from_parts(vec![1, 1], 1);
        assert_eq!(e.substitute(0, &repl).unwrap(), e);
    }

    #[test]
    fn display_rendering() {
        let s = space3();
        let e = LinExpr::from_parts(vec![2, -1, 1], 3);
        assert_eq!(e.display(&s).to_string(), "2*x - y + N + 3");
        let e2 = LinExpr::from_parts(vec![-1, 0, 0], 0);
        assert_eq!(e2.display(&s).to_string(), "-x");
        let e3 = LinExpr::constant(3, -4);
        assert_eq!(e3.display(&s).to_string(), "-4");
        let e4 = LinExpr::from_parts(vec![1, 0, 0], -2);
        assert_eq!(e4.display(&s).to_string(), "x - 2");
    }

    #[test]
    fn add_term_accumulates() {
        let mut s = Space::new();
        s.add("x", VarKind::Var).unwrap();
        s.add("N", VarKind::Param).unwrap();
        let mut e = LinExpr::zero(2);
        e.add_term(2, Some("x"), &s).unwrap();
        e.add_term(1, Some("x"), &s).unwrap();
        e.add_term(-1, Some("N"), &s).unwrap();
        e.add_term(5, None, &s).unwrap();
        assert_eq!(e, LinExpr::from_parts(vec![3, -1], 5));
        assert!(e.add_term(1, Some("zzz"), &s).is_err());
    }

    #[test]
    fn coeff_gcd_ignores_constant() {
        let e = LinExpr::from_parts(vec![4, 6], 5);
        assert_eq!(e.coeff_gcd(), 2);
        let c = LinExpr::constant(2, 9);
        assert_eq!(c.coeff_gcd(), 0);
    }

    fn expr(dim: usize) -> impl Strategy<Value = LinExpr> {
        (proptest::collection::vec(-50i128..50, dim), -100i128..100)
            .prop_map(|(c, k)| LinExpr::from_parts(c, k))
    }

    proptest! {
        #[test]
        fn eval_is_linear(a in expr(4), b in expr(4),
                          p in proptest::collection::vec(-20i128..20, 4)) {
            let sum = a.checked_add(&b).unwrap();
            prop_assert_eq!(
                sum.eval(&p).unwrap(),
                a.eval(&p).unwrap() + b.eval(&p).unwrap()
            );
        }

        #[test]
        fn substitution_matches_eval(e in expr(4), r in expr(4),
                                     p in proptest::collection::vec(-10i128..10, 4)) {
            // Substituting col 0 by r, then evaluating at p, equals evaluating
            // e at p with p[0] replaced by r(p).
            let sub = e.substitute(0, &r).unwrap();
            let mut p2 = p.clone();
            p2[0] = r.eval(&p).unwrap();
            prop_assert_eq!(sub.eval(&p).unwrap(), e.eval(&p2).unwrap());
        }

        #[test]
        fn neg_negates_eval(e in expr(4), p in proptest::collection::vec(-10i128..10, 4)) {
            prop_assert_eq!(e.neg().unwrap().eval(&p).unwrap(), -e.eval(&p).unwrap());
        }
    }

    #[test]
    fn neg_overflow_is_an_error() {
        let e = LinExpr::from_parts(vec![1, 0], i128::MIN);
        assert_eq!(e.neg(), Err(PolyError::Overflow("negation")));
        let e = LinExpr::from_parts(vec![i128::MIN, 0], 0);
        assert_eq!(e.neg(), Err(PolyError::Overflow("negation")));
        let e = LinExpr::from_parts(vec![-3, i128::MAX], -i128::MAX);
        assert_eq!(
            e.neg(),
            Ok(LinExpr::from_parts(vec![3, -i128::MAX], i128::MAX))
        );
    }
}
