//! Systems of affine inequalities (parameterised polyhedra) and a small text
//! parser for the paper's input format.

use crate::constraint::Constraint;
use crate::error::PolyError;
use crate::expr::LinExpr;
use crate::space::Space;
use std::collections::HashMap;
use std::fmt;

/// A conjunction of affine constraints over a shared [`Space`]: the iteration
/// spaces of Section IV-E of the paper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstraintSystem {
    space: Space,
    constraints: Vec<Constraint>,
}

impl ConstraintSystem {
    /// An unconstrained system over `space`.
    pub fn new(space: Space) -> ConstraintSystem {
        ConstraintSystem {
            space,
            constraints: Vec::new(),
        }
    }

    /// The space this system is defined over.
    pub fn space(&self) -> &Space {
        &self.space
    }

    /// The constraints, in insertion order.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Add a constraint (dimension-checked against the space).
    pub fn add(&mut self, c: Constraint) -> Result<(), PolyError> {
        if c.expr().dim() != self.space.dim() {
            return Err(PolyError::SpaceMismatch {
                expected: self.space.dim(),
                found: c.expr().dim(),
            });
        }
        self.constraints.push(c);
        Ok(())
    }

    /// Add the constraint parsed from text, e.g. `"s1 + f1 <= N"`.
    pub fn add_text(&mut self, text: &str) -> Result<(), PolyError> {
        for c in parse_constraint(text, &self.space)? {
            self.add(c)?;
        }
        Ok(())
    }

    /// Does the full integer point satisfy every constraint?
    pub fn contains(&self, point: &[i128]) -> Result<bool, PolyError> {
        for c in &self.constraints {
            if !c.satisfied_by(point)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// True when some constraint is a plain contradiction (e.g. `-1 >= 0`).
    pub fn is_trivially_infeasible(&self) -> bool {
        self.constraints.iter().any(Constraint::is_contradiction)
    }

    /// Remove tautologies, exact duplicates and rows dominated by a row with
    /// the same coefficient vector and a smaller constant, and fold opposing
    /// pairs (`a·x + c1 >= 0`, `-a·x + c2 >= 0` with `c1 + c2 < 0`) into an
    /// explicit contradiction.
    ///
    /// One pass keyed by coefficient vector: the first row with the
    /// smallest constant per vector survives, and survivors keep their input
    /// order. The opposing-pair test runs on the survivors alone, since the
    /// tightest pair has the smallest constant sum. This is the pruning step
    /// the paper applies after each Fourier–Motzkin iteration (Section IV-D);
    /// it is syntactic, not an exact redundancy test.
    pub fn simplify(&mut self) {
        let rows = &self.constraints;
        let mut best: HashMap<&[i128], usize> = HashMap::with_capacity(rows.len());
        for (i, c) in rows.iter().enumerate() {
            if c.is_tautology() {
                continue;
            }
            let k = c.expr().constant_term();
            best.entry(c.expr().coeffs())
                .and_modify(|b| {
                    if k < rows[*b].expr().constant_term() {
                        *b = i;
                    }
                })
                .or_insert(i);
        }
        let mut negated = Vec::with_capacity(self.space.dim());
        let contradiction = best.values().any(|&i| {
            let e = rows[i].expr();
            negated.clear();
            negated.extend(e.coeffs().iter().map_while(|a| a.checked_neg()));
            negated.len() == e.dim()
                && best.get(negated.as_slice()).is_some_and(|&j| {
                    let (k1, k2) = (e.constant_term(), rows[j].expr().constant_term());
                    // An overflowing sum has the sign of its operands.
                    k1.checked_add(k2).map_or(k1 < 0, |s| s < 0)
                })
        });
        let mut keep = vec![false; rows.len()];
        best.values().for_each(|&i| keep[i] = true);
        let mut keep = keep.into_iter();
        self.constraints.retain(|_| keep.next() == Some(true));
        // Mark infeasibility explicitly, but keep the other constraints:
        // bound extraction on intermediate FM systems still needs them to
        // synthesise (empty) loops for the remaining variables.
        if contradiction && !self.is_trivially_infeasible() {
            let dim = self.space.dim();
            self.constraints
                .push(Constraint::ge0(LinExpr::constant(dim, -1)));
        }
    }

    /// The quadratic `simplify` this crate shipped before the one-pass
    /// version: the differential oracle for it. One fix: a constant sum that
    /// overflows counts by its sign (it used to count as non-negative).
    #[cfg(test)]
    pub(crate) fn simplify_quadratic(&mut self) {
        // Detect opposing-pair infeasibility before dropping anything.
        let mut contradiction = self.is_trivially_infeasible();
        'outer: for (i, a) in self.constraints.iter().enumerate() {
            for b in &self.constraints[i + 1..] {
                let neg: Vec<i128> = b.expr().coeffs().iter().map(|&c| -c).collect();
                let (k1, k2) = (a.expr().constant_term(), b.expr().constant_term());
                if a.expr().coeffs() == neg.as_slice()
                    && k1.checked_add(k2).map_or(k1 < 0, |s| s < 0)
                {
                    contradiction = true;
                    break 'outer;
                }
            }
        }
        self.constraints.retain(|c| !c.is_tautology());

        // Keep only the tightest constraint per coefficient vector.
        let mut kept: Vec<Constraint> = Vec::with_capacity(self.constraints.len());
        for c in self.constraints.drain(..) {
            if kept.iter().any(|k| k.implies_syntactically(&c)) {
                continue;
            }
            kept.retain(|k| !c.implies_syntactically(k));
            kept.push(c);
        }
        self.constraints = kept;
        // Mark infeasibility explicitly, but keep the other constraints:
        // bound extraction on intermediate FM systems still needs them to
        // synthesise (empty) loops for the remaining variables.
        if contradiction && !self.is_trivially_infeasible() {
            let dim = self.space.dim();
            self.constraints
                .push(Constraint::ge0(LinExpr::constant(dim, -1)));
        }
    }

    /// Substitute column `idx := repl` in every constraint.
    pub fn substitute(&self, idx: usize, repl: &LinExpr) -> Result<ConstraintSystem, PolyError> {
        let mut out = ConstraintSystem::new(self.space.clone());
        for c in &self.constraints {
            out.add(Constraint::ge0(c.expr().substitute(idx, repl)?))?;
        }
        Ok(out)
    }

    /// Indices of columns with a nonzero coefficient in some constraint.
    pub fn used_columns(&self) -> Vec<usize> {
        (0..self.space.dim())
            .filter(|&i| self.constraints.iter().any(|c| c.coeff(i) != 0))
            .collect()
    }
}

impl fmt::Display for ConstraintSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} {{", self.space)?;
        for c in &self.constraints {
            writeln!(f, "  {}", c.display(&self.space))?;
        }
        write!(f, "}}")
    }
}

// ---------------------------------------------------------------------------
// Constraint text parser.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Num(i128),
    Ident(String),
    Plus,
    Minus,
    Star,
    Cmp(CmpOp),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CmpOp {
    Le,
    Ge,
    Lt,
    Gt,
    Eq,
}

fn tokenize(text: &str) -> Result<Vec<Tok>, PolyError> {
    let mut toks = Vec::new();
    let bytes: Vec<char> = text.chars().collect();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            ' ' | '\t' => i += 1,
            '+' => {
                toks.push(Tok::Plus);
                i += 1;
            }
            '-' => {
                toks.push(Tok::Minus);
                i += 1;
            }
            '*' => {
                toks.push(Tok::Star);
                i += 1;
            }
            '<' | '>' | '=' => {
                let two = if i + 1 < bytes.len() && bytes[i + 1] == '=' {
                    i += 2;
                    true
                } else {
                    i += 1;
                    false
                };
                toks.push(Tok::Cmp(match (c, two) {
                    ('<', true) => CmpOp::Le,
                    ('<', false) => CmpOp::Lt,
                    ('>', true) => CmpOp::Ge,
                    ('>', false) => CmpOp::Gt,
                    ('=', _) => CmpOp::Eq,
                    _ => unreachable!(),
                }));
            }
            '0'..='9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let s: String = bytes[start..i].iter().collect();
                let n = s
                    .parse::<i128>()
                    .map_err(|_| PolyError::Parse(format!("bad integer `{s}`")))?;
                toks.push(Tok::Num(n));
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                    i += 1;
                }
                toks.push(Tok::Ident(bytes[start..i].iter().collect()));
            }
            other => {
                return Err(PolyError::Parse(format!(
                    "unexpected character `{other}` in `{text}`"
                )))
            }
        }
    }
    Ok(toks)
}

/// Parse one side of a comparison into a [`LinExpr`].
fn parse_side(toks: &[Tok], space: &Space, text: &str) -> Result<LinExpr, PolyError> {
    let mut expr = LinExpr::zero(space.dim());
    let mut i = 0;
    let mut sign: i128 = 1;
    let mut expect_term = true;
    while i < toks.len() {
        match &toks[i] {
            Tok::Plus => {
                if expect_term {
                    return Err(PolyError::Parse(format!("dangling `+` in `{text}`")));
                }
                sign = 1;
                expect_term = true;
                i += 1;
            }
            Tok::Minus => {
                // Unary minus is allowed at term start; binary elsewhere.
                sign = if expect_term { -sign } else { -1 };
                expect_term = true;
                i += 1;
            }
            Tok::Num(n) => {
                if !expect_term {
                    return Err(PolyError::Parse(format!("missing operator in `{text}`")));
                }
                // Either a bare constant or `k * ident` / `k ident`.
                if i + 2 < toks.len() && toks[i + 1] == Tok::Star {
                    if let Tok::Ident(name) = &toks[i + 2] {
                        expr.add_term(sign * n, Some(name), space)?;
                        i += 3;
                    } else {
                        return Err(PolyError::Parse(format!(
                            "expected name after `*` in `{text}`"
                        )));
                    }
                } else if i + 1 < toks.len() {
                    if let Tok::Ident(name) = &toks[i + 1] {
                        expr.add_term(sign * n, Some(name), space)?;
                        i += 2;
                    } else {
                        expr.add_term(sign * n, None, space)?;
                        i += 1;
                    }
                } else {
                    expr.add_term(sign * n, None, space)?;
                    i += 1;
                }
                sign = 1;
                expect_term = false;
            }
            Tok::Ident(name) => {
                if !expect_term {
                    return Err(PolyError::Parse(format!("missing operator in `{text}`")));
                }
                expr.add_term(sign, Some(name), space)?;
                sign = 1;
                expect_term = false;
                i += 1;
            }
            Tok::Star => {
                return Err(PolyError::Parse(format!("unexpected `*` in `{text}`")));
            }
            Tok::Cmp(_) => unreachable!("comparison split before parse_side"),
        }
    }
    if expect_term && !toks.is_empty() {
        return Err(PolyError::Parse(format!("dangling operator in `{text}`")));
    }
    if toks.is_empty() {
        return Err(PolyError::Parse(format!("empty expression in `{text}`")));
    }
    Ok(expr)
}

/// Parse a (possibly chained) comparison such as `"0 <= s1 + f1 <= N"` into
/// one or more constraints over `space`.
///
/// Supported operators: `<=`, `>=`, `<`, `>`, `=`/`==`. Terms are integers,
/// names, or `k*name` (also `k name`). `=` produces two inequalities.
pub fn parse_constraint(text: &str, space: &Space) -> Result<Vec<Constraint>, PolyError> {
    let toks = tokenize(text)?;
    // Split on comparison tokens.
    let mut sides: Vec<Vec<Tok>> = vec![Vec::new()];
    let mut ops: Vec<CmpOp> = Vec::new();
    for t in toks {
        if let Tok::Cmp(op) = t {
            ops.push(op);
            sides.push(Vec::new());
        } else {
            sides.last_mut().unwrap().push(t);
        }
    }
    if ops.is_empty() {
        return Err(PolyError::Parse(format!(
            "no comparison operator in `{text}`"
        )));
    }
    let exprs: Vec<LinExpr> = sides
        .iter()
        .map(|s| parse_side(s, space, text))
        .collect::<Result<_, _>>()?;
    let mut out = Vec::new();
    let one = LinExpr::constant(space.dim(), 1);
    for (k, op) in ops.iter().enumerate() {
        let (l, r) = (&exprs[k], &exprs[k + 1]);
        match op {
            CmpOp::Le => out.push(Constraint::le(l, r)?),
            CmpOp::Ge => out.push(Constraint::ge(l, r)?),
            CmpOp::Lt => out.push(Constraint::le(&l.checked_add(&one)?, r)?),
            CmpOp::Gt => out.push(Constraint::ge(l, &r.checked_add(&one)?)?),
            CmpOp::Eq => {
                out.push(Constraint::le(l, r)?);
                out.push(Constraint::ge(l, r)?);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bandit_space() -> Space {
        Space::from_names(&["s1", "f1", "s2", "f2"], &["N"]).unwrap()
    }

    /// The 2-arm bandit iteration space from Section II of the paper.
    pub fn bandit_system() -> ConstraintSystem {
        let mut sys = ConstraintSystem::new(bandit_space());
        sys.add_text("s1 + f1 + s2 + f2 <= N").unwrap();
        sys.add_text("s1 >= 0").unwrap();
        sys.add_text("f1 >= 0").unwrap();
        sys.add_text("s2 >= 0").unwrap();
        sys.add_text("f2 >= 0").unwrap();
        sys
    }

    #[test]
    fn bandit_membership() {
        let sys = bandit_system();
        // (s1, f1, s2, f2, N)
        assert!(sys.contains(&[0, 0, 0, 0, 10]).unwrap());
        assert!(sys.contains(&[3, 2, 4, 1, 10]).unwrap());
        assert!(!sys.contains(&[3, 2, 4, 2, 10]).unwrap());
        assert!(!sys.contains(&[-1, 0, 0, 0, 10]).unwrap());
    }

    #[test]
    fn parse_chained_comparison() {
        let space = Space::from_names(&["x"], &["N"]).unwrap();
        let cs = parse_constraint("0 <= x <= N", &space).unwrap();
        assert_eq!(cs.len(), 2);
        let mut sys = ConstraintSystem::new(space);
        for c in cs {
            sys.add(c).unwrap();
        }
        assert!(sys.contains(&[0, 5]).unwrap());
        assert!(sys.contains(&[5, 5]).unwrap());
        assert!(!sys.contains(&[6, 5]).unwrap());
        assert!(!sys.contains(&[-1, 5]).unwrap());
    }

    #[test]
    fn parse_coefficients_and_signs() {
        let space = Space::from_names(&["x", "y"], &["N"]).unwrap();
        let cs = parse_constraint("2*x - 3 y + 4 >= N", &space).unwrap();
        assert_eq!(cs.len(), 1);
        // 2x - 3y + 4 - N >= 0
        let e = cs[0].expr();
        assert_eq!(e.coeffs(), &[2, -3, -1]);
        assert_eq!(e.constant_term(), 4);
    }

    #[test]
    fn parse_strict_and_equality() {
        let space = Space::from_names(&["x"], &[]).unwrap();
        // x < 5  ->  x + 1 <= 5  ->  x <= 4
        let cs = parse_constraint("x < 5", &space).unwrap();
        let mut sys = ConstraintSystem::new(space.clone());
        sys.add(cs[0].clone()).unwrap();
        assert!(sys.contains(&[4]).unwrap());
        assert!(!sys.contains(&[5]).unwrap());
        // x > 2 -> x >= 3
        let cs = parse_constraint("x > 2", &space).unwrap();
        assert!(cs[0].satisfied_by(&[3]).unwrap());
        assert!(!cs[0].satisfied_by(&[2]).unwrap());
        // x = 3
        let cs = parse_constraint("x = 3", &space).unwrap();
        assert_eq!(cs.len(), 2);
        assert!(cs.iter().all(|c| c.satisfied_by(&[3]).unwrap()));
        assert!(!cs.iter().all(|c| c.satisfied_by(&[4]).unwrap()));
        assert!(!cs.iter().all(|c| c.satisfied_by(&[2]).unwrap()));
    }

    #[test]
    fn parse_unary_minus() {
        let space = Space::from_names(&["x"], &[]).unwrap();
        let cs = parse_constraint("-x >= -7", &space).unwrap();
        assert!(cs[0].satisfied_by(&[7]).unwrap());
        assert!(!cs[0].satisfied_by(&[8]).unwrap());
    }

    #[test]
    fn parse_errors() {
        let space = Space::from_names(&["x"], &[]).unwrap();
        assert!(parse_constraint("x + ", &space).is_err());
        assert!(parse_constraint("x", &space).is_err());
        assert!(parse_constraint("x <= y", &space).is_err()); // unknown y
        assert!(parse_constraint("x # 1", &space).is_err());
        assert!(parse_constraint("* x <= 1", &space).is_err());
        assert!(parse_constraint("<= 1", &space).is_err());
    }

    #[test]
    fn simplify_dedups_and_keeps_tightest() {
        let space = Space::from_names(&["x"], &[]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        sys.add_text("x >= 0").unwrap();
        sys.add_text("x >= 0").unwrap();
        sys.add_text("x >= 3").unwrap();
        sys.add_text("0 <= 5").unwrap(); // tautology
        sys.simplify();
        assert_eq!(sys.constraints().len(), 1);
        assert!(sys.contains(&[3]).unwrap());
        assert!(!sys.contains(&[2]).unwrap());
    }

    #[test]
    fn simplify_detects_opposing_infeasibility() {
        let space = Space::from_names(&["x"], &[]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        sys.add_text("x >= 5").unwrap();
        sys.add_text("x <= 3").unwrap();
        sys.simplify();
        assert!(sys.is_trivially_infeasible());
    }

    #[test]
    fn simplify_sees_opposing_pairs_whose_constant_sum_overflows() {
        // x + k >= 0 and -x + k >= 0 with k < i128::MIN / 2: the sum 2k is
        // below i128::MIN, and still negative.
        let k = i128::MIN / 2 - 1;
        let mut sys = ConstraintSystem::new(Space::from_names(&["x"], &[]).unwrap());
        sys.add(Constraint::ge0(LinExpr::from_parts(vec![1], k)))
            .unwrap();
        sys.add(Constraint::ge0(LinExpr::from_parts(vec![-1], k)))
            .unwrap();
        sys.simplify();
        assert!(sys.is_trivially_infeasible());
        assert_eq!(sys.constraints().len(), 3);
    }

    /// Rows that exercise every rule of `simplify`: fresh rows, exact
    /// duplicates, same-vector rows with another constant, opposing rows
    /// (negated vector; constant sums of both signs), tautologies,
    /// contradictions and coefficients near `i128::MAX`.
    fn messy_system() -> impl Strategy<Value = ConstraintSystem> {
        let row = (0u8..7, 0usize..64, -2i128..3, -2i128..3, -6i128..7);
        proptest::collection::vec(row, 0..16).prop_map(|rows| {
            let space = Space::from_names(&["x", "y"], &["N"]).unwrap();
            let mut exprs: Vec<LinExpr> = Vec::new();
            for (kind, pick, a, b, k) in rows {
                let earlier = (!exprs.is_empty()).then(|| exprs[pick % exprs.len()].clone());
                let e = match (kind, earlier) {
                    (1, Some(e)) => e,
                    (2, Some(mut e)) => {
                        e.set_constant(k);
                        e
                    }
                    (3, Some(e)) => {
                        let mut e = e.neg().unwrap();
                        e.set_constant(k);
                        e
                    }
                    (4, _) => LinExpr::constant(3, k),
                    (5, _) => LinExpr::from_parts(
                        vec![i128::MAX - a.abs(), -(i128::MAX - 2 - b.abs()), a],
                        k,
                    ),
                    _ => LinExpr::from_parts(vec![a, b, k.signum()], k),
                };
                exprs.push(e);
            }
            let mut sys = ConstraintSystem::new(space);
            for e in exprs {
                sys.add(Constraint::ge0(e)).unwrap();
            }
            sys
        })
    }

    proptest! {
        /// The one-pass `simplify` keeps exactly the rows the quadratic
        /// oracle keeps, in the same order, and agrees on infeasibility.
        #[test]
        fn simplify_matches_the_quadratic_oracle(sys in messy_system()) {
            let mut fast = sys.clone();
            fast.simplify();
            let mut oracle = sys;
            oracle.simplify_quadratic();
            prop_assert_eq!(fast.constraints(), oracle.constraints());
        }
    }

    #[test]
    fn substitute_tiles_a_variable() {
        // x <= N with x := i + 4t over space [x, i, t, N].
        let space = Space::from_names(&["x", "i", "t"], &["N"]).unwrap();
        let mut sys = ConstraintSystem::new(space.clone());
        sys.add_text("x <= N").unwrap();
        let x_idx = space.index("x").unwrap();
        let mut repl = LinExpr::zero(space.dim());
        repl.set_coeff(space.index("i").unwrap(), 1);
        repl.set_coeff(space.index("t").unwrap(), 4);
        let tiled = sys.substitute(x_idx, &repl).unwrap();
        // i + 4t <= N: (x=anything, i=2, t=1, N=6) holds; (i=3, t=1, N=6) fails.
        assert!(tiled.contains(&[0, 2, 1, 6]).unwrap());
        assert!(!tiled.contains(&[0, 3, 1, 6]).unwrap());
    }

    #[test]
    fn used_columns_reports_nonzero() {
        let sys = bandit_system();
        assert_eq!(sys.used_columns(), vec![0, 1, 2, 3, 4]);
        let space = Space::from_names(&["x", "y"], &[]).unwrap();
        let mut s2 = ConstraintSystem::new(space);
        s2.add_text("x >= 0").unwrap();
        assert_eq!(s2.used_columns(), vec![0]);
    }

    #[test]
    fn display_renders() {
        let space = Space::from_names(&["x"], &["N"]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        sys.add_text("x <= N").unwrap();
        let s = sys.to_string();
        assert!(s.contains("-x + N >= 0"), "got: {s}");
    }
}
