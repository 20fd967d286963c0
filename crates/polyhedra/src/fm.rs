//! Fourier–Motzkin elimination (Section IV-D of the paper).
//!
//! To eliminate a variable `v` from a system, every pair of constraints in
//! which `v` appears with opposite signs is combined so that `v` cancels:
//! from `a·v + P >= 0` (a > 0) and `-b·v + Q >= 0` (b > 0) we derive
//! `b·P + a·Q >= 0`. Constraints not involving `v` are kept unchanged.
//!
//! The number of constraints can grow as `n²/4` per elimination, so — as the
//! paper notes — rows are pruned after every step, in two passes.
//!
//! * [`ConstraintSystem::simplify`] is syntactic: it drops tautologies,
//!   exact duplicates and rows dominated by a row with the same coefficient
//!   vector and a smaller constant.
//! * Then a *derived* row — one the step combined, not one it carried over
//!   from its input — that has two or more variables is dropped when some
//!   other kept row `a` satisfies `row − a >= 0` everywhere in the *box*:
//!   the bounds the system's single-variable rows put on their columns. The
//!   test is interval arithmetic in checked `i128`; an overflow keeps the
//!   row. Input rows and single-variable rows are never dropped, so the
//!   box survives the pass.
//!
//! The second pass changes no point set. Every point of the result lies in
//! the box and satisfies `a`, so it satisfies the dropped row: the result's
//! rational set, and with it its integer set, is the unpruned one. A loop
//! nest from [`crate::LoopNest::synthesize_with_free`] enforces every row
//! of the system it is given at the level of the row's innermost loop
//! variable, and a dropped row only ever bounded an outer level; so a nest
//! scans the same points for *any* binding of its free symbols, and only
//! some outer iterations that were empty anyway come or go.
//!
//! The rows this removes are the exponential ones. Tiling a simplex
//! `Σ x_k <= N, x_k >= 0` with `x_k = i_k + w·t_k` pairs the sum row with
//! both `i_k >= 0` and `i_k >= −w·t_k`, which doubles the rows per
//! eliminated `i_k`: `N − w·Σ_{k∈S} t_k − …` for every subset `S`. Against
//! the row for `S ∪ {k}`, the row for `S` differs by `w·t_k`, which is
//! non-negative once the pairing of `i_k <= w − 1` with `i_k >= −w·t_k`
//! has given `w·t_k + w − 1 >= 0`, integer-tightened by
//! [`Constraint::ge0`] to `t_k >= 0`. Over the rationals that pairing
//! gives only `t_k >= −(w − 1)/w`, so the rows are not rationally
//! redundant, and a rational rule such as Chernikov's (drop a row derived
//! from more than `k + 1` input rows after `k` steps) keeps them.
//!
//! Over the integers FM computes a (possibly slightly) *over-approximate*
//! projection: every integer point of the original system projects into the
//! result, but the result may contain integer points whose fibre holds no
//! integer point. For loop-bound generation this is exactly what is needed —
//! an outer iteration may simply yield an empty inner loop.

use crate::constraint::Constraint;
use crate::error::PolyError;
use crate::expr::LinExpr;
use crate::num;
use crate::system::ConstraintSystem;

/// Eliminate column `var` from `sys`, returning a system over the same space
/// in which `var` no longer appears in any constraint: the combined and
/// simplified rows less each derived row that another row implies over the
/// system's variable bounds (module doc).
pub fn eliminate(sys: &ConstraintSystem, var: usize) -> Result<ConstraintSystem, PolyError> {
    let (mut out, carried) = combine(sys, var)?;
    prune(&mut out, carried);
    Ok(out)
}

/// The elimination step before pruning: rows free of `var`, then every
/// lower/upper pairing, simplified. Also returns how many rows carried over
/// from `sys` survive; they lead the result.
pub(crate) fn combine(
    sys: &ConstraintSystem,
    var: usize,
) -> Result<(ConstraintSystem, usize), PolyError> {
    let mut lowers: Vec<&Constraint> = Vec::new(); // coeff of var > 0  (v >= ...)
    let mut uppers: Vec<&Constraint> = Vec::new(); // coeff of var < 0  (v <= ...)
    let mut out = ConstraintSystem::new(sys.space().clone());
    for c in sys.constraints() {
        let a = c.coeff(var);
        if a > 0 {
            lowers.push(c);
        } else if a < 0 {
            uppers.push(c);
        } else {
            out.add(c.clone())?;
        }
    }
    let carried = out.constraints().len();
    for lo in &lowers {
        let a = lo.coeff(var); // > 0
        for up in &uppers {
            // b * lo + a * up cancels `var` (b > 0).
            let b = up
                .coeff(var)
                .checked_neg()
                .ok_or(PolyError::Overflow("negation"))?;
            let combined = lo.expr().checked_combine(b, up.expr(), a)?;
            debug_assert_eq!(combined.coeff(var), 0);
            out.add(Constraint::ge0(combined))?;
        }
    }
    let carried = out.simplify_counting(carried);
    Ok((out, carried))
}

/// Does the row have two or more variables?
fn is_multi(c: &Constraint) -> bool {
    c.expr()
        .coeffs()
        .iter()
        .filter(|&&a| a != 0)
        .nth(1)
        .is_some()
}

/// Drop each row past the first `carried` that has two or more variables
/// and that another kept row implies over the box of `sys` (module doc).
/// Rows are decided in order, each against the rows not yet dropped, so a
/// dropped row's implication chain always ends at a kept row.
fn prune(sys: &mut ConstraintSystem, carried: usize) {
    let rows = sys.constraints();
    let Some(first) = rows[carried..].iter().position(is_multi) else {
        return;
    };
    let bounds = variable_bounds(rows);
    let mut keep: Vec<bool> = Vec::new(); // allocated at the first drop
    for (i, row) in rows.iter().enumerate().skip(carried + first) {
        let kept = |j: usize| keep.get(j).copied().unwrap_or(true);
        let implied = is_multi(row)
            && (0..rows.len())
                .any(|j| j != i && kept(j) && at_least_over(row.expr(), rows[j].expr(), &bounds));
        if implied {
            keep.resize(rows.len(), true);
            keep[i] = false;
        }
    }
    if !keep.is_empty() {
        sys.retain_marked(&keep);
    }
}

/// Per column, the `[lower, upper]` bounds the single-variable rows give;
/// `i128::MIN` / `i128::MAX` where there is none.
fn variable_bounds(rows: &[Constraint]) -> Vec<(i128, i128)> {
    let dim = rows.first().map_or(0, |c| c.expr().dim());
    let mut bounds = vec![(i128::MIN, i128::MAX); dim];
    for c in rows {
        let mut vars = c
            .expr()
            .coeffs()
            .iter()
            .enumerate()
            .filter(|(_, &a)| a != 0);
        let (Some((col, &a)), None) = (vars.next(), vars.next()) else {
            continue;
        };
        // a·x + k >= 0, where `Constraint::ge0` has divided a lone
        // coefficient down to ±1: x >= -k when a = 1, x <= k when a = -1.
        let k = c.expr().constant_term();
        let (lo, hi) = &mut bounds[col];
        match (a, k.checked_neg()) {
            (1, Some(nk)) => *lo = (*lo).max(nk),
            (-1, _) => *hi = (*hi).min(k),
            _ => {}
        }
    }
    bounds
}

/// Is `row − a >= 0` at every point of the box `bounds`? Interval
/// arithmetic in checked `i128`: an unbounded side or an overflow answers
/// no.
fn at_least_over(row: &LinExpr, a: &LinExpr, bounds: &[(i128, i128)]) -> bool {
    let Some(mut min) = row.constant_term().checked_sub(a.constant_term()) else {
        return false;
    };
    for ((&r, &s), &(lo, hi)) in row.coeffs().iter().zip(a.coeffs()).zip(bounds) {
        if r == s {
            continue;
        }
        let Some(c) = r.checked_sub(s) else {
            return false;
        };
        let end = if c > 0 { lo } else { hi };
        if end == i128::MIN || end == i128::MAX {
            return false;
        }
        match num::mul(c, end).ok().and_then(|t| min.checked_add(t)) {
            Some(m) => min = m,
            None => return false,
        }
    }
    min >= 0
}

/// Eliminate several columns in sequence (pruning after each step).
pub fn eliminate_all(
    sys: &ConstraintSystem,
    vars: &[usize],
) -> Result<ConstraintSystem, PolyError> {
    let Some((&first, rest)) = vars.split_first() else {
        return Ok(sys.clone());
    };
    let mut cur = eliminate(sys, first)?;
    for &v in rest {
        cur = eliminate(&cur, v)?;
    }
    Ok(cur)
}

/// For a variable `var` still present in `sys`, compute the concrete integer
/// bounds `[lb, ub]` implied by the constraints, given values for every other
/// column in `assignment` (the entry at `var` is ignored).
///
/// Returns `None` when the bounds are empty (`lb > ub`) or when `var` is
/// unbounded in either direction.
pub fn concrete_bounds(
    sys: &ConstraintSystem,
    var: usize,
    assignment: &[i128],
) -> Result<Option<(i128, i128)>, PolyError> {
    let mut lb: Option<i128> = None;
    let mut ub: Option<i128> = None;
    let mut point = assignment.to_vec();
    point[var] = 0;
    for c in sys.constraints() {
        let a = c.coeff(var);
        let rest = c.expr().eval(&point)?;
        if a > 0 {
            // a*v + rest >= 0  =>  v >= ceil(-rest / a)
            let bound = num::ceil_div(-rest, a);
            lb = Some(lb.map_or(bound, |cur| cur.max(bound)));
        } else if a < 0 {
            // a*v + rest >= 0  =>  v <= floor(rest / -a)
            let bound = num::floor_div(rest, -a);
            ub = Some(ub.map_or(bound, |cur| cur.min(bound)));
        } else if rest < 0 {
            return Ok(None); // var-free constraint violated at this assignment
        }
    }
    match (lb, ub) {
        (Some(l), Some(u)) if l <= u => Ok(Some((l, u))),
        (Some(_), Some(_)) => Ok(None),
        _ => Ok(None), // unbounded direction: not a finite loop
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::LoopNest;
    use crate::space::Space;
    use proptest::prelude::*;

    fn square() -> ConstraintSystem {
        let space = Space::from_names(&["x", "y"], &["N"]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        sys.add_text("0 <= x <= N").unwrap();
        sys.add_text("0 <= y <= N").unwrap();
        sys
    }

    #[test]
    fn eliminate_from_square() {
        let sys = square();
        let y = sys.space().index("y").unwrap();
        let projected = eliminate(&sys, y).unwrap();
        // Result mentions only x and N.
        assert!(projected.constraints().iter().all(|c| c.coeff(y) == 0));
        // 0 <= x <= N survives.
        assert!(projected.contains(&[0, 999, 5]).unwrap());
        assert!(projected.contains(&[5, 999, 5]).unwrap());
        assert!(!projected.contains(&[6, 0, 5]).unwrap());
        assert!(!projected.contains(&[-1, 0, 5]).unwrap());
    }

    #[test]
    fn eliminate_textbook_pairing() {
        // x1 <= x2 and x2 <= x3: eliminating x2 gives x1 <= x3.
        let space = Space::from_names(&["x1", "x2", "x3"], &[]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        sys.add_text("x1 <= x2").unwrap();
        sys.add_text("x2 <= x3").unwrap();
        let projected = eliminate(&sys, 1).unwrap();
        assert_eq!(projected.constraints().len(), 1);
        assert!(projected.contains(&[1, 0, 2]).unwrap());
        assert!(!projected.contains(&[3, 0, 2]).unwrap());
    }

    #[test]
    fn eliminate_simplex_keeps_sum_bound() {
        // Bandit-style simplex: eliminating f2 from s+f+s2+f2<=N, all >= 0
        // leaves s+f+s2 <= N.
        let space = Space::from_names(&["s1", "f1", "s2", "f2"], &["N"]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        sys.add_text("s1 + f1 + s2 + f2 <= N").unwrap();
        for v in ["s1", "f1", "s2", "f2"] {
            sys.add_text(&format!("{v} >= 0")).unwrap();
        }
        let projected = eliminate(&sys, 3).unwrap();
        assert!(projected.contains(&[2, 2, 2, 0, 6]).unwrap());
        assert!(!projected.contains(&[3, 2, 2, 0, 6]).unwrap());
    }

    #[test]
    fn infeasible_detected_during_elimination() {
        let space = Space::from_names(&["x"], &[]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        sys.add_text("x >= 5").unwrap();
        sys.add_text("x <= 3").unwrap();
        let projected = eliminate(&sys, 0).unwrap();
        assert!(projected.is_trivially_infeasible());
    }

    #[test]
    fn concrete_bounds_square() {
        let sys = square();
        // y in [0, N] regardless of x.
        let b = concrete_bounds(&sys, 1, &[3, 0, 7]).unwrap();
        assert_eq!(b, Some((0, 7)));
    }

    #[test]
    fn concrete_bounds_simplex() {
        let space = Space::from_names(&["x", "y"], &["N"]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        sys.add_text("x >= 0").unwrap();
        sys.add_text("y >= 0").unwrap();
        sys.add_text("x + y <= N").unwrap();
        // With x = 3, N = 5: y in [0, 2].
        assert_eq!(concrete_bounds(&sys, 1, &[3, 0, 5]).unwrap(), Some((0, 2)));
        // With x = 5, N = 5: y in [0, 0].
        assert_eq!(concrete_bounds(&sys, 1, &[5, 0, 5]).unwrap(), Some((0, 0)));
        // With x = 6, N = 5: empty.
        assert_eq!(concrete_bounds(&sys, 1, &[6, 0, 5]).unwrap(), None);
    }

    #[test]
    fn concrete_bounds_detects_violated_free_constraint() {
        let space = Space::from_names(&["x", "y"], &[]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        sys.add_text("x >= 2").unwrap();
        sys.add_text("0 <= y <= 9").unwrap();
        // x = 1 violates the y-free constraint, so no y bounds exist.
        assert_eq!(concrete_bounds(&sys, 1, &[1, 0]).unwrap(), None);
    }

    #[test]
    fn concrete_bounds_unbounded_is_none() {
        let space = Space::from_names(&["x"], &[]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        sys.add_text("x >= 0").unwrap();
        assert_eq!(concrete_bounds(&sys, 0, &[0]).unwrap(), None);
    }

    #[test]
    fn concrete_bounds_division_rounding() {
        // 2x >= 3  and  3x <= 10  =>  x in [2, 3]
        let space = Space::from_names(&["x"], &[]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        sys.add_text("2*x >= 3").unwrap();
        sys.add_text("3*x <= 10").unwrap();
        assert_eq!(concrete_bounds(&sys, 0, &[0]).unwrap(), Some((2, 3)));
    }

    /// Build a random bounded system over 3 variables: a box plus a few
    /// random constraints guaranteed consistent with the box's interior
    /// point? No — just random; we compare FM projection against brute force.
    fn random_system() -> impl Strategy<Value = ConstraintSystem> {
        let coeff = -3i128..4;
        proptest::collection::vec((coeff.clone(), coeff.clone(), coeff, -8i128..9), 0..4).prop_map(
            |extra| {
                let space = Space::from_names(&["x", "y", "z"], &[]).unwrap();
                let mut sys = ConstraintSystem::new(space);
                for v in ["x", "y", "z"] {
                    sys.add_text(&format!("-5 <= {v} <= 5")).unwrap();
                }
                for (a, b, c, k) in extra {
                    sys.add(Constraint::ge0(crate::expr::LinExpr::from_parts(
                        vec![a, b, c],
                        k,
                    )))
                    .unwrap();
                }
                sys
            },
        )
    }

    /// `eliminate` as this crate shipped it before the fused combine: scale,
    /// scale, add, then the quadratic `simplify`.
    fn eliminate_reference(
        sys: &ConstraintSystem,
        var: usize,
    ) -> Result<ConstraintSystem, PolyError> {
        let mut out = ConstraintSystem::new(sys.space().clone());
        for c in sys.constraints().iter().filter(|c| c.coeff(var) == 0) {
            out.add(c.clone())?;
        }
        for lo in sys.constraints().iter().filter(|c| c.coeff(var) > 0) {
            for up in sys.constraints().iter().filter(|c| c.coeff(var) < 0) {
                let combined = lo
                    .expr()
                    .checked_scale(-up.coeff(var))?
                    .checked_add(&up.expr().checked_scale(lo.coeff(var))?)?;
                out.add(Constraint::ge0(combined))?;
            }
        }
        out.simplify_quadratic();
        Ok(out)
    }

    /// Systems over (x, y, z) whose coefficients range from small to large
    /// enough (up to ~2^126) that some combinations overflow `i128`.
    fn wide_system() -> impl Strategy<Value = ConstraintSystem> {
        let coeff = (-3i128..4, 0u32..4, 60u32..126).prop_map(|(c, wide, shift)| {
            if wide == 0 && c != 0 {
                c * (1i128 << shift) + c.signum()
            } else {
                c
            }
        });
        let row = (coeff.clone(), coeff.clone(), coeff, -8i128..9);
        proptest::collection::vec(row, 0..10).prop_map(|rows| {
            let space = Space::from_names(&["x", "y", "z"], &[]).unwrap();
            let mut sys = ConstraintSystem::new(space);
            for (a, b, c, k) in rows {
                let e = crate::expr::LinExpr::from_parts(vec![a, b, c], k);
                sys.add(Constraint::ge0(e)).unwrap();
            }
            sys
        })
    }

    /// `eliminate` without its prune step: combine and `simplify` alone.
    fn eliminate_unpruned(
        sys: &ConstraintSystem,
        var: usize,
    ) -> Result<ConstraintSystem, PolyError> {
        combine(sys, var).map(|(s, _)| s)
    }

    /// A tiled 2-D simplex over `[i0, i1, t0, t1; N]` — `x_k = i_k + w_k·t_k`,
    /// `x_k >= 0`, `x0 + x1 <= N`, `0 <= i_k < w_k` — plus, at times,
    /// `0 <= t_k <= 2`, and a few random rows: the shape whose FM rows the
    /// prune step exists for.
    fn tiled_system() -> impl Strategy<Value = ConstraintSystem> {
        let row = (proptest::collection::vec(-2i128..3, 5), -4i128..5);
        let extra = proptest::collection::vec(row, 0..3);
        (1i128..4, 1i128..4, 0u8..2, extra).prop_map(|(w0, w1, t_box, extra)| {
            let space = Space::from_names(&["i0", "i1", "t0", "t1"], &["N"]).unwrap();
            let mut sys = ConstraintSystem::new(space);
            let mut add = |coeffs: Vec<i128>, k: i128| {
                let e = crate::expr::LinExpr::from_parts(coeffs, k);
                sys.add(Constraint::ge0(e)).unwrap();
            };
            add(vec![1, 0, w0, 0, 0], 0);
            add(vec![0, 1, 0, w1, 0], 0);
            add(vec![-1, -1, -w0, -w1, 1], 0);
            add(vec![1, 0, 0, 0, 0], 0);
            add(vec![-1, 0, 0, 0, 0], w0 - 1);
            add(vec![0, 1, 0, 0, 0], 0);
            add(vec![0, -1, 0, 0, 0], w1 - 1);
            if t_box == 1 {
                for t in [2, 3] {
                    let unit = |a| (0..5).map(|c| if c == t { a } else { 0 }).collect();
                    add(unit(1), 0);
                    add(unit(-1), 2);
                }
            }
            for (coeffs, k) in extra {
                add(coeffs, k);
            }
            sys
        })
    }

    /// Every point of `[-2, 3]^5`, column by column.
    fn sample_box() -> impl Iterator<Item = [i128; 5]> {
        (0..6i128.pow(5)).map(|n| std::array::from_fn(|c| (n / 6i128.pow(c as u32)) % 6 - 2))
    }

    /// Derived rows implied by a kept row over the box go; the box rows and
    /// the carried ones stay.
    #[test]
    fn eliminate_prunes_the_subset_rows_of_a_tiled_simplex() {
        // x_k = i_k + 3 t_k for k < 3: eliminating i2 pairs the sum row with
        // both i2 >= 0 and i2 >= -3 t2, and `t2 >= 0` makes the second
        // pairing (no t2) the looser one.
        let names = ["i0", "i1", "i2", "t0", "t1", "t2"];
        let space = Space::from_names(&names, &["N"]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        sys.add_text("i0 + i1 + i2 + 3 t0 + 3 t1 + 3 t2 <= N")
            .unwrap();
        for k in 0..3 {
            sys.add_text(&format!("i{k} + 3 t{k} >= 0")).unwrap();
            sys.add_text(&format!("0 <= i{k} <= 2")).unwrap();
        }
        let (unpruned, carried) = combine(&sys, 2).unwrap();
        let pruned = eliminate(&sys, 2).unwrap();
        let rows = |s: &ConstraintSystem| -> Vec<String> {
            s.constraints()
                .iter()
                .map(|c| c.display(s.space()).to_string())
                .collect()
        };
        let dropped = "-i0 - i1 - 3*t0 - 3*t1 + N >= 0".to_string();
        assert!(rows(&unpruned).contains(&dropped), "{:?}", rows(&unpruned));
        assert!(!rows(&pruned).contains(&dropped), "{:?}", rows(&pruned));
        assert!(rows(&pruned).contains(&"t2 >= 0".to_string()));
        assert_eq!(pruned.constraints().len(), unpruned.constraints().len() - 1);
        assert_eq!(
            &pruned.constraints()[..carried],
            &unpruned.constraints()[..carried]
        );
        // Over the whole i-elimination the rows stay linear in d, not 2^d.
        let all = eliminate_all(&sys, &[2, 1, 0]).unwrap();
        let sums = all.constraints().iter().filter(|c| c.coeff(6) != 0).count();
        assert_eq!(sums, 1, "{all}");
    }

    proptest! {
        /// The prune step drops neither a row carried over from the input
        /// nor a single-variable row, and never adds one.
        #[test]
        fn prune_keeps_input_and_single_variable_rows(sys in tiled_system(), var in 0usize..2) {
            let (unpruned, carried) = combine(&sys, var).unwrap();
            let pruned = eliminate(&sys, var).unwrap();
            let rows = unpruned.constraints();
            prop_assert_eq!(&pruned.constraints()[..carried], &rows[..carried]);
            for c in rows.iter().filter(|c| !is_multi(c)) {
                prop_assert!(pruned.constraints().contains(c), "{:?} dropped", c);
            }
            for c in pruned.constraints() {
                prop_assert!(rows.contains(c));
            }
        }

        /// Pruned and unpruned steps have the same integer points on a box
        /// around the space's interesting corner.
        #[test]
        fn prune_keeps_the_integer_points(sys in tiled_system(), var in 0usize..2) {
            let unpruned = eliminate_unpruned(&sys, var).unwrap();
            let pruned = eliminate(&sys, var).unwrap();
            for p in sample_box() {
                prop_assert_eq!(
                    pruned.contains(&p).unwrap(),
                    unpruned.contains(&p).unwrap(),
                    "at {:?}", p
                );
            }
        }

        /// Nests synthesised through pruned and unpruned steps scan the same
        /// points in the same order at every binding of `t0, t1, N`,
        /// including bindings that violate the system's bound rows.
        #[test]
        fn pruned_nests_scan_the_unpruned_points(sys in tiled_system(), outer in 0usize..2) {
            let order = [outer, 1 - outer];
            let pruned = LoopNest::synthesize_by(&sys, &order, eliminate).unwrap();
            let unpruned = LoopNest::synthesize_by(&sys, &order, eliminate_unpruned).unwrap();
            for binding in sample_box().filter(|p| p[0] == 0 && p[1] == 0) {
                let scan = |nest: &LoopNest| {
                    let mut point = binding;
                    let mut seen = Vec::new();
                    nest.for_each_point(&mut point, |p| seen.push(p.to_vec())).unwrap();
                    seen
                };
                prop_assert_eq!(scan(&pruned), scan(&unpruned), "at {:?}", binding);
            }
        }

        /// The fused combine and one-pass `simplify` give the reference's
        /// system row for row, and fail exactly when it does.
        #[test]
        fn eliminate_matches_the_reference(sys in wide_system(), var in 0usize..3) {
            match (eliminate_unpruned(&sys, var), eliminate_reference(&sys, var)) {
                (Ok(got), Ok(want)) => prop_assert_eq!(got, want),
                (got, want) => {
                    prop_assert_eq!(got.is_err(), want.is_err());
                    if let Err(e) = got {
                        prop_assert!(matches!(e, PolyError::Overflow(_)), "{e:?}");
                    }
                }
            }
        }

        /// Soundness: every integer point of the original system projects into
        /// the FM result (the projection never loses real points).
        #[test]
        fn fm_projection_is_sound(sys in random_system()) {
            let proj = eliminate(&sys, 2).unwrap(); // eliminate z
            for x in -5i128..=5 {
                for y in -5i128..=5 {
                    let fibre_has_point = (-5i128..=5)
                        .any(|z| sys.contains(&[x, y, z]).unwrap());
                    if fibre_has_point {
                        prop_assert!(
                            proj.contains(&[x, y, 0]).unwrap(),
                            "point ({x},{y}) lost by projection"
                        );
                    }
                }
            }
        }

        /// Rational completeness: any point in the FM result has a *rational*
        /// fibre point; over a full-dimensional random box the converse holds
        /// for the continuous relaxation, which we check by sampling: if the
        /// projection excludes (x, y), then no integer z can satisfy the
        /// original system.
        #[test]
        fn fm_exclusion_is_correct(sys in random_system()) {
            let proj = eliminate(&sys, 2).unwrap();
            for x in -5i128..=5 {
                for y in -5i128..=5 {
                    if !proj.contains(&[x, y, 0]).unwrap() {
                        for z in -5i128..=5 {
                            prop_assert!(
                                !sys.contains(&[x, y, z]).unwrap(),
                                "projection wrongly excluded ({x},{y}) with witness z={z}"
                            );
                        }
                    }
                }
            }
        }

        /// `concrete_bounds` matches brute force over the box.
        #[test]
        fn concrete_bounds_match_brute_force(sys in random_system(), x in -5i128..=5, y in -5i128..=5) {
            let zs: Vec<i128> = (-6i128..=6)
                .filter(|&z| sys.contains(&[x, y, z]).unwrap())
                .collect();
            let got = concrete_bounds(&sys, 2, &[x, y, 0]).unwrap();
            match got {
                Some((lb, ub)) => {
                    // The bound interval must contain exactly the feasible z's
                    // (bounds from the full system are exact per-fibre).
                    let expect: Vec<i128> = (lb..=ub).collect();
                    prop_assert_eq!(expect, zs);
                }
                None => prop_assert!(zs.is_empty(), "bounds None but feasible z's exist: {:?}", zs),
            }
        }
    }
}
