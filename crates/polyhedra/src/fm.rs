//! Fourier–Motzkin elimination (Section IV-D of the paper).
//!
//! To eliminate a variable `v` from a system, every pair of constraints in
//! which `v` appears with opposite signs is combined so that `v` cancels:
//! from `a·v + P >= 0` (a > 0) and `-b·v + Q >= 0` (b > 0) we derive
//! `b·P + a·Q >= 0`. Constraints not involving `v` are kept unchanged.
//!
//! The number of constraints can grow as `n²/4` per elimination, so — as the
//! paper notes — rows are pruned after every step via
//! [`ConstraintSystem::simplify`], in one pass over the rows. What it drops
//! is syntactic only: tautologies, exact duplicates and rows dominated by a
//! row with the same coefficient vector and a smaller constant (the first row
//! with the smallest constant per vector survives; survivors keep their
//! input order). A row implied only by a *combination* of other rows stays:
//! exact redundancy elimination is not done here.
//!
//! Over the integers FM computes a (possibly slightly) *over-approximate*
//! projection: every integer point of the original system projects into the
//! result, but the result may contain integer points whose fibre holds no
//! integer point. For loop-bound generation this is exactly what is needed —
//! an outer iteration may simply yield an empty inner loop.

use crate::constraint::Constraint;
use crate::error::PolyError;
use crate::num;
use crate::system::ConstraintSystem;

/// Eliminate column `var` from `sys`, returning a system over the same space
/// in which `var` no longer appears in any constraint.
pub fn eliminate(sys: &ConstraintSystem, var: usize) -> Result<ConstraintSystem, PolyError> {
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
    out.simplify();
    Ok(out)
}

/// Eliminate several columns in sequence (simplifying after each step).
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

    proptest! {
        /// The fused combine and one-pass `simplify` give the reference's
        /// system row for row, and fail exactly when it does.
        #[test]
        fn eliminate_matches_the_reference(sys in wide_system(), var in 0usize..3) {
            match (eliminate(&sys, var), eliminate_reference(&sys, var)) {
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
