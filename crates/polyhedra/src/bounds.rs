//! Loop-bound synthesis: turning a constraint system plus a loop ordering
//! into the perfectly nested loop structure of Figure 3 of the paper.
//!
//! For the ordering `v1, v2, ..., vd` (outermost to innermost), the bounds of
//! `vk` may reference only the input parameters and the outer variables
//! `v1..v(k-1)`. They are obtained by Fourier–Motzkin-eliminating the inner
//! variables `v(k+1)..vd` first, then reading the remaining constraints on
//! `vk`:
//!
//! * `a·vk + rest >= 0` with `a > 0` yields the lower bound `ceil(-rest / a)`,
//! * `a·vk + rest >= 0` with `a < 0` yields the upper bound `floor(rest / |a|)`.
//!
//! The effective bounds are the `max` of all lower bounds and the `min` of all
//! upper bounds, exactly the `max`/`min` functions FM-generated loop nests use.
//!
//! Every walk of a nest ([`LoopNest::count`], [`LoopNest::for_each_row`],
//! [`LoopNest::for_each_point_directed`], and the tiling layer's scans
//! through [`LoopNest::bounds_at`]) evaluates its bounds in machine words:
//! each level is compiled once, when the nest is synthesised (and again
//! only for the level [`LoopNest::clamp`] changes), into sparse `(column,
//! i64 coefficient)` terms, a constant and a divisor, summed with checked
//! `i64` arithmetic; a unit divisor skips the division. A bound whose
//! coefficient, point entry or partial sum leaves `i64` is read through its
//! [`BoundExpr`] in checked `i128` instead, so every bound has the value
//! the `i128` reading gives.

use crate::error::PolyError;
use crate::expr::LinExpr;
use crate::fm;
use crate::num;
use crate::space::Space;
use crate::system::ConstraintSystem;

/// One affine bound `expr / divisor` (with `divisor > 0`). Lower bounds round
/// up (`ceil`), upper bounds round down (`floor`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundExpr {
    /// Numerator expression over the full space (zero coefficient on the
    /// bounded variable itself and on all inner variables).
    pub expr: LinExpr,
    /// Positive divisor.
    pub divisor: i128,
}

impl BoundExpr {
    /// Evaluate as a lower bound: `ceil(expr(point) / divisor)`.
    pub fn eval_lower(&self, point: &[i128]) -> Result<i128, PolyError> {
        Ok(num::ceil_div(self.expr.eval(point)?, self.divisor))
    }

    /// Evaluate as an upper bound: `floor(expr(point) / divisor)`.
    pub fn eval_upper(&self, point: &[i128]) -> Result<i128, PolyError> {
        Ok(num::floor_div(self.expr.eval(point)?, self.divisor))
    }
}

/// The bounds for one loop level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopLevel {
    /// Column index of the loop variable in the space.
    pub var: usize,
    /// Lower bounds; the effective bound is their maximum.
    pub lowers: Vec<BoundExpr>,
    /// Upper bounds; the effective bound is their minimum.
    pub uppers: Vec<BoundExpr>,
}

/// One level's bounds compiled for machine words: lowers, then uppers, in
/// the level's order, each over its run of the level's sparse terms.
#[derive(Debug, Clone, PartialEq, Eq)]
struct WordLevel {
    /// `(column, coefficient)` of every nonzero coefficient, bound by bound.
    terms: Vec<(usize, i64)>,
    /// `None` for a bound with a coefficient, constant or divisor beyond
    /// `i64`: it is always read in `i128`.
    bounds: Vec<Option<WordBound>>,
    lowers: usize,
}

/// `(constant + Σ coefficient·point[column]) / divisor` over the terms
/// `start..end` of its level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WordBound {
    start: u32,
    end: u32,
    constant: i64,
    divisor: i64,
}

impl WordBound {
    /// `b` in machine words, its terms appended to `terms`; `None`, with
    /// `terms` left as it was, when a coefficient, the constant or the
    /// divisor does not fit `i64`.
    fn compile(b: &BoundExpr, terms: &mut Vec<(usize, i64)>) -> Option<WordBound> {
        let start = terms.len();
        let word = |x: i128| i64::try_from(x).ok();
        let bound = (|| {
            for (col, &c) in b.expr.coeffs().iter().enumerate() {
                if c != 0 {
                    terms.push((col, word(c)?));
                }
            }
            Some(WordBound {
                start: start as u32,
                end: terms.len() as u32,
                constant: word(b.expr.constant_term())?,
                divisor: word(b.divisor)?,
            })
        })();
        if bound.is_none() {
            terms.truncate(start);
        }
        bound
    }

    /// The numerator at `point`, or `None` when an entry it reads or a
    /// partial sum leaves `i64`.
    #[inline]
    fn numerator(&self, terms: &[(usize, i64)], point: &[i128]) -> Option<i64> {
        let mut acc = self.constant;
        for &(col, coeff) in &terms[self.start as usize..self.end as usize] {
            let x = i64::try_from(point[col]).ok()?;
            acc = acc.checked_add(coeff.checked_mul(x)?)?;
        }
        Some(acc)
    }
}

impl WordLevel {
    fn compile(level: &LoopLevel) -> WordLevel {
        let mut terms = Vec::new();
        let bounds = (level.lowers.iter().chain(&level.uppers))
            .map(|b| WordBound::compile(b, &mut terms))
            .collect();
        WordLevel {
            terms,
            bounds,
            lowers: level.lowers.len(),
        }
    }

    /// Concrete `[lb, ub]` of `level` (the source of these words) at
    /// `point`; `None` when empty.
    #[inline]
    fn bounds_at(
        &self,
        level: &LoopLevel,
        point: &[i128],
    ) -> Result<Option<(i128, i128)>, PolyError> {
        let (lowers, uppers) = self.bounds.split_at(self.lowers);
        let numerator = |b: &Option<WordBound>| {
            b.as_ref()
                .and_then(|b| b.numerator(&self.terms, point).map(|n| (n, b.divisor)))
        };
        let mut lb = i128::MIN;
        for (b, wide) in lowers.iter().zip(&level.lowers) {
            lb = lb.max(match numerator(b) {
                Some((n, d)) => num::ceil_div(n.into(), d.into()),
                None => wide.eval_lower(point)?,
            });
        }
        let mut ub = i128::MAX;
        for (b, wide) in uppers.iter().zip(&level.uppers) {
            ub = ub.min(match numerator(b) {
                Some((n, d)) => num::floor_div(n.into(), d.into()),
                None => wide.eval_upper(point)?,
            });
        }
        Ok((lb <= ub).then_some((lb, ub)))
    }
}

/// Replace the constant members of `bounds` by one: `limit` folded with
/// their values through `tighter`, in the first one's place (at the end
/// when there is none). `round` is the side's division (`ceil_div` for a
/// lower bound, `floor_div` for an upper one).
fn fold_constant(
    bounds: &mut Vec<BoundExpr>,
    limit: i128,
    dim: usize,
    tighter: fn(i128, i128) -> i128,
    round: fn(i128, i128) -> i128,
) {
    let constant = |b: &BoundExpr| b.expr.is_constant();
    let at = bounds.iter().position(constant).unwrap_or(bounds.len());
    let value = bounds.iter().filter(|b| constant(b)).fold(limit, |v, b| {
        tighter(v, round(b.expr.constant_term(), b.divisor))
    });
    bounds.retain(|b| !constant(b));
    let expr = LinExpr::constant(dim, value);
    bounds.insert(at, BoundExpr { expr, divisor: 1 });
}

/// A synthesised perfectly nested loop program over a [`Space`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopNest {
    space: Space,
    levels: Vec<LoopLevel>,
    /// `levels`, compiled for the walks: one entry per level.
    words: Vec<WordLevel>,
    /// Constraints mentioning only parameters (and no loop variable): the
    /// context that must hold for the nest to execute at all.
    context: ConstraintSystem,
}

impl LoopNest {
    /// Synthesise a loop nest scanning exactly the integer points of `sys`,
    /// iterating the variables in `ordering` (outermost first).
    ///
    /// Every variable column of the space that appears in some constraint
    /// must be listed in `ordering`; parameters must not be.
    pub fn synthesize(sys: &ConstraintSystem, ordering: &[usize]) -> Result<LoopNest, PolyError> {
        // Every used variable column must be covered by the ordering.
        let space = sys.space();
        for col in sys.used_columns() {
            if space.kind(col) == crate::space::VarKind::Var && !ordering.contains(&col) {
                return Err(PolyError::MissingVariable(space.name(col).to_string()));
            }
        }
        LoopNest::synthesize_with_free(sys, ordering)
    }

    /// Like [`LoopNest::synthesize`], but columns not listed in `ordering`
    /// are treated as free symbols bound at evaluation time, whatever their
    /// [`crate::space::VarKind`]. This is how the generator builds *local*
    /// (within-tile) loop nests, whose bounds reference the tile indices
    /// `t_k` as runtime inputs (Figure 3 of the paper).
    pub fn synthesize_with_free(
        sys: &ConstraintSystem,
        ordering: &[usize],
    ) -> Result<LoopNest, PolyError> {
        LoopNest::synthesize_by(sys, ordering, fm::eliminate)
    }

    /// [`LoopNest::synthesize_with_free`] with `eliminate` as the
    /// Fourier–Motzkin step, so that tests can hold the nest to one built
    /// from unpruned systems.
    pub(crate) fn synthesize_by(
        sys: &ConstraintSystem,
        ordering: &[usize],
        eliminate: fn(&ConstraintSystem, usize) -> Result<ConstraintSystem, PolyError>,
    ) -> Result<LoopNest, PolyError> {
        let space = sys.space().clone();
        for &v in ordering {
            if v >= space.dim() {
                return Err(PolyError::SpaceMismatch {
                    expected: space.dim(),
                    found: v,
                });
            }
        }

        // Eliminate from the innermost outwards, reading bounds before each
        // elimination.
        let mut systems: Vec<ConstraintSystem> = Vec::with_capacity(ordering.len() + 1);
        let mut cur = sys.clone();
        cur.simplify();
        systems.push(cur);
        for &v in ordering.iter().rev() {
            let next = eliminate(&systems[systems.len() - 1], v)?;
            systems.push(next);
        }
        // systems[j] has the last j ordering variables eliminated. The bounds
        // for ordering[k] are read from systems[d - 1 - k].
        let d = ordering.len();
        let mut levels = Vec::with_capacity(d);
        for (k, &v) in ordering.iter().enumerate() {
            let sys_k = &systems[d - 1 - k];
            let mut lowers = Vec::new();
            let mut uppers = Vec::new();
            for c in sys_k.constraints() {
                let a = c.coeff(v);
                if a == 0 {
                    continue;
                }
                // a*v + rest >= 0 where rest = expr with v's coefficient zeroed.
                let mut rest = c.expr().clone();
                rest.set_coeff(v, 0);
                if a > 0 {
                    lowers.push(BoundExpr {
                        expr: rest.neg()?,
                        divisor: a,
                    });
                } else {
                    uppers.push(BoundExpr {
                        expr: rest,
                        divisor: -a,
                    });
                }
            }
            if lowers.is_empty() || uppers.is_empty() {
                return Err(PolyError::Unbounded(space.name(v).to_string()));
            }
            levels.push(LoopLevel {
                var: v,
                lowers,
                uppers,
            });
        }
        let context = systems.swap_remove(d);
        let words = levels.iter().map(WordLevel::compile).collect();
        Ok(LoopNest {
            space,
            levels,
            words,
            context,
        })
    }

    /// Narrow the loop over `var` to `lo..=hi`: the level's constant bounds
    /// and `lo` (lower) / `hi` (upper) fold into one constant bound each,
    /// in the place of the first. The nest then scans exactly the points
    /// it scanned before that lie in `lo <= var <= hi`, in the same order.
    ///
    /// For a synthesised nest this is the nest of the system plus the two
    /// box rows, with no elimination: [`LoopNest::synthesize_with_free`]
    /// enforces every row of its system at the level of the row's
    /// innermost loop variable, so the box rows belong at `var`'s level and
    /// what FM would derive from them is implied by the rows already there.
    pub fn clamp(&mut self, var: usize, lo: i128, hi: i128) -> Result<(), PolyError> {
        let dim = self.space.dim();
        let Some(depth) = self.levels.iter().position(|l| l.var == var) else {
            return Err(match self.space.names().get(var) {
                Some(name) => PolyError::MissingVariable(name.clone()),
                None => PolyError::SpaceMismatch {
                    expected: dim,
                    found: var,
                },
            });
        };
        let level = &mut self.levels[depth];
        fold_constant(&mut level.lowers, lo, dim, i128::max, num::ceil_div);
        fold_constant(&mut level.uppers, hi, dim, i128::min, num::floor_div);
        self.words[depth] = WordLevel::compile(level);
        Ok(())
    }

    /// The space the nest scans.
    pub fn space(&self) -> &Space {
        &self.space
    }

    /// The loop levels, outermost first.
    pub fn levels(&self) -> &[LoopLevel] {
        &self.levels
    }

    /// Concrete `[lb, ub]` of the level at `depth` (outermost 0) at `point`,
    /// whose entries for that and inner levels are ignored; `None` when
    /// empty. This is the one evaluator behind every walk of the nest.
    #[inline]
    pub fn bounds_at(
        &self,
        depth: usize,
        point: &[i128],
    ) -> Result<Option<(i128, i128)>, PolyError> {
        self.words[depth].bounds_at(&self.levels[depth], point)
    }

    /// The affine bounds over every level, lowers plus uppers: what each
    /// walk of the nest evaluates per iteration of the levels.
    pub fn bound_terms(&self) -> usize {
        self.levels
            .iter()
            .map(|l| l.lowers.len() + l.uppers.len())
            .sum()
    }

    /// Parameter-only context constraints.
    pub fn context(&self) -> &ConstraintSystem {
        &self.context
    }

    /// A point of the nest's space, or the fault of one of another length.
    fn check_point(&self, point: &[i128]) -> Result<(), PolyError> {
        let (expected, found) = (self.space.dim(), point.len());
        if found == expected {
            return Ok(());
        }
        Err(PolyError::SpaceMismatch { expected, found })
    }

    /// Does the context admit this parameter assignment (loop-variable
    /// entries of `point` are ignored by construction)?
    pub fn context_holds(&self, point: &[i128]) -> Result<bool, PolyError> {
        self.context.contains(point)
    }

    /// Visit every lattice point, every level ascending. `point` must be a
    /// full-space assignment with parameters already set; loop-variable
    /// entries are overwritten. The callback receives the full point for
    /// each iteration.
    pub fn for_each_point<F: FnMut(&[i128])>(
        &self,
        point: &mut [i128],
        f: F,
    ) -> Result<(), PolyError> {
        self.for_each_point_directed(point, &vec![false; self.levels.len()], f)
    }

    /// Like [`LoopNest::for_each_point`], but each level scans in the given
    /// direction (`true` = descending, from the upper bound down — the
    /// Figure 3 loop direction for positive template vectors).
    ///
    /// `descending` is indexed by level (outermost first) and must have one
    /// entry per level.
    pub fn for_each_point_directed<F: FnMut(&[i128])>(
        &self,
        point: &mut [i128],
        descending: &[bool],
        mut f: F,
    ) -> Result<(), PolyError> {
        self.check_point(point)?;
        if descending.len() != self.levels.len() {
            return Err(PolyError::SpaceMismatch {
                expected: self.levels.len(),
                found: descending.len(),
            });
        }
        if !self.context_holds(point)? {
            return Ok(());
        }
        self.walk_directed(0, point, descending, &mut f)
    }

    fn walk_directed<F: FnMut(&[i128])>(
        &self,
        depth: usize,
        point: &mut [i128],
        descending: &[bool],
        f: &mut F,
    ) -> Result<(), PolyError> {
        if depth == self.levels.len() {
            f(point);
            return Ok(());
        }
        let var = self.levels[depth].var;
        if let Some((lb, ub)) = self.bounds_at(depth, point)? {
            if descending[depth] {
                let mut v = ub;
                while v >= lb {
                    point[var] = v;
                    self.walk_directed(depth + 1, point, descending, f)?;
                    v -= 1;
                }
            } else {
                for v in lb..=ub {
                    point[var] = v;
                    self.walk_directed(depth + 1, point, descending, f)?;
                }
            }
        }
        Ok(())
    }

    /// Visit every non-empty *row* of the nest — its points sharing every
    /// loop variable but the innermost — in [`LoopNest::for_each_point`]
    /// order: `f(point, lb, ub)` gets the point with the outer loop variables
    /// set and the row's innermost range, read once. A levelless nest has none.
    pub fn for_each_row<F: FnMut(&[i128], i128, i128)>(
        &self,
        point: &mut [i128],
        mut f: F,
    ) -> Result<(), PolyError> {
        self.check_point(point)?;
        if self.levels.is_empty() || !self.context_holds(point)? {
            return Ok(());
        }
        self.rows_from(0, point, &mut f)
    }

    fn rows_from<F: FnMut(&[i128], i128, i128)>(
        &self,
        depth: usize,
        point: &mut [i128],
        f: &mut F,
    ) -> Result<(), PolyError> {
        let Some((lb, ub)) = self.bounds_at(depth, point)? else {
            return Ok(());
        };
        if depth + 1 == self.levels.len() {
            f(point, lb, ub);
            return Ok(());
        }
        let var = self.levels[depth].var;
        for v in lb..=ub {
            point[var] = v;
            self.rows_from(depth + 1, point, f)?;
        }
        Ok(())
    }

    /// Count lattice points without materialising them: the sum of the
    /// row extents ([`LoopNest::for_each_row`]).
    pub fn count(&self, point: &mut [i128]) -> Result<u128, PolyError> {
        let mut total: u128 = 0;
        self.for_each_row(point, |_, lb, ub| total += (ub - lb + 1) as u128)?;
        if self.levels.is_empty() {
            // No loop: one point wherever the context holds.
            return Ok(u128::from(self.context_holds(point)?));
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn simplex2(n: &str) -> ConstraintSystem {
        let space = Space::from_names(&["x", "y"], &[n]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        sys.add_text("x >= 0").unwrap();
        sys.add_text("y >= 0").unwrap();
        sys.add_text(&format!("x + y <= {n}")).unwrap();
        sys
    }

    #[test]
    fn triangle_enumeration() {
        let sys = simplex2("N");
        let nest = LoopNest::synthesize(&sys, &[0, 1]).unwrap();
        let mut pts = Vec::new();
        let mut point = [0i128, 0, 3];
        nest.for_each_point(&mut point, |p| pts.push((p[0], p[1])))
            .unwrap();
        // Triangle with N = 3 has C(5, 2) = 10 points.
        assert_eq!(pts.len(), 10);
        assert!(pts.contains(&(0, 0)));
        assert!(pts.contains(&(3, 0)));
        assert!(pts.contains(&(0, 3)));
        assert!(!pts.contains(&(2, 2)));
        // Lexicographic in the given ordering.
        let mut sorted = pts.clone();
        sorted.sort();
        assert_eq!(pts, sorted);
    }

    #[test]
    fn count_matches_enumeration() {
        let sys = simplex2("N");
        let nest = LoopNest::synthesize(&sys, &[0, 1]).unwrap();
        for n in 0..12i128 {
            let mut point = [0i128, 0, n];
            let counted = nest.count(&mut point).unwrap();
            let mut point2 = [0i128, 0, n];
            let mut seen = 0u128;
            nest.for_each_point(&mut point2, |_| seen += 1).unwrap();
            assert_eq!(counted, seen, "N = {n}");
            assert_eq!(counted, ((n + 1) * (n + 2) / 2) as u128);
        }
    }

    #[test]
    fn ordering_affects_visit_order_not_set() {
        let sys = simplex2("N");
        let nest_xy = LoopNest::synthesize(&sys, &[0, 1]).unwrap();
        let nest_yx = LoopNest::synthesize(&sys, &[1, 0]).unwrap();
        let collect = |nest: &LoopNest| {
            let mut pts = Vec::new();
            let mut point = [0i128, 0, 4];
            nest.for_each_point(&mut point, |p| pts.push((p[0], p[1])))
                .unwrap();
            pts
        };
        let mut a = collect(&nest_xy);
        let mut b = collect(&nest_yx);
        assert_ne!(a, b); // different orders
        a.sort();
        b.sort();
        assert_eq!(a, b); // same set
    }

    #[test]
    fn empty_context_skips_everything() {
        // x in [0, N] with context N >= 2 enforced via a parameter-only
        // constraint.
        let space = Space::from_names(&["x"], &["N"]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        sys.add_text("0 <= x <= N").unwrap();
        sys.add_text("N >= 2").unwrap();
        let nest = LoopNest::synthesize(&sys, &[0]).unwrap();
        let mut count = 0;
        let mut point = [0i128, 1]; // N = 1 violates context
        nest.for_each_point(&mut point, |_| count += 1).unwrap();
        assert_eq!(count, 0);
        let mut point = [0i128, 2];
        nest.for_each_point(&mut point, |_| count += 1).unwrap();
        assert_eq!(count, 3);
    }

    #[test]
    fn unbounded_variable_is_rejected() {
        let space = Space::from_names(&["x"], &[]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        sys.add_text("x >= 0").unwrap();
        assert_eq!(
            LoopNest::synthesize(&sys, &[0]),
            Err(PolyError::Unbounded("x".into()))
        );
    }

    #[test]
    fn unrepresentable_lower_bound_is_an_overflow_error() {
        // x >= 2^127 needs the bound -(i128::MIN), which does not exist.
        let space = Space::from_names(&["x"], &[]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        sys.add_text("x - 170141183460469231731687303715884105727 - 1 >= 0")
            .unwrap();
        sys.add_text("x <= 3").unwrap();
        assert_eq!(
            LoopNest::synthesize(&sys, &[0]),
            Err(PolyError::Overflow("negation"))
        );
    }

    #[test]
    fn missing_ordering_variable_is_rejected() {
        let sys = simplex2("N");
        assert!(matches!(
            LoopNest::synthesize(&sys, &[0]),
            Err(PolyError::MissingVariable(_))
        ));
    }

    #[test]
    fn directed_iteration_reverses_levels() {
        let sys = simplex2("N");
        let nest = LoopNest::synthesize(&sys, &[0, 1]).unwrap();
        let collect = |desc: &[bool]| {
            let mut pts = Vec::new();
            let mut point = [0i128, 0, 2];
            nest.for_each_point_directed(&mut point, desc, |p| pts.push((p[0], p[1])))
                .unwrap();
            pts
        };
        assert_eq!(
            collect(&[false, false]),
            vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
        );
        assert_eq!(
            collect(&[true, true]),
            vec![(2, 0), (1, 1), (1, 0), (0, 2), (0, 1), (0, 0)]
        );
        assert_eq!(
            collect(&[false, true]),
            vec![(0, 2), (0, 1), (0, 0), (1, 1), (1, 0), (2, 0)]
        );
        // Wrong direction arity is rejected.
        let mut point = [0i128, 0, 2];
        assert!(nest
            .for_each_point_directed(&mut point, &[true], |_| {})
            .is_err());
    }

    #[test]
    fn synthesize_with_free_treats_unordered_vars_as_symbols() {
        // Scan y for a fixed x in the triangle: y in [0, N - x].
        let sys = simplex2("N");
        let nest = LoopNest::synthesize_with_free(&sys, &[1]).unwrap();
        let mut pts = Vec::new();
        let mut point = [2i128, 0, 5]; // x = 2, N = 5
        nest.for_each_point(&mut point, |p| pts.push(p[1])).unwrap();
        assert_eq!(pts, vec![0, 1, 2, 3]);
        // The free column's constraints become part of the context: x = 9
        // violates x + y <= N even at y = 0... only via y >= 0 pairing, which
        // FM captures when eliminating y.
        let mut point = [9i128, 0, 5];
        let mut count = 0;
        nest.for_each_point(&mut point, |_| count += 1).unwrap();
        assert_eq!(count, 0);
    }

    #[test]
    fn clamp_folds_constant_bounds_in_place() {
        // 2 <= 3x <= 10 leaves x in [ceil(2/3), floor(10/3)] = [1, 3].
        let space = Space::from_names(&["x"], &["N"]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        sys.add_text("2 <= 3*x").unwrap();
        sys.add_text("3*x <= 10").unwrap();
        sys.add_text("x <= N").unwrap();
        let nest = LoopNest::synthesize(&sys, &[0]).unwrap();
        let scan = |nest: &LoopNest| {
            let mut pts = Vec::new();
            nest.for_each_point(&mut [0, 2], |p| pts.push(p[0]))
                .unwrap();
            pts
        };
        assert_eq!(scan(&nest), vec![1, 2]);
        // A looser box leaves the points alone; a tighter one cuts them.
        let mut loose = nest.clone();
        loose.clamp(0, -7, 9).unwrap();
        assert_eq!(scan(&loose), vec![1, 2]);
        let mut tight = nest.clone();
        tight.clamp(0, 2, 9).unwrap();
        assert_eq!(scan(&tight), vec![2]);
        let level = &tight.levels()[0];
        assert_eq!((level.lowers.len(), level.uppers.len()), (1, 2));
        assert_eq!(level.lowers[0].expr, LinExpr::constant(2, 2));
        // A column the nest does not loop over is a typed fault.
        assert_eq!(
            tight.clamp(1, 0, 1),
            Err(PolyError::MissingVariable("N".into()))
        );
        assert!(matches!(
            tight.clamp(5, 0, 1),
            Err(PolyError::SpaceMismatch { .. })
        ));
    }

    #[test]
    fn strided_constraints_round_correctly() {
        // 2 <= 3x <= 10  =>  x in {1, 2, 3}
        let space = Space::from_names(&["x"], &[]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        sys.add_text("2 <= 3*x").unwrap();
        sys.add_text("3*x <= 10").unwrap();
        let nest = LoopNest::synthesize(&sys, &[0]).unwrap();
        let mut pts = Vec::new();
        let mut point = [0i128];
        nest.for_each_point(&mut point, |p| pts.push(p[0])).unwrap();
        assert_eq!(pts, vec![1, 2, 3]);
    }

    #[test]
    fn bandit_4d_count() {
        // |{(s1,f1,s2,f2) >= 0 : sum <= N}| = C(N+4, 4)
        let space = Space::from_names(&["s1", "f1", "s2", "f2"], &["N"]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        sys.add_text("s1 + f1 + s2 + f2 <= N").unwrap();
        for v in ["s1", "f1", "s2", "f2"] {
            sys.add_text(&format!("{v} >= 0")).unwrap();
        }
        let nest = LoopNest::synthesize(&sys, &[0, 1, 2, 3]).unwrap();
        for n in [0i128, 1, 5, 10] {
            let mut point = [0i128, 0, 0, 0, n];
            let count = nest.count(&mut point).unwrap();
            let binom = ((n + 1) * (n + 2) * (n + 3) * (n + 4) / 24) as u128;
            assert_eq!(count, binom, "N = {n}");
        }
    }

    fn random_bounded_system() -> impl Strategy<Value = ConstraintSystem> {
        let coeff = -3i128..4;
        proptest::collection::vec((coeff.clone(), coeff.clone(), coeff, -10i128..11), 0..4)
            .prop_map(|extra| {
                let space = Space::from_names(&["x", "y", "z"], &[]).unwrap();
                let mut sys = ConstraintSystem::new(space);
                for v in ["x", "y", "z"] {
                    sys.add_text(&format!("-4 <= {v} <= 4")).unwrap();
                }
                for (a, b, c, k) in extra {
                    sys.add(crate::constraint::Constraint::ge0(LinExpr::from_parts(
                        vec![a, b, c],
                        k,
                    )))
                    .unwrap();
                }
                sys
            })
    }

    /// A row of a walk: the outer loop variables' values, then `lb..=ub`.
    type Row = (Vec<i128>, i128, i128);

    /// The `i128` oracle of the compiled evaluator: the nest's rows in
    /// walk order, every bound read through [`LinExpr::eval`] and rounded
    /// by Euclidean division, up to the first fault.
    fn wide_rows(
        nest: &LoopNest,
        point: &mut [i128],
        descending: &[bool],
        rows: &mut Vec<Row>,
    ) -> Result<(), PolyError> {
        if nest.levels().is_empty() || !nest.context_holds(point)? {
            return Ok(());
        }
        wide_rows_from(nest, 0, point, descending, rows)
    }

    fn wide_rows_from(
        nest: &LoopNest,
        depth: usize,
        point: &mut [i128],
        descending: &[bool],
        rows: &mut Vec<Row>,
    ) -> Result<(), PolyError> {
        let level = &nest.levels()[depth];
        let mut lb = i128::MIN;
        for b in &level.lowers {
            let n = b.expr.eval(point)?;
            lb = lb.max(n.div_euclid(b.divisor) + i128::from(n.rem_euclid(b.divisor) != 0));
        }
        let mut ub = i128::MAX;
        for b in &level.uppers {
            ub = ub.min(b.expr.eval(point)?.div_euclid(b.divisor));
        }
        if lb > ub {
            return Ok(());
        }
        let outer = &nest.levels()[..depth];
        if depth + 1 == nest.levels().len() {
            rows.push((outer.iter().map(|l| point[l.var]).collect(), lb, ub));
            return Ok(());
        }
        let values: Vec<i128> = match descending[depth] {
            true => (lb..=ub).rev().collect(),
            false => (lb..=ub).collect(),
        };
        for v in values {
            point[level.var] = v;
            wide_rows_from(nest, depth + 1, point, descending, rows)?;
        }
        Ok(())
    }

    /// Systems over `[x, y, z, P, Q]` whose points lie within 4 of `P` in
    /// every variable, plus rows `s·(a(x−P) + b(y−P) + c(z−P) + k) + Q >= 0`.
    /// A large `P` puts point entries near or beyond the `i64` edges, a
    /// large scale `s` pushes products and partial sums past them (or, at
    /// `2^64 + 1`, puts the coefficients themselves beyond `i64`), and `Q`
    /// keeps gcd normalisation from dividing the scale out.
    fn wide_system() -> impl Strategy<Value = ConstraintSystem> {
        let scale =
            proptest::sample::select(vec![1i128, 2, 3, 1 << 20, 1 << 40, 1 << 62, (1 << 64) + 1]);
        let row = (-3i128..4, -3i128..4, -3i128..4, -10i128..11, scale);
        proptest::collection::vec(row, 0..4).prop_map(|rows| {
            let space = Space::from_names(&["x", "y", "z"], &["P", "Q"]).unwrap();
            let mut sys = ConstraintSystem::new(space);
            for v in ["x", "y", "z"] {
                sys.add_text(&format!("P - 4 <= {v} <= P + 4")).unwrap();
            }
            for (a, b, c, k, s) in rows {
                let coeffs = vec![s * a, s * b, s * c, -s * (a + b + c), 1];
                let row = LinExpr::from_parts(coeffs, s * k);
                sys.add(crate::constraint::Constraint::ge0(row)).unwrap();
            }
            sys
        })
    }

    proptest! {
        /// The loop nest enumerates exactly the lattice points of the system,
        /// for any variable ordering.
        #[test]
        fn nest_scans_exactly_the_polytope(
            sys in random_bounded_system(),
            perm in Just(()).prop_flat_map(|_| proptest::sample::select(vec![
                vec![0usize, 1, 2], vec![0, 2, 1], vec![1, 0, 2],
                vec![1, 2, 0], vec![2, 0, 1], vec![2, 1, 0],
            ])),
        ) {
            let nest = LoopNest::synthesize(&sys, &perm).unwrap();
            let mut scanned = std::collections::BTreeSet::new();
            let mut point = [0i128, 0, 0];
            nest.for_each_point(&mut point, |p| {
                scanned.insert((p[0], p[1], p[2]));
            }).unwrap();
            let mut expect = std::collections::BTreeSet::new();
            for x in -4i128..=4 {
                for y in -4i128..=4 {
                    for z in -4i128..=4 {
                        if sys.contains(&[x, y, z]).unwrap() {
                            expect.insert((x, y, z));
                        }
                    }
                }
            }
            // Every scanned point is in the polytope, and vice versa.
            // (FM over-approximation can only create empty inner loops, not
            // spurious *points*: the innermost level's bounds come from the
            // full original system, which is exact per-fibre.)
            prop_assert_eq!(scanned, expect);
        }

        /// A clamped nest is the nest of the system plus the box rows, point
        /// for point and in order, whichever levels are clamped, whichever
        /// way they run, and with a column left free.
        #[test]
        fn a_clamped_nest_is_the_nest_of_the_boxed_system(
            sys in random_bounded_system(),
            perm in proptest::sample::select(vec![
                vec![0usize, 1, 2], vec![0, 2, 1], vec![1, 0, 2],
                vec![1, 2, 0], vec![2, 0, 1], vec![2, 1, 0],
            ]),
            levels in 2usize..4,
            free in -4i128..5,
            boxes in proptest::collection::vec((-5i128..6, -5i128..6, proptest::bool::ANY), 3),
            descending in proptest::collection::vec(proptest::bool::ANY, 3),
        ) {
            let order = &perm[..levels];
            let mut clamped = LoopNest::synthesize_with_free(&sys, order).unwrap();
            let mut boxed = sys.clone();
            for (&v, &(lo, hi, on)) in order.iter().zip(&boxes) {
                if !on {
                    continue;
                }
                clamped.clamp(v, lo, hi).unwrap();
                let mut e = LinExpr::zero(3);
                e.set_coeff(v, 1);
                e.set_constant(-lo);
                boxed.add(crate::constraint::Constraint::ge0(e.clone())).unwrap();
                let mut e = e.neg().unwrap();
                e.set_constant(hi);
                boxed.add(crate::constraint::Constraint::ge0(e)).unwrap();
            }
            let oracle = LoopNest::synthesize_with_free(&boxed, order).unwrap();
            let walk = |nest: &LoopNest| {
                let mut point = [free; 3];
                let mut pts = Vec::new();
                nest.for_each_point_directed(&mut point, &descending[..levels], |p| {
                    pts.push((p[0], p[1], p[2]))
                }).unwrap();
                let mut point = [free; 3];
                (pts, nest.count(&mut point).unwrap())
            };
            let (got, want) = (walk(&clamped), walk(&oracle));
            prop_assert_eq!(got.1, got.0.len() as u128);
            prop_assert_eq!(got, want);
            // Every level has a constant bound on each side (`-4 <= v <= 4`),
            // so a clamp replaces one and adds none.
            let plain = LoopNest::synthesize_with_free(&sys, order).unwrap();
            for (c, p) in clamped.levels().iter().zip(plain.levels()) {
                prop_assert_eq!((c.lowers.len(), c.uppers.len()), (p.lowers.len(), p.uppers.len()));
            }
        }

        /// The compiled walk is the `i128` walk: the same rows, points and
        /// count (or the same fault after the same prefix), in every loop
        /// order and direction, with point entries, products and partial
        /// sums inside `i64`, past it, and coefficients beyond it.
        #[test]
        fn the_compiled_walk_is_the_i128_walk(
            sys in wide_system(),
            perm in proptest::sample::select(vec![
                vec![0usize, 1, 2], vec![0, 2, 1], vec![1, 0, 2],
                vec![1, 2, 0], vec![2, 0, 1], vec![2, 1, 0],
            ]),
            p in proptest::sample::select(vec![
                0i128, 3, -5, 1 << 40, 1 << 61, i128::from(i64::MAX) - 3,
                i128::from(i64::MIN) + 4, 1 << 64, -(1 << 64),
            ]),
            q in 0i128..3,
            descending in proptest::collection::vec(proptest::bool::ANY, 3),
        ) {
            let Ok(nest) = LoopNest::synthesize(&sys, &perm) else {
                return Ok(());
            };
            let fresh = || [0, 0, 0, p, q];
            let mut want = Vec::new();
            let wide = wide_rows(&nest, &mut fresh(), &descending, &mut want);
            let points = |rows: &[Row]| {
                let mut out = Vec::new();
                for (outer, lb, ub) in rows {
                    let inner: Vec<i128> = match descending[2] {
                        true => (*lb..=*ub).rev().collect(),
                        false => (*lb..=*ub).collect(),
                    };
                    out.extend(inner.into_iter().map(|v| (outer.clone(), v)));
                }
                out
            };
            let mut got = Vec::new();
            let walked = nest.for_each_point_directed(&mut fresh(), &descending, |pt| {
                let outer = nest.levels()[..2].iter().map(|l| pt[l.var]).collect();
                got.push((outer, pt[nest.levels()[2].var]));
            });
            prop_assert_eq!((got, walked), (points(&want), wide.clone()));

            let mut want = Vec::new();
            let wide = wide_rows(&nest, &mut fresh(), &[false; 3], &mut want);
            let mut got = Vec::new();
            let walked = nest.for_each_row(&mut fresh(), |pt, lb, ub| {
                got.push((nest.levels()[..2].iter().map(|l| pt[l.var]).collect(), lb, ub));
            });
            prop_assert_eq!((&got, walked), (&want, wide.clone()));
            let total = want.iter().map(|(_, lb, ub)| (ub - lb + 1) as u128).sum();
            prop_assert_eq!(nest.count(&mut fresh()), wide.map(|()| total));
        }

        /// `count` always agrees with enumeration, and the rows, expanded,
        /// are the points in order.
        #[test]
        fn count_equals_enumeration(sys in random_bounded_system()) {
            let nest = LoopNest::synthesize(&sys, &[0, 1, 2]).unwrap();
            let mut point = [0i128, 0, 0];
            let counted = nest.count(&mut point).unwrap();
            let mut point2 = [0i128, 0, 0];
            let mut points = Vec::new();
            nest.for_each_point(&mut point2, |p| points.push((p[0], p[1], p[2]))).unwrap();
            prop_assert_eq!(counted, points.len() as u128);
            let mut rows = Vec::new();
            nest.for_each_row(&mut point2, |p, lb, ub| {
                rows.extend((lb..=ub).map(|z| (p[0], p[1], z)));
            }).unwrap();
            prop_assert_eq!(rows, points);
        }
    }
}
