//! Rendering affine expressions and loop bounds as C.

use dpgen_polyhedra::{BoundExpr, LinExpr, Space};
use std::fmt::Write;

/// Render an affine expression as a C integer expression, e.g.
/// `2*x - y + N + 3`. The empty sum renders as `0`.
pub fn c_lin_expr(expr: &LinExpr, space: &Space) -> String {
    let mut out = String::new();
    for (i, &c) in expr.coeffs().iter().enumerate() {
        if c == 0 {
            continue;
        }
        let _ = match (out.is_empty(), c) {
            (true, 1) => Ok(()),
            (true, -1) => write!(out, "-"),
            (true, c) => write!(out, "{c}*"),
            (false, 1) => write!(out, " + "),
            (false, -1) => write!(out, " - "),
            (false, c) if c > 0 => write!(out, " + {c}*"),
            (false, c) => write!(out, " - {}*", -c),
        };
        out.push_str(space.name(i));
    }
    let k = expr.constant_term();
    let _ = if out.is_empty() {
        write!(out, "{k}")
    } else if k > 0 {
        write!(out, " + {k}")
    } else if k < 0 {
        write!(out, " - {}", -k)
    } else {
        Ok(())
    };
    out
}

/// Render one bound as a C expression using the `CEIL_DIV`/`FLOOR_DIV`
/// helper macros the emitted program defines (exact integer division with
/// rounding toward ±infinity, matching the runtime's semantics).
pub fn c_bound_expr(bound: &BoundExpr, space: &Space, lower: bool) -> String {
    let numer = c_lin_expr(&bound.expr, space);
    if bound.divisor == 1 {
        if numer.contains(' ') {
            format!("({numer})")
        } else {
            numer
        }
    } else if lower {
        format!("CEIL_DIV({numer}, {})", bound.divisor)
    } else {
        format!("FLOOR_DIV({numer}, {})", bound.divisor)
    }
}

/// Fold several bound expressions with `max(...)` (lower bounds) or
/// `min(...)` (upper bounds), as FM-generated loop nests do:
/// `dp_lmax(dp_lmax(b0, b1), b2)`, written left to right in one pass.
/// The emitted program defines `dp_lmax` / `dp_lmin` as `static inline`
/// functions: the `DP_MAX` / `DP_MIN` macros evaluate each argument twice,
/// so a fold nested k deep would expand to ~2^k copies.
pub fn c_bound_set(bounds: &[BoundExpr], space: &Space, lower: bool) -> String {
    let f = if lower { "dp_lmax(" } else { "dp_lmin(" };
    let mut out = f.repeat(bounds.len().saturating_sub(1));
    for (i, b) in bounds.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&c_bound_expr(b, space, lower));
        if i > 0 {
            out.push(')');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpgen_polyhedra::Space;

    fn space() -> Space {
        Space::from_names(&["x", "y"], &["N"]).unwrap()
    }

    #[test]
    fn lin_expr_rendering() {
        let s = space();
        assert_eq!(
            c_lin_expr(&LinExpr::from_parts(vec![2, -1, 1], 3), &s),
            "2*x - y + N + 3"
        );
        assert_eq!(
            c_lin_expr(&LinExpr::from_parts(vec![-1, 0, 0], 0), &s),
            "-x"
        );
        assert_eq!(c_lin_expr(&LinExpr::constant(3, -4), &s), "-4");
        assert_eq!(c_lin_expr(&LinExpr::zero(3), &s), "0");
        assert_eq!(
            c_lin_expr(&LinExpr::from_parts(vec![1, 0, 0], -2), &s),
            "x - 2"
        );
    }

    #[test]
    fn bound_rendering_uses_div_macros() {
        let s = space();
        let b = BoundExpr {
            expr: LinExpr::from_parts(vec![0, 0, 1], -1),
            divisor: 2,
        };
        assert_eq!(c_bound_expr(&b, &s, true), "CEIL_DIV(N - 1, 2)");
        assert_eq!(c_bound_expr(&b, &s, false), "FLOOR_DIV(N - 1, 2)");
        let unit = BoundExpr {
            expr: LinExpr::from_parts(vec![0, 0, 1], 0),
            divisor: 1,
        };
        assert_eq!(c_bound_expr(&unit, &s, true), "N");
        let unit2 = BoundExpr {
            expr: LinExpr::from_parts(vec![1, 0, 1], 0),
            divisor: 1,
        };
        assert_eq!(c_bound_expr(&unit2, &s, false), "(x + N)");
    }

    #[test]
    fn bound_sets_fold_with_max_min() {
        let s = space();
        let a = BoundExpr {
            expr: LinExpr::zero(3),
            divisor: 1,
        };
        let b = BoundExpr {
            expr: LinExpr::from_parts(vec![0, 0, 1], 0),
            divisor: 2,
        };
        assert_eq!(c_bound_set(std::slice::from_ref(&a), &s, true), "0");
        assert_eq!(c_bound_set(&[a, b], &s, true), "dp_lmax(0, CEIL_DIV(N, 2))");
    }
}
