//! Rendering affine expressions and loop bounds as C.
//!
//! Every renderer appends to the caller's `String`: an emitted program is
//! written into one buffer, with no intermediate string per term, bound or
//! fold. Integers go through a small digit writer; only a coefficient
//! beyond `i64` takes the `fmt` path.

use dpgen_polyhedra::{BoundExpr, LinExpr, Space};
use std::fmt::Write;

/// Append `n` in decimal.
pub(crate) fn push_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Append `n` in decimal, with a leading `-` when negative.
pub(crate) fn push_i64(out: &mut String, n: i64) {
    if n < 0 {
        out.push('-');
    }
    push_u64(out, n.unsigned_abs());
}

/// Append `|n|` in decimal: the digit writer when it fits in 64 bits,
/// `fmt` beyond.
fn push_abs(out: &mut String, n: i128) {
    match u64::try_from(n.unsigned_abs()) {
        Ok(m) => push_u64(out, m),
        Err(_) => {
            let _ = write!(out, "{}", n.unsigned_abs());
        }
    }
}

/// Append an affine expression as a C integer expression, e.g.
/// `2*x - y + N + 3`. The empty sum renders as `0`.
pub fn c_lin_expr(out: &mut String, expr: &LinExpr, space: &Space) {
    let mut first = true;
    for (i, &c) in expr.coeffs().iter().enumerate() {
        if c == 0 {
            continue;
        }
        match (first, c) {
            (true, 1) => {}
            (true, -1) => out.push('-'),
            (true, c) => {
                if c < 0 {
                    out.push('-');
                }
                push_abs(out, c);
                out.push('*');
            }
            (false, 1) => out.push_str(" + "),
            (false, -1) => out.push_str(" - "),
            (false, c) => {
                out.push_str(if c > 0 { " + " } else { " - " });
                push_abs(out, c);
                out.push('*');
            }
        }
        out.push_str(space.name(i));
        first = false;
    }
    let k = expr.constant_term();
    if first {
        if k < 0 {
            out.push('-');
        }
        push_abs(out, k);
    } else if k != 0 {
        out.push_str(if k > 0 { " + " } else { " - " });
        push_abs(out, k);
    }
}

/// Number of `+`/`-`-separated terms `c_lin_expr` writes for `expr`: its
/// nonzero coefficients plus a nonzero constant.
fn term_count(expr: &LinExpr) -> usize {
    let vars = expr.coeffs().iter().filter(|&&c| c != 0).count();
    vars + usize::from(expr.constant_term() != 0)
}

/// Append one bound as a C expression using the `CEIL_DIV`/`FLOOR_DIV`
/// helper macros the emitted program defines (exact integer division with
/// rounding toward ±infinity, matching the runtime's semantics). A bound
/// of two or more terms without a divisor is parenthesised.
pub fn c_bound_expr(out: &mut String, bound: &BoundExpr, space: &Space, lower: bool) {
    if bound.divisor == 1 {
        let wrap = term_count(&bound.expr) > 1;
        if wrap {
            out.push('(');
        }
        c_lin_expr(out, &bound.expr, space);
        if wrap {
            out.push(')');
        }
    } else {
        out.push_str(if lower { "CEIL_DIV(" } else { "FLOOR_DIV(" });
        c_lin_expr(out, &bound.expr, space);
        out.push_str(", ");
        push_abs(out, bound.divisor);
        out.push(')');
    }
}

/// Append several bound expressions folded with `max(...)` (lower bounds)
/// or `min(...)` (upper bounds), as FM-generated loop nests do:
/// `dp_lmax(dp_lmax(b0, b1), b2)`, written left to right in one pass.
/// The emitted program defines `dp_lmax` / `dp_lmin` as `static inline`
/// functions: the `DP_MAX` / `DP_MIN` macros evaluate each argument twice,
/// so a fold nested k deep would expand to ~2^k copies.
pub fn c_bound_set(out: &mut String, bounds: &[BoundExpr], space: &Space, lower: bool) {
    let f = if lower { "dp_lmax(" } else { "dp_lmin(" };
    for _ in 1..bounds.len() {
        out.push_str(f);
    }
    for (i, b) in bounds.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        c_bound_expr(out, b, space, lower);
        if i > 0 {
            out.push(')');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpgen_polyhedra::Space;
    use proptest::prelude::*;

    /// The renderers as they were written with `format!`: one `String` per
    /// expression, bound and fold. The direct renderers must match them
    /// byte for byte.
    mod oracle {
        use dpgen_polyhedra::{BoundExpr, LinExpr, Space};
        use std::fmt::Write;

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
    }

    fn space() -> Space {
        Space::from_names(&["x", "y"], &["N"]).unwrap()
    }

    fn lin(expr: &LinExpr, s: &Space) -> String {
        let mut out = String::new();
        c_lin_expr(&mut out, expr, s);
        out
    }

    fn bound(b: &BoundExpr, s: &Space, lower: bool) -> String {
        let mut out = String::new();
        c_bound_expr(&mut out, b, s, lower);
        out
    }

    fn set(bounds: &[BoundExpr], s: &Space, lower: bool) -> String {
        let mut out = String::new();
        c_bound_set(&mut out, bounds, s, lower);
        out
    }

    #[test]
    fn integers_render_as_fmt_does() {
        for n in [0, 1, -1, 9, 10, -10, 99, 100, 12345, i64::MAX, i64::MIN] {
            let mut out = String::new();
            push_i64(&mut out, n);
            assert_eq!(out, n.to_string());
        }
        let mut out = String::new();
        push_u64(&mut out, u64::MAX);
        assert_eq!(out, u64::MAX.to_string());
        for n in [i128::from(u64::MAX), i128::from(u64::MAX) + 1, -i128::MAX] {
            let mut out = String::new();
            push_abs(&mut out, n);
            assert_eq!(out, n.unsigned_abs().to_string());
        }
    }

    #[test]
    fn lin_expr_rendering() {
        let s = space();
        assert_eq!(
            lin(&LinExpr::from_parts(vec![2, -1, 1], 3), &s),
            "2*x - y + N + 3"
        );
        assert_eq!(lin(&LinExpr::from_parts(vec![-1, 0, 0], 0), &s), "-x");
        assert_eq!(lin(&LinExpr::constant(3, -4), &s), "-4");
        assert_eq!(lin(&LinExpr::zero(3), &s), "0");
        assert_eq!(lin(&LinExpr::from_parts(vec![1, 0, 0], -2), &s), "x - 2");
    }

    #[test]
    fn bound_rendering_uses_div_macros() {
        let s = space();
        let b = BoundExpr {
            expr: LinExpr::from_parts(vec![0, 0, 1], -1),
            divisor: 2,
        };
        assert_eq!(bound(&b, &s, true), "CEIL_DIV(N - 1, 2)");
        assert_eq!(bound(&b, &s, false), "FLOOR_DIV(N - 1, 2)");
        let unit = BoundExpr {
            expr: LinExpr::from_parts(vec![0, 0, 1], 0),
            divisor: 1,
        };
        assert_eq!(bound(&unit, &s, true), "N");
        let unit2 = BoundExpr {
            expr: LinExpr::from_parts(vec![1, 0, 1], 0),
            divisor: 1,
        };
        assert_eq!(bound(&unit2, &s, false), "(x + N)");
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
        assert_eq!(set(std::slice::from_ref(&a), &s, true), "0");
        assert_eq!(set(&[a, b], &s, true), "dp_lmax(0, CEIL_DIV(N, 2))");
    }

    /// A coefficient or constant as FM produces them — mostly 0, ±1 and
    /// small values — plus any `i64`, the `i64` / `u64` edges, and values
    /// beyond `i64`, which take the renderer's `fmt` fallback.
    fn int() -> impl Strategy<Value = i128> {
        let edges = proptest::sample::select(vec![
            i128::from(i64::MIN),
            i128::from(i64::MAX),
            i128::from(u64::MAX),
            i128::from(u64::MAX) + 1,
            -i128::from(u64::MAX) - 1,
            i128::MAX,
            -i128::MAX,
        ]);
        (0u8..7, -20i128..=20, i64::MIN..=i64::MAX, 1u32..=63, edges).prop_map(
            |(kind, small, any, shift, edge)| match kind {
                0 => 0,
                1 => 1,
                2 => -1,
                3 => small,
                4 => i128::from(any),
                5 => i128::from(any) << shift,
                _ => edge,
            },
        )
    }

    /// A bound: three coefficients, a constant and a positive divisor —
    /// 1 (no division), a small one, or one beyond `i64`.
    fn bound_expr() -> impl Strategy<Value = BoundExpr> {
        let divisor = (0u8..3, 2i128..=64, 1u64..=u64::MAX, 1u32..=63).prop_map(
            |(kind, small, wide, shift)| match kind {
                0 => 1,
                1 => small,
                _ => i128::from(wide) << shift,
            },
        );
        (proptest::collection::vec(int(), 3), int(), divisor).prop_map(
            |(coeffs, constant, divisor)| BoundExpr {
                expr: LinExpr::from_parts(coeffs, constant),
                divisor,
            },
        )
    }

    proptest! {
        #[test]
        fn direct_rendering_matches_the_format_oracle(
            bounds in proptest::collection::vec(bound_expr(), 1..=40),
            lower in proptest::bool::ANY,
        ) {
            let s = space();
            for b in &bounds {
                prop_assert_eq!(lin(&b.expr, &s), oracle::c_lin_expr(&b.expr, &s));
                prop_assert_eq!(bound(b, &s, lower), oracle::c_bound_expr(b, &s, lower));
            }
            prop_assert_eq!(set(&bounds, &s, lower), oracle::c_bound_set(&bounds, &s, lower));
        }
    }
}
