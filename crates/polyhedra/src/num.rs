//! Exact integer helpers: gcd, floor/ceil division, checked arithmetic.
//!
//! Fourier–Motzkin elimination multiplies constraint coefficients together,
//! so every arithmetic operation in this crate goes through the checked
//! helpers here; coefficient growth is then contained by gcd normalisation
//! after every elimination step.

use crate::error::PolyError;

/// Greatest common divisor (always non-negative; `gcd(0, 0) == 0`). Operands
/// that fit `u64` skip `u128` division, which is a software routine.
pub fn gcd(a: i128, b: i128) -> i128 {
    let (a, b) = (a.unsigned_abs(), b.unsigned_abs());
    if let (Ok(a), Ok(b)) = (u64::try_from(a), u64::try_from(b)) {
        return euclid(a, b) as i128;
    }
    euclid(a, b) as i128
}

fn euclid<T: Copy + PartialEq + Default + std::ops::Rem<Output = T>>(mut a: T, mut b: T) -> T {
    while b != T::default() {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Floor division: largest `q` with `q * d <= n`. Requires `d > 0`. A unit
/// divisor returns `n`, and operands that fit `i64` divide in hardware:
/// `i128` division is a software routine.
#[inline]
pub fn floor_div(n: i128, d: i128) -> i128 {
    debug_assert!(d > 0, "floor_div requires positive divisor");
    if d == 1 {
        return n;
    }
    if let (Ok(n), Ok(d)) = (i64::try_from(n), i64::try_from(d)) {
        return i128::from(n.div_euclid(d));
    }
    let q = n / d;
    if n % d != 0 && n < 0 {
        q - 1
    } else {
        q
    }
}

/// Ceiling division: smallest `q` with `q * d >= n`. Requires `d > 0`. Fast
/// paths as [`floor_div`]'s; the `i64` one rounds the floor up on a nonzero
/// remainder, since negating `n` overflows at `i64::MIN`.
#[inline]
pub fn ceil_div(n: i128, d: i128) -> i128 {
    debug_assert!(d > 0, "ceil_div requires positive divisor");
    if d == 1 {
        return n;
    }
    if let (Ok(n), Ok(d)) = (i64::try_from(n), i64::try_from(d)) {
        return i128::from(n.div_euclid(d)) + i128::from(n.rem_euclid(d) != 0);
    }
    let q = n / d;
    if n % d != 0 && n > 0 {
        q + 1
    } else {
        q
    }
}

/// Checked multiply that surfaces overflow as a [`PolyError`]. Operands
/// that fit `i64` cannot overflow and skip `i128`'s overflow check, which
/// is a software routine.
pub fn mul(a: i128, b: i128) -> Result<i128, PolyError> {
    if let (Ok(a), Ok(b)) = (i64::try_from(a), i64::try_from(b)) {
        return Ok(i128::from(a) * i128::from(b));
    }
    a.checked_mul(b)
        .ok_or(PolyError::Overflow("multiplication"))
}

/// Checked add that surfaces overflow as a [`PolyError`].
pub fn add(a: i128, b: i128) -> Result<i128, PolyError> {
    a.checked_add(b).ok_or(PolyError::Overflow("addition"))
}

/// Checked subtract that surfaces overflow as a [`PolyError`].
pub fn sub(a: i128, b: i128) -> Result<i128, PolyError> {
    a.checked_sub(b).ok_or(PolyError::Overflow("subtraction"))
}

/// gcd of a slice (non-negative; 0 for an all-zero or empty slice). Stops
/// at the first prefix whose gcd is 1.
pub fn gcd_slice(xs: &[i128]) -> i128 {
    let mut g = 0;
    for &x in xs {
        g = gcd(g, x);
        if g == 1 {
            break;
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(0, 7), 7);
        assert_eq!(gcd(7, 0), 7);
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(-12, 18), 6);
        assert_eq!(gcd(12, -18), 6);
        assert_eq!(gcd(-12, -18), 6);
        assert_eq!(gcd(i128::MIN + 1, 1), 1);
    }

    #[test]
    fn floor_ceil_div_signs() {
        assert_eq!(floor_div(7, 2), 3);
        assert_eq!(floor_div(-7, 2), -4);
        assert_eq!(floor_div(6, 3), 2);
        assert_eq!(floor_div(-6, 3), -2);
        assert_eq!(ceil_div(7, 2), 4);
        assert_eq!(ceil_div(-7, 2), -3);
        assert_eq!(ceil_div(6, 3), 2);
        assert_eq!(ceil_div(-6, 3), -2);
        assert_eq!(ceil_div(0, 5), 0);
        assert_eq!(floor_div(0, 5), 0);
    }

    #[test]
    fn checked_ops_catch_overflow() {
        assert!(mul(i128::MAX, 2).is_err());
        assert!(add(i128::MAX, 1).is_err());
        assert!(sub(i128::MIN, 1).is_err());
        assert_eq!(mul(3, 4).unwrap(), 12);
    }

    #[test]
    fn gcd_slice_basics() {
        assert_eq!(gcd_slice(&[]), 0);
        assert_eq!(gcd_slice(&[0, 0]), 0);
        assert_eq!(gcd_slice(&[4, 6, 8]), 2);
        assert_eq!(gcd_slice(&[-4, 6]), 2);
        assert_eq!(gcd_slice(&[5]), 5);
    }

    /// Operands of every width: small, `i64`-sized and full `i128`.
    fn operand() -> impl Strategy<Value = i128> {
        (0u64..u64::MAX, 0u64..u64::MAX, 0u8..3).prop_map(|(hi, lo, width)| match width {
            0 => (lo % 1000) as i128 - 500,
            1 => lo as i64 as i128,
            _ => ((hi as u128) << 64 | lo as u128) as i128,
        })
    }

    proptest! {
        #[test]
        fn floor_div_is_floor(n in -10_000i128..10_000, d in 1i128..100) {
            let q = floor_div(n, d);
            prop_assert!(q * d <= n);
            prop_assert!((q + 1) * d > n);
        }

        #[test]
        fn ceil_div_is_ceil(n in -10_000i128..10_000, d in 1i128..100) {
            let q = ceil_div(n, d);
            prop_assert!(q * d >= n);
            prop_assert!((q - 1) * d < n);
        }

        #[test]
        fn gcd_divides_both(a in -10_000i128..10_000, b in -10_000i128..10_000) {
            let g = gcd(a, b);
            if g != 0 {
                prop_assert_eq!(a % g, 0);
                prop_assert_eq!(b % g, 0);
            } else {
                prop_assert_eq!(a, 0);
                prop_assert_eq!(b, 0);
            }
        }

        /// The `u64` fast path and the early exit agree with the plain
        /// `u128` Euclid loop, including operands above `u64::MAX`.
        #[test]
        fn gcd_matches_u128_euclid(a in operand(), b in operand(), scale in 1i128..1 << 70) {
            let reference = |a: i128, b: i128| {
                let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
                while b != 0 {
                    (a, b) = (b, a % b);
                }
                a as i128
            };
            let (a, b) = (a.wrapping_mul(scale), b.wrapping_mul(scale));
            prop_assert_eq!(gcd(a, b), reference(a, b));
            let xs = [a, b, 6, a];
            prop_assert_eq!(gcd_slice(&xs), xs.iter().fold(0, |g, &x| reference(g, x)));
        }

        /// The unit-divisor and `i64` fast paths divide as the `i128`
        /// formula does: at the `i64` edges, one either side of them and
        /// beyond them, for unit, small, prime and wide divisors.
        #[test]
        fn division_matches_the_i128_formula(
            anchor in proptest::sample::select(vec![
                0, i128::from(i64::MIN), i128::from(i64::MAX),
                1 << 64, -(1 << 64), 1 << 100, -(1 << 100), i128::MIN + 8, i128::MAX - 8,
            ]),
            offset in -3i128..4,
            wide in operand(),
            d in proptest::sample::select(vec![1i128, 2, 3, 7, 1 << 40]),
            any_d in 1i128..1 << 70,
        ) {
            let reference = |n: i128, d: i128| {
                let (q, r) = (n / d, n % d);
                (q - i128::from(r < 0), q + i128::from(r > 0))
            };
            for n in [anchor + offset, wide] {
                for d in [d, any_d] {
                    prop_assert_eq!((floor_div(n, d), ceil_div(n, d)), reference(n, d));
                }
            }
        }

        /// The `i64` fast path multiplies as `checked_mul` does, and
        /// overflow is still an error.
        #[test]
        fn mul_matches_checked_mul(a in operand(), b in operand()) {
            prop_assert_eq!(mul(a, b).ok(), a.checked_mul(b));
            prop_assert_eq!(mul(i128::from(i64::MIN), i128::from(i64::MIN)).ok(), Some(1 << 126));
        }
    }
}
