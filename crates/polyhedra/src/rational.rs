//! Exact rational numbers over `i128`.
//!
//! Used by [`crate::ehrhart`] for polynomial interpolation (the Barvinok
//! substitute) and by the hyperplane load balancer. Always kept in lowest
//! terms with a positive denominator.

use crate::num::gcd;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// An exact rational `num / den` in lowest terms, `den > 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i128,
    den: i128,
}

impl Rational {
    /// Zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// One.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Build `num / den`, reducing to lowest terms. Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Rational {
        assert!(den != 0, "rational with zero denominator");
        let sign = if den < 0 { -1 } else { 1 };
        let g = gcd(num, den).max(1);
        Rational {
            num: sign * num / g,
            den: sign * den / g,
        }
    }

    /// The integer `n` as a rational.
    pub fn from_int(n: i128) -> Rational {
        Rational { num: n, den: 1 }
    }

    /// Numerator (sign-carrying).
    pub fn numer(&self) -> i128 {
        self.num
    }

    /// Denominator (always positive).
    pub fn denom(&self) -> i128 {
        self.den
    }

    /// True when this rational is an integer.
    pub fn is_integer(&self) -> bool {
        self.den == 1
    }

    /// Exact conversion to an integer; `None` if not an integer.
    pub fn to_integer(&self) -> Option<i128> {
        self.is_integer().then_some(self.num)
    }

    /// Round toward negative infinity.
    pub fn floor(&self) -> i128 {
        crate::num::floor_div(self.num, self.den)
    }

    /// Round toward positive infinity.
    pub fn ceil(&self) -> i128 {
        crate::num::ceil_div(self.num, self.den)
    }

    /// Multiplicative inverse. Panics on zero.
    pub fn recip(&self) -> Rational {
        Rational::new(self.den, self.num)
    }

    /// True when the value is zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }
}

impl From<i128> for Rational {
    fn from(n: i128) -> Rational {
        Rational::from_int(n)
    }
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Rational) -> Rational {
        // Reduce cross-terms early to delay overflow.
        let g = gcd(self.den, rhs.den).max(1);
        let lhs_scale = rhs.den / g;
        let rhs_scale = self.den / g;
        Rational::new(
            self.num
                .checked_mul(lhs_scale)
                .and_then(|a| {
                    rhs.num
                        .checked_mul(rhs_scale)
                        .and_then(|b| a.checked_add(b))
                })
                .expect("rational addition overflow"),
            self.den
                .checked_mul(lhs_scale)
                .expect("rational addition overflow"),
        )
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Rational) -> Rational {
        self + (-rhs)
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Rational) -> Rational {
        // Cross-reduce before multiplying to keep magnitudes small.
        let g1 = gcd(self.num, rhs.den).max(1);
        let g2 = gcd(rhs.num, self.den).max(1);
        Rational::new(
            (self.num / g1)
                .checked_mul(rhs.num / g2)
                .expect("rational multiplication overflow"),
            (self.den / g2)
                .checked_mul(rhs.den / g1)
                .expect("rational multiplication overflow"),
        )
    }
}

impl Div for Rational {
    type Output = Rational;
    #[allow(clippy::suspicious_arithmetic_impl)] // division = multiply by reciprocal
    fn div(self, rhs: Rational) -> Rational {
        self * rhs.recip()
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            num: -self.num,
            den: self.den,
        }
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Rational) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Rational) -> Ordering {
        // a/b vs c/d  <=>  a*d vs c*b   (b, d > 0)
        let lhs = self
            .num
            .checked_mul(other.den)
            .expect("rational comparison overflow");
        let rhs = other
            .num
            .checked_mul(self.den)
            .expect("rational comparison overflow");
        lhs.cmp(&rhs)
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_normalises() {
        assert_eq!(Rational::new(2, 4), Rational::new(1, 2));
        assert_eq!(Rational::new(-2, 4), Rational::new(1, -2));
        assert_eq!(Rational::new(-2, -4), Rational::new(1, 2));
        assert_eq!(Rational::new(0, 7), Rational::ZERO);
        assert!(Rational::new(3, -6).denom() > 0);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rational::new(1, 0);
    }

    #[test]
    fn arithmetic_basics() {
        let half = Rational::new(1, 2);
        let third = Rational::new(1, 3);
        assert_eq!(half + third, Rational::new(5, 6));
        assert_eq!(half - third, Rational::new(1, 6));
        assert_eq!(half * third, Rational::new(1, 6));
        assert_eq!(half / third, Rational::new(3, 2));
        assert_eq!(-half, Rational::new(-1, 2));
    }

    #[test]
    fn ordering() {
        assert!(Rational::new(1, 3) < Rational::new(1, 2));
        assert!(Rational::new(-1, 2) < Rational::new(-1, 3));
        assert!(Rational::from_int(2) > Rational::new(3, 2));
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(Rational::new(7, 2).floor(), 3);
        assert_eq!(Rational::new(7, 2).ceil(), 4);
        assert_eq!(Rational::new(-7, 2).floor(), -4);
        assert_eq!(Rational::new(-7, 2).ceil(), -3);
        assert_eq!(Rational::from_int(5).floor(), 5);
        assert_eq!(Rational::from_int(5).ceil(), 5);
    }

    #[test]
    fn integer_conversion() {
        assert_eq!(Rational::new(6, 3).to_integer(), Some(2));
        assert_eq!(Rational::new(7, 3).to_integer(), None);
        assert!(Rational::new(6, 3).is_integer());
    }

    #[test]
    fn display() {
        assert_eq!(Rational::new(3, 4).to_string(), "3/4");
        assert_eq!(Rational::from_int(-2).to_string(), "-2");
    }

    fn rat() -> impl Strategy<Value = Rational> {
        (-1000i128..1000, 1i128..100).prop_map(|(n, d)| Rational::new(n, d))
    }

    proptest! {
        #[test]
        fn add_commutes(a in rat(), b in rat()) {
            prop_assert_eq!(a + b, b + a);
        }

        #[test]
        fn mul_distributes(a in rat(), b in rat(), c in rat()) {
            prop_assert_eq!(a * (b + c), a * b + a * c);
        }

        #[test]
        fn sub_then_add_roundtrips(a in rat(), b in rat()) {
            prop_assert_eq!(a - b + b, a);
        }

        #[test]
        fn recip_is_inverse(a in rat()) {
            prop_assume!(!a.is_zero());
            prop_assert_eq!(a * a.recip(), Rational::ONE);
        }

        #[test]
        fn floor_le_ceil(a in rat()) {
            prop_assert!(a.floor() <= a.ceil());
            prop_assert!(Rational::from_int(a.floor()) <= a);
            prop_assert!(a <= Rational::from_int(a.ceil()));
        }
    }
}
