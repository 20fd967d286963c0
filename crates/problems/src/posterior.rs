//! An arm's posterior mean, read from a table instead of divided per cell.
//!
//! Every bandit kernel needs, at every cell, each arm's posterior success
//! probability under its Beta(a, b) prior, `p = (a + s) / (a + b + s + f)`
//! (the paper's init code, §II, Figure 1). That value depends on one arm's
//! `(s, f)` alone, so [`Posterior::new`] evaluates the one expression,
//! [`Posterior::mean`], for every `(s, f)` with `s + f < PULLS` when a
//! kernel is built, and [`Posterior::get`] reads it back. Outside the table
//! `get` divides. Either way the value is `mean` of the same operands, so
//! a kernel that reads the table computes the bits one that divides does.

use std::fmt;

/// Pulls of one arm the table covers: every `(s, f)` with `s + f < PULLS`,
/// 4 656 entries (36.4 KiB). 96 covers `bandit2_hybrid`'s horizon of 48 and
/// the `clinical_trial` example's default of 80; a longer horizon reads its
/// first cells, the ones with `PULLS` or more pulls of an arm, through the
/// division.
pub const PULLS: usize = 96;

/// One arm's posterior mean for every `(s, f)` with `s + f < PULLS`.
#[derive(Clone)]
pub struct Posterior {
    prior: (f64, f64),
    /// `mean(prior, s, f)` at `n(n + 1)/2 + s`, `n = s + f`: laid out by
    /// pull count, so the entries for `n` pulls are one run.
    table: Box<[f64]>,
}

impl Posterior {
    /// The posterior mean of an arm with Beta prior `(a, b)` after `s`
    /// successes and `f` failures: `(a + s) / (a + b + s + f)`. The one
    /// copy of the division; every table entry is this expression.
    pub fn mean(prior: (f64, f64), s: i64, f: i64) -> f64 {
        (prior.0 + s as f64) / (prior.0 + prior.1 + (s + f) as f64)
    }

    /// The table for one arm's prior.
    pub fn new(prior: (f64, f64)) -> Posterior {
        let mut table = Vec::with_capacity(PULLS * (PULLS + 1) / 2);
        for n in 0..PULLS as i64 {
            table.extend((0..=n).map(|s| Posterior::mean(prior, s, n - s)));
        }
        Posterior {
            prior,
            table: table.into_boxed_slice(),
        }
    }

    /// `mean(prior, s, f)`, read from the table when `s + f < PULLS`.
    #[inline]
    pub fn get(&self, s: i64, f: i64) -> f64 {
        // As u64, `n < PULLS && s <= n` holds exactly when `s, f >= 0` and
        // `s + f < PULLS`: a negative `s` wraps above any `n`, and a
        // negative `f` makes `n < s`.
        let n = (s + f) as u64;
        if n < PULLS as u64 && s as u64 <= n {
            self.table[(n * (n + 1) / 2 + s as u64) as usize]
        } else {
            Posterior::mean(self.prior, s, f)
        }
    }
}

impl fmt::Debug for Posterior {
    /// The prior, not the table's entries.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Posterior")
            .field("prior", &self.prior)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn the_table_holds_every_pull_count_below_pulls() {
        let arm = Posterior::new((1.0, 1.0));
        assert_eq!(arm.table.len(), 4656);
        assert_eq!(arm.get(0, 0), 0.5);
        assert_eq!(arm.get(1, 0), 2.0 / 3.0);
        assert_eq!(arm.get(0, 1), 1.0 / 3.0);
        let last = PULLS as i64 - 1;
        assert_eq!(arm.get(last, 0), Posterior::mean((1.0, 1.0), last, 0));
    }

    #[test]
    fn every_entry_at_the_benchmark_priors_is_the_division() {
        let ints = [1.0, 2.0, 3.0, 4.0];
        for prior in ints.iter().flat_map(|&a| ints.map(|b| (a, b))) {
            let arm = Posterior::new(prior);
            for s in 0..=2 * PULLS as i64 {
                for f in 0..=2 * PULLS as i64 - s {
                    let want = Posterior::mean(prior, s, f).to_bits();
                    assert_eq!(arm.get(s, f).to_bits(), want, "{prior:?} at ({s}, {f})");
                }
            }
        }
    }

    #[test]
    fn debug_prints_the_prior_not_the_table() {
        let shown = format!("{:?}", Posterior::new((2.0, 3.0)));
        assert_eq!(shown, "Posterior { prior: (2.0, 3.0), .. }");
    }

    /// A prior parameter in (0, 16]: one of the benchmark's integers 1..=4
    /// half the time, an arbitrary real otherwise.
    fn prior_param() -> impl Strategy<Value = f64> {
        (0u8..2, 1u8..=4, 0.0f64..16.0).prop_map(|(pick, int, real)| match pick {
            0 => int as f64,
            _ => 16.0 - real,
        })
    }

    proptest! {
        /// Inside the table and past it (`s, f` up to `2 * PULLS`), `get`
        /// returns `mean`'s bits.
        #[test]
        fn get_has_the_bits_of_the_division(
            a in prior_param(),
            b in prior_param(),
            s in 0i64..=2 * PULLS as i64,
            f in 0i64..=2 * PULLS as i64,
        ) {
            let arm = Posterior::new((a, b));
            let want = Posterior::mean((a, b), s, f);
            prop_assert_eq!(arm.get(s, f).to_bits(), want.to_bits());
        }
    }
}
