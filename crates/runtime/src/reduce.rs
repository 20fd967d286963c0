//! Whole-space reductions.
//!
//! Some dynamic programs do not read their answer at a single location:
//! Smith–Waterman local alignment, for example, needs the *maximum over
//! every cell*. The tiled runtime discards tile interiors after execution,
//! so the reduction must fold values as tiles complete. A [`Reduction`] is
//! a plain value — an identity and an associative, commutative combine —
//! that nothing writes: each worker folds the cells of the tiles it runs
//! into its own accumulator and returns it, the rank folds its workers
//! once, and the driver folds the ranks (or, when the run keeps
//! checkpoints, the checkpoints' per-rank folds) once. One `Reduction` can
//! therefore serve any number of runs, one after another or at once.

use crate::kernel::Value;
use std::sync::Arc;

/// An associative + commutative fold over every computed cell value.
#[derive(Clone)]
pub struct Reduction<T> {
    identity: T,
    combine: Arc<dyn Fn(T, T) -> T + Send + Sync>,
}

impl<T: Value> Reduction<T> {
    /// New reduction from an identity element and a combine function.
    pub fn new(identity: T, combine: impl Fn(T, T) -> T + Send + Sync + 'static) -> Reduction<T> {
        Reduction {
            identity,
            combine: Arc::new(combine),
        }
    }

    /// The identity element (a fresh accumulator).
    pub fn identity(&self) -> T {
        self.identity
    }

    /// Combine two partial results.
    pub fn combine(&self, a: T, b: T) -> T {
        (self.combine)(a, b)
    }
}

/// Convenience constructors for the common cases.
impl Reduction<i64> {
    /// Maximum over all cells (identity `i64::MIN`).
    pub fn max_i64() -> Reduction<i64> {
        Reduction::new(i64::MIN, i64::max)
    }

    /// Sum over all cells.
    pub fn sum_i64() -> Reduction<i64> {
        Reduction::new(0, |a, b| a.wrapping_add(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_and_sum_fold_partials() {
        let max = Reduction::max_i64();
        let folded = [3, -5, 7]
            .into_iter()
            .fold(max.identity(), |a, b| max.combine(a, b));
        assert_eq!(folded, 7);
        let sum = Reduction::sum_i64();
        assert_eq!((1..=10).fold(sum.identity(), |a, b| sum.combine(a, b)), 55);
    }

    #[test]
    fn a_clone_shares_the_combine_and_holds_no_state() {
        let r = Reduction::sum_i64();
        let c = r.clone();
        assert_eq!(r.combine(2, 3), 5);
        assert_eq!(c.combine(2, 3), 5);
        assert_eq!(c.identity(), 0);
    }

    #[test]
    fn identity_is_neutral() {
        let r = Reduction::max_i64();
        assert_eq!(r.identity(), i64::MIN);
        assert_eq!(r.combine(r.identity(), 42), 42);
    }
}
