//! Portable SIMD lanes for run-batched interior kernels.
//!
//! [`RunKernel::eval_run`](crate::RunKernel::eval_run) receives whole
//! interior runs — `len` cells at constant buffer stride with every
//! dependency flag true — which is exactly the shape compilers vectorize.
//! This module gives kernels an explicit lane layer to express that: a
//! fixed width array of `i64` with element-wise arithmetic, written so the
//! per-lane loops have no data-dependent control flow and LLVM lowers them
//! to vector instructions on any target (no intrinsics, no nightly
//! features).
//!
//! It pays where a cell has *non-carried* arithmetic to vectorize. The
//! Smith–Waterman, banded Smith–Waterman and edit-distance kernels of
//! `dpgen-problems` are loop-carried along the innermost dimension (each
//! cell reads its left neighbour, the previous cell of the same run), but
//! most of a cell's work is not: they
//!
//! 1. compute every non-carried candidate (score lookups, the additions
//!    and `max`/`min` over the diagonal and up-row reads) for [`LANES`]
//!    cells at once with [`I64x`], then
//! 2. resolve the carried `max`/`min` against the running neighbour in a
//!    short serial fold over the lane array.
//!
//! LCS is not written this way: its cell is one compare and one `max`, so
//! there is nothing for the lanes to do but copy, and the serial fold is
//! the whole cost. It sweeps a block two rows at a time instead
//! (`RunKernel::eval_block`, `dpgen_problems::Lcs`).
//!
//! All operations are exact integer arithmetic, and `max`/`min` are
//! associative and commutative, so the lane evaluation order cannot change
//! results: the batched path stays **bit-identical** to the scalar one (a
//! contract the problems' tests enforce).
//!
//! Building with the `scalar-fallback` feature forces [`LANES`]` = 1`,
//! turning every lane loop into straight scalar code — the reference
//! configuration for differential testing and for targets where the
//! vector units misbehave.

/// Lane count of [`I64x`]: 8 by default, 1 under the `scalar-fallback`
/// feature.
pub const LANES: usize = if cfg!(feature = "scalar-fallback") {
    1
} else {
    8
};

/// `LANES` lanes of `i64`, element-wise ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct I64x(pub [i64; LANES]);

impl I64x {
    /// Lane `k` set to `f(k)`.
    #[inline(always)]
    pub fn from_fn<F: FnMut(usize) -> i64>(f: F) -> I64x {
        I64x(std::array::from_fn(f))
    }

    /// Strided load: lane `k` reads `values[base + k * step]`. With
    /// `step == 1` the bounds check is hoisted out of the lane loop and
    /// the load lowers to one contiguous vector read; other strides fall
    /// back to per-lane indexing.
    #[inline(always)]
    pub fn gather(values: &[i64], base: i64, step: i64) -> I64x {
        if step == 1 {
            let s = &values[base as usize..base as usize + LANES];
            I64x(std::array::from_fn(|k| s[k]))
        } else {
            I64x(std::array::from_fn(|k| {
                values[(base + k as i64 * step) as usize]
            }))
        }
    }

    /// Every lane plus the scalar.
    #[inline(always)]
    pub fn add_splat(self, v: i64) -> I64x {
        I64x(std::array::from_fn(|k| self.0[k] + v))
    }

    /// Every lane minus the scalar.
    #[inline(always)]
    pub fn sub_splat(self, v: i64) -> I64x {
        I64x(std::array::from_fn(|k| self.0[k] - v))
    }

    /// Element-wise maximum.
    #[inline(always)]
    pub fn max(self, rhs: I64x) -> I64x {
        I64x(std::array::from_fn(|k| self.0[k].max(rhs.0[k])))
    }

    /// Element-wise minimum.
    #[inline(always)]
    pub fn min(self, rhs: I64x) -> I64x {
        I64x(std::array::from_fn(|k| self.0[k].min(rhs.0[k])))
    }

    /// Every lane clamped from below by the scalar.
    #[inline(always)]
    pub fn max_splat(self, v: i64) -> I64x {
        I64x(std::array::from_fn(|k| self.0[k].max(v)))
    }
}

/// Element-wise sum.
impl std::ops::Add for I64x {
    type Output = I64x;
    #[inline(always)]
    fn add(self, rhs: I64x) -> I64x {
        I64x(std::array::from_fn(|k| self.0[k] + rhs.0[k]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_count_matches_the_feature() {
        if cfg!(feature = "scalar-fallback") {
            assert_eq!(LANES, 1);
        } else {
            assert_eq!(LANES, 8);
        }
    }

    #[test]
    fn elementwise_ops_match_scalar() {
        let a = I64x::from_fn(|k| k as i64 - 3);
        let b = I64x::from_fn(|k| 2 * k as i64);
        for k in 0..LANES {
            let (x, y) = (k as i64 - 3, 2 * k as i64);
            assert_eq!((a + b).0[k], x + y);
            assert_eq!(a.max(b).0[k], x.max(y));
            assert_eq!(a.min(b).0[k], x.min(y));
            assert_eq!(a.add_splat(7).0[k], x + 7);
            assert_eq!(a.sub_splat(7).0[k], x - 7);
            assert_eq!(a.max_splat(0).0[k], x.max(0));
        }
    }

    #[test]
    fn gather_reads_forward_and_backward_strides() {
        let values: Vec<i64> = (0..64).collect();
        // Forward stride 1 from base 10.
        let v = I64x::gather(&values, 10, 1);
        for k in 0..LANES {
            assert_eq!(v.0[k], 10 + k as i64);
        }
        // Backward stride from a high base (descending runs).
        let v = I64x::gather(&values, 40, -2);
        for k in 0..LANES {
            assert_eq!(v.0[k], 40 - 2 * k as i64);
        }
    }
}
