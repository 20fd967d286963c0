//! Smith–Waterman local alignment — an extension workload.
//!
//! Local alignment is the other classic bioinformatics DP the paper's
//! homology-search motivation (Brown, Li & Ma, cited as \[4\]) covers:
//! `H(i, j) = max(0, H(i-1, j-1) + s(a_i, b_j), H(i-1, j) - gap,
//! H(i, j-1) - gap)`, and the answer is the **maximum over every cell** —
//! not a single probed location. That exercises the runtime's whole-space
//! [`dpgen_runtime::Reduction`] support: tiles are discarded after
//! execution, so the maximum is folded as tiles complete.

use dpgen_core::spec::SpecTemplate;
use dpgen_core::{ProblemSpec, Program, ProgramError};
use dpgen_runtime::{simd::LANES, I64x, Kernel, RunKernel};
use dpgen_tiling::tiling::{CellRef, RunCtx};

/// Smith–Waterman local alignment of two byte strings.
#[derive(Debug, Clone)]
pub struct SmithWaterman {
    /// First string.
    pub a: Vec<u8>,
    /// Second string.
    pub b: Vec<u8>,
    /// Score for a matching character pair (positive).
    pub match_score: i64,
    /// Penalty for a mismatch (positive; subtracted).
    pub mismatch: i64,
    /// Penalty per gap character (positive; subtracted).
    pub gap: i64,
}

impl SmithWaterman {
    /// Standard scoring: +2 match, −1 mismatch, −1 gap.
    pub fn new(a: &[u8], b: &[u8]) -> SmithWaterman {
        SmithWaterman {
            a: a.to_vec(),
            b: b.to_vec(),
            match_score: 2,
            mismatch: 1,
            gap: 1,
        }
    }

    /// The high-level problem description with the given tile width.
    pub fn spec(width: i64) -> ProblemSpec {
        ProblemSpec {
            name: "smith_waterman".into(),
            vars: vec!["i".into(), "j".into()],
            params: vec!["LA".into(), "LB".into()],
            constraints: vec!["0 <= i <= LA".into(), "0 <= j <= LB".into()],
            templates: vec![
                SpecTemplate { name: "del".into(), offsets: vec![-1, 0] },
                SpecTemplate { name: "ins".into(), offsets: vec![0, -1] },
                SpecTemplate { name: "sub".into(), offsets: vec![-1, -1] },
            ],
            order: vec![],
            load_balance: vec!["i".into()],
            widths: vec![width, width],
            band: None,
            center_code: "long best = 0;\n\
                          if (is_valid_sub) best = DP_MAX(best, V[loc_sub] + (a[i-1] == b[j-1] ? MATCH : -MISMATCH));\n\
                          if (is_valid_del) best = DP_MAX(best, V[loc_del] - GAP);\n\
                          if (is_valid_ins) best = DP_MAX(best, V[loc_ins] - GAP);\n\
                          V[loc] = best;"
                .into(),
            init_code: String::new(),
            defines: "extern const char *a, *b;\n#define MATCH 2\n#define MISMATCH 1\n#define GAP 1"
                .into(),
            value_type: "long".into(),
        }
    }

    /// Generate the program for the given tile width.
    pub fn program(width: i64) -> Result<Program, ProgramError> {
        Program::from_spec(SmithWaterman::spec(width))
    }

    /// The textbook solver (returns the best local alignment score).
    pub fn solve_dense(&self) -> i64 {
        let (n, m) = (self.a.len(), self.b.len());
        let mut h = vec![vec![0i64; m + 1]; n + 1];
        let mut best = 0i64;
        for i in 1..=n {
            for j in 1..=m {
                let s = if self.a[i - 1] == self.b[j - 1] {
                    self.match_score
                } else {
                    -self.mismatch
                };
                h[i][j] = 0i64
                    .max(h[i - 1][j - 1] + s)
                    .max(h[i - 1][j] - self.gap)
                    .max(h[i][j - 1] - self.gap);
                best = best.max(h[i][j]);
            }
        }
        best
    }

    /// The string-length parameters for a run.
    pub fn params(&self) -> Vec<i64> {
        vec![self.a.len() as i64, self.b.len() as i64]
    }
}

impl Kernel<i64> for SmithWaterman {
    fn compute(&self, cell: CellRef<'_>, values: &mut [i64]) {
        let (i, j) = (cell.x[0], cell.x[1]);
        let mut best = 0i64;
        // Border rows/columns stay 0 (local alignment restarts freely).
        if i > 0 && j > 0 {
            // Template order: del ⟨-1,0⟩, ins ⟨0,-1⟩, sub ⟨-1,-1⟩.
            if cell.valid[2] {
                let s = if self.a[(i - 1) as usize] == self.b[(j - 1) as usize] {
                    self.match_score
                } else {
                    -self.mismatch
                };
                best = best.max(values[cell.loc_r(2)] + s);
            }
            if cell.valid[0] {
                best = best.max(values[cell.loc_r(0)] - self.gap);
            }
            if cell.valid[1] {
                best = best.max(values[cell.loc_r(1)] - self.gap);
            }
        }
        values[cell.loc] = best;
    }
}

impl RunKernel<i64> for SmithWaterman {
    /// SIMD-batched inner loop: on an interior run every template is
    /// valid, which forces `i >= 1` and `j >= 1`, so both the border
    /// branch and the per-template flag checks of `compute` vanish.
    ///
    /// The recurrence is loop-carried only through the template pointing
    /// against the run direction (the previous cell of the run); the other
    /// two candidates read the already-finished neighbouring row. Those
    /// non-carried candidates — character score, substitution and deletion
    /// maxes — are evaluated [`LANES`] cells at a time with the portable
    /// lane types, and the carried `max(·, prev - gap)` is resolved in a
    /// short serial fold. `max` over `i64` is exact, associative and
    /// commutative, so the result is bit-identical to the scalar loop.
    fn eval_run(&self, run: &RunCtx<'_>, values: &mut [i64]) {
        // Template order: del ⟨-1,0⟩, ins ⟨0,-1⟩, sub ⟨-1,-1⟩.
        let (off_del, off_ins, off_sub) = (run.offsets[0], run.offsets[1], run.offsets[2]);
        let (inner, fixed_ch) = if run.inner_dim == 0 {
            (&self.a, self.b[(run.x[1] - 1) as usize])
        } else {
            (&self.b, self.a[(run.x[0] - 1) as usize])
        };
        // The template along the run direction carries the recurrence; the
        // other one reads the finished neighbouring row.
        let (off_carried, off_row) = if run.inner_dim == 0 {
            (off_del, off_ins)
        } else {
            (off_ins, off_del)
        };
        let mut xi = run.x[run.inner_dim];
        let mut loc = run.loc as i64;
        let mut rem = run.len;
        if off_carried == -run.loc_step && run.len >= LANES {
            let mut prev = values[(loc + off_carried) as usize];
            for _ in 0..run.len / LANES {
                let score = I64x::from_fn(|k| {
                    if inner[(xi + k as i64 * run.x_step - 1) as usize] == fixed_ch {
                        self.match_score
                    } else {
                        -self.mismatch
                    }
                });
                let sub = I64x::gather(values, loc + off_sub, run.loc_step);
                let row = I64x::gather(values, loc + off_row, run.loc_step);
                let m = (sub + score).max(row.sub_splat(self.gap)).max_splat(0);
                for k in 0..LANES {
                    let v = m.0[k].max(prev - self.gap);
                    values[(loc + k as i64 * run.loc_step) as usize] = v;
                    prev = v;
                }
                loc += LANES as i64 * run.loc_step;
                xi += LANES as i64 * run.x_step;
            }
            rem = run.len % LANES;
        }
        for _ in 0..rem {
            let s = if inner[(xi - 1) as usize] == fixed_ch {
                self.match_score
            } else {
                -self.mismatch
            };
            values[loc as usize] = 0i64
                .max(values[(loc + off_sub) as usize] + s)
                .max(values[(loc + off_del) as usize] - self.gap)
                .max(values[(loc + off_ins) as usize] - self.gap);
            loc += run.loc_step;
            xi += run.x_step;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random_sequence;
    use dpgen_core::ExecOpts;
    use dpgen_runtime::{PerCell, Reduction, TilePriority};
    use proptest::prelude::*;

    fn run_tiled(problem: &SmithWaterman, width: i64, threads: usize) -> i64 {
        let program = SmithWaterman::program(width).unwrap();
        let reduce = Reduction::max_i64();
        let opts = ExecOpts::new()
            .threads(threads)
            .priority(TilePriority::column_major(2));
        let res = program
            .compile(&problem.params())
            .execute_reduce(&PerCell(problem), &reduce, &opts)
            .unwrap();
        res.reduction.unwrap()
    }

    #[test]
    fn known_alignments() {
        // Identical strings: full-length match.
        let p = SmithWaterman::new(b"ACGT", b"ACGT");
        assert_eq!(p.solve_dense(), 8);
        // Disjoint alphabets: nothing aligns locally.
        let p = SmithWaterman::new(b"AAAA", b"CCCC");
        assert_eq!(p.solve_dense(), 0);
        // A shared substring scores its length x match.
        let p = SmithWaterman::new(b"XXXACGTYYY", b"ZZACGTZZZ");
        assert_eq!(p.solve_dense(), 8);
    }

    #[test]
    fn tiled_reduction_matches_dense() {
        let problem = SmithWaterman::new(&random_sequence(45, 7), &random_sequence(38, 8));
        let want = problem.solve_dense();
        assert!(want > 0);
        for (w, threads) in [(4i64, 1usize), (8, 2), (64, 4)] {
            assert_eq!(run_tiled(&problem, w, threads), want, "w={w}");
        }
    }

    #[test]
    fn batched_kernel_matches_dense_reduction() {
        let problem = SmithWaterman::new(&random_sequence(45, 7), &random_sequence(38, 8));
        let want = problem.solve_dense();
        for (w, threads) in [(1i64, 1usize), (4, 2), (8, 2), (64, 4)] {
            let program = SmithWaterman::program(w).unwrap();
            let reduce = Reduction::max_i64();
            let opts = ExecOpts::new().threads(threads);
            let res = program
                .compile(&problem.params())
                .execute_reduce(&problem, &reduce, &opts)
                .unwrap();
            assert_eq!(res.reduction.unwrap(), want, "w={w}");
            let runs: u64 = res.per_rank.iter().map(|r| r.stats.runs_batched).sum();
            assert!(runs > 0, "w={w} must dispatch batched runs");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn tiled_matches_dense_random(
            a in proptest::collection::vec(0u8..4, 0..20),
            b in proptest::collection::vec(0u8..4, 0..20),
            width in 1i64..8,
        ) {
            let problem = SmithWaterman::new(&a, &b);
            prop_assert_eq!(run_tiled(&problem, width, 1), problem.solve_dense());
        }

        #[test]
        fn score_bounds(
            a in proptest::collection::vec(0u8..4, 0..15),
            b in proptest::collection::vec(0u8..4, 0..15),
        ) {
            let p = SmithWaterman::new(&a, &b);
            let s = p.solve_dense();
            prop_assert!(s >= 0);
            prop_assert!(s <= 2 * a.len().min(b.len()) as i64);
        }
    }
}
