//! Classic 2-string edit distance — the quickstart problem.
//!
//! `D(i, j)` = minimal cost of aligning the first `i` characters of `a`
//! with the first `j` of `b`, with unit insert/delete cost and
//! configurable substitution cost. Dependencies are the negative templates
//! `⟨-1,0⟩`, `⟨0,-1⟩`, `⟨-1,-1⟩`, so the generated loops scan *upward*
//! (the non-Figure 3 direction), exercising the ascending code path.

use dpgen_core::spec::SpecTemplate;
use dpgen_core::{ProblemSpec, Program, ProgramError};
use dpgen_runtime::{Kernel, RunKernel};
use dpgen_tiling::tiling::{CellRef, RunCtx};

/// Edit distance between two byte strings.
#[derive(Debug, Clone)]
pub struct EditDistance {
    /// First string.
    pub a: Vec<u8>,
    /// Second string.
    pub b: Vec<u8>,
    /// Cost of substituting one character for a different one.
    pub sub_cost: i64,
    /// Cost of inserting or deleting one character.
    pub gap_cost: i64,
}

impl EditDistance {
    /// Unit-cost edit distance.
    pub fn new(a: &[u8], b: &[u8]) -> EditDistance {
        EditDistance {
            a: a.to_vec(),
            b: b.to_vec(),
            sub_cost: 1,
            gap_cost: 1,
        }
    }

    /// The high-level problem description with the given tile width.
    /// Parameters `LA`, `LB` are the string lengths.
    pub fn spec(width: i64) -> ProblemSpec {
        ProblemSpec {
            name: "editdist".into(),
            vars: vec!["i".into(), "j".into()],
            params: vec!["LA".into(), "LB".into()],
            constraints: vec!["0 <= i <= LA".into(), "0 <= j <= LB".into()],
            templates: vec![
                SpecTemplate {
                    name: "del".into(),
                    offsets: vec![-1, 0],
                },
                SpecTemplate {
                    name: "ins".into(),
                    offsets: vec![0, -1],
                },
                SpecTemplate {
                    name: "sub".into(),
                    offsets: vec![-1, -1],
                },
            ],
            order: vec![],
            load_balance: vec!["i".into()],
            widths: vec![width, width],
            band: None,
            center_code: "long best = (i == 0 && j == 0) ? 0 : LONG_MAX;\n\
                          if (is_valid_del) best = DP_MIN(best, V[loc_del] + GAP);\n\
                          if (is_valid_ins) best = DP_MIN(best, V[loc_ins] + GAP);\n\
                          if (is_valid_sub) best = DP_MIN(best, V[loc_sub] + (a[i-1] == b[j-1] ? 0 : SUB));\n\
                          V[loc] = best;"
                .into(),
            init_code: String::new(),
            defines: "#include <limits.h>\nextern const char *a, *b;\n#define SUB 1\n#define GAP 1"
                .into(),
            value_type: "long".into(),
        }
    }

    /// Generate the program for the given tile width.
    pub fn program(width: i64) -> Result<Program, ProgramError> {
        Program::from_spec(EditDistance::spec(width))
    }

    /// The textbook `O(n·m)` solver for validation.
    pub fn solve_dense(&self) -> i64 {
        let (n, m) = (self.a.len(), self.b.len());
        let mut d = vec![vec![0i64; m + 1]; n + 1];
        for (i, row) in d.iter_mut().enumerate() {
            row[0] = i as i64 * self.gap_cost;
        }
        for (j, cell) in d[0].iter_mut().enumerate() {
            *cell = j as i64 * self.gap_cost;
        }
        for i in 1..=n {
            for j in 1..=m {
                let sub = d[i - 1][j - 1]
                    + if self.a[i - 1] == self.b[j - 1] {
                        0
                    } else {
                        self.sub_cost
                    };
                d[i][j] = sub
                    .min(d[i - 1][j] + self.gap_cost)
                    .min(d[i][j - 1] + self.gap_cost);
            }
        }
        d[n][m]
    }

    /// The string-length parameters for a run.
    pub fn params(&self) -> Vec<i64> {
        vec![self.a.len() as i64, self.b.len() as i64]
    }
}

impl Kernel<i64> for EditDistance {
    fn compute(&self, cell: CellRef<'_>, values: &mut [i64]) {
        let (i, j) = (cell.x[0], cell.x[1]);
        if i == 0 && j == 0 {
            values[cell.loc] = 0;
            return;
        }
        let mut best = i64::MAX;
        // Template order: del ⟨-1,0⟩, ins ⟨0,-1⟩, sub ⟨-1,-1⟩.
        if cell.valid[0] {
            best = best.min(values[cell.loc_r(0)] + self.gap_cost);
        }
        if cell.valid[1] {
            best = best.min(values[cell.loc_r(1)] + self.gap_cost);
        }
        if cell.valid[2] {
            let mismatch = self.a[(i - 1) as usize] != self.b[(j - 1) as usize];
            best = best.min(values[cell.loc_r(2)] + if mismatch { self.sub_cost } else { 0 });
        }
        values[cell.loc] = best;
    }
}

impl RunKernel<i64> for EditDistance {
    /// Batched inner loop: interior runs guarantee all three templates
    /// valid (`i >= 1`, `j >= 1`), so the origin cell and the per-template
    /// flag checks of `compute` are unreachable, and the run is one scalar
    /// loop over its cells.
    fn eval_run(&self, run: &RunCtx<'_>, values: &mut [i64]) {
        // Template order: del ⟨-1,0⟩, ins ⟨0,-1⟩, sub ⟨-1,-1⟩.
        let (off_del, off_ins, off_sub) = (run.offsets[0], run.offsets[1], run.offsets[2]);
        let (inner, fixed_ch) = if run.inner_dim == 0 {
            (&self.a, self.b[(run.x[1] - 1) as usize])
        } else {
            (&self.b, self.a[(run.x[0] - 1) as usize])
        };
        let mut xi = run.x[run.inner_dim];
        let mut loc = run.loc as i64;
        for _ in 0..run.len {
            let sub = if inner[(xi - 1) as usize] == fixed_ch {
                0
            } else {
                self.sub_cost
            };
            values[loc as usize] = (values[(loc + off_del) as usize] + self.gap_cost)
                .min(values[(loc + off_ins) as usize] + self.gap_cost)
                .min(values[(loc + off_sub) as usize] + sub);
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
    use dpgen_runtime::Probe;
    use proptest::prelude::*;

    fn run_tiled(problem: &EditDistance, width: i64, threads: usize) -> i64 {
        let program = EditDistance::program(width).unwrap();
        let params = problem.params();
        let goal = [params[0], params[1]];
        let opts = ExecOpts::new().threads(threads).probe(Probe::at(&goal));
        let res = program.compile(&params).execute(problem, &opts).unwrap();
        res.probes[0].unwrap()
    }

    #[test]
    fn known_distances() {
        assert_eq!(EditDistance::new(b"kitten", b"sitting").solve_dense(), 3);
        assert_eq!(EditDistance::new(b"", b"abc").solve_dense(), 3);
        assert_eq!(EditDistance::new(b"abc", b"abc").solve_dense(), 0);
        assert_eq!(EditDistance::new(b"abc", b"").solve_dense(), 3);
    }

    #[test]
    fn tiled_matches_dense() {
        let problem = EditDistance::new(&random_sequence(40, 1), &random_sequence(33, 2));
        let want = problem.solve_dense();
        for width in [1i64, 4, 16, 64] {
            assert_eq!(run_tiled(&problem, width, 2), want, "width {width}");
        }
    }

    #[test]
    fn hybrid_matches_dense() {
        let problem = EditDistance::new(&random_sequence(30, 3), &random_sequence(28, 4));
        let want = problem.solve_dense();
        let program = EditDistance::program(4).unwrap();
        let params = problem.params();
        let opts = ExecOpts::new()
            .threads(2)
            .ranks(3)
            .probe(Probe::at(&[params[0], params[1]]));
        let res = program.compile(&params).execute(&problem, &opts).unwrap();
        assert_eq!(res.probes[0].unwrap(), want);
    }

    #[test]
    fn batched_kernel_matches_dense() {
        let problem = EditDistance::new(&random_sequence(40, 1), &random_sequence(33, 2));
        let want = problem.solve_dense();
        let params = problem.params();
        for width in [1i64, 4, 16, 64] {
            let program = EditDistance::program(width).unwrap();
            let opts = ExecOpts::new()
                .threads(2)
                .probe(Probe::at(&[params[0], params[1]]));
            let res = program
                .compile(&params)
                .execute_batched(&problem, &opts)
                .unwrap();
            assert_eq!(res.probes[0].unwrap(), want, "width {width}");
            let runs: u64 = res.per_rank.iter().map(|r| r.stats.runs_batched).sum();
            assert!(runs > 0, "width {width} must dispatch batched runs");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn tiled_matches_dense_random(
            a in proptest::collection::vec(0u8..4, 0..25),
            b in proptest::collection::vec(0u8..4, 0..25),
            width in 1i64..9,
        ) {
            let problem = EditDistance::new(&a, &b);
            prop_assert_eq!(run_tiled(&problem, width, 1), problem.solve_dense());
        }

        #[test]
        fn distance_is_a_metric_on_samples(
            a in proptest::collection::vec(0u8..4, 0..15),
            b in proptest::collection::vec(0u8..4, 0..15),
        ) {
            let dab = EditDistance::new(&a, &b).solve_dense();
            let dba = EditDistance::new(&b, &a).solve_dense();
            prop_assert_eq!(dab, dba); // symmetry
            prop_assert!(dab >= (a.len() as i64 - b.len() as i64).abs());
            prop_assert!(dab <= a.len().max(b.len()) as i64);
            prop_assert_eq!(dab == 0, a == b);
        }
    }
}
