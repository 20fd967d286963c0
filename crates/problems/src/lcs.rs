//! Longest common subsequence of 2 or 3 strings (Section I cites LCS of
//! multiple DNA strands as a motivating problem).
//!
//! `L(i1, …, id)` = length of the LCS of the prefixes of lengths `i_k`.
//! Dependencies: the all-ones negative diagonal (when every string's next
//! character matches) plus the `d` single-dimension moves.

use dpgen_core::spec::SpecTemplate;
use dpgen_core::{ProblemSpec, Program, ProgramError};
use dpgen_runtime::{simd::LANES, I64x, Kernel, RunKernel};
use dpgen_tiling::tiling::{CellRef, RunCtx};

/// LCS over `d` byte strings (`d` = 2 or 3 supported by [`Lcs::spec`]).
#[derive(Debug, Clone)]
pub struct Lcs {
    /// The strings.
    pub seqs: Vec<Vec<u8>>,
}

impl Lcs {
    /// New LCS problem over the given strings.
    pub fn new(seqs: &[&[u8]]) -> Lcs {
        assert!((2..=3).contains(&seqs.len()), "2 or 3 strings supported");
        Lcs {
            seqs: seqs.iter().map(|s| s.to_vec()).collect(),
        }
    }

    /// The high-level problem description for `d` strings with the given
    /// tile width. Parameters `L1..Ld` are the string lengths.
    pub fn spec(d: usize, width: i64) -> ProblemSpec {
        assert!((2..=3).contains(&d));
        let vars: Vec<String> = (1..=d).map(|k| format!("i{k}")).collect();
        let params: Vec<String> = (1..=d).map(|k| format!("L{k}")).collect();
        let mut templates = Vec::new();
        // Single-dimension moves first, then the diagonal (template ids in
        // that order are what the kernel expects).
        for k in 0..d {
            let mut offsets = vec![0i64; d];
            offsets[k] = -1;
            templates.push(SpecTemplate {
                name: format!("skip{}", k + 1),
                offsets,
            });
        }
        templates.push(SpecTemplate {
            name: "all".into(),
            offsets: vec![-1; d],
        });
        ProblemSpec {
            name: format!("lcs{d}"),
            constraints: vars
                .iter()
                .zip(&params)
                .map(|(v, p)| format!("0 <= {v} <= {p}"))
                .collect(),
            vars,
            params,
            templates,
            order: vec![],
            load_balance: vec!["i1".into()],
            widths: vec![width; d],
            band: None,
            center_code: "/* see the Rust kernel; C rendering omitted for brevity */\nV[loc] = 0;"
                .into(),
            init_code: String::new(),
            defines: String::new(),
            value_type: "long".into(),
        }
    }

    /// Generate the program.
    pub fn program(d: usize, width: i64) -> Result<Program, ProgramError> {
        Program::from_spec(Lcs::spec(d, width))
    }

    /// String-length parameters for a run.
    pub fn params(&self) -> Vec<i64> {
        self.seqs.iter().map(|s| s.len() as i64).collect()
    }

    /// The goal coordinates (full prefixes).
    pub fn goal(&self) -> Vec<i64> {
        self.params()
    }

    /// Dense reference solver (2 or 3 strings).
    pub fn solve_dense(&self) -> i64 {
        match self.seqs.len() {
            2 => {
                let (a, b) = (&self.seqs[0], &self.seqs[1]);
                let mut l = vec![vec![0i64; b.len() + 1]; a.len() + 1];
                for i in 1..=a.len() {
                    for j in 1..=b.len() {
                        l[i][j] = if a[i - 1] == b[j - 1] {
                            l[i - 1][j - 1] + 1
                        } else {
                            l[i - 1][j].max(l[i][j - 1])
                        };
                    }
                }
                l[a.len()][b.len()]
            }
            3 => {
                let (a, b, c) = (&self.seqs[0], &self.seqs[1], &self.seqs[2]);
                let mut l = vec![vec![vec![0i64; c.len() + 1]; b.len() + 1]; a.len() + 1];
                for i in 1..=a.len() {
                    for j in 1..=b.len() {
                        for k in 1..=c.len() {
                            l[i][j][k] = if a[i - 1] == b[j - 1] && b[j - 1] == c[k - 1] {
                                l[i - 1][j - 1][k - 1] + 1
                            } else {
                                l[i - 1][j][k].max(l[i][j - 1][k]).max(l[i][j][k - 1])
                            };
                        }
                    }
                }
                l[a.len()][b.len()][c.len()]
            }
            _ => unreachable!(),
        }
    }
}

impl Kernel<i64> for Lcs {
    fn compute(&self, cell: CellRef<'_>, values: &mut [i64]) {
        let d = self.seqs.len();
        // Any zero coordinate: empty prefix, LCS length 0.
        if cell.x.contains(&0) {
            values[cell.loc] = 0;
            return;
        }
        // All coordinates >= 1: all templates are valid (box space).
        let all_match = {
            let first = self.seqs[0][(cell.x[0] - 1) as usize];
            (1..d).all(|k| self.seqs[k][(cell.x[k] - 1) as usize] == first)
        };
        if all_match {
            values[cell.loc] = values[cell.loc_r(d)] + 1;
        } else {
            values[cell.loc] = (0..d).map(|k| values[cell.loc_r(k)]).max().unwrap();
        }
    }
}

impl RunKernel<i64> for Lcs {
    /// SIMD-batched inner loop for the 2-string case: interior runs
    /// guarantee every template valid, so every `x[k] >= 1` and the
    /// zero-prefix branch of `compute` is unreachable. The character of
    /// the non-varying string is hoisted out of the loop; the non-carried
    /// candidates (diagonal and finished-row reads) are evaluated
    /// [`LANES`] cells at a time and the loop-carried max against the
    /// previous run cell is resolved in a short serial fold. 3-string LCS
    /// falls back to the per-cell replay.
    fn eval_run(&self, run: &RunCtx<'_>, values: &mut [i64]) {
        if self.seqs.len() == 2 {
            let (off_a, off_b, off_all) = (run.offsets[0], run.offsets[1], run.offsets[2]);
            let other = 1 - run.inner_dim;
            let fixed = self.seqs[other][(run.x[other] - 1) as usize];
            let inner = &self.seqs[run.inner_dim];
            // skip1 ⟨-1,0⟩ / skip2 ⟨0,-1⟩: the one along the run direction
            // carries the recurrence (previous run cell); the other reads
            // the finished neighbouring row. On a match the cell depends
            // only on the diagonal, so the carried fold is a conditional
            // max — still exact i64, still bit-identical to the scalar
            // loop.
            let (off_carried, off_row) = if run.inner_dim == 0 {
                (off_a, off_b)
            } else {
                (off_b, off_a)
            };
            let mut xi = run.x[run.inner_dim];
            let mut loc = run.loc as i64;
            let mut rem = run.len;
            if off_carried == -run.loc_step && run.len >= LANES {
                let mut prev = values[(loc + off_carried) as usize];
                for _ in 0..run.len / LANES {
                    let diag = I64x::gather(values, loc + off_all, run.loc_step).add_splat(1);
                    let row = I64x::gather(values, loc + off_row, run.loc_step);
                    for k in 0..LANES {
                        let matched = inner[(xi + k as i64 * run.x_step - 1) as usize] == fixed;
                        let v = if matched {
                            diag.0[k]
                        } else {
                            row.0[k].max(prev)
                        };
                        values[(loc + k as i64 * run.loc_step) as usize] = v;
                        prev = v;
                    }
                    loc += LANES as i64 * run.loc_step;
                    xi += LANES as i64 * run.x_step;
                }
                rem = run.len % LANES;
            }
            for _ in 0..rem {
                values[loc as usize] = if inner[(xi - 1) as usize] == fixed {
                    values[(loc + off_all) as usize] + 1
                } else {
                    values[(loc + off_a) as usize].max(values[(loc + off_b) as usize])
                };
                loc += run.loc_step;
                xi += run.x_step;
            }
        } else {
            run.for_each_cell(|cell| self.compute(cell, values));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random_sequence;
    use dpgen_core::ExecOpts;
    use dpgen_runtime::Probe;

    fn run_tiled(problem: &Lcs, width: i64) -> i64 {
        let program = Lcs::program(problem.seqs.len(), width).unwrap();
        let opts = ExecOpts::new().threads(2).probe(Probe::at(&problem.goal()));
        let res = program
            .compile(&problem.params())
            .execute(problem, &opts)
            .unwrap();
        res.probes[0].unwrap()
    }

    #[test]
    fn known_lcs2() {
        let p = Lcs::new(&[b"ABCBDAB", b"BDCABA"]);
        assert_eq!(p.solve_dense(), 4); // "BCAB" or "BDAB"
        assert_eq!(run_tiled(&p, 3), 4);
    }

    #[test]
    fn known_lcs3() {
        let p = Lcs::new(&[b"AGGT12", b"12TXAYB", b"12XBA"]);
        assert_eq!(p.solve_dense(), 2); // "12"
        assert_eq!(run_tiled(&p, 2), 2);
    }

    #[test]
    fn tiled_matches_dense_on_random_dna() {
        let a = random_sequence(35, 10);
        let b = random_sequence(28, 11);
        let p2 = Lcs::new(&[&a, &b]);
        let want = p2.solve_dense();
        for w in [2i64, 5, 40] {
            assert_eq!(run_tiled(&p2, w), want, "width {w}");
        }
        let c = random_sequence(15, 12);
        let p3 = Lcs::new(&[&a[..15], &b[..12], &c]);
        assert_eq!(run_tiled(&p3, 4), p3.solve_dense());
    }

    fn run_tiled_batched(problem: &Lcs, width: i64) -> (i64, u64) {
        let program = Lcs::program(problem.seqs.len(), width).unwrap();
        let opts = ExecOpts::new().threads(2).probe(Probe::at(&problem.goal()));
        let res = program
            .compile(&problem.params())
            .execute_batched(problem, &opts)
            .unwrap();
        (
            res.probes[0].unwrap(),
            res.per_rank.iter().map(|r| r.stats.runs_batched).sum(),
        )
    }

    #[test]
    fn batched_kernel_matches_per_cell() {
        let a = random_sequence(40, 5);
        let b = random_sequence(33, 6);
        let p2 = Lcs::new(&[&a, &b]);
        let want = p2.solve_dense();
        for w in [1i64, 2, 5, 16, 64] {
            let (got, runs) = run_tiled_batched(&p2, w);
            assert_eq!(got, want, "width {w}");
            assert_eq!(run_tiled(&p2, w), want, "width {w} per-cell");
            assert!(runs > 0, "width {w} must dispatch batched runs");
        }
        // 3 strings ride the per-cell fallback inside eval_run.
        let c = random_sequence(14, 7);
        let p3 = Lcs::new(&[&a[..14], &b[..12], &c]);
        let (got3, runs3) = run_tiled_batched(&p3, 4);
        assert_eq!(got3, p3.solve_dense());
        assert!(runs3 > 0);
    }

    #[test]
    fn lcs3_is_at_most_pairwise_min() {
        let a = random_sequence(20, 20);
        let b = random_sequence(20, 21);
        let c = random_sequence(20, 22);
        let l3 = Lcs::new(&[&a, &b, &c]).solve_dense();
        let lab = Lcs::new(&[&a, &b]).solve_dense();
        let lbc = Lcs::new(&[&b, &c]).solve_dense();
        let lac = Lcs::new(&[&a, &c]).solve_dense();
        assert!(l3 <= lab.min(lbc).min(lac));
    }

    #[test]
    fn identical_strings_have_full_lcs() {
        let a = random_sequence(25, 30);
        let p = Lcs::new(&[&a, &a]);
        assert_eq!(p.solve_dense(), 25);
        assert_eq!(run_tiled(&p, 6), 25);
    }
}
