//! Banded Smith–Waterman local alignment — the sparse-lattice workload.
//!
//! When two sequences are known to be similar (homology search after a
//! seeding stage, long-read polishing), alignments wander at most `w`
//! diagonals off the main one, and the classic banded heuristic computes
//! only the cells with `|i - j| <= w` — `O(n·w)` work instead of `O(n·m)`.
//! The dense lattice the paper's generator enumerates can't express that;
//! this workload drives the spec-level `band` declaration end to end: the
//! tiling clips tiles, runs and edges to the band, so out-of-band cells
//! are never visited, never allocated and never shipped, and the
//! recurrence itself is untouched — the validity flags mask reads across
//! the band boundary exactly like reads across the iteration-space
//! boundary.
//!
//! The kernel is [`SmithWaterman`]'s (including its interior run
//! loop): band masking is entirely the geometry layer's job, which is the
//! point — schedules, checkpoints and cost models stay oblivious to the
//! cell-level sparsity.

use crate::smith_waterman::SmithWaterman;
use dpgen_core::spec::SpecBand;
use dpgen_core::{ProblemSpec, Program, ProgramError};
use dpgen_runtime::{Kernel, RunKernel};
use dpgen_tiling::tiling::{CellRef, RunCtx};

/// Smith–Waterman restricted to the diagonal band `|i - j| <= band`.
#[derive(Debug, Clone)]
pub struct BandedSw {
    /// The underlying local-alignment problem (strings and scoring).
    pub sw: SmithWaterman,
    /// Band half-width `w`: only cells with `|i - j| <= w` exist.
    pub band: i64,
}

impl BandedSw {
    /// Standard scoring (+2 match, −1 mismatch, −1 gap) on the given band.
    pub fn new(a: &[u8], b: &[u8], band: i64) -> BandedSw {
        assert!(band >= 0, "band half-width must be non-negative");
        BandedSw {
            sw: SmithWaterman::new(a, b),
            band,
        }
    }

    /// The high-level problem description: [`SmithWaterman::spec`] plus
    /// the `band i j -w w` declaration.
    pub fn spec(width: i64, band: i64) -> ProblemSpec {
        let mut spec = SmithWaterman::spec(width);
        spec.name = "banded_sw".into();
        spec.band = Some(SpecBand {
            a: "i".into(),
            b: "j".into(),
            lo: -band,
            hi: band,
        });
        spec
    }

    /// Generate the program for the given tile width and band half-width.
    pub fn program(width: i64, band: i64) -> Result<Program, ProgramError> {
        Program::from_spec(BandedSw::spec(width, band))
    }

    /// The dense reference masked to the band: cells off the band do not
    /// exist, and candidates reading across the band edge are skipped —
    /// exactly the validity-flag semantics of the generated program.
    /// Returns the best in-band local alignment score.
    pub fn solve_dense_masked(&self) -> i64 {
        let (n, m) = (self.sw.a.len(), self.sw.b.len());
        let in_band = |i: i64, j: i64| (i - j).abs() <= self.band;
        let mut h = vec![vec![0i64; m + 1]; n + 1];
        let mut best = 0i64;
        for i in 1..=n {
            for j in 1..=m {
                let (bi, bj) = (i as i64, j as i64);
                if !in_band(bi, bj) {
                    continue;
                }
                let mut v = 0i64;
                // sub ⟨-1,-1⟩ stays on the same diagonal: always in band.
                let s = if self.sw.a[i - 1] == self.sw.b[j - 1] {
                    self.sw.match_score
                } else {
                    -self.sw.mismatch
                };
                v = v.max(h[i - 1][j - 1] + s);
                if in_band(bi - 1, bj) {
                    v = v.max(h[i - 1][j] - self.sw.gap);
                }
                if in_band(bi, bj - 1) {
                    v = v.max(h[i][j - 1] - self.sw.gap);
                }
                h[i][j] = v;
                best = best.max(v);
            }
        }
        best
    }

    /// The string-length parameters for a run.
    pub fn params(&self) -> Vec<i64> {
        self.sw.params()
    }
}

impl Kernel<i64> for BandedSw {
    fn compute(&self, cell: CellRef<'_>, values: &mut [i64]) {
        // The validity flags already mask reads across the band edge (the
        // band constraints are part of the iteration space), so the plain
        // Smith–Waterman cell recurrence is correct as-is.
        self.sw.compute(cell, values)
    }
}

impl RunKernel<i64> for BandedSw {
    fn eval_run(&self, run: &RunCtx<'_>, values: &mut [i64]) {
        // Interior runs are all-valid by construction — band-clipped by
        // the scanner — so the dense run loop applies unchanged.
        self.sw.eval_run(run, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random_sequence;
    use dpgen_core::ExecOpts;
    use dpgen_runtime::{PerCell, Reduction, RunStats, Schedule};

    fn run_banded(
        problem: &BandedSw,
        width: i64,
        threads: usize,
        ranks: usize,
        schedule: Schedule,
        batched: bool,
    ) -> (i64, Vec<RunStats>) {
        let program = BandedSw::program(width, problem.band).unwrap();
        let reduce = Reduction::max_i64();
        let plan = program.compile(&problem.params());
        let opts = ExecOpts::new()
            .threads(threads)
            .ranks(ranks)
            .schedule(schedule);
        let res = if batched {
            plan.execute_reduce(problem, &reduce, &opts)
        } else {
            plan.execute_reduce(&PerCell(problem), &reduce, &opts)
        }
        .unwrap();
        (
            res.reduction.unwrap(),
            res.per_rank.iter().map(|r| r.stats.clone()).collect(),
        )
    }

    #[test]
    fn masked_reference_known_cases() {
        // Identical strings: the whole match lies on the main diagonal,
        // so any band width finds it.
        let p = BandedSw::new(b"ACGT", b"ACGT", 0);
        assert_eq!(p.solve_dense_masked(), 8);
        // A shared substring at a 3-diagonal offset needs band >= 3.
        let p = BandedSw::new(b"XXXACGT", b"ACGT", 1);
        assert!(p.solve_dense_masked() < 8);
        let p = BandedSw::new(b"XXXACGT", b"ACGT", 3);
        assert_eq!(p.solve_dense_masked(), 8);
        // A wide band degenerates to the dense problem.
        let a = random_sequence(25, 11);
        let b = random_sequence(23, 12);
        let p = BandedSw::new(&a, &b, 60);
        assert_eq!(p.solve_dense_masked(), p.sw.solve_dense());
    }

    #[test]
    fn banded_visits_o_n_w_cells() {
        // A long near-diagonal problem: the band covers well under half
        // the dense lattice, and the runtime must visit only band cells.
        let a = random_sequence(200, 5);
        let b = random_sequence(200, 6);
        let problem = BandedSw::new(&a, &b, 8);
        let (got, stats) = run_banded(&problem, 16, 2, 1, Schedule::Dynamic, false);
        assert_eq!(got, problem.solve_dense_masked());
        let visited: u64 = stats.iter().map(|s| s.cells_computed).sum();
        let dense = 201 * 201;
        assert!(
            visited * 2 < dense,
            "visited {visited} of {dense} dense cells: band not skipped"
        );
        // Exactly the in-band lattice points, no more.
        let in_band = (0..=200i64)
            .flat_map(|i| (0..=200i64).map(move |j| (i, j)))
            .filter(|(i, j)| (i - j).abs() <= 8)
            .count() as u64;
        assert_eq!(visited, in_band);
        assert_eq!(
            stats[0].shape,
            dpgen_tiling::TileShape::Banded { lo: -8, hi: 8 }
        );
    }

    #[test]
    fn consistency_matrix_matches_masked_dense() {
        // Bit-identical across {threads} × {ranks} × {schedule} × both
        // kernel paths, against the masked dense reference.
        let a = random_sequence(70, 21);
        let b = random_sequence(64, 22);
        let problem = BandedSw::new(&a, &b, 5);
        let want = problem.solve_dense_masked();
        assert!(want > 0);
        for threads in [1usize, 4] {
            for ranks in [1usize, 3] {
                for schedule in [Schedule::Dynamic, Schedule::Static] {
                    for batched in [false, true] {
                        let (got, _) = run_banded(&problem, 8, threads, ranks, schedule, batched);
                        assert_eq!(
                            got, want,
                            "threads={threads} ranks={ranks} {schedule:?} batched={batched}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batched_runs_dispatch_on_the_banded_lattice() {
        let a = random_sequence(90, 31);
        let b = random_sequence(90, 32);
        let problem = BandedSw::new(&a, &b, 6);
        let (got, stats) = run_banded(&problem, 8, 2, 1, Schedule::Dynamic, true);
        assert_eq!(got, problem.solve_dense_masked());
        let runs: u64 = stats.iter().map(|s| s.runs_batched).sum();
        assert!(runs > 0, "banded tiles must still produce interior runs");
    }

    #[test]
    fn zero_width_band_is_the_diagonal() {
        let a = random_sequence(30, 41);
        let problem = BandedSw::new(&a, &a, 0);
        let (got, stats) = run_banded(&problem, 4, 1, 1, Schedule::Dynamic, false);
        assert_eq!(got, problem.solve_dense_masked());
        assert_eq!(got, 2 * a.len() as i64);
        let visited: u64 = stats.iter().map(|s| s.cells_computed).sum();
        assert_eq!(visited, a.len() as u64 + 1);
    }
}
