//! The 2-arm Bernoulli bandit (Section II of the paper, Figure 1).
//!
//! State `⟨s1, f1, s2, f2⟩`: successes and failures observed on each arm so
//! far. `V(s1, f1, s2, f2)` is the expected total number of successes over
//! all `N` trials given those observations, under optimal play; the goal is
//! `V(0)`. With independent Beta(a_i, b_i) priors the posterior success
//! probability of arm `i` is `p_i = (a_i + s_i) / (a_i + b_i + s_i + f_i)`,
//! and
//!
//! ```text
//! V = max( p1·V(s1+1, f1, s2, f2) + (1-p1)·V(s1, f1+1, s2, f2),
//!          p2·V(s1, f1, s2+1, f2) + (1-p2)·V(s1, f1, s2, f2+1) )
//! ```
//!
//! with the base case `V = s1 + s2` once all `N` trials are spent (the
//! successes are then simply what was observed). This is the adaptive
//! clinical-trial model of the paper's introduction.

use crate::posterior::Posterior;
use dpgen_core::spec::SpecTemplate;
use dpgen_core::{ProblemSpec, Program, ProgramError};
use dpgen_runtime::Kernel;
use dpgen_tiling::tiling::CellRef;
use std::fmt;

/// The 2-arm bandit problem with Beta priors.
#[derive(Debug, Clone, Copy)]
pub struct Bandit2 {
    /// Beta prior `(a, b)` for arm 1.
    pub prior1: (f64, f64),
    /// Beta prior `(a, b)` for arm 2.
    pub prior2: (f64, f64),
}

impl Default for Bandit2 {
    fn default() -> Bandit2 {
        // Uniform priors, as in the paper's referenced bandit literature.
        Bandit2 {
            prior1: (1.0, 1.0),
            prior2: (1.0, 1.0),
        }
    }
}

impl Bandit2 {
    /// The high-level problem description with the given tile width.
    pub fn spec(width: i64) -> ProblemSpec {
        ProblemSpec {
            name: "bandit2".into(),
            vars: vec!["s1".into(), "f1".into(), "s2".into(), "f2".into()],
            params: vec!["N".into()],
            constraints: vec![
                "s1 >= 0".into(),
                "f1 >= 0".into(),
                "s2 >= 0".into(),
                "f2 >= 0".into(),
                "s1 + f1 + s2 + f2 <= N".into(),
            ],
            templates: vec![
                SpecTemplate {
                    name: "r1".into(),
                    offsets: vec![1, 0, 0, 0],
                },
                SpecTemplate {
                    name: "r2".into(),
                    offsets: vec![0, 1, 0, 0],
                },
                SpecTemplate {
                    name: "r3".into(),
                    offsets: vec![0, 0, 1, 0],
                },
                SpecTemplate {
                    name: "r4".into(),
                    offsets: vec![0, 0, 0, 1],
                },
            ],
            order: vec![],
            load_balance: vec!["s1".into(), "f1".into()],
            widths: vec![width; 4],
            band: None,
            center_code: "if (!is_valid_r1) { V[loc] = (double)(s1 + s2); }\n\
                          else {\n\
                          double V1 = p1 * V[loc_r1] + (1 - p1) * V[loc_r2];\n\
                          double V2 = p2 * V[loc_r3] + (1 - p2) * V[loc_r4];\n\
                          V[loc] = DP_MAX(V1, V2);\n\
                          }"
            .into(),
            init_code: "const double p1 = (a1 + s1) / (a1 + b1 + s1 + f1);\n\
                        const double p2 = (a2 + s2) / (a2 + b2 + s2 + f2);"
                .into(),
            defines: "static const double a1 = 1, b1 = 1, a2 = 1, b2 = 1;".into(),
            value_type: "double".into(),
        }
    }

    /// Generate the program for the given tile width.
    pub fn program(width: i64) -> Result<Program, ProgramError> {
        Program::from_spec(Bandit2::spec(width))
    }

    /// Straightforward in-memory solver (no tiling) for validation.
    /// Memory `O(N^4)`-ish via a map; use for small `N` only.
    pub fn solve_dense(&self, n: i64) -> f64 {
        let mut v = std::collections::HashMap::new();
        for total in (0..=n).rev() {
            // Enumerate all (s1, f1, s2, f2) with that total.
            for s1 in 0..=total {
                for f1 in 0..=(total - s1) {
                    for s2 in 0..=(total - s1 - f1) {
                        let f2 = total - s1 - f1 - s2;
                        let key = (s1, f1, s2, f2);
                        if total == n {
                            v.insert(key, (s1 + s2) as f64);
                            continue;
                        }
                        let p1 = Posterior::mean(self.prior1, s1, f1);
                        let p2 = Posterior::mean(self.prior2, s2, f2);
                        let v1 =
                            p1 * v[&(s1 + 1, f1, s2, f2)] + (1.0 - p1) * v[&(s1, f1 + 1, s2, f2)];
                        let v2 =
                            p2 * v[&(s1, f1, s2 + 1, f2)] + (1.0 - p2) * v[&(s1, f1, s2, f2 + 1)];
                        v.insert(key, v1.max(v2));
                    }
                }
            }
        }
        v[&(0, 0, 0, 0)]
    }
}

/// The center-loop kernel for the 2-arm bandit. It reads each arm's
/// posterior mean from that arm's [`Posterior`] table, built once by
/// [`Bandit2::kernel`], where the paper's init code divides per cell.
#[derive(Clone)]
pub struct Bandit2Kernel {
    /// Problem definition (priors).
    pub problem: Bandit2,
    arms: [Posterior; 2],
}

impl fmt::Debug for Bandit2Kernel {
    /// The priors, not the tables.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Bandit2Kernel")
            .field("problem", &self.problem)
            .finish_non_exhaustive()
    }
}

impl Kernel<f64> for Bandit2Kernel {
    fn compute(&self, cell: CellRef<'_>, values: &mut [f64]) {
        // All four templates move the trial total by +1, so either every
        // dependency is valid (trials remain) or none is (base case).
        if !cell.valid[0] {
            values[cell.loc] = (cell.x[0] + cell.x[2]) as f64;
            return;
        }
        let (s1, f1, s2, f2) = (cell.x[0], cell.x[1], cell.x[2], cell.x[3]);
        let p1 = self.arms[0].get(s1, f1);
        let p2 = self.arms[1].get(s2, f2);
        let v1 = p1 * values[cell.loc_r(0)] + (1.0 - p1) * values[cell.loc_r(1)];
        let v2 = p2 * values[cell.loc_r(2)] + (1.0 - p2) * values[cell.loc_r(3)];
        values[cell.loc] = v1.max(v2);
    }
}

impl Bandit2 {
    /// The kernel for this problem instance, with one posterior table per
    /// arm.
    pub fn kernel(&self) -> Bandit2Kernel {
        Bandit2Kernel {
            problem: *self,
            arms: [self.prior1, self.prior2].map(Posterior::new),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::assert_same_bits_on_every_cell;
    use dpgen_core::ExecOpts;
    use dpgen_runtime::Probe;

    #[test]
    fn tiled_matches_dense_solver() {
        let problem = Bandit2::default();
        let program = Bandit2::program(3).unwrap();
        for n in [1i64, 2, 5, 9] {
            let want = problem.solve_dense(n);
            let opts = ExecOpts::new().threads(2).probe(Probe::at(&[0, 0, 0, 0]));
            let res = program
                .compile(&[n])
                .execute(&problem.kernel(), &opts)
                .unwrap();
            let got = res.probes[0].unwrap();
            assert!((got - want).abs() < 1e-9, "N={n}: {got} vs {want}");
        }
    }

    #[test]
    fn hybrid_matches_dense_solver() {
        let problem = Bandit2::default();
        let program = Bandit2::program(2).unwrap();
        let n = 8i64;
        let want = problem.solve_dense(n);
        let opts = ExecOpts::new()
            .threads(2)
            .ranks(3)
            .probe(Probe::at(&[0, 0, 0, 0]));
        let res = program
            .compile(&[n])
            .execute(&problem.kernel(), &opts)
            .unwrap();
        assert!((res.probes[0].unwrap() - want).abs() < 1e-9);
    }

    /// The kernel as it was before its posterior tables: two divisions per
    /// cell.
    fn dividing(problem: Bandit2) -> impl Fn(CellRef<'_>, &mut [f64]) + Sync {
        move |cell: CellRef<'_>, values: &mut [f64]| {
            if !cell.valid[0] {
                values[cell.loc] = (cell.x[0] + cell.x[2]) as f64;
                return;
            }
            let (s1, f1, s2, f2) = (cell.x[0], cell.x[1], cell.x[2], cell.x[3]);
            let posterior =
                |(a, b): (f64, f64), s: i64, f: i64| (a + s as f64) / (a + b + (s + f) as f64);
            let p1 = posterior(problem.prior1, s1, f1);
            let p2 = posterior(problem.prior2, s2, f2);
            let v1 = p1 * values[cell.loc_r(0)] + (1.0 - p1) * values[cell.loc_r(1)];
            let v2 = p2 * values[cell.loc_r(2)] + (1.0 - p2) * values[cell.loc_r(3)];
            values[cell.loc] = v1.max(v2);
        }
    }

    #[test]
    fn the_table_kernel_has_the_dividing_kernels_bits_on_every_cell() {
        let program = Bandit2::program(3).unwrap();
        // The default priors, and two of the benchmark's integer priors.
        let asymmetric = Bandit2 {
            prior1: (3.0, 1.0),
            prior2: (2.0, 4.0),
        };
        for problem in [Bandit2::default(), asymmetric] {
            assert_same_bits_on_every_cell(
                &program,
                &[&[1], &[4], &[9], &[20]],
                &problem.kernel(),
                dividing(problem),
            );
        }
    }

    #[test]
    fn debug_prints_the_priors_not_the_tables() {
        let shown = format!("{:?}", Bandit2::default().kernel());
        assert_eq!(
            shown,
            "Bandit2Kernel { problem: Bandit2 { prior1: (1.0, 1.0), prior2: (1.0, 1.0) }, .. }"
        );
    }

    #[test]
    fn adaptive_play_beats_fixed_allocation() {
        // With uniform priors a non-adaptive policy earns N/2 in
        // expectation; the optimal adaptive policy must do strictly better
        // for N >= 2 (the clinical-trials motivation of Section I).
        let problem = Bandit2::default();
        for n in [2i64, 5, 10] {
            let v = problem.solve_dense(n);
            assert!(
                v > n as f64 / 2.0 + 1e-9,
                "N={n}: adaptive value {v} not above {}",
                n as f64 / 2.0
            );
            assert!(v < n as f64, "value can never exceed N");
        }
    }

    #[test]
    fn known_small_value() {
        // N = 1: single pull of either arm, E[successes] = 1/2.
        let problem = Bandit2::default();
        assert!((problem.solve_dense(1) - 0.5).abs() < 1e-12);
        // N = 2 optimal value (uniform priors): pull an arm; on success
        // (p=1/2, posterior 2/3) stay, on failure switch (fresh arm 1/2).
        // V = 1/2·(1 + 2/3) + 1/2·(1/2) = 13/12.
        assert!((problem.solve_dense(2) - 13.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn asymmetric_priors_prefer_better_arm() {
        // Arm 1 strongly favourable: value approaches N · E[p1].
        let problem = Bandit2 {
            prior1: (9.0, 1.0),
            prior2: (1.0, 1.0),
        };
        let n = 6i64;
        let v = problem.solve_dense(n);
        assert!(v >= n as f64 * 0.9 - 1.0, "v = {v}");
        let program = Bandit2::program(4).unwrap();
        let opts = ExecOpts::new().threads(2).probe(Probe::at(&[0, 0, 0, 0]));
        let res = program
            .compile(&[n])
            .execute(&problem.kernel(), &opts)
            .unwrap();
        assert!((res.probes[0].unwrap() - v).abs() < 1e-9);
    }
}
