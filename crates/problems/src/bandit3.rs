//! The 3-arm Bernoulli bandit: 6-dimensional dynamic programming.
//!
//! The paper cites Oehmke, Hardwick & Stout (SC'00), who hand-optimised and
//! parallelised exactly this problem; the generator reproduces it from six
//! lines of description. State `⟨s1, f1, s2, f2, s3, f3⟩`, value = expected
//! total successes under optimal play, base case `V = s1 + s2 + s3` when
//! all `N` trials are spent.

use crate::posterior::Posterior;
use dpgen_core::spec::SpecTemplate;
use dpgen_core::{ProblemSpec, Program, ProgramError};
use dpgen_runtime::Kernel;
use dpgen_tiling::tiling::CellRef;
use std::fmt;

/// The 3-arm bandit with Beta priors.
#[derive(Debug, Clone, Copy)]
pub struct Bandit3 {
    /// Beta prior `(a, b)` per arm.
    pub priors: [(f64, f64); 3],
}

impl Default for Bandit3 {
    fn default() -> Bandit3 {
        Bandit3 {
            priors: [(1.0, 1.0); 3],
        }
    }
}

impl Bandit3 {
    /// The high-level problem description with the given tile width.
    pub fn spec(width: i64) -> ProblemSpec {
        let vars = ["s1", "f1", "s2", "f2", "s3", "f3"];
        let mut templates = Vec::new();
        for (j, _) in vars.iter().enumerate() {
            let mut offsets = vec![0i64; 6];
            offsets[j] = 1;
            templates.push(SpecTemplate {
                name: format!("r{}", j + 1),
                offsets,
            });
        }
        ProblemSpec {
            name: "bandit3".into(),
            vars: vars.iter().map(|s| s.to_string()).collect(),
            params: vec!["N".into()],
            constraints: vars
                .iter()
                .map(|v| format!("{v} >= 0"))
                .chain(std::iter::once(format!("{} <= N", vars.join(" + "))))
                .collect(),
            templates,
            order: vec![],
            load_balance: vec!["s1".into(), "f1".into()],
            widths: vec![width; 6],
            band: None,
            center_code: "if (!is_valid_r1) { V[loc] = (double)(s1 + s2 + s3); }\n\
                          else {\n\
                          double V1 = p1 * V[loc_r1] + (1 - p1) * V[loc_r2];\n\
                          double V2 = p2 * V[loc_r3] + (1 - p2) * V[loc_r4];\n\
                          double V3 = p3 * V[loc_r5] + (1 - p3) * V[loc_r6];\n\
                          V[loc] = DP_MAX(V1, DP_MAX(V2, V3));\n\
                          }"
            .into(),
            init_code: "const double p1 = (1.0 + s1) / (2.0 + s1 + f1);\n\
                        const double p2 = (1.0 + s2) / (2.0 + s2 + f2);\n\
                        const double p3 = (1.0 + s3) / (2.0 + s3 + f3);"
                .into(),
            defines: String::new(),
            value_type: "double".into(),
        }
    }

    /// Generate the program for the given tile width.
    pub fn program(width: i64) -> Result<Program, ProgramError> {
        Program::from_spec(Bandit3::spec(width))
    }

    /// Straightforward map-based solver for validation (small `N`).
    pub fn solve_dense(&self, n: i64) -> f64 {
        let mut v = std::collections::HashMap::new();
        for total in (0..=n).rev() {
            for s1 in 0..=total {
                for f1 in 0..=(total - s1) {
                    for s2 in 0..=(total - s1 - f1) {
                        for f2 in 0..=(total - s1 - f1 - s2) {
                            for s3 in 0..=(total - s1 - f1 - s2 - f2) {
                                let f3 = total - s1 - f1 - s2 - f2 - s3;
                                let key = (s1, f1, s2, f2, s3, f3);
                                if total == n {
                                    v.insert(key, (s1 + s2 + s3) as f64);
                                    continue;
                                }
                                let p = [
                                    Posterior::mean(self.priors[0], s1, f1),
                                    Posterior::mean(self.priors[1], s2, f2),
                                    Posterior::mean(self.priors[2], s3, f3),
                                ];
                                let v1 = p[0] * v[&(s1 + 1, f1, s2, f2, s3, f3)]
                                    + (1.0 - p[0]) * v[&(s1, f1 + 1, s2, f2, s3, f3)];
                                let v2 = p[1] * v[&(s1, f1, s2 + 1, f2, s3, f3)]
                                    + (1.0 - p[1]) * v[&(s1, f1, s2, f2 + 1, s3, f3)];
                                let v3 = p[2] * v[&(s1, f1, s2, f2, s3 + 1, f3)]
                                    + (1.0 - p[2]) * v[&(s1, f1, s2, f2, s3, f3 + 1)];
                                v.insert(key, v1.max(v2).max(v3));
                            }
                        }
                    }
                }
            }
        }
        v[&(0, 0, 0, 0, 0, 0)]
    }

    /// The kernel for this problem instance, with one posterior table per
    /// arm.
    pub fn kernel(&self) -> Bandit3Kernel {
        Bandit3Kernel {
            problem: *self,
            arms: self.priors.map(Posterior::new),
        }
    }
}

/// Center-loop kernel for the 3-arm bandit; reads each arm's posterior mean
/// from that arm's [`Posterior`] table.
#[derive(Clone)]
pub struct Bandit3Kernel {
    /// Problem definition (priors).
    pub problem: Bandit3,
    arms: [Posterior; 3],
}

impl fmt::Debug for Bandit3Kernel {
    /// The priors, not the tables.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Bandit3Kernel")
            .field("problem", &self.problem)
            .finish_non_exhaustive()
    }
}

impl Kernel<f64> for Bandit3Kernel {
    fn compute(&self, cell: CellRef<'_>, values: &mut [f64]) {
        if !cell.valid[0] {
            values[cell.loc] = (cell.x[0] + cell.x[2] + cell.x[4]) as f64;
            return;
        }
        let x = cell.x;
        let mut best = f64::NEG_INFINITY;
        for arm in 0..3 {
            let (s, f) = (x[2 * arm], x[2 * arm + 1]);
            let p = self.arms[arm].get(s, f);
            let v = p * values[cell.loc_r(2 * arm)] + (1.0 - p) * values[cell.loc_r(2 * arm + 1)];
            best = best.max(v);
        }
        values[cell.loc] = best;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::posterior::oracle::assert_same_bits_on_every_cell;
    use dpgen_core::ExecOpts;
    use dpgen_runtime::Probe;

    #[test]
    fn tiled_matches_dense_solver() {
        let problem = Bandit3::default();
        let program = Bandit3::program(2).unwrap();
        for n in [1i64, 3, 5] {
            let want = problem.solve_dense(n);
            let opts = ExecOpts::new().threads(2).probe(Probe::at(&[0; 6]));
            let res = program
                .compile(&[n])
                .execute(&problem.kernel(), &opts)
                .unwrap();
            let got = res.probes[0].unwrap();
            assert!((got - want).abs() < 1e-9, "N={n}: {got} vs {want}");
        }
    }

    /// The kernel as it was before its posterior tables: three divisions per
    /// cell.
    fn dividing(problem: Bandit3) -> impl Fn(CellRef<'_>, &mut [f64]) + Sync {
        move |cell: CellRef<'_>, values: &mut [f64]| {
            if !cell.valid[0] {
                values[cell.loc] = (cell.x[0] + cell.x[2] + cell.x[4]) as f64;
                return;
            }
            let x = cell.x;
            let mut best = f64::NEG_INFINITY;
            for arm in 0..3 {
                let (s, f) = (x[2 * arm], x[2 * arm + 1]);
                let (a, b) = problem.priors[arm];
                let p = (a + s as f64) / (a + b + (s + f) as f64);
                let v =
                    p * values[cell.loc_r(2 * arm)] + (1.0 - p) * values[cell.loc_r(2 * arm + 1)];
                best = best.max(v);
            }
            values[cell.loc] = best;
        }
    }

    #[test]
    fn the_table_kernel_has_the_dividing_kernels_bits_on_every_cell() {
        let problem = Bandit3 {
            priors: [(1.0, 1.0), (2.0, 3.0), (4.0, 1.0)],
        };
        assert_same_bits_on_every_cell(
            &Bandit3::program(2).unwrap(),
            &[1, 3, 6],
            &problem.kernel(),
            dividing(problem),
        );
    }

    #[test]
    fn debug_prints_the_priors_not_the_tables() {
        let shown = format!("{:?}", Bandit3::default().kernel());
        assert_eq!(
            shown,
            "Bandit3Kernel { problem: Bandit3 { priors: [(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)] }, .. }"
        );
    }

    #[test]
    fn three_arms_beat_two() {
        // More arms to explore can only help when priors are identical.
        let b3 = Bandit3::default().solve_dense(6);
        let b2 = crate::bandit2::Bandit2::default().solve_dense(6);
        assert!(b3 >= b2 - 1e-12, "3-arm {b3} vs 2-arm {b2}");
    }

    #[test]
    fn hybrid_matches_dense_solver() {
        let problem = Bandit3::default();
        let program = Bandit3::program(2).unwrap();
        let n = 4i64;
        let want = problem.solve_dense(n);
        let opts = ExecOpts::new()
            .threads(2)
            .ranks(2)
            .probe(Probe::at(&[0; 6]));
        let res = program
            .compile(&[n])
            .execute(&problem.kernel(), &opts)
            .unwrap();
        assert!((res.probes[0].unwrap() - want).abs() < 1e-9);
    }
}
