//! The 2-arm bandit with delayed responses: 6-dimensional, with
//! cross-dimension iteration-space constraints (Section VI of the paper).
//!
//! The paper's delayed variant tracks, per arm, how many pulls have been
//! made (`u_i`) in addition to the observed successes and failures; the
//! iteration space couples the dimensions — "incrementing the result
//! dimensions requires that the arm-pulled dimension already have been
//! incremented" — i.e. `s_i + f_i <= u_i`.
//!
//! Our concrete model: state `⟨u1, s1, f1, u2, s2, f2⟩` with constraints
//! `u1 + u2 <= N` and `s_i + f_i <= u_i`. A decision pulls an arm and
//! immediately resolves one outstanding outcome, so the dependence
//! templates have *two* nonzero components — `⟨1,1,0,…⟩` and `⟨1,0,1,…⟩`
//! per arm — which exercises multi-tile dependencies (a single template
//! crossing up to three neighbouring tiles, Section IV-F). At the horizon
//! the pending pulls `u_i - s_i - f_i` pay their posterior mean.

use crate::posterior::Posterior;
use dpgen_core::spec::SpecTemplate;
use dpgen_core::{ProblemSpec, Program, ProgramError};
use dpgen_runtime::Kernel;
use dpgen_tiling::tiling::CellRef;
use std::fmt;

/// The delayed 2-arm bandit.
#[derive(Debug, Clone, Copy)]
pub struct BanditDelay {
    /// Beta prior `(a, b)` per arm.
    pub priors: [(f64, f64); 2],
}

impl Default for BanditDelay {
    fn default() -> BanditDelay {
        BanditDelay {
            priors: [(1.0, 1.0); 2],
        }
    }
}

impl BanditDelay {
    /// The high-level problem description with the given tile width.
    pub fn spec(width: i64) -> ProblemSpec {
        ProblemSpec {
            name: "bandit_delay".into(),
            vars: vec![
                "u1".into(),
                "s1".into(),
                "f1".into(),
                "u2".into(),
                "s2".into(),
                "f2".into(),
            ],
            params: vec!["N".into()],
            constraints: vec![
                "u1 >= 0".into(),
                "s1 >= 0".into(),
                "f1 >= 0".into(),
                "u2 >= 0".into(),
                "s2 >= 0".into(),
                "f2 >= 0".into(),
                "s1 + f1 <= u1".into(),
                "s2 + f2 <= u2".into(),
                "u1 + u2 <= N".into(),
            ],
            templates: vec![
                SpecTemplate {
                    name: "r1s".into(),
                    offsets: vec![1, 1, 0, 0, 0, 0],
                },
                SpecTemplate {
                    name: "r1f".into(),
                    offsets: vec![1, 0, 1, 0, 0, 0],
                },
                SpecTemplate {
                    name: "r2s".into(),
                    offsets: vec![0, 0, 0, 1, 1, 0],
                },
                SpecTemplate {
                    name: "r2f".into(),
                    offsets: vec![0, 0, 0, 1, 0, 1],
                },
            ],
            order: vec![],
            load_balance: vec!["u1".into(), "s1".into()],
            widths: vec![width; 6],
            band: None,
            // Every template advances u1 + u2: at the horizon none is
            // valid (pending pulls pay their posterior mean), elsewhere all.
            center_code: "if (!(is_valid_r1s || is_valid_r2s)) {\n\
                          V[loc] = (double)(s1 + s2) + (u1 - s1 - f1) * p1 + (u2 - s2 - f2) * p2;\n\
                          } else {\n\
                          double V1 = p1 * V[loc_r1s] + (1 - p1) * V[loc_r1f];\n\
                          double V2 = p2 * V[loc_r2s] + (1 - p2) * V[loc_r2f];\n\
                          V[loc] = DP_MAX(V1, V2);\n\
                          }"
            .into(),
            init_code: "const double p1 = (1.0 + s1) / (2.0 + s1 + f1);\n\
                        const double p2 = (1.0 + s2) / (2.0 + s2 + f2);"
                .into(),
            defines: String::new(),
            value_type: "double".into(),
        }
    }

    /// Generate the program for the given tile width.
    pub fn program(width: i64) -> Result<Program, ProgramError> {
        Program::from_spec(BanditDelay::spec(width))
    }

    /// The value at the horizon, given the arms' posterior means `p1`, `p2`
    /// at `x`: observed successes plus posterior-mean credit for pending
    /// pulls.
    fn terminal(x: &[i64], p1: f64, p2: f64) -> f64 {
        let pend1 = (x[0] - x[1] - x[2]) as f64;
        let pend2 = (x[3] - x[4] - x[5]) as f64;
        (x[1] + x[4]) as f64 + pend1 * p1 + pend2 * p2
    }

    /// Straightforward map-based solver for validation (small `N`).
    pub fn solve_dense(&self, n: i64) -> f64 {
        let mut v = std::collections::HashMap::new();
        // Iterate u1 + u2 descending, then (s, f) descending within.
        let mut states: Vec<[i64; 6]> = Vec::new();
        for u1 in 0..=n {
            for u2 in 0..=(n - u1) {
                for s1 in 0..=u1 {
                    for f1 in 0..=(u1 - s1) {
                        for s2 in 0..=u2 {
                            for f2 in 0..=(u2 - s2) {
                                states.push([u1, s1, f1, u2, s2, f2]);
                            }
                        }
                    }
                }
            }
        }
        // Dependency order: sort by descending component sum (every
        // template increases the sum by 2).
        states.sort_by_key(|x| -(x.iter().sum::<i64>()));
        for x in states {
            let [u1, s1, f1, u2, s2, f2] = x;
            let p1 = Posterior::mean(self.priors[0], s1, f1);
            let p2 = Posterior::mean(self.priors[1], s2, f2);
            if u1 + u2 == n {
                v.insert(x, BanditDelay::terminal(&x, p1, p2));
                continue;
            }
            let v1 = p1 * v[&[u1 + 1, s1 + 1, f1, u2, s2, f2]]
                + (1.0 - p1) * v[&[u1 + 1, s1, f1 + 1, u2, s2, f2]];
            let v2 = p2 * v[&[u1, s1, f1, u2 + 1, s2 + 1, f2]]
                + (1.0 - p2) * v[&[u1, s1, f1, u2 + 1, s2, f2 + 1]];
            v.insert(x, v1.max(v2));
        }
        v[&[0, 0, 0, 0, 0, 0]]
    }

    /// The kernel for this problem instance, with one posterior table per
    /// arm.
    pub fn kernel(&self) -> BanditDelayKernel {
        BanditDelayKernel {
            problem: *self,
            arms: self.priors.map(Posterior::new),
        }
    }
}

/// Center-loop kernel for the delayed bandit; reads each arm's posterior
/// mean, in the recurrence and in the horizon's pending-pull credit, from
/// that arm's [`Posterior`] table.
#[derive(Clone)]
pub struct BanditDelayKernel {
    /// Problem definition (priors).
    pub problem: BanditDelay,
    arms: [Posterior; 2],
}

impl fmt::Debug for BanditDelayKernel {
    /// The priors, not the tables.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BanditDelayKernel")
            .field("problem", &self.problem)
            .finish_non_exhaustive()
    }
}

impl Kernel<f64> for BanditDelayKernel {
    fn compute(&self, cell: CellRef<'_>, values: &mut [f64]) {
        let x = cell.x;
        let p1 = self.arms[0].get(x[1], x[2]);
        let p2 = self.arms[1].get(x[4], x[5]);
        // All templates increment u1 + u2; at the horizon none is valid.
        if !(cell.valid[0] || cell.valid[2]) {
            values[cell.loc] = BanditDelay::terminal(x, p1, p2);
            return;
        }
        let mut best = f64::NEG_INFINITY;
        if cell.valid[0] {
            debug_assert!(cell.valid[1], "r1s and r1f share validity");
            best = best.max(p1 * values[cell.loc_r(0)] + (1.0 - p1) * values[cell.loc_r(1)]);
        }
        if cell.valid[2] {
            debug_assert!(cell.valid[3]);
            best = best.max(p2 * values[cell.loc_r(2)] + (1.0 - p2) * values[cell.loc_r(3)]);
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
    fn spec_builds_with_multi_tile_deps() {
        let program = BanditDelay::program(2).unwrap();
        // Template ⟨1,1,0,...⟩ with width 2 crosses into up to 3 tiles, so
        // there are more tile dependencies than templates.
        assert!(program.tiling().deps().len() > 4);
    }

    #[test]
    fn tiled_matches_dense_solver() {
        let problem = BanditDelay::default();
        let program = BanditDelay::program(2).unwrap();
        for n in [1i64, 2, 4] {
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

    /// The kernel as it was before its posterior tables: two divisions per
    /// cell, in the recurrence or in the horizon's pending-pull credit.
    fn dividing(problem: BanditDelay) -> impl Fn(CellRef<'_>, &mut [f64]) + Sync {
        move |cell: CellRef<'_>, values: &mut [f64]| {
            let posterior =
                |(a, b): (f64, f64), s: i64, f: i64| (a + s as f64) / (a + b + (s + f) as f64);
            let x = cell.x;
            let p1 = posterior(problem.priors[0], x[1], x[2]);
            let p2 = posterior(problem.priors[1], x[4], x[5]);
            if !(cell.valid[0] || cell.valid[2]) {
                let pend1 = (x[0] - x[1] - x[2]) as f64;
                let pend2 = (x[3] - x[4] - x[5]) as f64;
                values[cell.loc] = (x[1] + x[4]) as f64 + pend1 * p1 + pend2 * p2;
                return;
            }
            let mut best = f64::NEG_INFINITY;
            if cell.valid[0] {
                best = best.max(p1 * values[cell.loc_r(0)] + (1.0 - p1) * values[cell.loc_r(1)]);
            }
            if cell.valid[2] {
                best = best.max(p2 * values[cell.loc_r(2)] + (1.0 - p2) * values[cell.loc_r(3)]);
            }
            values[cell.loc] = best;
        }
    }

    #[test]
    fn the_table_kernel_has_the_dividing_kernels_bits_on_every_cell() {
        let problem = BanditDelay {
            priors: [(3.0, 2.0), (1.0, 4.0)],
        };
        assert_same_bits_on_every_cell(
            &BanditDelay::program(2).unwrap(),
            &[1, 2, 5],
            &problem.kernel(),
            dividing(problem),
        );
    }

    #[test]
    fn debug_prints_the_priors_not_the_tables() {
        let shown = format!("{:?}", BanditDelay::default().kernel());
        assert_eq!(
            shown,
            "BanditDelayKernel { problem: BanditDelay { priors: [(1.0, 1.0), (1.0, 1.0)] }, .. }"
        );
    }

    #[test]
    fn immediate_resolution_equals_undelayed_bandit() {
        // When every pull's outcome resolves immediately (our model), the
        // value function matches the classic 2-arm bandit.
        let delayed = BanditDelay::default();
        let classic = crate::bandit2::Bandit2::default();
        for n in [2i64, 4, 6] {
            let a = delayed.solve_dense(n);
            let b = classic.solve_dense(n);
            assert!((a - b).abs() < 1e-9, "N={n}: {a} vs {b}");
        }
    }

    #[test]
    fn validity_pairs_are_consistent() {
        // r1s valid iff r1f valid (both move u1 and one result dim).
        let program = BanditDelay::program(2).unwrap();
        let tiling = program.tiling();
        let mut point = tiling.make_point(&[4]);
        let mut tiles = Vec::new();
        tiling.for_each_tile(&mut point, |t| tiles.push(t));
        for t in tiles {
            let mut p = tiling.make_point(&[4]);
            tiling
                .scan_tile(&t, &mut p, |cell| {
                    assert_eq!(cell.valid[0], cell.valid[1], "at {:?}", cell.x);
                    assert_eq!(cell.valid[2], cell.valid[3], "at {:?}", cell.x);
                })
                .unwrap();
        }
    }
}
