//! Exact lattice-point counting.
//!
//! Recursive descent over a synthesised loop nest ([`LoopNest::count`], the
//! same walk behind the tiling layer's per-tile and whole-space counts).
//! There is no counting polynomial: every consumer of work reads exact
//! counts, walked once per geometry class of tiles (`TileGraph::cells`).

use crate::bounds::LoopNest;
use crate::error::PolyError;
use crate::system::ConstraintSystem;

/// Count the integer points of `sys` for a concrete parameter assignment.
///
/// `point` is a full-space assignment whose parameter entries are read and
/// whose variable entries are scratch space. Variables are scanned in column
/// order (the count is order-independent).
pub fn count_points(sys: &ConstraintSystem, point: &mut [i128]) -> Result<u128, PolyError> {
    let ordering = sys.space().var_indices();
    let nest = LoopNest::synthesize(sys, &ordering)?;
    nest.count(point)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Space;

    fn simplex(d: usize) -> ConstraintSystem {
        let vars: Vec<String> = (0..d).map(|k| format!("x{k}")).collect();
        let refs: Vec<&str> = vars.iter().map(String::as_str).collect();
        let space = Space::from_names(&refs, &["N"]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        let sum = vars.join(" + ");
        sys.add_text(&format!("{sum} <= N")).unwrap();
        for v in &vars {
            sys.add_text(&format!("{v} >= 0")).unwrap();
        }
        sys
    }

    fn binom(n: i128, k: i128) -> u128 {
        let mut num = 1u128;
        let mut den = 1u128;
        for j in 0..k {
            num *= (n - j) as u128;
            den *= (j + 1) as u128;
        }
        num / den
    }

    #[test]
    fn simplex_counts_are_binomials() {
        for d in 1..=4usize {
            let sys = simplex(d);
            for n in [0i128, 1, 3, 7] {
                let mut point = vec![0i128; d + 1];
                point[d] = n;
                assert_eq!(
                    count_points(&sys, &mut point).unwrap(),
                    binom(n + d as i128, d as i128),
                    "d = {d}, N = {n}"
                );
            }
        }
    }
}
