//! Initial tile generation (Section IV-K of the paper).
//!
//! The first tiles to execute are those whose dependencies are *all*
//! unsatisfiable — tiles on the faces, edges or corners of the tile space
//! from which the computation starts. The paper finds them by creating, for
//! every way the dependencies can fall outside the space, a new constraint
//! system in which the offending inequalities are forced violated, and
//! scanning each such system at run time.
//!
//! [`initial_tiles_systems`] implements exactly that, and nothing outside
//! this module calls it: the set a run actually starts from is read off the
//! plan's [`TileGraph`] (the tiles with `dep_total == 0`, which every rank
//! filters by ownership), and the paper's "under 0.5% of total run time" is
//! reproduced by `figures e9` from the graph's derivation time plus
//! `RunStats::init_time`. The module is the executable statement of the
//! paper's construction, and the oracle the tests here hold the graph's
//! initial set to.

use dpgen_polyhedra::{Constraint, LinExpr, LoopNest, PolyError};
use dpgen_tiling::{Coord, TileGraph};
use std::collections::BTreeSet;

/// The graph's own initial set, as coordinates in tile-nest order.
fn graph_initial(graph: &TileGraph) -> Vec<Coord> {
    graph.initial().map(|i| graph.coord(i)).collect()
}

/// Find all initial tiles with the paper's face/edge/corner systems: for
/// each combination assigning every dependency one violated constraint,
/// build the restricted system and scan it.
///
/// Exact (neither over- nor under-approximate) relative to the tile-space
/// membership the rest of the runtime uses. Sorted, except where the
/// construction degenerates (no dependencies, or more combinations than a
/// scan would cost) and the graph's own set is returned as it stands.
pub fn initial_tiles_systems(graph: &TileGraph) -> Result<Vec<Coord>, PolyError> {
    let (tiling, params) = (graph.tiling(), graph.params());
    let tile_sys = tiling.tile_system();
    let t_cols = tiling.t_cols();
    let d = tiling.dims();
    let deps = tiling.deps();
    if deps.is_empty() {
        // No dependencies at all: every tile is initial.
        return Ok(graph_initial(graph));
    }

    // For each dependency δ, the tile-space constraints that moving by δ
    // can violate (coefficient dot δ < 0) — the same pruning the validity
    // functions use (Section IV-G).
    let mut candidates: Vec<Vec<&Constraint>> = Vec::with_capacity(deps.len());
    for dep in deps {
        let mut cs = Vec::new();
        for c in tile_sys.constraints() {
            let shift: i128 = (0..d)
                .map(|k| c.expr().coeff(t_cols[k]) * dep.delta[k] as i128)
                .sum();
            if shift < 0 {
                cs.push(c);
            }
        }
        if cs.is_empty() {
            // This dependency can never be unsatisfied: no tile is initial.
            return Ok(Vec::new());
        }
        candidates.push(cs);
    }

    let combos: usize = candidates.iter().map(Vec::len).product();
    if combos > 100_000 {
        // Degenerate case (many violable constraints per dependency): the
        // combination enumeration would be slower than simply scanning.
        return Ok(graph_initial(graph));
    }

    let dim = tile_sys.space().dim();
    let t_order: Vec<usize> = tiling.loop_order().iter().map(|&k| t_cols[k]).collect();
    let mut found: BTreeSet<Coord> = BTreeSet::new();
    let mut choice = vec![0usize; deps.len()];
    loop {
        // Build: tile space ∧ for each dep, chosen constraint violated at t+δ.
        let mut sys = tile_sys.clone();
        for (j, dep) in deps.iter().enumerate() {
            let c = candidates[j][choice[j]];
            // c(t + δ) <= -1  ⇔  -c(t+δ) - 1 >= 0, where c(t+δ) is c with
            // the constant shifted by coeffs·δ.
            let shift: i128 = (0..d)
                .map(|k| c.expr().coeff(t_cols[k]) * dep.delta[k] as i128)
                .sum();
            let mut shifted = c.expr().clone();
            shifted.set_constant(shifted.constant_term() + shift);
            let violated = shifted.neg()?.checked_sub(&LinExpr::constant(dim, 1))?;
            sys.add(Constraint::ge0(violated))?;
        }
        sys.simplify();
        if !sys.is_trivially_infeasible() {
            let nest = LoopNest::synthesize_with_free(&sys, &t_order)?;
            let mut point = tiling.make_point(params);
            nest.for_each_point(&mut point, |p| {
                let mut c = Coord::zeros(d);
                for k in 0..d {
                    c.set(k, p[t_cols[k]] as i64);
                }
                found.insert(c);
            })?;
        }
        // Odometer over the choices.
        let mut k = deps.len();
        loop {
            if k == 0 {
                return Ok(found.into_iter().collect());
            }
            k -= 1;
            choice[k] += 1;
            if choice[k] < candidates[k].len() {
                break;
            }
            choice[k] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpgen_polyhedra::{ConstraintSystem, Space};
    use dpgen_tiling::{Template, TemplateSet, Tiling, TilingBuilder};

    fn tiling_of(constraints: &[&str], templates: Vec<Template>, w: i64) -> Tiling {
        let space = Space::from_names(&["x", "y"], &["N"]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        for c in constraints {
            sys.add_text(c).unwrap();
        }
        let set = TemplateSet::new(2, templates).unwrap();
        TilingBuilder::new(sys, set, vec![w, w]).build().unwrap()
    }

    fn triangle(w: i64) -> Tiling {
        tiling_of(
            &["x >= 0", "y >= 0", "x + y <= N"],
            vec![Template::new("r1", &[1, 0]), Template::new("r2", &[0, 1])],
            w,
        )
    }

    fn grid(w: i64) -> Tiling {
        tiling_of(
            &["0 <= x <= N", "0 <= y <= N"],
            vec![Template::new("r1", &[1, 0]), Template::new("r2", &[0, 1])],
            w,
        )
    }

    /// The set a run starts from, sorted as the systems' answer is.
    fn started_from(graph: &TileGraph) -> Vec<Coord> {
        let mut initial = graph_initial(graph);
        initial.sort();
        initial
    }

    #[test]
    fn grid_initial_is_far_corner() {
        // Positive templates: computation starts at the high corner.
        let graph = grid(4).graph(&[15]); // tiles 0..=3 each dim
        assert_eq!(started_from(&graph), vec![Coord::from_slice(&[3, 3])]);
        assert_eq!(initial_tiles_systems(&graph).unwrap(), started_from(&graph));
    }

    #[test]
    #[allow(clippy::disallowed_methods, reason = "oracle")]
    fn triangle_initial_is_hypotenuse() {
        // Tiles along the diagonal boundary have no valid neighbours.
        let tiling = triangle(4);
        let n = 15i64;
        let graph = tiling.graph(&[n]);
        let initial = started_from(&graph);
        assert_eq!(initial_tiles_systems(&graph).unwrap(), initial);
        assert!(!initial.is_empty());
        // All initial tiles lie on the anti-diagonal frontier of tile space.
        let mut point = tiling.make_point(&[n]);
        for t in &initial {
            assert!(tiling.tile_in_space(t, &mut point));
            assert_eq!(tiling.dep_total(t, &mut point), 0);
        }
    }

    #[test]
    fn methods_agree_across_sizes_and_widths() {
        for (n, w) in [(7i64, 2i64), (12, 3), (9, 5), (20, 4)] {
            let graph = triangle(w).graph(&[n]);
            assert_eq!(
                initial_tiles_systems(&graph).unwrap(),
                started_from(&graph),
                "N={n} w={w}"
            );
        }
    }

    #[test]
    fn negative_templates_start_at_origin() {
        let tiling = tiling_of(
            &["0 <= x <= N", "0 <= y <= N"],
            vec![
                Template::new("up", &[-1, 0]),
                Template::new("left", &[0, -1]),
                Template::new("diag", &[-1, -1]),
            ],
            4,
        );
        let graph = tiling.graph(&[15]);
        assert_eq!(started_from(&graph), vec![Coord::from_slice(&[0, 0])]);
        assert_eq!(initial_tiles_systems(&graph).unwrap(), started_from(&graph));
    }

    #[test]
    fn no_templates_means_all_tiles_initial() {
        let tiling = tiling_of(&["0 <= x <= N", "0 <= y <= N"], vec![], 4);
        let graph = tiling.graph(&[7]);
        assert_eq!(graph.initial().count(), 4); // 2x2 tiles
        assert_eq!(initial_tiles_systems(&graph).unwrap().len(), 4);
    }
}
