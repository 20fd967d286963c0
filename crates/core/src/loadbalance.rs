//! Load balancing (Section IV-J and the future-work Figure 8).
//!
//! The paper's method divides the total work evenly between nodes along the
//! user-selected dimensions `lb1, lb2, …, lbj`: the highest-priority
//! dimension makes the coarse cut and lesser-priority dimensions refine it.
//! The paper evaluates the work per slab from two Ehrhart polynomials
//! computed with Barvinok; here the work of a tile is its exact lattice
//! count, walked once per geometry class of tiles rather than once per tile:
//! the balancer reads [`TileGraph::cells`], which gives every tile of a
//! class the count of the first.
//!
//! The future-work *hyperplane* method (Figure 8) instead orders tiles by a
//! wavefront level and cuts that order into equal-work bands, which shortens
//! the critical path on wedge-shaped spaces.

use dpgen_runtime::TileOwner;
use dpgen_tiling::{Coord, TileGraph, Tiling};
use std::collections::HashMap;
use std::sync::Arc;

/// Whether the slabs along `lb_dim` are *uniform*: every slab (the set of
/// tiles sharing one index of that tile dimension) carries exactly the
/// same work at these parameter values, summed from the graph's exact
/// per-class cell counts. Zero or one slab is trivially uniform.
///
/// Nothing in the library reads this verdict: `Schedule::Static` applies
/// on any polytope. It stays only because the `benchmark/` package times
/// it (`core.uniform_ms`).
#[doc(hidden)]
pub fn slabs_uniform(tiling: &Tiling, params: &[i64], lb_dim: usize) -> bool {
    assert!(lb_dim < tiling.dims(), "lb_dim {lb_dim} out of range");
    let graph = tiling.graph(params);
    let mut works: HashMap<i64, u128> = HashMap::new();
    for (i, t) in graph.tiles().iter().enumerate() {
        *works.entry(t[lb_dim]).or_insert(0) += graph.cells(i);
    }
    let mut vals = works.values();
    match vals.next() {
        None => true,
        Some(first) => vals.all(|w| w == first),
    }
}

/// Which partitioning strategy to use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BalanceMethod {
    /// The paper's slab method over the given load-balancing dimensions
    /// (highest priority first). Tiles are ordered lexicographically along
    /// those dimensions (flow-adjusted) and cut into equal-work contiguous
    /// runs; dimensions beyond `lb1` refine the cut inside boundary slabs.
    Slabs {
        /// Load-balancing dimensions, highest priority first (`lb1..lbj`).
        lb_dims: Vec<usize>,
    },
    /// The Figure 8 hyperplane method: order tiles by wavefront level
    /// (flow-adjusted coordinate sum) and cut into equal-work bands.
    Hyperplane,
}

/// A computed tile → rank assignment: one rank per tile of the graph it
/// was computed on, by the graph's tile index. It is its own [`TileOwner`].
#[derive(Debug, Clone)]
pub struct LoadBalance {
    graph: Arc<TileGraph>,
    /// Per tile of `graph`, the rank that owns it.
    owners: Vec<u16>,
    ranks: usize,
    /// Work (cell count) assigned to each rank.
    pub rank_work: Vec<u128>,
    /// Tiles assigned to each rank.
    pub rank_tiles: Vec<usize>,
}

/// The owner type of [`LoadBalance::into_owner`].
pub type MapOwner = LoadBalance;

impl LoadBalance {
    /// Partition the problem's tiles over `ranks` ranks.
    pub fn compute(
        tiling: &Tiling,
        params: &[i64],
        ranks: usize,
        method: &BalanceMethod,
    ) -> LoadBalance {
        LoadBalance::compute_on(&Arc::new(tiling.graph(params)), ranks, method)
    }

    /// [`LoadBalance::compute`] on a tile graph already derived (a
    /// [`crate::Plan`]'s, or one a sweep shares between its partitions and
    /// simulations). At most 65 536 ranks.
    pub fn compute_on(graph: &Arc<TileGraph>, ranks: usize, method: &BalanceMethod) -> LoadBalance {
        assert!((1..=1 << 16).contains(&ranks), "{ranks} ranks");
        // Work per tile = exact cell count (where the paper evaluates its
        // per-slab Ehrhart polynomial), walked once per tile class.
        let tiles = graph.tiles();
        // Tiles in the method's order, so that equal-work cuts become
        // contiguous runs, and blocks: the smallest unit a cut may separate.
        // The paper's slab method may only cut where the selected
        // dimensions' indices change (lb1 makes the coarse cut, lesser
        // dimensions refine it inside a slab) — with too few dimensions the
        // blocks are coarse and the balance degrades, which is exactly the
        // Figure 2 observation. The hyperplane method cuts between
        // individual tiles of the level order.
        let (ordering, lb_dims) = match method {
            BalanceMethod::Slabs { lb_dims } => {
                assert!(!lb_dims.is_empty(), "slab balancing needs >= 1 dimension");
                (graph.ordering(false, lb_dims), lb_dims.as_slice())
            }
            BalanceMethod::Hyperplane => (graph.ordering(true, &[]), &[][..]),
        };
        let order = &ordering.order;
        let same_block = |a: u32, b: u32| {
            let (a, b) = (&tiles[a as usize], &tiles[b as usize]);
            !lb_dims.is_empty() && lb_dims.iter().all(|&k| a[k] == b[k])
        };

        // Group consecutive tiles of one block, then cut the block sequence
        // into equal-work contiguous runs (midpoint rule).
        let total: u128 = (0..tiles.len()).map(|i| graph.cells(i)).sum();
        let mut owners = vec![0u16; tiles.len()];
        let mut rank_work = vec![0u128; ranks];
        let mut rank_tiles = vec![0usize; ranks];
        let mut cum: u128 = 0;
        let mut i = 0usize;
        while i < order.len() {
            let mut j = i + 1;
            while j < order.len() && same_block(order[i], order[j]) {
                j += 1;
            }
            let block_work: u128 = order[i..j].iter().map(|&t| graph.cells(t as usize)).sum();
            let mid = cum + block_work / 2;
            let rank = (mid * ranks as u128)
                .checked_div(total)
                .map_or(0, |r| (r as usize).min(ranks - 1));
            for &t in &order[i..j] {
                owners[t as usize] = rank as u16;
            }
            rank_work[rank] += block_work;
            rank_tiles[rank] += j - i;
            cum += block_work;
            i = j;
        }
        LoadBalance {
            graph: graph.clone(),
            owners,
            ranks,
            rank_work,
            rank_tiles,
        }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// The tile graph the balance was computed on: its owners are per tile
    /// of this graph.
    pub fn graph(&self) -> &Arc<TileGraph> {
        &self.graph
    }

    /// The rank owning `tile` (panics for a tile outside the graph the
    /// balance was computed on).
    pub fn owner(&self, tile: &Coord) -> usize {
        match self.graph.index_of(tile) {
            Some(idx) => self.owners[idx] as usize,
            None => panic!("tile {tile} has no assigned owner"),
        }
    }

    /// Imbalance = max rank work / mean rank work (1.0 is perfect).
    pub fn imbalance(&self) -> f64 {
        let max = *self.rank_work.iter().max().unwrap_or(&0);
        let total: u128 = self.rank_work.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / self.ranks as f64;
        max as f64 / mean
    }

    /// The balance as the [`TileOwner`] of a run or a simulation — which it
    /// already is; kept for callers that name the owner's type.
    pub fn into_owner(self) -> MapOwner {
        self
    }
}

impl TileOwner for LoadBalance {
    /// An array read when `idx` is the tile's index in the balance's own
    /// graph (or in one derived from the same tiling and binding); a lookup
    /// by coordinate for a caller on any other graph.
    fn owner_at(&self, idx: usize, tile: &Coord) -> usize {
        if self.graph.tiles().get(idx) == Some(tile) {
            self.owners[idx] as usize
        } else {
            self.owner(tile)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpgen_polyhedra::{ConstraintSystem, Space};
    use dpgen_tiling::{Template, TemplateSet, TilingBuilder};

    fn grid(n: &str, w: i64) -> Tiling {
        let space = Space::from_names(&["x", "y"], &[n]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        sys.add_text(&format!("0 <= x <= {n}")).unwrap();
        sys.add_text(&format!("0 <= y <= {n}")).unwrap();
        let templates = TemplateSet::new(
            2,
            vec![Template::new("r1", &[1, 0]), Template::new("r2", &[0, 1])],
        )
        .unwrap();
        TilingBuilder::new(sys, templates, vec![w, w])
            .build()
            .unwrap()
    }

    fn triangle(w: i64) -> Tiling {
        let space = Space::from_names(&["x", "y"], &["N"]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        sys.add_text("x >= 0").unwrap();
        sys.add_text("y >= 0").unwrap();
        sys.add_text("x + y <= N").unwrap();
        let templates = TemplateSet::new(
            2,
            vec![Template::new("r1", &[1, 0]), Template::new("r2", &[0, 1])],
        )
        .unwrap();
        TilingBuilder::new(sys, templates, vec![w, w])
            .build()
            .unwrap()
    }

    /// The `N + 1` square restricted to the diagonal band `|x - y| <= b`.
    fn banded_grid(w: i64, b: i64) -> Tiling {
        let space = Space::from_names(&["x", "y"], &["N"]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        sys.add_text("0 <= x <= N").unwrap();
        sys.add_text("0 <= y <= N").unwrap();
        let templates = TemplateSet::new(
            2,
            vec![Template::new("r1", &[1, 0]), Template::new("r2", &[0, 1])],
        )
        .unwrap();
        TilingBuilder::new(sys, templates, vec![w, w])
            .band(0, 1, -b, b)
            .build()
            .unwrap()
    }

    #[test]
    fn grid_slabs_balance_perfectly() {
        // 16x16 cells, 4x4 tiles, 4 ranks along x: each rank gets one slab
        // of 4 tile-columns = 64 cells.
        let tiling = grid("N", 4);
        let lb = LoadBalance::compute(
            &tiling,
            &[15],
            4,
            &BalanceMethod::Slabs { lb_dims: vec![0] },
        );
        assert_eq!(lb.rank_work, vec![64, 64, 64, 64]);
        assert_eq!(lb.rank_tiles, vec![4, 4, 4, 4]);
        assert!((lb.imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn every_tile_has_an_owner() {
        // Every rank's work and tile count, recounted tile by tile from the
        // tiling (not the graph's per-class counts) over the tiles it owns.
        let methods = [
            BalanceMethod::Slabs { lb_dims: vec![0] },
            BalanceMethod::Slabs {
                lb_dims: vec![0, 1],
            },
            BalanceMethod::Hyperplane,
        ];
        for (tiling, n) in [(triangle(3), 20), (banded_grid(3, 4), 23)] {
            let mut point = tiling.make_point(&[n]);
            let mut tiles = Vec::new();
            tiling.for_each_tile(&mut point, |t| tiles.push(t));
            for method in &methods {
                let lb = LoadBalance::compute(&tiling, &[n], 3, method);
                let mut work = vec![0u128; 3];
                let mut count = vec![0usize; 3];
                for t in &tiles {
                    let r = lb.owner(t);
                    work[r] += tiling.tile_cell_count(t, &mut point);
                    count[r] += 1;
                }
                assert_eq!(lb.rank_work, work, "{method:?}");
                assert_eq!(lb.rank_tiles, count, "{method:?}");
                assert_eq!(work.iter().sum::<u128>(), tiling.total_cells(&[n]));
            }
        }
    }

    #[test]
    fn triangle_two_dims_beat_one_dim() {
        // Section IV-J / Figure 2: refining with a second dimension gives
        // better balance on non-rectangular spaces.
        let tiling = triangle(2);
        let n = 40i64;
        let one =
            LoadBalance::compute(&tiling, &[n], 3, &BalanceMethod::Slabs { lb_dims: vec![0] });
        let two = LoadBalance::compute(
            &tiling,
            &[n],
            3,
            &BalanceMethod::Slabs {
                lb_dims: vec![0, 1],
            },
        );
        assert!(
            two.imbalance() <= one.imbalance() + 1e-9,
            "2-dim {} vs 1-dim {}",
            two.imbalance(),
            one.imbalance()
        );
        assert!(two.imbalance() < 1.1, "refined balance should be near 1.0");
    }

    #[test]
    fn hyperplane_produces_balanced_bands() {
        let tiling = triangle(2);
        let lb = LoadBalance::compute(&tiling, &[40], 4, &BalanceMethod::Hyperplane);
        assert!(lb.imbalance() < 1.15, "imbalance {}", lb.imbalance());
        assert_eq!(lb.ranks(), 4);
    }

    #[test]
    fn single_rank_owns_everything() {
        let tiling = triangle(3);
        let lb = LoadBalance::compute(
            &tiling,
            &[12],
            1,
            &BalanceMethod::Slabs { lb_dims: vec![0] },
        );
        assert_eq!(lb.rank_work.len(), 1);
        assert!((lb.imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_slabs_detected_on_exact_grids() {
        // 16x16 cells in 4x4 tiles: every x-slab is 4 tile-columns of 64
        // cells, along either dimension.
        let tiling = grid("N", 4);
        assert!(slabs_uniform(&tiling, &[15], 0));
        assert!(slabs_uniform(&tiling, &[15], 1));
    }

    #[test]
    fn single_slab_is_trivially_uniform() {
        // The whole space fits in one tile along x: exactly one slab, which
        // is uniform by definition even though the space is a triangle.
        let tiling = triangle(30);
        assert!(slabs_uniform(&tiling, &[20], 0));
        // ... but big enough to span several slabs, the triangle's slab
        // works shrink toward the hypotenuse.
        let tiling = triangle(3);
        assert!(!slabs_uniform(&tiling, &[20], 0));
    }

    #[test]
    fn one_ragged_slab_breaks_uniformity() {
        // 17x17 cells in 4x4 tiles: the last x-slab is a single column of
        // cells, every other slab is four. One off-size slab must flip the
        // decision to irregular.
        let tiling = grid("N", 4);
        assert!(!slabs_uniform(&tiling, &[16], 0));
        // Restoring exact division restores uniformity.
        assert!(slabs_uniform(&tiling, &[19], 0));
    }

    #[test]
    #[should_panic(expected = "no assigned owner")]
    fn unknown_tile_panics() {
        let tiling = triangle(3);
        let owner = LoadBalance::compute(
            &tiling,
            &[12],
            2,
            &BalanceMethod::Slabs { lb_dims: vec![0] },
        )
        .into_owner();
        owner.owner(&Coord::from_slice(&[99, 99]));
    }
}
