//! Load balancing (Section IV-J and the future-work Figure 8).
//!
//! The paper's method divides the total work evenly between nodes along the
//! user-selected dimensions `lb1, lb2, …, lbj`: the highest-priority
//! dimension makes the coarse cut and lesser-priority dimensions refine it.
//! The amount of work per slab is obtained from counting polynomials — the
//! paper uses two Ehrhart polynomials computed with Barvinok; here the
//! counts come from exact lattice-point counting (validated against our
//! interpolated Ehrhart polynomials, see `dpgen-polyhedra::ehrhart`), one
//! walk per geometry class of tiles rather than one per tile: the slab
//! verdict and the balancer read [`TileGraph::cells`], which gives every
//! tile of a class the count of the first.
//!
//! The future-work *hyperplane* method (Figure 8) instead orders tiles by a
//! wavefront level and cuts that order into equal-work bands, which shortens
//! the critical path on wedge-shaped spaces.

use dpgen_polyhedra::{PolyError, QuasiPolynomial};
use dpgen_runtime::TileOwner;
use dpgen_tiling::{Coord, TileGraph, Tiling};
use std::collections::HashMap;
use std::sync::Arc;

/// Attach the tiling's geometry to an interpolation failure. A bare
/// "inconsistent samples" is undiagnosable when the tiling came out of a
/// fuzzer; the dims/widths (and slab, if any) are what reproduce it.
fn interpolation_context(err: PolyError, what: &str, tiling: &Tiling, detail: &str) -> PolyError {
    match err {
        PolyError::Interpolation(m) => PolyError::Interpolation(format!(
            "{what} for tiling with dims = {}, widths = {:?}{detail}: {m}",
            tiling.dims(),
            tiling.widths(),
        )),
        other => other,
    }
}

/// Reconstruct the paper's *first* counting polynomial: the total amount of
/// work as a function of the (single) input parameter (Section IV-J; the
/// paper computes it with the Barvinok library, we interpolate it from
/// exact counts and verify the fit — see `dpgen-polyhedra::ehrhart`).
///
/// Only single-parameter problems are supported (all of the paper's
/// workloads with a horizon `N`); the degree is the problem dimension and
/// the period is 1 because the *work* polynomial counts original locations,
/// which are width-independent.
pub fn work_polynomial(tiling: &Tiling) -> Result<QuasiPolynomial, PolyError> {
    let params = tiling.original().space().param_indices();
    if params.len() != 1 {
        return Err(PolyError::Interpolation(format!(
            "work polynomial needs exactly 1 parameter, problem has {} (tiling dims = {}, widths = {:?})",
            params.len(),
            tiling.dims(),
            tiling.widths(),
        )));
    }
    let d = tiling.dims();
    QuasiPolynomial::interpolate(d, 1, 0, 2, |n| tiling.total_cells(&[n as i64]) as i128)
        .map_err(|e| interpolation_context(e, "work polynomial", tiling, ""))
}

/// The paper's *second* counting polynomial family: work restricted to a
/// fixed index `c` of tile dimension `lb1`, as a quasi-polynomial in the
/// parameter (period = the tile width of that dimension, because the slab
/// boundaries move with `N mod w`). Evaluated per-slab by the slab
/// balancer; reconstructed here for a fixed `c` to mirror the paper's
/// formulation.
pub fn slab_work_polynomial(
    tiling: &Tiling,
    lb_dim: usize,
    slab: i64,
) -> Result<QuasiPolynomial, PolyError> {
    let params = tiling.original().space().param_indices();
    if params.len() != 1 {
        return Err(PolyError::Interpolation(format!(
            "slab work polynomial needs exactly 1 parameter (tiling dims = {}, widths = {:?}, lb_dim = {lb_dim}, slab = {slab})",
            tiling.dims(),
            tiling.widths(),
        )));
    }
    let d = tiling.dims();
    let w = tiling.widths()[lb_dim] as usize;
    // Start sampling where the slab exists at all parameter values of its
    // residue class.
    let start = (slab + 1) * tiling.widths()[lb_dim];
    QuasiPolynomial::interpolate(d, w.max(1), start.max(0) as i128, 1, |n| {
        slab_work(tiling, lb_dim, slab, n as i64) as i128
    })
    .map_err(|e| {
        interpolation_context(
            e,
            "slab work polynomial",
            tiling,
            &format!(", lb_dim = {lb_dim}, slab = {slab}"),
        )
    })
}

/// The number of *tiles* as a quasi-polynomial in the single parameter.
/// A genuinely periodic Ehrhart count (period = lcm of the tile widths):
/// the tile grid shifts against the iteration space as the parameter moves
/// through a width. This is the count the paper's `O(n^j)` load-balancing
/// complexity argument is about.
pub fn tile_count_polynomial(tiling: &Tiling) -> Result<QuasiPolynomial, PolyError> {
    let params = tiling.original().space().param_indices();
    if params.len() != 1 {
        return Err(PolyError::Interpolation(format!(
            "tile-count polynomial needs exactly 1 parameter (tiling dims = {}, widths = {:?})",
            tiling.dims(),
            tiling.widths(),
        )));
    }
    let d = tiling.dims();
    let period = tiling
        .widths()
        .iter()
        .try_fold(1i128, |acc, &w| dpgen_polyhedra::num::lcm(acc, w as i128))?;
    // The samples n < period·(d + 2) are parameter values: they must fit i64.
    let samples_fit = period
        .checked_mul(d as i128 + 2)
        .is_some_and(|n| i64::try_from(n).is_ok());
    let period = usize::try_from(period)
        .ok()
        .filter(|_| samples_fit)
        .ok_or(PolyError::Overflow("tile-count period"))?;
    QuasiPolynomial::interpolate(d, period, 0, 1, |n| {
        let mut point = tiling.make_point(&[n as i64]);
        let mut count = 0i128;
        tiling.for_each_tile(&mut point, |_| count += 1);
        count
    })
    .map_err(|e| interpolation_context(e, "tile-count polynomial", tiling, ""))
}

/// Exact work (cell count) of all tiles with `t[lb_dim] == slab`.
pub fn slab_work(tiling: &Tiling, lb_dim: usize, slab: i64, n: i64) -> u128 {
    let mut point = tiling.make_point(&[n]);
    let mut tiles = Vec::new();
    tiling.for_each_tile(&mut point, |t| {
        if t[lb_dim] == slab {
            tiles.push(t);
        }
    });
    tiles
        .iter()
        .map(|t| tiling.tile_cell_count(t, &mut point))
        .sum()
}

/// Whether the slabs along `lb_dim` are *uniform*: every slab (the set of
/// tiles sharing one index of that tile dimension) carries exactly the
/// same work at these parameter values, summed from the graph's exact
/// per-class cell counts.
///
/// This is the decision input for `Schedule::Static` (see
/// [`crate::ExecOpts::schedule`]): a precomputed wavefront order only pays
/// off when the per-slab cell counts are flat — a rectangular iteration
/// space whose extents the tile widths divide exactly. Wedges, triangles,
/// and ragged final slabs report `false` and keep the work-stealing
/// scheduler, which absorbs the irregularity dynamically. The check is a
/// perf heuristic only — correctness never depends on it (any polytope
/// runs bit-identically under every schedule mode).
///
/// Zero or one slab is trivially uniform.
pub fn slabs_uniform(tiling: &Tiling, params: &[i64], lb_dim: usize) -> bool {
    slabs_uniform_on(&tiling.graph(params), lb_dim)
}

/// [`slabs_uniform`] on a tile graph already derived (a [`crate::Plan`]'s):
/// reads the graph's per-class cell counts, which it shares with the load
/// balancer and the simulator.
pub fn slabs_uniform_on(graph: &TileGraph, lb_dim: usize) -> bool {
    assert!(
        lb_dim < graph.tiling().dims(),
        "lb_dim {lb_dim} out of range"
    );
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
        // Work per tile = exact cell count (the per-slab Ehrhart evaluation
        // of the paper, walked once per tile class).
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
    fn owner_of(&self, tile: &Coord) -> usize {
        self.owner(tile)
    }

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
        let tiling = triangle(3);
        let lb = LoadBalance::compute(
            &tiling,
            &[20],
            3,
            &BalanceMethod::Slabs {
                lb_dims: vec![0, 1],
            },
        );
        let owner = lb.clone().into_owner();
        let mut point = tiling.make_point(&[20]);
        let mut total = 0u128;
        let mut tiles = Vec::new();
        tiling.for_each_tile(&mut point, |t| tiles.push(t));
        for t in &tiles {
            let r = owner.owner_of(t);
            assert!(r < 3);
            total += tiling.tile_cell_count(t, &mut point);
        }
        assert_eq!(total, tiling.total_cells(&[20]));
        assert_eq!(lb.rank_work.iter().sum::<u128>(), total);
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
    fn work_polynomial_matches_exact_counts() {
        // Triangle: W(N) = (N+1)(N+2)/2, a degree-2 polynomial.
        let tiling = triangle(3);
        let q = work_polynomial(&tiling).unwrap();
        for n in [0i128, 5, 17, 100] {
            assert_eq!(
                q.eval(n).unwrap() as u128,
                tiling.total_cells(&[n as i64]),
                "N = {n}"
            );
        }
        assert_eq!(q.degree(), 2);
    }

    #[test]
    fn slab_work_polynomial_matches_exact_counts() {
        let tiling = triangle(3);
        // Slab t_x = 1 covers x in [3, 5].
        let q = slab_work_polynomial(&tiling, 0, 1).unwrap();
        for n in [6i64, 9, 14, 23, 40] {
            assert_eq!(
                q.eval(n as i128).unwrap() as u128,
                slab_work(&tiling, 0, 1, n),
                "N = {n}"
            );
        }
    }

    #[test]
    fn slab_works_sum_to_total() {
        let tiling = triangle(4);
        let n = 21i64;
        let mut point = tiling.make_point(&[n]);
        let mut max_slab = 0;
        tiling.for_each_tile(&mut point, |t| max_slab = max_slab.max(t[0]));
        let total: u128 = (0..=max_slab).map(|s| slab_work(&tiling, 0, s, n)).sum();
        assert_eq!(total, tiling.total_cells(&[n]));
    }

    #[test]
    fn tile_count_polynomial_matches_scan() {
        let tiling = triangle(3);
        let q = tile_count_polynomial(&tiling).unwrap();
        assert_eq!(q.period(), 3);
        for n in [0i64, 4, 11, 23, 50] {
            let mut point = tiling.make_point(&[n]);
            let mut count = 0i128;
            tiling.for_each_tile(&mut point, |_| count += 1);
            assert_eq!(q.eval(n as i128).unwrap(), count, "N = {n}");
        }
    }

    #[test]
    fn tile_count_polynomial_mixed_widths() {
        // Widths 2 and 3: period lcm = 6.
        let space = Space::from_names(&["x", "y"], &["N"]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        sys.add_text("0 <= x <= N").unwrap();
        sys.add_text("0 <= y <= N").unwrap();
        let t = TemplateSet::new(
            2,
            vec![Template::new("r1", &[1, 0]), Template::new("r2", &[0, 1])],
        )
        .unwrap();
        let tiling = TilingBuilder::new(sys, t, vec![2, 3]).build().unwrap();
        let q = tile_count_polynomial(&tiling).unwrap();
        assert_eq!(q.period(), 6);
        for n in [1i64, 7, 13, 29] {
            // Grid: ceil((N+1)/2) x ceil((N+1)/3) tiles.
            let expect = ((n + 2) / 2) * ((n + 3) / 3);
            assert_eq!(q.eval(n as i128).unwrap(), expect as i128, "N = {n}");
        }
    }

    #[test]
    fn tile_count_polynomial_rejects_an_unsamplable_period() {
        // Coprime widths 2^31 - 1 and 2^31: the period (their ~2^62 product)
        // fits, but sampling d + 2 periods of the parameter would pass i64.
        let space = Space::from_names(&["x", "y"], &["N"]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        sys.add_text("0 <= x <= N").unwrap();
        sys.add_text("0 <= y <= N").unwrap();
        let t = TemplateSet::new(
            2,
            vec![Template::new("r1", &[1, 0]), Template::new("r2", &[0, 1])],
        )
        .unwrap();
        let tiling = TilingBuilder::new(sys, t, vec![(1 << 31) - 1, 1 << 31])
            .build()
            .unwrap();
        assert_eq!(
            tile_count_polynomial(&tiling).unwrap_err(),
            PolyError::Overflow("tile-count period")
        );
    }

    #[test]
    fn work_polynomial_requires_single_param() {
        // Two parameters: rejected.
        let space = Space::from_names(&["x"], &["A", "B"]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        sys.add_text("0 <= x <= A").unwrap();
        sys.add_text("x <= B").unwrap();
        let t = TemplateSet::new(1, vec![Template::new("r", &[1])]).unwrap();
        let tiling = TilingBuilder::new(sys, t, vec![2]).build().unwrap();
        assert!(work_polynomial(&tiling).is_err());
    }

    #[test]
    fn work_polynomial_error_names_dims_and_widths() {
        // floor(N/2)+1 cells: period 2, so the period-1 work polynomial
        // cannot verify — the failure must carry the tiling geometry.
        let space = Space::from_names(&["x"], &["N"]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        sys.add_text("x >= 0").unwrap();
        sys.add_text("2*x <= N").unwrap();
        let t = TemplateSet::new(1, vec![Template::new("r", &[1])]).unwrap();
        let tiling = TilingBuilder::new(sys, t, vec![3]).build().unwrap();
        let err = work_polynomial(&tiling).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("dims = 1") && msg.contains("widths = [3]"),
            "message must carry tiling geometry: {msg}"
        );
    }

    #[test]
    fn two_param_errors_name_dims_and_widths() {
        let space = Space::from_names(&["x"], &["A", "B"]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        sys.add_text("0 <= x <= A").unwrap();
        sys.add_text("x <= B").unwrap();
        let t = TemplateSet::new(1, vec![Template::new("r", &[1])]).unwrap();
        let tiling = TilingBuilder::new(sys, t, vec![2]).build().unwrap();
        for msg in [
            work_polynomial(&tiling).unwrap_err().to_string(),
            slab_work_polynomial(&tiling, 0, 1).unwrap_err().to_string(),
            tile_count_polynomial(&tiling).unwrap_err().to_string(),
        ] {
            assert!(
                msg.contains("dims = 1") && msg.contains("widths = [2]"),
                "message must carry tiling geometry: {msg}"
            );
        }
        let slab_msg = slab_work_polynomial(&tiling, 0, 1).unwrap_err().to_string();
        assert!(slab_msg.contains("lb_dim = 0") && slab_msg.contains("slab = 1"));
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
        owner.owner_of(&Coord::from_slice(&[99, 99]));
    }
}
