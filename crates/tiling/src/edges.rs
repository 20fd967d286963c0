//! Edge (ghost-cell) regions and the shared pack/unpack iteration spaces
//! (Section IV-I of the paper).
//!
//! After a tile finishes, only the cells near its boundaries are needed by
//! neighbouring tiles. For each tile dependency `δ`, the *edge region* is the
//! set of source-local cells that some template vector reads across that
//! boundary. Packing scans the region in a fixed loop order and appends the
//! values to a buffer; unpacking scans the *same* iteration space (the
//! paper stresses both functions must share it) and writes each value into
//! the destination tile's ghost cells via the destination mapping function.
//!
//! The region is computed per dimension as the hull of the per-template
//! read intervals, intersected with the source tile's local iteration space —
//! a slight over-approximation (hull instead of union) that only ever packs
//! extra cells, never misses one.

use crate::coord::Coord;
use crate::deps::TileDep;
use crate::layout::TileLayout;
use crate::template::TemplateSet;
use dpgen_polyhedra::{Constraint, ConstraintSystem, LinExpr, LoopNest, PolyError};

/// The packing/unpacking layout for one tile-dependency offset `δ`.
#[derive(Debug, Clone)]
pub struct EdgeLayout {
    /// The tile offset: tile `t` unpacks this edge from tile `t + δ`.
    pub delta: Coord,
    /// Per-dimension source-local bounds of the edge box (inclusive).
    pub box_lo: Vec<i64>,
    /// Per-dimension source-local bounds of the edge box (inclusive).
    pub box_hi: Vec<i64>,
    /// Buffer-index distance from a source-local cell to its ghost image in
    /// the consumer's buffer: `loc_ghost(j, δ) = loc(j) + ghost_shift`
    /// (`loc` is affine, so the shift `Σ stride_k · w_k · δ_k` is one
    /// constant per edge).
    pub ghost_shift: i64,
    /// Loop nest scanning the source tile's local space intersected with the
    /// box. Shared by pack and unpack.
    nest: LoopNest,
    /// Extended-space columns of the local indices, in problem-dimension
    /// order (needed to read the scanned coordinates out of the point).
    i_cols: Vec<usize>,
    /// Banded payload extents: `(a, b, band_width)` when the iteration space
    /// is a diagonal band over dimensions `(a, b)`. The scan nest already
    /// clips to the band (it carries the band constraints); this tightens
    /// the *presizing* bound [`EdgeLayout::max_cells`], which would
    /// otherwise charge the full box product for payload buffers that can
    /// never fill it.
    band: Option<(usize, usize, i64)>,
}

impl EdgeLayout {
    /// Visit every edge cell of the *source* tile, in the deterministic
    /// shared pack/unpack order. `point` must already carry the source tile
    /// indices and the parameters; the callback receives the source-local
    /// coordinates in problem-dimension order.
    pub fn for_each_cell<F: FnMut(&[i64])>(
        &self,
        point: &mut [i128],
        mut f: F,
    ) -> Result<(), PolyError> {
        let i_cols = &self.i_cols;
        let mut local = [0i64; crate::coord::MAX_DIMS];
        let d = i_cols.len();
        self.nest.for_each_point(point, |p| {
            for k in 0..d {
                local[k] = p[i_cols[k]] as i64;
            }
            f(&local[..d]);
        })
    }

    /// Number of cells this edge carries for the given source tile.
    pub fn count(&self, point: &mut [i128]) -> Result<u128, PolyError> {
        self.nest.count(point)
    }

    /// Upper bound on the cells any tile's instance of this edge carries:
    /// the product of the bounding-box extents, tightened for banded
    /// spaces. The actual region is the box intersected with the tile's
    /// local iteration space, so a payload buffer presized to this bound
    /// never reallocates.
    ///
    /// For a band `lo <= x_a - x_b <= hi` (width `W = hi - lo + 1`), any
    /// fixed value of `x_a` admits at most `min(extent_b, W)` in-band
    /// values of `x_b` (and symmetrically), so the pair contributes
    /// `min(e_a·e_b, e_a·min(e_b, W), e_b·min(e_a, W))` cells instead of
    /// the dense `e_a·e_b` — out-of-band payload is never allocated.
    pub fn max_cells(&self) -> usize {
        let extent = |k: usize| -> usize { (self.box_hi[k] - self.box_lo[k] + 1).max(0) as usize };
        let mut cells: usize = (0..self.box_lo.len())
            .filter(|&k| Some(k) != self.band.map(|(a, _, _)| a))
            .filter(|&k| Some(k) != self.band.map(|(_, b, _)| b))
            .map(extent)
            .product();
        if let Some((a, b, w)) = self.band {
            let w = w.max(0) as usize;
            let (ea, eb) = (extent(a), extent(b));
            let pair = (ea * eb).min(ea * eb.min(w)).min(eb * ea.min(w));
            cells *= pair;
        }
        cells
    }

    /// The shared pack/unpack loop nest (exposed for code generation).
    pub fn nest(&self) -> &LoopNest {
        &self.nest
    }
}

/// Per-dimension source-local read interval of template `r` across tile
/// offset `δ`: the cells `j` of the source tile for which some destination
/// cell `i ∈ [0, w)` satisfies `j = i + r - w·δ`.
fn read_interval(r_k: i64, w_k: i64, delta_k: i64) -> (i64, i64) {
    let lo = (r_k - w_k * delta_k).max(0);
    let hi = (w_k - 1 + r_k - w_k * delta_k).min(w_k - 1);
    (lo, hi)
}

/// Build the edge layouts for every tile dependency.
///
/// `local_system` is the within-tile iteration space over the extended space
/// (local indices, tile indices, parameters); `i_cols` are the local-index
/// columns in problem-dimension order; `i_order` is the loop ordering of
/// those columns (outermost first); `layout` is the tile buffer layout
/// (widths and strides). `band` is `(a, b, band_width)` when the
/// space is a diagonal band over dimensions `(a, b)` (the constraints are
/// already part of `local_system`; the tuple only tightens
/// [`EdgeLayout::max_cells`]).
pub fn build_edge_layouts(
    local_system: &ConstraintSystem,
    i_cols: &[usize],
    i_order: &[usize],
    layout: &TileLayout,
    templates: &TemplateSet,
    deps: &[TileDep],
    band: Option<(usize, usize, i64)>,
) -> Result<Vec<EdgeLayout>, PolyError> {
    let (widths, strides) = (layout.widths(), layout.strides());
    let d = widths.len();
    let dim = local_system.space().dim();
    let mut out = Vec::with_capacity(deps.len());
    for dep in deps {
        let mut box_lo = vec![i64::MAX; d];
        let mut box_hi = vec![i64::MIN; d];
        for &j in &dep.templates {
            let r = &templates.templates()[j].offset;
            for k in 0..d {
                let (lo, hi) = read_interval(r[k], widths[k], dep.delta[k]);
                debug_assert!(lo <= hi, "contributing template has empty interval");
                box_lo[k] = box_lo[k].min(lo);
                box_hi[k] = box_hi[k].max(hi);
            }
        }
        // Source local space ∩ box.
        let mut sys = local_system.clone();
        for k in 0..d {
            // i_k >= box_lo[k]
            let mut lo = LinExpr::zero(dim);
            lo.set_coeff(i_cols[k], 1);
            lo.set_constant(-(box_lo[k] as i128));
            sys.add(Constraint::ge0(lo))?;
            // i_k <= box_hi[k]
            let mut hi = LinExpr::zero(dim);
            hi.set_coeff(i_cols[k], -1);
            hi.set_constant(box_hi[k] as i128);
            sys.add(Constraint::ge0(hi))?;
        }
        let nest = LoopNest::synthesize_with_free(&sys, i_order)?;
        out.push(EdgeLayout {
            delta: dep.delta,
            box_lo,
            box_hi,
            ghost_shift: (0..d).map(|k| strides[k] * widths[k] * dep.delta[k]).sum(),
            nest,
            i_cols: i_cols.to_vec(),
            band,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_interval_cases() {
        // r = 1, w = 4, δ = 1: only source row 0 is read.
        assert_eq!(read_interval(1, 4, 1), (0, 0));
        // r = 1, w = 4, δ = 0: rows 1..=3 are read within the tile.
        assert_eq!(read_interval(1, 4, 0), (1, 3));
        // r = 0, δ = 0: everything.
        assert_eq!(read_interval(0, 4, 0), (0, 3));
        // r = 3, w = 4, δ = 1: source rows 0..=2.
        assert_eq!(read_interval(3, 4, 1), (0, 2));
        // Negative template: r = -1, w = 4, δ = -1: source row 3 only.
        assert_eq!(read_interval(-1, 4, -1), (3, 3));
        // r = -1, δ = 0: rows 0..=2... j = i - 1 for i in [1, 4) -> [0, 2].
        assert_eq!(read_interval(-1, 4, 0), (0, 2));
        // Long template r = 5, w = 4, δ = 1: j = i + 1 for i in [0,3) -> [1,3].
        assert_eq!(read_interval(5, 4, 1), (1, 3));
        assert_eq!(read_interval(5, 4, 2), (0, 0));
    }
}
