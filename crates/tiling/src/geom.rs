//! Recorded tile geometry: the polyhedral walks of one tile, paid once per
//! tile *class* instead of once per tile.
//!
//! The paper's generator emits specialised center loops and shared
//! pack/unpack loops once per problem (Sections IV-G/H/I). This runtime
//! derives the same loops by walking [`LoopNest`]s with checked `i128`
//! arithmetic, which costs more per tile than the kernel itself. A
//! [`TileGeom`] is the recorded output of those walks for one tile — the
//! visit-ordered interior runs and boundary cells of
//! [`Tiling::scan_tile_runs`] and, per dependency, the edge cells of
//! [`EdgeLayout::for_each_cell`] as buffer indices — and replaying it needs
//! no polyhedral arithmetic at all. Consecutive runs that form a rectangle
//! are stored, and replayed, as one block ([`BlockCtx`]): a full interior
//! tile of a 2-D problem is a single entry, the dense `for i … for j …`
//! nest the paper emits for it.
//!
//! Recordings are shared between tiles under a *signature*
//! ([`crate::TileGraph`] sorts a plan's tiles into classes by it, once, and
//! keeps one recording per class). Fix a tile `t` and parameters `p`: every
//! `local_system` constraint and every validity check becomes
//! `a·i + K >= 0` over the local indices `i`, with `a` fixed by the
//! tiling and `K = b·t + c·p + k`. Every derived loop
//! bound is a positive combination of those rows, so the walks depend on
//! `(t, p)` only through the vector of `K`s: equal vectors, equal
//! recordings. A row that holds on the whole box `0 <= i_k < w_k`
//! (`K + min_box(a·i) >= 0`) neither removes a point nor fails a check,
//! whatever its exact `K`, so it is canonicalised to one "slack" value;
//! that puts every full interior tile of any problem size in one class.
//!
//! [`LoopNest`]: dpgen_polyhedra::LoopNest
//! [`EdgeLayout::for_each_cell`]: crate::EdgeLayout::for_each_cell

use crate::coord::{Coord, MAX_DIMS};
use crate::tiling::{BlockCtx, CellRef, RunCtx, ScanCounts, TileVisitor, Tiling, MAX_CHECKS};
use dpgen_polyhedra::{ConstraintSystem, LinExpr, PolyError};

/// Signature entry of a row that holds over the whole tile box. A real `K`
/// of this value is itself slack, so the sentinel cannot alias.
const SLACK: i128 = i128::MAX;

/// One entry of a recorded scan, in visit order. `loc` is the buffer index
/// of the (first) visited cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Visit {
    /// A single boundary cell; bit `j` of `valid` is `is_valid_r<j>`.
    Cell { loc: u32, valid: u32 },
    /// `rows` consecutive interior runs of `len` cells each (every validity
    /// flag true), each one step further along the second-innermost loop
    /// dimension than the one before. A run with no such neighbour is a
    /// block of one row.
    Block { loc: u32, len: u32, rows: u32 },
}

/// The recorded geometry of one tile: everything [`Tiling::scan_tile_runs`]
/// and the edge walks would produce for it, in local coordinates. Obtained
/// from [`crate::TileGraph::geometry`] (or [`Tiling::record`]); valid for
/// every tile with the same signature.
#[derive(Debug, PartialEq, Eq)]
pub struct TileGeom {
    visits: Vec<Visit>,
    /// Local coordinates of each visit's first cell, `dims` per visit.
    locals: Vec<i64>,
    counts: ScanCounts,
    /// The edge region this tile packs for each dependency (aligned with
    /// [`Tiling::deps`]): the source-tile buffer index of every edge cell,
    /// in the shared pack/unpack order.
    edges: Vec<Vec<u32>>,
}

impl TileGeom {
    /// Source-tile buffer indices of the edge this tile packs for
    /// dependency `dep_idx` (an index into [`Tiling::deps`]), in the shared
    /// pack/unpack order. The consumer's ghost cell of entry `loc` is
    /// `loc + ghost_shift` ([`crate::EdgeLayout::ghost_shift`]).
    pub fn edge_cells(&self, dep_idx: usize) -> &[u32] {
        &self.edges[dep_idx]
    }

    /// Heap bytes held by this recording (what [`crate::TileGraph`] charges
    /// its budget).
    pub(crate) fn bytes(&self) -> usize {
        let edge_cells: usize = self.edges.iter().map(Vec::len).sum();
        std::mem::size_of::<TileGeom>()
            + self.visits.len() * std::mem::size_of::<Visit>()
            + self.locals.len() * std::mem::size_of::<i64>()
            + self.edges.len() * std::mem::size_of::<Vec<u32>>()
            + edge_cells * std::mem::size_of::<u32>()
    }
}

/// Records a generic scan as [`Visit`]s, folding each run that continues
/// the block before it into that block.
struct Recorder {
    visits: Vec<Visit>,
    locals: Vec<i64>,
    /// [`Tiling::outer_loop`]: what steps from one row of a block to the next.
    outer: Option<(usize, i64)>,
}

impl TileVisitor for Recorder {
    fn cell(&mut self, cell: CellRef<'_>) {
        let valid = cell
            .valid
            .iter()
            .enumerate()
            .fold(0u32, |bits, (j, &v)| bits | (v as u32) << j);
        self.visits.push(Visit::Cell {
            loc: cell.loc as u32,
            valid,
        });
        self.locals.extend_from_slice(cell.local);
    }

    fn run(&mut self, run: RunCtx<'_>) {
        let d = run.local.len();
        if let (Some((outer, step)), Some(Visit::Block { len, rows, .. })) =
            (self.outer, self.visits.last_mut())
        {
            // The buffer index is affine in the local coordinates, so a run
            // one outer step after the block's last row is also one row
            // stride after it.
            let first = &self.locals[self.locals.len() - d..];
            let next_row = |k: usize| first[k] + if k == outer { *rows as i64 * step } else { 0 };
            if *len == run.len as u32 && (0..d).all(|k| run.local[k] == next_row(k)) {
                *rows += 1;
                return;
            }
        }
        self.visits.push(Visit::Block {
            loc: run.loc as u32,
            len: run.len as u32,
            rows: 1,
        });
        self.locals.extend_from_slice(run.local);
    }
}

/// The signature rows of a tiling: one per `local_system` constraint and
/// validity check that mentions a tile index or a parameter (the others
/// are the same for every tile).
#[derive(Debug, Clone)]
pub(crate) struct SigRows {
    /// Per row, the coefficients on `[t_0.., p_0..]` (row-major).
    coeffs: Vec<i64>,
    /// Per row, the constant term `k`.
    constants: Vec<i128>,
    /// Per row, `-min_box(a·i)`: the row is slack iff `K >= slack_from`.
    slack_from: Vec<i128>,
    dims: usize,
    param_cols: Vec<usize>,
}

impl SigRows {
    pub(crate) fn len(&self) -> usize {
        self.constants.len()
    }

    /// Write the signature of `tile` under the parameters bound in `point`
    /// into `sig` (one entry per row).
    fn signature(&self, tile: &Coord, point: &[i128], sig: &mut [i128]) -> Result<(), PolyError> {
        self.exact(tile, point, sig)?;
        self.clamp(sig);
        Ok(())
    }

    /// Write every row's exact `K` at `tile` into `k`: the signature before
    /// slack rows are canonicalised.
    pub(crate) fn exact(
        &self,
        tile: &Coord,
        point: &[i128],
        k: &mut [i128],
    ) -> Result<(), PolyError> {
        let overflow = || PolyError::Overflow("tile signature");
        let stride = self.dims + self.param_cols.len();
        let tile = tile.as_slice();
        for (r, k) in k.iter_mut().enumerate() {
            let row = &self.coeffs[r * stride..][..self.dims];
            *k = self.constants[r];
            // i64 × i64 always fits an i128; only the sums can overflow.
            for (&c, &t) in row.iter().zip(tile) {
                *k = k.checked_add(c as i128 * t as i128).ok_or_else(overflow)?;
            }
        }
        for (j, &col) in self.param_cols.iter().enumerate() {
            let p = i64::try_from(point[col]).map_err(|_| overflow())? as i128;
            for (r, k) in k.iter_mut().enumerate() {
                let c = self.coeffs[r * stride + self.dims + j] as i128;
                *k = k.checked_add(c * p).ok_or_else(overflow)?;
            }
        }
        Ok(())
    }

    /// Canonicalise, in place, every exact `K` whose row is slack.
    pub(crate) fn clamp(&self, k: &mut [i128]) {
        for (k, &from) in k.iter_mut().zip(&self.slack_from) {
            if *k >= from {
                *k = SLACK;
            }
        }
    }

    /// Advance exact `K`s ([`SigRows::exact`]) from tile `t` to `t + steps
    /// e_dim`: `K` is affine in the tile, so each row adds `steps` times its
    /// coefficient on `t_dim`. The caller vouches that the result fits, as
    /// it does when both ends of a row of tiles along `dim` were signed
    /// exactly and `t + steps e_dim` lies between them (every `K` between
    /// two that fit fits too).
    pub(crate) fn step(&self, dim: usize, steps: usize, k: &mut [i128]) {
        let stride = self.dims + self.param_cols.len();
        for (k, row) in k.iter_mut().zip(self.coeffs.chunks_exact(stride)) {
            // |coefficient| < 2^63 and `steps` < 2^64: the product fits.
            *k += row[dim] as i128 * steps as i128;
        }
    }

    /// How many tiles from `t` on along `dim` — `t` itself included, at
    /// most `max` — share `t`'s signature, given `t`'s exact `K`s. A row
    /// that `dim` does not move, or that is slack and grows along `dim`,
    /// never changes; one that is not slack changes at the next tile; one
    /// that is slack and shrinks stays slack for `(K - slack_from) / |c|`
    /// more tiles.
    pub(crate) fn run(&self, dim: usize, k: &[i128], max: usize) -> usize {
        let stride = self.dims + self.param_cols.len();
        let rows = k.iter().zip(self.coeffs.chunks_exact(stride));
        let mut run = max;
        for ((&k, row), &from) in rows.zip(&self.slack_from) {
            let c = row[dim] as i128;
            if c == 0 || (c > 0 && k >= from) {
                continue;
            }
            if k < from {
                return max.min(1);
            }
            // `slack_from >= 0`, so `0 <= k - from <= k`.
            let more = usize::try_from((k - from) / -c).unwrap_or(usize::MAX);
            run = run.min(more.saturating_add(1));
        }
        run
    }

    pub(crate) fn new(
        local_system: &ConstraintSystem,
        validity_checks: &[LinExpr],
        i_cols: &[usize],
        t_cols: &[usize],
        param_cols: &[usize],
        widths: &[i64],
    ) -> Result<SigRows, PolyError> {
        let overflow = || PolyError::Overflow("tile signature");
        let mut rows = SigRows {
            coeffs: Vec::new(),
            constants: Vec::new(),
            slack_from: Vec::new(),
            dims: widths.len(),
            param_cols: param_cols.to_vec(),
        };
        let exprs = local_system
            .constraints()
            .iter()
            .map(|c| c.expr())
            .chain(validity_checks);
        for expr in exprs {
            let cols = t_cols.iter().chain(param_cols);
            if cols.clone().all(|&col| expr.coeff(col) == 0) {
                continue;
            }
            for &col in cols {
                rows.coeffs
                    .push(i64::try_from(expr.coeff(col)).map_err(|_| overflow())?);
            }
            rows.constants.push(expr.constant_term());
            let mut slack_from = 0i128;
            for (&col, &w) in i_cols.iter().zip(widths) {
                let reach = expr
                    .coeff(col)
                    .checked_mul(w as i128 - 1)
                    .ok_or_else(overflow)?;
                if reach < 0 {
                    slack_from = slack_from.checked_sub(reach).ok_or_else(overflow)?;
                }
            }
            rows.slack_from.push(slack_from);
        }
        Ok(rows)
    }
}

impl Tiling {
    /// The signature of `tile` under the parameters bound in `point`,
    /// written over `sig`: tiles with equal signatures have equal walks
    /// (module docs) — the scan, and every edge nest and lattice count with
    /// it, since all of them read `(t, p)` through the same rows.
    /// [`crate::TileGraph`] records and counts once per signature on the
    /// strength of that.
    pub(crate) fn signature(
        &self,
        tile: &Coord,
        point: &[i128],
        sig: &mut Vec<i128>,
    ) -> Result<(), PolyError> {
        sig.resize(self.sig_rows.len(), 0);
        self.sig_rows.signature(tile, point, sig)
    }

    /// Run the generic walks for `tile` under the parameters bound in
    /// `point` and record them: one tile's recording, memoized nowhere. An
    /// execution reads [`crate::TileGraph::geometry`], which keeps one per
    /// class of tiles.
    pub fn record(&self, tile: &Coord, point: &mut [i128]) -> Result<TileGeom, PolyError> {
        if u32::try_from(self.layout().size()).is_err() {
            return Err(PolyError::Overflow("tile buffer index"));
        }
        let mut rec = Recorder {
            visits: Vec::new(),
            locals: Vec::new(),
            outer: self.outer_loop(),
        };
        let counts = self.scan_tile_runs(tile, point, &mut rec)?;
        rec.visits.shrink_to_fit();
        rec.locals.shrink_to_fit();
        let layout = self.layout();
        let mut edges = Vec::with_capacity(self.edges().len());
        for edge in self.edges() {
            self.set_tile(tile, point);
            let mut locs = Vec::with_capacity(edge.max_cells());
            edge.for_each_cell(point, |j| locs.push(layout.loc(j) as u32))?;
            locs.shrink_to_fit();
            edges.push(locs);
        }
        Ok(TileGeom {
            visits: rec.visits,
            locals: rec.locals,
            counts,
            edges,
        })
    }

    /// The second-innermost loop level — problem dimension and signed step
    /// per iteration — or `None` for a 1-D tiling, which has none.
    fn outer_loop(&self) -> Option<(usize, i64)> {
        let depth = self.dims().checked_sub(2)?;
        let step = if self.local_desc[depth] { -1 } else { 1 };
        Some((self.loop_order()[depth], step))
    }

    /// Replay a recorded scan of `tile` into `visitor`: the boundary cells
    /// and interior runs [`Tiling::scan_tile_runs`] hands out, in its order,
    /// with global coordinates rebuilt as `x = local + w·t` and the runs
    /// grouped into [`BlockCtx`] rectangles. A visitor with the default
    /// [`TileVisitor::block`] sees the scan's exact [`CellRef`]/[`RunCtx`]
    /// sequence. `geom` must be this tile's recording, or that of a tile of
    /// its class ([`crate::TileGraph::geometry`]).
    pub fn replay<V: TileVisitor>(
        &self,
        geom: &TileGeom,
        tile: &Coord,
        visitor: &mut V,
    ) -> ScanCounts {
        let d = self.dims();
        let offsets = self.layout().template_offsets();
        let ntemplates = offsets.len();
        let strides = self.layout().strides();
        let inner_dim = *self.loop_order().last().expect("tiling has >= 1 dim");
        let desc = *self.local_desc.last().expect("tiling has >= 1 dim");
        let x_step = if desc { -1 } else { 1 };
        let loc_step = x_step * strides[inner_dim];
        let (outer_dim, outer_step) = self.outer_loop().unwrap_or((inner_dim, 0));
        let row_step = outer_step * strides[outer_dim];
        let mut base = [0i64; MAX_DIMS];
        for (k, b) in base[..d].iter_mut().enumerate() {
            *b = self.widths()[k] * tile[k];
        }
        let mut x = [0i64; MAX_DIMS];
        let mut valid = [false; MAX_CHECKS];
        for (visit, local) in geom.visits.iter().zip(geom.locals.chunks_exact(d)) {
            for k in 0..d {
                x[k] = local[k] + base[k];
            }
            match *visit {
                Visit::Cell { loc, valid: bits } => {
                    for (j, v) in valid[..ntemplates].iter_mut().enumerate() {
                        *v = bits >> j & 1 != 0;
                    }
                    visitor.cell(CellRef {
                        loc: loc as usize,
                        x: &x[..d],
                        local,
                        valid: &valid[..ntemplates],
                        offsets,
                    });
                }
                Visit::Block { loc, len, rows } => visitor.block(BlockCtx {
                    first: RunCtx {
                        loc: loc as usize,
                        loc_step,
                        len: len as usize,
                        x: &x[..d],
                        local,
                        inner_dim,
                        x_step,
                        offsets,
                    },
                    rows: rows as usize,
                    row_step,
                    outer_dim,
                    outer_step,
                }),
            }
        }
        geom.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::{Template, TemplateSet};
    use crate::tiling::TilingBuilder;
    use dpgen_polyhedra::Space;

    #[test]
    fn a_parameter_beyond_i64_is_an_error_not_a_panic() {
        let space = Space::from_names(&["x"], &["N"]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        sys.add_text("0 <= x <= N").unwrap();
        let templates = TemplateSet::new(1, vec![Template::new("r", &[1])]).unwrap();
        let tiling = TilingBuilder::new(sys, templates, vec![4]).build().unwrap();
        let tile = Coord::from_slice(&[1]);
        let mut point = tiling.make_point(&[9]);
        let mut sig = Vec::new();
        assert_eq!(tiling.signature(&tile, &point, &mut sig), Ok(()));
        assert!(tiling.record(&tile, &mut point).is_ok());
        point[tiling.param_cols()[0]] = i128::MAX;
        assert_eq!(
            tiling.signature(&tile, &point, &mut sig),
            Err(PolyError::Overflow("tile signature"))
        );
        // Unsigned, the tile is a class of its own (`TileGraph`): its own
        // walks answer for it, in checked arithmetic.
        let _ = tiling.record(&tile, &mut point);
    }
}
