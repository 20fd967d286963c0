//! The [`Tiling`]: everything the generator derives from a problem's
//! iteration space, template vectors and tile widths (Section IV of the
//! paper), packaged for the runtime to execute.

use crate::coord::{Coord, MAX_DIMS};
use crate::deps::{derive_tile_deps, TileDep};
use crate::edges::{build_edge_layouts, EdgeLayout};
use crate::geom::SigRows;
use crate::layout::TileLayout;
use crate::template::{Direction, TemplateError, TemplateSet};
use dpgen_polyhedra::num::{ceil_div, floor_div};
use dpgen_polyhedra::{Constraint, ConstraintSystem, LinExpr, LoopNest, PolyError, Space, VarKind};
use std::fmt;

/// Upper bound on simultaneously tracked templates / validity checks in the
/// fixed-size scan scratch arrays.
pub(crate) const MAX_CHECKS: usize = MAX_DIMS * 4;

/// Errors from tiling construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TilingError {
    /// A polyhedral operation failed.
    Poly(PolyError),
    /// Template validation failed.
    Template(TemplateError),
    /// Inconsistent builder input.
    Input(String),
}

impl fmt::Display for TilingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TilingError::Poly(e) => write!(f, "polyhedral error: {e}"),
            TilingError::Template(e) => write!(f, "template error: {e}"),
            TilingError::Input(m) => write!(f, "invalid tiling input: {m}"),
        }
    }
}

impl std::error::Error for TilingError {}

impl From<PolyError> for TilingError {
    fn from(e: PolyError) -> TilingError {
        TilingError::Poly(e)
    }
}

impl From<TemplateError> for TilingError {
    fn from(e: TemplateError) -> TilingError {
        TilingError::Template(e)
    }
}

/// The cell-level region a tile's iteration space realises: dense boxes,
/// or a diagonal band that clips innermost runs so out-of-band cells are
/// never visited, never allocated, and never shipped on edges.
///
/// Carried on the [`Tiling`] (and from there on a compiled `Plan`) so
/// admission control, cost models and stats can reason about sparsity
/// without re-deriving it from the constraint system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TileShape {
    /// Every cell of the bounding region may be live.
    #[default]
    Dense,
    /// Only cells with `lo <= x_a - x_b <= hi` are live, for the dimension
    /// pair `(a, b)` recorded in [`Tiling::band_dims`].
    Banded {
        /// Inclusive lower bound of `x_a - x_b`.
        lo: i64,
        /// Inclusive upper bound of `x_a - x_b`.
        hi: i64,
    },
}

impl TileShape {
    /// Number of diagonals the band admits (`None` for [`TileShape::Dense`],
    /// which admits all of them).
    pub fn band_width(&self) -> Option<i64> {
        match self {
            TileShape::Dense => None,
            TileShape::Banded { lo, hi } => Some(hi - lo + 1),
        }
    }

    /// Stable lowercase name, used in metrics and bench reports.
    pub fn name(&self) -> &'static str {
        match self {
            TileShape::Dense => "dense",
            TileShape::Banded { .. } => "banded",
        }
    }
}

/// Builder for [`Tiling`].
pub struct TilingBuilder {
    system: ConstraintSystem,
    templates: TemplateSet,
    widths: Vec<i64>,
    loop_order: Option<Vec<usize>>,
    band: Option<(usize, usize, i64, i64)>,
}

impl TilingBuilder {
    /// Start from the problem's iteration space (variables = the `x_k`,
    /// parameters marked as such in the space), its validated template set
    /// and the tile widths `w_k` (one per dimension).
    pub fn new(
        system: ConstraintSystem,
        templates: TemplateSet,
        widths: Vec<i64>,
    ) -> TilingBuilder {
        TilingBuilder {
            system,
            templates,
            widths,
            loop_order: None,
            band: None,
        }
    }

    /// Loop ordering over problem dimensions, outermost first (a permutation
    /// of `0..d`). Defaults to `0, 1, ..., d-1`.
    pub fn loop_order(mut self, order: Vec<usize>) -> TilingBuilder {
        self.loop_order = Some(order);
        self
    }

    /// Restrict the iteration space to the diagonal band
    /// `lo <= x_a - x_b <= hi` and mark the tiling
    /// [`TileShape::Banded`]. The band constraints join the system before
    /// derivation, so they flow into every derived artifact at once: the
    /// tile space excludes out-of-band tiles, the within-tile nest and the
    /// innermost-run clipping skip out-of-band cells, the validity checks
    /// mask out-of-band dependencies, and the edge nests never pack
    /// out-of-band payload.
    pub fn band(mut self, a: usize, b: usize, lo: i64, hi: i64) -> TilingBuilder {
        self.band = Some((a, b, lo, hi));
        self
    }

    /// Derive the full tiling.
    pub fn build(self) -> Result<Tiling, TilingError> {
        let mut system = self.system;
        if let Some((a, b, lo, hi)) = self.band {
            let d = system.space().var_indices().len();
            if a >= d || b >= d || a == b {
                return Err(TilingError::Input(format!(
                    "band dimensions ({a}, {b}) invalid for a {d}-dimensional space"
                )));
            }
            if lo > hi {
                return Err(TilingError::Input(format!("empty band [{lo}, {hi}]")));
            }
            let dim = system.space().dim();
            // x_a - x_b >= lo
            let mut ge = LinExpr::zero(dim);
            ge.set_coeff(a, 1);
            ge.set_coeff(b, -1);
            ge.set_constant(-(lo as i128));
            system.add(Constraint::ge0(ge))?;
            // x_a - x_b <= hi
            let mut le = LinExpr::zero(dim);
            le.set_coeff(a, -1);
            le.set_coeff(b, 1);
            le.set_constant(hi as i128);
            system.add(Constraint::ge0(le))?;
        }
        Tiling::derive(
            system,
            self.templates,
            self.widths,
            self.loop_order,
            self.band,
        )
    }
}

/// One cell of an executing tile, as seen by the user's center-loop code
/// (the paper's programming interface, Section IV-B).
#[derive(Debug, Clone, Copy)]
pub struct CellRef<'a> {
    /// Buffer index of the current location (`V[loc]`).
    pub loc: usize,
    /// Global coordinates `x` of the current location.
    pub x: &'a [i64],
    /// Local (within-tile) coordinates `i`.
    pub local: &'a [i64],
    /// `is_valid_r<j>` per template: true when `x + r_j` lies inside the
    /// iteration space (so `V[loc_r<j>]` holds a computed value).
    pub valid: &'a [bool],
    /// Per-template constant buffer offsets: `loc_r<j> = loc + offsets[j]`
    /// (signed).
    pub offsets: &'a [i64],
}

impl CellRef<'_> {
    /// Buffer index of dependency `j` (`V[loc_r<j>]`).
    pub fn loc_r(&self, j: usize) -> usize {
        (self.loc as i64 + self.offsets[j]) as usize
    }
}

/// One affine-valid innermost interior run, as handed to a run-batched
/// kernel: a contiguous sub-interval of one innermost row on which *every*
/// validity check is proven `>= 0` (so every `valid` flag is true for every
/// cell), with precomputed buffer geometry so the kernel body is a tight
/// counted loop the compiler can vectorize.
///
/// Cells are numbered `0..len` in visit (dependency-respecting) order; the
/// fields describe the first visited cell and the per-cell increments.
#[derive(Debug, Clone, Copy)]
pub struct RunCtx<'a> {
    /// Buffer index of the first visited cell.
    pub loc: usize,
    /// Signed buffer-index increment per visited cell (`±` the innermost
    /// dimension's stride; negative on descending scans).
    pub loc_step: i64,
    /// Number of cells in the run (`>= 1`).
    pub len: usize,
    /// Global coordinates `x` of the first visited cell.
    pub x: &'a [i64],
    /// Local (within-tile) coordinates of the first visited cell.
    pub local: &'a [i64],
    /// Problem-dimension index of the innermost loop level — the only
    /// coordinate that varies across the run.
    pub inner_dim: usize,
    /// Signed increment of `x[inner_dim]` (and `local[inner_dim]`) per
    /// visited cell (`+1` ascending, `-1` descending).
    pub x_step: i64,
    /// Per-template constant buffer offsets: `loc_r<j> = loc + offsets[j]`
    /// for every cell of the run.
    pub offsets: &'a [i64],
}

impl RunCtx<'_> {
    /// Buffer index of visited cell `i` (`0 <= i < len`).
    pub fn loc_at(&self, i: usize) -> usize {
        (self.loc as i64 + self.loc_step * i as i64) as usize
    }

    /// Buffer index of dependency `j` of the *first* visited cell; add
    /// `i * loc_step` for cell `i`.
    pub fn loc_r(&self, j: usize) -> usize {
        (self.loc as i64 + self.offsets[j]) as usize
    }

    /// Global `x[inner_dim]` of visited cell `i`.
    pub fn x_at(&self, i: usize) -> i64 {
        self.x[self.inner_dim] + self.x_step * i as i64
    }

    /// Replay the run cell by cell, in visit order, with the same
    /// `(loc, x, local, valid)` sequence the per-cell fast scan produces
    /// (every `valid` flag true). This is the fallback a non-batched kernel
    /// rides through [`Tiling::scan_tile_fast`].
    pub fn for_each_cell<F: FnMut(CellRef<'_>)>(&self, mut f: F) {
        let d = self.x.len();
        let ntemplates = self.offsets.len();
        debug_assert!(ntemplates <= MAX_CHECKS);
        let valid = [true; MAX_CHECKS];
        let mut local = [0i64; MAX_DIMS];
        let mut x = [0i64; MAX_DIMS];
        local[..d].copy_from_slice(self.local);
        x[..d].copy_from_slice(self.x);
        let mut loc = self.loc as i64;
        for _ in 0..self.len {
            f(CellRef {
                loc: loc as usize,
                x: &x[..d],
                local: &local[..d],
                valid: &valid[..ntemplates],
                offsets: self.offsets,
            });
            loc += self.loc_step;
            local[self.inner_dim] += self.x_step;
            x[self.inner_dim] += self.x_step;
        }
    }
}

/// A rectangle of interior runs: `rows` consecutive runs of one tile scan
/// that have the same length, start at the same innermost index and step by
/// one along the second-innermost loop dimension, so that the whole block is
/// a plain `for row … for cell …` nest with constant strides (the paper's
/// specialised center loop, Sections IV-G/H). A full interior tile of a 2-D
/// problem is one block; a lone run is a block of one row.
///
/// Rows are numbered `0..rows` in visit order; row `r` is [`BlockCtx::first`]
/// moved by `r` row steps.
#[derive(Debug, Clone, Copy)]
pub struct BlockCtx<'a> {
    /// The first visited row.
    pub first: RunCtx<'a>,
    /// Number of rows (`>= 1`).
    pub rows: usize,
    /// Signed buffer-index increment from one row's first cell to the next
    /// row's.
    pub row_step: i64,
    /// Problem-dimension index of the second-innermost loop level — the only
    /// coordinate that varies from row to row. A 1-D tiling has no such
    /// level; its blocks are single rows and carry `first.inner_dim` here.
    pub outer_dim: usize,
    /// Signed increment of `x[outer_dim]` (and `local[outer_dim]`) per row
    /// (`+1` ascending, `-1` descending).
    pub outer_step: i64,
}

impl BlockCtx<'_> {
    /// Replay the block run by run, in visit order: exactly the [`RunCtx`]
    /// sequence the scan hands out when it does not group runs.
    pub fn for_each_run<F: FnMut(RunCtx<'_>)>(&self, mut f: F) {
        let d = self.first.x.len();
        let mut local = [0i64; MAX_DIMS];
        let mut x = [0i64; MAX_DIMS];
        local[..d].copy_from_slice(self.first.local);
        x[..d].copy_from_slice(self.first.x);
        let mut loc = self.first.loc as i64;
        for _ in 0..self.rows {
            f(RunCtx {
                loc: loc as usize,
                x: &x[..d],
                local: &local[..d],
                ..self.first
            });
            loc += self.row_step;
            local[self.outer_dim] += self.outer_step;
            x[self.outer_dim] += self.outer_step;
        }
    }

    /// The block as dense row windows of `values`, for kernels that sweep it
    /// with plain slice indexing: `rows + 1` disjoint windows of
    /// `first.len + 1` cells each, in buffer order — first the buffer row
    /// *before* row 0 (ghost cells or cells computed earlier), then rows
    /// `0..rows`. Index 0 of a window is the cell before the row's first
    /// cell (its column −1), index `i + 1` is visited cell `i`.
    ///
    /// `Some` only for the shape that makes those windows disjoint slices:
    /// cells ascend at unit stride and each row lies wholly after the one
    /// before it (`row_step > first.len`). Anything else — a descending or
    /// strided scan, a block whose windows would leave the buffer — is
    /// `None`, and the kernel falls back to [`BlockCtx::for_each_run`].
    pub fn row_windows<'v, T>(
        &self,
        values: &'v mut [T],
    ) -> Option<impl Iterator<Item = &'v mut [T]> + 'v> {
        let len = self.first.len;
        let step = usize::try_from(self.row_step).ok()?;
        if self.first.loc_step != 1 || step <= len {
            return None;
        }
        let start = self.first.loc.checked_sub(step + 1)?;
        let cells = self.rows.checked_mul(step)?.checked_add(len + 1)?;
        let span = values.get_mut(start..start.checked_add(cells)?)?;
        Some(span.chunks_mut(step).map(move |row| &mut row[..=len]))
    }
}

/// Visitor for [`Tiling::scan_tile_runs`]: boundary cells arrive one at a
/// time through [`TileVisitor::cell`]; whole interior runs arrive through
/// [`TileVisitor::run`]. Together they cover exactly the cell sequence of
/// [`Tiling::scan_tile`], in the same dependency-respecting order.
///
/// [`Tiling::replay`] groups the runs of a recording into rectangles and
/// hands each to [`TileVisitor::block`]; a visitor that does not override it
/// sees the same `cell`/`run` sequence from a replay as from the scan.
pub trait TileVisitor {
    /// One boundary cell (per-cell validity flags).
    fn cell(&mut self, cell: CellRef<'_>);
    /// One interior run (every validity flag true for every cell).
    fn run(&mut self, run: RunCtx<'_>);
    /// One rectangle of interior runs. Default: its runs, one at a time.
    fn block(&mut self, block: BlockCtx<'_>) {
        block.for_each_run(|run| self.run(run));
    }
}

/// Adapter driving a per-cell closure through the run visitor: runs are
/// replayed cell by cell, reproducing `scan_tile_fast`'s exact sequence.
pub struct EachCell<F>(pub F);

impl<F: FnMut(CellRef<'_>)> TileVisitor for EachCell<F> {
    fn cell(&mut self, cell: CellRef<'_>) {
        (self.0)(cell)
    }
    fn run(&mut self, run: RunCtx<'_>) {
        run.for_each_cell(&mut self.0)
    }
}

/// Everything derived from one problem description: iteration spaces, tile
/// space, dependencies, validity/mapping functions and edge layouts.
#[derive(Debug, Clone)]
pub struct Tiling {
    original: ConstraintSystem,
    templates: TemplateSet,
    widths: Vec<i64>,
    loop_order: Vec<usize>,
    ext_space: Space,
    i_cols: Vec<usize>,
    t_cols: Vec<usize>,
    param_cols: Vec<usize>,
    local_system: ConstraintSystem,
    local_nest: LoopNest,
    pub(crate) local_desc: Vec<bool>,
    tile_system: ConstraintSystem,
    tile_nest: LoopNest,
    original_nest: LoopNest,
    deps: Vec<TileDep>,
    layout: TileLayout,
    edges: Vec<EdgeLayout>,
    /// Unique validity check expressions over the extended space.
    validity_checks: Vec<LinExpr>,
    /// Per template: indices into `validity_checks` that must all be `>= 0`.
    validity_per_template: Vec<Vec<usize>>,
    /// The cell-level region shape ([`TileShape::Banded`] when the builder
    /// declared a band).
    shape: TileShape,
    /// The band's dimension pair `(a, b)` (`lo <= x_a - x_b <= hi`);
    /// `None` for dense tilings.
    band_dims: Option<(usize, usize)>,
    /// What a tile's geometry class is read from ([`Tiling::signature`]).
    pub(crate) sig_rows: SigRows,
}

impl Tiling {
    fn derive(
        original: ConstraintSystem,
        templates: TemplateSet,
        widths: Vec<i64>,
        loop_order: Option<Vec<usize>>,
        band: Option<(usize, usize, i64, i64)>,
    ) -> Result<Tiling, TilingError> {
        let var_cols = original.space().var_indices();
        let d = var_cols.len();
        if d == 0 || d > MAX_DIMS {
            return Err(TilingError::Input(format!(
                "problem must have 1..={MAX_DIMS} dimensions, has {d}"
            )));
        }
        if templates.dims() != d {
            return Err(TilingError::Input(format!(
                "templates have {} dimensions, problem has {d}",
                templates.dims()
            )));
        }
        if widths.len() != d {
            return Err(TilingError::Input(format!(
                "{} widths given for {d} dimensions",
                widths.len()
            )));
        }
        if widths.iter().any(|&w| w < 1) {
            return Err(TilingError::Input("tile widths must be >= 1".into()));
        }
        let loop_order = loop_order.unwrap_or_else(|| (0..d).collect());
        {
            let mut sorted = loop_order.clone();
            sorted.sort_unstable();
            if sorted != (0..d).collect::<Vec<_>>() {
                return Err(TilingError::Input(format!(
                    "loop order {loop_order:?} is not a permutation of 0..{d}"
                )));
            }
        }
        // The original system's variable columns must come first (the
        // standard Space::from_names layout).
        if var_cols != (0..d).collect::<Vec<_>>() {
            return Err(TilingError::Input(
                "iteration-space variables must precede parameters in the space".into(),
            ));
        }

        // --- Extended space: [i_0.., t_0.., params..] ------------------
        let orig_space = original.space();
        let mut ext_space = Space::new();
        let mut i_cols = Vec::with_capacity(d);
        let mut t_cols = Vec::with_capacity(d);
        for k in 0..d {
            i_cols.push(ext_space.add(&format!("i_{}", orig_space.name(k)), VarKind::Var)?);
        }
        for k in 0..d {
            t_cols.push(ext_space.add(&format!("t_{}", orig_space.name(k)), VarKind::Var)?);
        }
        let mut param_cols = Vec::new();
        for &p in &orig_space.param_indices() {
            param_cols.push(ext_space.add(orig_space.name(p), VarKind::Param)?);
        }
        let orig_param_cols = orig_space.param_indices();

        // Translate an original-space expression (x_k = i_k + w_k t_k).
        let ext_dim = ext_space.dim();
        let to_ext = |expr: &LinExpr| -> LinExpr {
            let mut out = LinExpr::zero(ext_dim);
            for k in 0..d {
                let a = expr.coeff(k);
                if a != 0 {
                    out.set_coeff(i_cols[k], a);
                    out.set_coeff(t_cols[k], a * widths[k] as i128);
                }
            }
            for (ek, &ok) in param_cols.iter().zip(&orig_param_cols) {
                out.set_coeff(*ek, expr.coeff(ok));
            }
            out.set_constant(expr.constant_term());
            out
        };

        // --- Local (within-tile) iteration space -----------------------
        let mut local_system = ConstraintSystem::new(ext_space.clone());
        for c in original.constraints() {
            local_system.add(Constraint::ge0(to_ext(c.expr())))?;
        }
        for k in 0..d {
            // 0 <= i_k <= w_k - 1
            local_system.add(Constraint::ge0(LinExpr::var(ext_dim, i_cols[k])))?;
            let mut ub = LinExpr::zero(ext_dim);
            ub.set_coeff(i_cols[k], -1);
            ub.set_constant(widths[k] as i128 - 1);
            local_system.add(Constraint::ge0(ub))?;
        }
        local_system.simplify();

        let i_order: Vec<usize> = loop_order.iter().map(|&k| i_cols[k]).collect();
        let local_nest = LoopNest::synthesize_with_free(&local_system, &i_order)?;
        let local_desc: Vec<bool> = loop_order
            .iter()
            .map(|&k| templates.directions()[k] == Direction::Descending)
            .collect();

        // --- Tile space: FM-eliminate the local indices ----------------
        let tile_system = dpgen_polyhedra::fm::eliminate_all(&local_system, &i_cols)?;
        let t_order: Vec<usize> = loop_order.iter().map(|&k| t_cols[k]).collect();
        let tile_nest = LoopNest::synthesize_with_free(&tile_system, &t_order)?;

        // --- Original-space nest (reference scans, work counting) ------
        let original_nest = LoopNest::synthesize(&original, &loop_order)?;

        // --- Tile dependencies, layout, edges ---------------------------
        let deps = derive_tile_deps(&templates, &widths);
        let layout = TileLayout::new(&widths, &templates);
        let edge_band = band.map(|(a, b, lo, hi)| (a, b, hi - lo + 1));
        let edges = build_edge_layouts(
            &local_system,
            &i_cols,
            &i_order,
            &layout,
            &templates,
            &deps,
            edge_band,
        )?;

        // --- Validity functions (Section IV-G) --------------------------
        // Template j needs constraint c checked iff adding r_j can violate
        // it, i.e. the shift a·r_j is negative. The shifted constraint is the
        // original with constant increased by a·r_j; identical shifted
        // expressions are shared between templates (the paper's reuse).
        let mut validity_checks: Vec<LinExpr> = Vec::new();
        let mut validity_per_template: Vec<Vec<usize>> = Vec::with_capacity(templates.len());
        for t in templates.templates() {
            let mut idxs = Vec::new();
            for c in original.constraints() {
                let shift: i128 = (0..d)
                    .map(|k| c.expr().coeff(k) * t.offset[k] as i128)
                    .sum();
                if shift < 0 {
                    let mut shifted = c.expr().clone();
                    shifted.set_constant(shifted.constant_term() + shift);
                    let ext = to_ext(&shifted);
                    match validity_checks.iter().position(|e| *e == ext) {
                        Some(idx) => idxs.push(idx),
                        None => {
                            idxs.push(validity_checks.len());
                            validity_checks.push(ext);
                        }
                    }
                }
            }
            idxs.sort_unstable();
            idxs.dedup();
            validity_per_template.push(idxs);
        }

        let sig_rows = SigRows::new(
            &local_system,
            &validity_checks,
            &i_cols,
            &t_cols,
            &param_cols,
            &widths,
        )?;

        Ok(Tiling {
            original,
            templates,
            widths,
            loop_order,
            ext_space,
            i_cols,
            t_cols,
            param_cols,
            local_system,
            local_nest,
            local_desc,
            tile_system,
            tile_nest,
            original_nest,
            deps,
            layout,
            edges,
            validity_checks,
            validity_per_template,
            shape: match band {
                Some((_, _, lo, hi)) => TileShape::Banded { lo, hi },
                None => TileShape::Dense,
            },
            band_dims: band.map(|(a, b, _, _)| (a, b)),
            sig_rows,
        })
    }

    /// Problem dimensionality.
    pub fn dims(&self) -> usize {
        self.widths.len()
    }

    /// Tile widths per dimension.
    pub fn widths(&self) -> &[i64] {
        &self.widths
    }

    /// The cell-level region shape ([`TileShape::Banded`] when the tiling
    /// was built with [`TilingBuilder::band`]).
    pub fn shape(&self) -> TileShape {
        self.shape
    }

    /// The band's dimension pair `(a, b)` — `lo <= x_a - x_b <= hi` with
    /// `lo`/`hi` from [`Tiling::shape`] — or `None` for dense tilings.
    pub fn band_dims(&self) -> Option<(usize, usize)> {
        self.band_dims
    }

    /// The problem's original iteration space.
    pub fn original(&self) -> &ConstraintSystem {
        &self.original
    }

    /// The validated template set.
    pub fn templates(&self) -> &TemplateSet {
        &self.templates
    }

    /// Loop ordering over problem dimensions, outermost first.
    pub fn loop_order(&self) -> &[usize] {
        &self.loop_order
    }

    /// The extended space `[i_.., t_.., params..]`.
    pub fn ext_space(&self) -> &Space {
        &self.ext_space
    }

    /// Extended-space columns of the local indices, problem-dimension order.
    pub fn i_cols(&self) -> &[usize] {
        &self.i_cols
    }

    /// Extended-space columns of the tile indices, problem-dimension order.
    pub fn t_cols(&self) -> &[usize] {
        &self.t_cols
    }

    /// Extended-space columns of the parameters.
    pub fn param_cols(&self) -> &[usize] {
        &self.param_cols
    }

    /// The within-tile iteration space over the extended space.
    pub fn local_system(&self) -> &ConstraintSystem {
        &self.local_system
    }

    /// The within-tile loop nest (Figure 3).
    pub fn local_nest(&self) -> &LoopNest {
        &self.local_nest
    }

    /// The tile space (constraints over tile indices and parameters).
    pub fn tile_system(&self) -> &ConstraintSystem {
        &self.tile_system
    }

    /// The loop nest scanning all tile indices.
    pub fn tile_nest(&self) -> &LoopNest {
        &self.tile_nest
    }

    /// Loop nest scanning the *original* (untiled) iteration space, used by
    /// serial reference executions and work counting.
    pub fn original_nest(&self) -> &LoopNest {
        &self.original_nest
    }

    /// The distinct tile dependencies (sorted by offset).
    pub fn deps(&self) -> &[TileDep] {
        &self.deps
    }

    /// The ghost-padded tile buffer layout.
    pub fn layout(&self) -> &TileLayout {
        &self.layout
    }

    /// Edge layouts, aligned with [`Tiling::deps`].
    pub fn edges(&self) -> &[EdgeLayout] {
        &self.edges
    }

    /// Unique validity-check expressions over the extended space
    /// (Section IV-G); shared between templates.
    pub fn validity_checks(&self) -> &[LinExpr] {
        &self.validity_checks
    }

    /// Per template: indices into [`Tiling::validity_checks`] that must all
    /// evaluate `>= 0` for the dependency to be valid.
    pub fn validity_per_template(&self) -> &[Vec<usize>] {
        &self.validity_per_template
    }

    /// Index of the dependency with the given offset in [`Tiling::deps`]
    /// (and [`Tiling::edges`]), if it is one.
    pub fn dep_index(&self, delta: &Coord) -> Option<usize> {
        self.deps.iter().position(|dep| &dep.delta == delta)
    }

    /// Allocate a full extended-space point with the parameters bound.
    pub fn make_point(&self, params: &[i64]) -> Vec<i128> {
        assert_eq!(
            params.len(),
            self.param_cols.len(),
            "parameter arity mismatch"
        );
        let mut point = vec![0i128; self.ext_space.dim()];
        for (col, &v) in self.param_cols.iter().zip(params) {
            point[*col] = v as i128;
        }
        point
    }

    /// Write a tile's indices into an extended point.
    pub fn set_tile(&self, tile: &Coord, point: &mut [i128]) {
        tile.write_to(point, &self.t_cols);
    }

    /// Is this tile index inside the tile space? (Over-approximate for
    /// sharp corners — an included tile may still contain zero cells, which
    /// is handled uniformly by empty loops.)
    pub fn tile_in_space(&self, tile: &Coord, point: &mut [i128]) -> bool {
        self.set_tile(tile, point);
        self.tile_system
            .contains(point)
            .expect("tile-space membership evaluation failed")
    }

    /// Visit every valid tile index (in tile-nest order).
    pub fn for_each_tile<F: FnMut(Coord)>(&self, point: &mut [i128], mut f: F) {
        let t_cols = &self.t_cols;
        let d = self.dims();
        self.tile_nest
            .for_each_point(point, |p| {
                let mut c = Coord::zeros(d);
                for k in 0..d {
                    c.set(k, p[t_cols[k]] as i64);
                }
                f(c);
            })
            .expect("tile enumeration failed");
    }

    /// Number of tile dependencies of `tile` that point to valid tiles —
    /// the count the scheduler waits for before executing it.
    pub fn dep_total(&self, tile: &Coord, point: &mut [i128]) -> usize {
        self.deps
            .iter()
            .filter(|dep| {
                let n = tile.add(&dep.delta);
                self.tile_in_space(&n, point)
            })
            .count()
    }

    /// Number of cells in one tile.
    pub fn tile_cell_count(&self, tile: &Coord, point: &mut [i128]) -> u128 {
        self.set_tile(tile, point);
        self.local_nest
            .count(point)
            .expect("tile cell count failed")
    }

    /// Total number of cells in the whole iteration space (original space;
    /// `point` must be an original-space point with parameters bound).
    pub fn total_cells(&self, params: &[i64]) -> u128 {
        let dim = self.original.space().dim();
        let mut point = vec![0i128; dim];
        for (k, &p) in self.original.space().param_indices().iter().zip(params) {
            point[*k] = p as i128;
        }
        self.original_nest
            .count(&mut point)
            .expect("total cell count failed")
    }

    /// Execute the center-loop scan over one tile: visit every cell in a
    /// dependency-respecting order (descending per Figure 3 for positive
    /// templates), handing the kernel a [`CellRef`] with the paper's
    /// programming-interface symbols.
    ///
    /// This is the reference scan: one validity evaluation per check per
    /// cell, no runs. Nothing executes through it — the node engine and
    /// traceback replay [`Tiling::record`]ings of
    /// [`Tiling::scan_tile_runs`] — it is the oracle the tests hold the
    /// faster scans to.
    pub fn scan_tile<F: FnMut(CellRef<'_>)>(
        &self,
        tile: &Coord,
        point: &mut [i128],
        mut f: F,
    ) -> Result<(), PolyError> {
        self.set_tile(tile, point);
        let d = self.dims();
        let i_cols = &self.i_cols;
        let widths = &self.widths;
        let layout = &self.layout;
        let checks = &self.validity_checks;
        let per_template = &self.validity_per_template;
        let offsets = layout.template_offsets();
        let ntemplates = self.templates.len();
        let mut local = [0i64; MAX_DIMS];
        let mut x = [0i64; MAX_DIMS];
        let mut valid = [false; MAX_CHECKS];
        let mut check_vals = [false; MAX_CHECKS];
        assert!(ntemplates <= MAX_CHECKS, "too many templates");
        assert!(checks.len() <= MAX_CHECKS, "too many validity checks");
        let tile_vals = tile.as_slice();
        self.local_nest
            .for_each_point_directed(point, &self.local_desc, |p| {
                for k in 0..d {
                    local[k] = p[i_cols[k]] as i64;
                    x[k] = local[k] + widths[k] * tile_vals[k];
                }
                for (ci, check) in checks.iter().enumerate() {
                    check_vals[ci] = check.eval(p).expect("validity evaluation failed") >= 0;
                }
                for (j, idxs) in per_template.iter().enumerate() {
                    valid[j] = idxs.iter().all(|&ci| check_vals[ci]);
                }
                let loc = layout.loc(&local[..d]);
                f(CellRef {
                    loc,
                    x: &x[..d],
                    local: &local[..d],
                    valid: &valid[..ntemplates],
                    offsets,
                });
            })
    }

    /// Execute the center-loop scan over one tile with the interior
    /// fast path: visits exactly the same `(loc, x, local, valid)`
    /// sequence as [`Tiling::scan_tile`], but splits every innermost row
    /// into an *interior run* — the contiguous sub-interval where every
    /// validity check is provably `>= 0` — and the remaining *boundary
    /// cells*.
    ///
    /// Each validity check is affine in the innermost local index, so its
    /// sign along a row is decided by one `i128` evaluation at the row
    /// origin plus a division; inside the run, `loc` and `x` advance
    /// incrementally and the `valid` flags are a constant all-true slice.
    /// Only boundary cells pay the reference scan's per-cell check
    /// evaluation. For dense interiors this removes almost all of the
    /// per-cell polyhedral arithmetic (the specialization Section IV-G/H
    /// of the paper bakes into its generated loop nests).
    pub fn scan_tile_fast<F: FnMut(CellRef<'_>)>(
        &self,
        tile: &Coord,
        point: &mut [i128],
        f: F,
    ) -> Result<ScanCounts, PolyError> {
        self.scan_tile_runs(tile, point, &mut EachCell(f))
    }

    /// The run-visitor form of [`Tiling::scan_tile_fast`], and the walk
    /// [`Tiling::record`] records, once per tile class: boundary cells
    /// reach `visitor.cell(..)` one at a time, and each all-valid interior
    /// run reaches `visitor.run(..)` *whole*, with its endpoints and buffer
    /// geometry precomputed ([`RunCtx`]). Run-batched kernels hang off this
    /// entry point; replaying every run through [`RunCtx::for_each_cell`]
    /// reproduces `scan_tile_fast`'s exact per-cell sequence.
    pub fn scan_tile_runs<V: TileVisitor>(
        &self,
        tile: &Coord,
        point: &mut [i128],
        visitor: &mut V,
    ) -> Result<ScanCounts, PolyError> {
        self.set_tile(tile, point);
        let ntemplates = self.templates.len();
        let checks = &self.validity_checks;
        assert!(ntemplates <= MAX_CHECKS, "too many templates");
        assert!(checks.len() <= MAX_CHECKS, "too many validity checks");
        if !self.local_nest.context_holds(point)? {
            return Ok(ScanCounts::default());
        }
        let inner_dim = *self.loop_order.last().expect("tiling has >= 1 dim");
        let inner_col = self.i_cols[inner_dim];
        let mut inner_coeff = [0i128; MAX_CHECKS];
        for (ci, check) in checks.iter().enumerate() {
            inner_coeff[ci] = check.coeff(inner_col);
        }
        let mut scan = FastScan {
            tiling: self,
            visitor,
            inner_dim,
            inner_col,
            inner_x_base: self.widths[inner_dim] * tile[inner_dim],
            inner_stride: self.layout.strides()[inner_dim],
            inner_coeff,
            tile: *tile,
            local: [0; MAX_DIMS],
            x: [0; MAX_DIMS],
            valid: [false; MAX_CHECKS],
            check_vals: [false; MAX_CHECKS],
            counts: ScanCounts::default(),
        };
        scan.walk(0, point)?;
        Ok(scan.counts)
    }
}

/// Cell counters reported by [`Tiling::scan_tile_fast`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanCounts {
    /// Cells visited inside an interior run: all validity flags proven
    /// true for the whole run from one evaluation per check, `loc`/`x`
    /// advanced incrementally.
    pub interior_cells: u64,
    /// Cells visited by the per-cell fallback (rows with no interior run,
    /// and the row remainder outside the run).
    pub boundary_cells: u64,
    /// Number of interior runs (each covering `>= 1` interior cells); the
    /// mean run length is `interior_cells / interior_runs`.
    pub interior_runs: u64,
}

impl ScanCounts {
    /// Total cells visited.
    pub fn total(&self) -> u64 {
        self.interior_cells + self.boundary_cells
    }

    /// Mean interior-run length in cells (0 when no run was emitted).
    pub fn mean_run_len(&self) -> f64 {
        if self.interior_runs == 0 {
            0.0
        } else {
            self.interior_cells as f64 / self.interior_runs as f64
        }
    }
}

/// Recursive walker behind [`Tiling::scan_tile_fast`]: outer loop levels
/// replay the directed nest walk; the innermost level is split into
/// boundary segments and the all-valid interior run.
struct FastScan<'a, V> {
    tiling: &'a Tiling,
    visitor: &'a mut V,
    /// Problem-dimension index of the innermost loop level.
    inner_dim: usize,
    /// Extended-space column of the innermost local index.
    inner_col: usize,
    /// `widths[inner_dim] * tile[inner_dim]`: global = local + base.
    inner_x_base: i64,
    /// Buffer stride of one step along the innermost dimension.
    inner_stride: i64,
    /// Coefficient of the innermost local index in each validity check.
    inner_coeff: [i128; MAX_CHECKS],
    tile: Coord,
    local: [i64; MAX_DIMS],
    x: [i64; MAX_DIMS],
    valid: [bool; MAX_CHECKS],
    check_vals: [bool; MAX_CHECKS],
    counts: ScanCounts,
}

impl<V: TileVisitor> FastScan<'_, V> {
    fn walk(&mut self, depth: usize, point: &mut [i128]) -> Result<(), PolyError> {
        let levels = self.tiling.local_nest.levels();
        let level = &levels[depth];
        let desc = self.tiling.local_desc[depth];
        let Some((lb, ub)) = level.bounds_at(point)? else {
            return Ok(());
        };
        if depth + 1 == levels.len() {
            return self.scan_row(point, lb, ub, desc);
        }
        let dim = self.tiling.loop_order[depth];
        let x_base = self.tiling.widths[dim] * self.tile[dim];
        let mut v = if desc { ub } else { lb };
        loop {
            point[level.var] = v;
            self.local[dim] = v as i64;
            self.x[dim] = v as i64 + x_base;
            self.walk(depth + 1, point)?;
            if desc {
                if v == lb {
                    break;
                }
                v -= 1;
            } else {
                if v == ub {
                    break;
                }
                v += 1;
            }
        }
        Ok(())
    }

    /// Scan one innermost row `[lb, ub]` in direction `desc`.
    fn scan_row(
        &mut self,
        point: &mut [i128],
        lb: i128,
        ub: i128,
        desc: bool,
    ) -> Result<(), PolyError> {
        let checks = self.tiling.validity_checks.as_slice();
        // The all-valid interval: check `base + coeff * v >= 0` restricted
        // to `[lb, ub]`. One evaluation per check per row, instead of one
        // per check per cell.
        point[self.inner_col] = 0;
        let mut run_lo = lb;
        let mut run_hi = ub;
        for (ci, check) in checks.iter().enumerate() {
            let base = check.eval(point)?;
            let c = self.inner_coeff[ci];
            if c == 0 {
                if base < 0 {
                    run_hi = run_lo - 1; // constant-false check: no run
                    break;
                }
            } else if c > 0 {
                run_lo = run_lo.max(ceil_div(-base, c));
            } else {
                run_hi = run_hi.min(floor_div(base, -c));
            }
            if run_lo > run_hi {
                break;
            }
        }
        if run_lo > run_hi {
            // No interior: whole row through the per-cell fallback.
            return self.boundary_segment(point, lb, ub, desc);
        }
        if desc {
            self.boundary_segment(point, run_hi + 1, ub, true)?;
            self.interior_run(run_lo, run_hi, true);
            self.boundary_segment(point, lb, run_lo - 1, true)
        } else {
            self.boundary_segment(point, lb, run_lo - 1, false)?;
            self.interior_run(run_lo, run_hi, false);
            self.boundary_segment(point, run_hi + 1, ub, false)
        }
    }

    /// Per-cell fallback over `[lo, hi]` (empty when `lo > hi`): identical
    /// to the reference scan's body.
    fn boundary_segment(
        &mut self,
        point: &mut [i128],
        lo: i128,
        hi: i128,
        desc: bool,
    ) -> Result<(), PolyError> {
        if lo > hi {
            return Ok(());
        }
        let tiling = self.tiling;
        let d = tiling.widths.len();
        let checks = tiling.validity_checks.as_slice();
        let ntemplates = tiling.templates.len();
        let offsets = tiling.layout.template_offsets();
        let mut v = if desc { hi } else { lo };
        loop {
            point[self.inner_col] = v;
            self.local[self.inner_dim] = v as i64;
            self.x[self.inner_dim] = v as i64 + self.inner_x_base;
            for (ci, check) in checks.iter().enumerate() {
                self.check_vals[ci] = check.eval(point)? >= 0;
            }
            for (j, idxs) in tiling.validity_per_template.iter().enumerate() {
                self.valid[j] = idxs.iter().all(|&ci| self.check_vals[ci]);
            }
            let loc = tiling.layout.loc(&self.local[..d]);
            self.visitor.cell(CellRef {
                loc,
                x: &self.x[..d],
                local: &self.local[..d],
                valid: &self.valid[..ntemplates],
                offsets,
            });
            self.counts.boundary_cells += 1;
            if desc {
                if v == lo {
                    break;
                }
                v -= 1;
            } else {
                if v == hi {
                    break;
                }
                v += 1;
            }
        }
        Ok(())
    }

    /// The all-valid run `[lo, hi]`: handed to the visitor whole, as a
    /// [`RunCtx`] describing the first visited cell and the per-cell
    /// increments — no per-cell polyhedral arithmetic.
    fn interior_run(&mut self, lo: i128, hi: i128, desc: bool) {
        let tiling = self.tiling;
        let d = tiling.widths.len();
        let offsets = tiling.layout.template_offsets();
        let start = if desc { hi } else { lo };
        let step: i64 = if desc { -1 } else { 1 };
        let loc_step = if desc {
            -self.inner_stride
        } else {
            self.inner_stride
        };
        self.local[self.inner_dim] = start as i64;
        self.x[self.inner_dim] = start as i64 + self.inner_x_base;
        let loc = tiling.layout.loc(&self.local[..d]);
        let n = (hi - lo + 1) as u64;
        self.visitor.run(RunCtx {
            loc,
            loc_step,
            len: n as usize,
            x: &self.x[..d],
            local: &self.local[..d],
            inner_dim: self.inner_dim,
            x_step: step,
            offsets,
        });
        self.counts.interior_cells += n;
        self.counts.interior_runs += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::Template;

    /// The 2-D triangle problem: x + y <= N, x, y >= 0 with unit templates —
    /// a 2-D stand-in for the bandit simplex.
    fn triangle_tiling(w: i64) -> Tiling {
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
    fn tile_space_membership() {
        let tiling = triangle_tiling(4);
        let mut point = tiling.make_point(&[10]); // N = 10: x, y in [0, 10]
                                                  // Tiles (0,0) .. (2,2): tile (tx, ty) valid iff it contains a point
                                                  // with 4tx + 4ty <= 10, i.e. tx + ty <= 2 (since local origin).
        assert!(tiling.tile_in_space(&Coord::from_slice(&[0, 0]), &mut point));
        assert!(tiling.tile_in_space(&Coord::from_slice(&[2, 0]), &mut point));
        assert!(tiling.tile_in_space(&Coord::from_slice(&[1, 1]), &mut point));
        assert!(!tiling.tile_in_space(&Coord::from_slice(&[2, 1]), &mut point));
        assert!(!tiling.tile_in_space(&Coord::from_slice(&[3, 0]), &mut point));
        assert!(!tiling.tile_in_space(&Coord::from_slice(&[-1, 0]), &mut point));
    }

    #[test]
    fn tiles_cover_iteration_space_exactly() {
        // Every original point must lie in exactly one tile's local scan.
        let tiling = triangle_tiling(3);
        let n = 8i64;
        let mut point = tiling.make_point(&[n]);
        let mut covered = std::collections::BTreeMap::new();
        let mut tiles = Vec::new();
        tiling.for_each_tile(&mut point, |t| tiles.push(t));
        for t in &tiles {
            let mut p = tiling.make_point(&[n]);
            tiling
                .scan_tile(t, &mut p, |cell| {
                    *covered.entry((cell.x[0], cell.x[1])).or_insert(0) += 1;
                })
                .unwrap();
        }
        let mut expect = std::collections::BTreeMap::new();
        for x in 0..=n {
            for y in 0..=(n - x) {
                expect.insert((x, y), 1);
            }
        }
        assert_eq!(covered, expect);
    }

    #[test]
    fn scan_order_respects_dependencies() {
        // With positive unit templates, x + r must be scanned before x
        // whenever both are in the same tile.
        let tiling = triangle_tiling(4);
        let mut point = tiling.make_point(&[7]);
        let mut order = std::collections::HashMap::new();
        let mut idx = 0usize;
        tiling
            .scan_tile(&Coord::from_slice(&[0, 0]), &mut point, |cell| {
                order.insert((cell.x[0], cell.x[1]), idx);
                idx += 1;
            })
            .unwrap();
        for (&(x, y), &i) in &order {
            if let Some(&j) = order.get(&(x + 1, y)) {
                assert!(j < i, "({},{}) scanned after its dependency", x, y);
            }
            if let Some(&j) = order.get(&(x, y + 1)) {
                assert!(j < i);
            }
        }
    }

    #[test]
    fn validity_flags_match_geometry() {
        let tiling = triangle_tiling(4);
        let n = 6i64;
        let mut point = tiling.make_point(&[n]);
        tiling
            .scan_tile(&Coord::from_slice(&[1, 0]), &mut point, |cell| {
                let (x, y) = (cell.x[0], cell.x[1]);
                // r1 = +e_x valid iff (x+1) + y <= N.
                assert_eq!(cell.valid[0], x + 1 + y <= n, "r1 at ({x},{y})");
                assert_eq!(cell.valid[1], x + y < n, "r2 at ({x},{y})");
            })
            .unwrap();
    }

    #[test]
    fn dep_total_counts_valid_neighbours() {
        let tiling = triangle_tiling(4);
        let mut point = tiling.make_point(&[10]); // tiles: tx + ty <= 2
                                                  // Corner tile (2,0): neighbours (3,0) and (2,1) are outside -> 0 deps.
        assert_eq!(tiling.dep_total(&Coord::from_slice(&[2, 0]), &mut point), 0);
        // Tile (1,1): neighbour (2,1) invalid, (1,2) invalid -> 0 deps? No:
        // (1,1)+(1,0)=(2,1) invalid; (1,1)+(0,1)=(1,2) invalid. 0 deps.
        assert_eq!(tiling.dep_total(&Coord::from_slice(&[1, 1]), &mut point), 0);
        // Tile (0,0): neighbours (1,0) and (0,1) valid -> 2 deps.
        assert_eq!(tiling.dep_total(&Coord::from_slice(&[0, 0]), &mut point), 2);
        // Tile (1,0): (2,0) valid, (1,1) valid -> 2 deps.
        assert_eq!(tiling.dep_total(&Coord::from_slice(&[1, 0]), &mut point), 2);
    }

    #[test]
    fn cell_counts_add_up() {
        let tiling = triangle_tiling(3);
        let n = 10i64;
        let mut point = tiling.make_point(&[n]);
        let mut tiles = Vec::new();
        tiling.for_each_tile(&mut point, |t| tiles.push(t));
        let total: u128 = tiles
            .iter()
            .map(|t| {
                let mut p = tiling.make_point(&[n]);
                tiling.tile_cell_count(t, &mut p)
            })
            .sum();
        assert_eq!(total, tiling.total_cells(&[n]));
        assert_eq!(total, ((n + 1) * (n + 2) / 2) as u128);
    }

    #[test]
    fn builder_validation() {
        let space = Space::from_names(&["x", "y"], &["N"]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        sys.add_text("0 <= x <= N").unwrap();
        sys.add_text("0 <= y <= N").unwrap();
        let t = TemplateSet::new(2, vec![Template::new("r", &[1, 0])]).unwrap();
        // Wrong width arity.
        assert!(matches!(
            TilingBuilder::new(sys.clone(), t.clone(), vec![4]).build(),
            Err(TilingError::Input(_))
        ));
        // Zero width.
        assert!(matches!(
            TilingBuilder::new(sys.clone(), t.clone(), vec![4, 0]).build(),
            Err(TilingError::Input(_))
        ));
        // Bad loop order.
        assert!(matches!(
            TilingBuilder::new(sys.clone(), t.clone(), vec![4, 4])
                .loop_order(vec![0, 0])
                .build(),
            Err(TilingError::Input(_))
        ));
        // Good build.
        assert!(TilingBuilder::new(sys, t, vec![4, 4]).build().is_ok());
    }

    /// Full visit record of one scan: everything a kernel can observe.
    type Visit = (usize, Vec<i64>, Vec<i64>, Vec<bool>);

    fn record_scans(tiling: &Tiling, params: &[i64]) -> (Vec<Visit>, Vec<Visit>, ScanCounts) {
        let mut point = tiling.make_point(params);
        let mut tiles = Vec::new();
        tiling.for_each_tile(&mut point, |t| tiles.push(t));
        let mut slow = Vec::new();
        let mut fast = Vec::new();
        let mut counts = ScanCounts::default();
        for t in &tiles {
            let mut p = tiling.make_point(params);
            tiling
                .scan_tile(t, &mut p, |cell| {
                    slow.push((
                        cell.loc,
                        cell.x.to_vec(),
                        cell.local.to_vec(),
                        cell.valid.to_vec(),
                    ));
                })
                .unwrap();
            let mut p = tiling.make_point(params);
            let c = tiling
                .scan_tile_fast(t, &mut p, |cell| {
                    fast.push((
                        cell.loc,
                        cell.x.to_vec(),
                        cell.local.to_vec(),
                        cell.valid.to_vec(),
                    ));
                })
                .unwrap();
            counts.interior_cells += c.interior_cells;
            counts.boundary_cells += c.boundary_cells;
        }
        (slow, fast, counts)
    }

    #[test]
    fn fast_scan_matches_reference_on_triangle() {
        for w in [1i64, 3, 4, 10] {
            let tiling = triangle_tiling(w);
            let (slow, fast, counts) = record_scans(&tiling, &[9]);
            assert_eq!(slow, fast, "w={w}");
            assert_eq!(counts.total() as usize, slow.len(), "w={w}");
            assert!(counts.interior_cells > 0, "w={w}: no interior runs found");
        }
    }

    #[test]
    fn fast_scan_matches_reference_with_negative_templates() {
        // Descending-dependency problem: templates point down/left, so the
        // scan ascends and validity cuts sit at the low boundary.
        let space = Space::from_names(&["x", "y"], &["N"]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        sys.add_text("0 <= x <= N").unwrap();
        sys.add_text("0 <= y <= N").unwrap();
        sys.add_text("2*x + y <= 2*N").unwrap();
        let templates = TemplateSet::new(
            2,
            vec![
                Template::new("left", &[-1, 0]),
                Template::new("down", &[0, -1]),
                Template::new("diag", &[-2, -1]),
            ],
        )
        .unwrap();
        let tiling = TilingBuilder::new(sys, templates, vec![3, 5])
            .build()
            .unwrap();
        let (slow, fast, counts) = record_scans(&tiling, &[11]);
        assert_eq!(slow, fast);
        assert_eq!(counts.total() as usize, slow.len());
    }

    #[test]
    fn fast_scan_matches_reference_in_3d() {
        let space = Space::from_names(&["x", "y", "z"], &["N"]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        sys.add_text("x >= 0").unwrap();
        sys.add_text("y >= 0").unwrap();
        sys.add_text("z >= 0").unwrap();
        sys.add_text("x + y + z <= N").unwrap();
        let templates = TemplateSet::new(
            3,
            vec![
                Template::new("r1", &[1, 0, 0]),
                Template::new("r2", &[0, 1, 0]),
                Template::new("r3", &[0, 0, 1]),
            ],
        )
        .unwrap();
        let tiling = TilingBuilder::new(sys, templates, vec![2, 3, 4])
            .build()
            .unwrap();
        let (slow, fast, counts) = record_scans(&tiling, &[8]);
        assert_eq!(slow, fast);
        assert_eq!(counts.total() as usize, slow.len());
        assert!(counts.interior_cells > 0);
    }

    #[test]
    fn fast_scan_matches_reference_in_1d() {
        let space = Space::from_names(&["x"], &["N"]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        sys.add_text("0 <= x <= N").unwrap();
        let templates = TemplateSet::new(1, vec![Template::new("r", &[1])]).unwrap();
        let tiling = TilingBuilder::new(sys, templates, vec![4]).build().unwrap();
        let (slow, fast, counts) = record_scans(&tiling, &[13]);
        assert_eq!(slow, fast);
        assert_eq!(counts.total() as usize, slow.len());
    }

    /// Recording visitor: boundary cells one by one, run cells expanded
    /// from the `RunCtx` arithmetic (not `for_each_cell`, so the geometry
    /// fields are independently exercised).
    #[derive(Default)]
    struct RecordRuns {
        boundary: Vec<(usize, Vec<i64>)>,
        run_cells: Vec<(usize, Vec<i64>)>,
        runs: u64,
    }

    impl TileVisitor for RecordRuns {
        fn cell(&mut self, cell: CellRef<'_>) {
            self.boundary.push((cell.loc, cell.x.to_vec()));
        }
        fn run(&mut self, run: RunCtx<'_>) {
            self.runs += 1;
            assert!(run.len >= 1, "empty run emitted");
            for i in 0..run.len {
                let mut x = run.x.to_vec();
                x[run.inner_dim] += run.x_step * i as i64;
                assert_eq!(x[run.inner_dim], run.x_at(i));
                self.run_cells.push((run.loc_at(i), x));
            }
        }
    }

    /// For every tile: the visitor's runs exactly partition the all-valid
    /// cell set of the reference scan, boundary cells cover the rest, and
    /// both match the `ScanCounts` totals.
    fn check_runs_partition(tiling: &Tiling, params: &[i64]) {
        let mut point = tiling.make_point(params);
        let mut tiles = Vec::new();
        tiling.for_each_tile(&mut point, |t| tiles.push(t));
        for t in &tiles {
            let mut rec = RecordRuns::default();
            let mut p = tiling.make_point(params);
            let counts = tiling.scan_tile_runs(t, &mut p, &mut rec).unwrap();
            assert_eq!(rec.run_cells.len() as u64, counts.interior_cells);
            assert_eq!(rec.boundary.len() as u64, counts.boundary_cells);
            assert_eq!(rec.runs, counts.interior_runs);
            // Reference partition: a cell is interior iff every validity
            // check holds, i.e. every template's valid flag is true.
            let mut ref_interior = Vec::new();
            let mut ref_boundary = Vec::new();
            let mut p = tiling.make_point(params);
            tiling
                .scan_tile(t, &mut p, |cell| {
                    let rec = (cell.loc, cell.x.to_vec());
                    if cell.valid.iter().all(|&v| v) {
                        ref_interior.push(rec);
                    } else {
                        ref_boundary.push(rec);
                    }
                })
                .unwrap();
            let sorted = |mut v: Vec<(usize, Vec<i64>)>| {
                v.sort();
                v
            };
            let runs = sorted(rec.run_cells);
            for pair in runs.windows(2) {
                assert_ne!(pair[0], pair[1], "run cells overlap");
            }
            assert_eq!(
                runs,
                sorted(ref_interior),
                "tile {t:?}: runs != all-valid set"
            );
            assert_eq!(
                sorted(rec.boundary),
                sorted(ref_boundary),
                "tile {t:?}: boundary mismatch"
            );
        }
    }

    #[test]
    fn runs_partition_interior_on_fixed_problems() {
        for w in [1i64, 2, 3, 4, 5] {
            check_runs_partition(&triangle_tiling(w), &[9]);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The fast scan visits the identical `(loc, x, local, valid)`
        /// sequence as the reference scan across randomized polytopes,
        /// widths and template sets (uniform sign per dimension, multi-step
        /// components, extra half-plane cuts).
        #[test]
        fn fast_scan_equivalence(
            n in 2i64..14,
            w1 in 1i64..6,
            w2 in 1i64..6,
            comps in proptest::collection::vec((0i64..3, 0i64..3), 1..4),
            cut in (0i64..3, 0i64..3, 0i64..3),
            sign in proptest::bool::ANY,
        ) {
            use proptest::prelude::*;
            let templates: Vec<Template> = comps
                .iter()
                .enumerate()
                .filter(|(_, &(a, b))| a != 0 || b != 0)
                .map(|(i, &(a, b))| {
                    let (a, b) = if sign { (a, b) } else { (-a, -b) };
                    Template::new(format!("t{i}"), &[a, b])
                })
                .collect();
            if templates.is_empty() {
                return Ok(());
            }
            let space = Space::from_names(&["x", "y"], &["N"]).unwrap();
            let mut sys = ConstraintSystem::new(space);
            sys.add_text("0 <= x <= N").unwrap();
            sys.add_text("0 <= y <= N").unwrap();
            let (a, b, extra) = cut;
            if a + b > 0 {
                // Keeps the origin region feasible while cutting a corner.
                sys.add_text(&format!("{a}*x + {b}*y <= {}*N", a + b + extra)).unwrap();
            }
            let set = TemplateSet::new(2, templates).unwrap();
            let tiling = TilingBuilder::new(sys, set, vec![w1, w2]).build().unwrap();
            let (slow, fast, counts) = record_scans(&tiling, &[n]);
            prop_assert_eq!(&slow, &fast);
            prop_assert_eq!(counts.total() as usize, slow.len());
            prop_assert_eq!(slow.len() as u128, tiling.total_cells(&[n]));
        }

        /// Across the same randomized problem family: the run visitor's
        /// runs exactly partition the all-valid interior reported by
        /// `ScanCounts`, and the `2^d`-corner fullness test agrees with the
        /// exact cell count on every tile.
        #[test]
        fn runs_partition_and_corner_test_equivalence(
            n in 2i64..14,
            w1 in 1i64..6,
            w2 in 1i64..6,
            comps in proptest::collection::vec((0i64..3, 0i64..3), 1..4),
            cut in (0i64..3, 0i64..3, 0i64..3),
            sign in proptest::bool::ANY,
        ) {
            let templates: Vec<Template> = comps
                .iter()
                .enumerate()
                .filter(|(_, &(a, b))| a != 0 || b != 0)
                .map(|(i, &(a, b))| {
                    let (a, b) = if sign { (a, b) } else { (-a, -b) };
                    Template::new(format!("t{i}"), &[a, b])
                })
                .collect();
            if templates.is_empty() {
                return Ok(());
            }
            let space = Space::from_names(&["x", "y"], &["N"]).unwrap();
            let mut sys = ConstraintSystem::new(space);
            sys.add_text("0 <= x <= N").unwrap();
            sys.add_text("0 <= y <= N").unwrap();
            let (a, b, extra) = cut;
            if a + b > 0 {
                sys.add_text(&format!("{a}*x + {b}*y <= {}*N", a + b + extra)).unwrap();
            }
            let set = TemplateSet::new(2, templates).unwrap();
            let tiling = TilingBuilder::new(sys, set, vec![w1, w2]).build().unwrap();
            check_runs_partition(&tiling, &[n]);
        }
    }

    #[test]
    fn edge_cells_cover_cross_tile_reads() {
        // Every cross-tile read of every cell must target a cell present in
        // the corresponding edge region of the neighbour.
        let tiling = triangle_tiling(4);
        let n = 9i64;
        // Collect edge cells per (source tile, delta).
        let mut point = tiling.make_point(&[n]);
        let mut tiles = Vec::new();
        tiling.for_each_tile(&mut point, |t| tiles.push(t));
        use std::collections::HashSet;
        let mut edge_cells: std::collections::HashMap<(Coord, Coord), HashSet<(i64, i64)>> =
            Default::default();
        for t in &tiles {
            for e in tiling.edges() {
                let mut p = tiling.make_point(&[n]);
                tiling.set_tile(t, &mut p);
                let mut cells = HashSet::new();
                e.for_each_cell(&mut p, |j| {
                    cells.insert((j[0], j[1]));
                })
                .unwrap();
                edge_cells.insert((*t, e.delta), cells);
            }
        }
        // Now walk every cell and check its valid reads.
        for t in &tiles {
            let w = tiling.widths()[0];
            let mut p = tiling.make_point(&[n]);
            let mut reads: Vec<((i64, i64), (i64, i64))> = Vec::new();
            tiling
                .scan_tile(t, &mut p, |cell| {
                    for (j, tmpl) in tiling.templates().templates().iter().enumerate() {
                        if cell.valid[j] {
                            let rx = cell.x[0] + tmpl.offset[0];
                            let ry = cell.x[1] + tmpl.offset[1];
                            reads.push(((cell.x[0], cell.x[1]), (rx, ry)));
                        }
                    }
                })
                .unwrap();
            for ((_x, _y), (rx, ry)) in reads {
                let src_tile = Coord::from_slice(&[rx.div_euclid(w), ry.div_euclid(w)]);
                if &src_tile == t {
                    continue; // intra-tile read
                }
                let delta = src_tile.sub(t);
                let local = (rx - w * src_tile[0], ry - w * src_tile[1]);
                let cells = edge_cells
                    .get(&(src_tile, delta))
                    .unwrap_or_else(|| panic!("no edge ({src_tile:?}, {delta:?})"));
                assert!(
                    cells.contains(&local),
                    "read {local:?} not packed in edge {delta:?} of {src_tile:?}"
                );
            }
        }
    }

    /// The N×N square with alignment-style templates and a diagonal band
    /// `-b <= x - y <= b` declared on the builder.
    fn banded_square(w: i64, b: i64) -> Tiling {
        let space = Space::from_names(&["x", "y"], &["N"]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        sys.add_text("0 <= x <= N").unwrap();
        sys.add_text("0 <= y <= N").unwrap();
        let templates = TemplateSet::new(
            2,
            vec![
                Template::new("r1", &[1, 0]),
                Template::new("r2", &[0, 1]),
                Template::new("r3", &[1, 1]),
            ],
        )
        .unwrap();
        TilingBuilder::new(sys, templates, vec![w, w])
            .band(0, 1, -b, b)
            .build()
            .unwrap()
    }

    #[test]
    fn banded_builder_records_the_shape() {
        let tiling = banded_square(4, 2);
        assert_eq!(tiling.shape(), TileShape::Banded { lo: -2, hi: 2 });
        assert_eq!(tiling.band_dims(), Some((0, 1)));
        assert_eq!(tiling.shape().band_width(), Some(5));
        assert_eq!(tiling.shape().name(), "banded");
        let dense = triangle_tiling(4);
        assert_eq!(dense.shape(), TileShape::Dense);
        assert_eq!(dense.band_dims(), None);
        assert_eq!(dense.shape().band_width(), None);
        assert_eq!(dense.shape().name(), "dense");
    }

    #[test]
    fn banded_builder_rejects_bad_bands() {
        let mk = || {
            let space = Space::from_names(&["x", "y"], &["N"]).unwrap();
            let mut sys = ConstraintSystem::new(space);
            sys.add_text("0 <= x <= N").unwrap();
            sys.add_text("0 <= y <= N").unwrap();
            let t = TemplateSet::new(2, vec![Template::new("r1", &[1, 0])]).unwrap();
            TilingBuilder::new(sys, t, vec![4, 4])
        };
        assert!(mk().band(0, 0, -1, 1).build().is_err(), "a == b");
        assert!(mk().band(0, 2, -1, 1).build().is_err(), "b out of range");
        assert!(mk().band(0, 1, 3, -3).build().is_err(), "lo > hi");
    }

    #[test]
    fn banded_scan_visits_exactly_the_band() {
        // Both scan paths must visit exactly the in-band lattice points:
        // out-of-band cells are never handed to the kernel.
        let (n, b) = (13i64, 2i64);
        let tiling = banded_square(4, b);
        let mut expect = std::collections::BTreeSet::new();
        for x in 0..=n {
            for y in 0..=n {
                if (x - y).abs() <= b {
                    expect.insert((x, y));
                }
            }
        }
        let mut point = tiling.make_point(&[n]);
        let mut tiles = Vec::new();
        tiling.for_each_tile(&mut point, |t| tiles.push(t));
        let mut slow = std::collections::BTreeSet::new();
        let mut fast = std::collections::BTreeSet::new();
        let mut counts = ScanCounts::default();
        for t in &tiles {
            let mut p = tiling.make_point(&[n]);
            tiling
                .scan_tile(t, &mut p, |cell| {
                    slow.insert((cell.x[0], cell.x[1]));
                })
                .unwrap();
            let mut p = tiling.make_point(&[n]);
            let c = tiling
                .scan_tile_fast(t, &mut p, |cell| {
                    fast.insert((cell.x[0], cell.x[1]));
                })
                .unwrap();
            counts.interior_cells += c.interior_cells;
            counts.boundary_cells += c.boundary_cells;
            counts.interior_runs += c.interior_runs;
        }
        assert_eq!(slow, expect, "reference scan leaks out of the band");
        assert_eq!(fast, expect, "run scan leaks out of the band");
        assert_eq!(counts.total(), expect.len() as u64);
        // O(n·w) visitation: the band covers well under half the lattice.
        let dense = ((n + 1) * (n + 1)) as u64;
        assert!(
            counts.total() * 2 < dense,
            "band visited {} of {dense} dense cells",
            counts.total()
        );
        assert_eq!(tiling.total_cells(&[n]), expect.len() as u128);
    }

    #[test]
    fn banded_tile_space_excludes_off_band_tiles() {
        let tiling = banded_square(4, 2);
        let mut point = tiling.make_point(&[15]);
        // Tile (3, 0) spans x in [12,15], y in [0,3]: min x - y = 9 > 2.
        assert!(!tiling.tile_in_space(&Coord::from_slice(&[3, 0]), &mut point));
        assert!(!tiling.tile_in_space(&Coord::from_slice(&[0, 3]), &mut point));
        // The diagonal and its shoulders stay in.
        assert!(tiling.tile_in_space(&Coord::from_slice(&[2, 2]), &mut point));
        assert!(tiling.tile_in_space(&Coord::from_slice(&[2, 1]), &mut point));
        let mut tiles = Vec::new();
        tiling.for_each_tile(&mut point, |t| tiles.push(t));
        assert!(tiles.iter().all(|t| (t[0] - t[1]).abs() <= 1));
    }

    #[test]
    fn banded_edges_pack_less_and_presize_less() {
        // Same widths, same templates: every banded edge presizes to at
        // most the dense bound, and the lateral edges strictly less.
        let w = 8i64;
        let banded = banded_square(w, 2);
        let space = Space::from_names(&["x", "y"], &["N"]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        sys.add_text("0 <= x <= N").unwrap();
        sys.add_text("0 <= y <= N").unwrap();
        let templates = TemplateSet::new(
            2,
            vec![
                Template::new("r1", &[1, 0]),
                Template::new("r2", &[0, 1]),
                Template::new("r3", &[1, 1]),
            ],
        )
        .unwrap();
        let dense = TilingBuilder::new(sys, templates, vec![w, w])
            .build()
            .unwrap();
        let mut tightened = false;
        for e in banded.edges() {
            let dense_edge = &dense.edges()[dense.dep_index(&e.delta).expect("same dep set")];
            assert!(e.max_cells() <= dense_edge.max_cells());
            if e.max_cells() < dense_edge.max_cells() {
                tightened = true;
            }
        }
        assert!(tightened, "no edge bound was tightened by the band");
        // And the actual packed payload respects the tightened bound.
        let n = 31i64;
        let mut point = banded.make_point(&[n]);
        let mut tiles = Vec::new();
        banded.for_each_tile(&mut point, |t| tiles.push(t));
        for t in &tiles {
            for e in banded.edges() {
                let mut p = banded.make_point(&[n]);
                banded.set_tile(t, &mut p);
                let cnt = e.count(&mut p).unwrap();
                assert!(cnt <= e.max_cells() as u128);
            }
        }
    }
}
