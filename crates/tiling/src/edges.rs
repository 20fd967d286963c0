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
use dpgen_polyhedra::{LoopNest, PolyError};

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
    /// box: the tiling's local nest, clamped to the box. Shared by pack and
    /// unpack.
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
/// `local_nest` is the within-tile loop nest over the extended space (local
/// indices, tile indices, parameters); `i_cols` are the local-index columns
/// in problem-dimension order; `layout` is the tile buffer layout (widths
/// and strides). `band` is `(a, b, band_width)` when the space is a
/// diagonal band over dimensions `(a, b)` (the local nest already clips to
/// it; the tuple only tightens [`EdgeLayout::max_cells`]).
///
/// An edge's nest is the local nest with each dimension's loop clamped to
/// the edge box ([`LoopNest::clamp`]) where the box is narrower than the
/// tile: it scans exactly the local space intersected with the box, in the
/// local nest's order, and costs no Fourier–Motzkin elimination.
pub fn build_edge_layouts(
    local_nest: &LoopNest,
    i_cols: &[usize],
    layout: &TileLayout,
    templates: &TemplateSet,
    deps: &[TileDep],
    band: Option<(usize, usize, i64)>,
) -> Result<Vec<EdgeLayout>, PolyError> {
    let (widths, strides) = (layout.widths(), layout.strides());
    let d = widths.len();
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
        let mut nest = local_nest.clone();
        for k in 0..d {
            if box_lo[k] > 0 || box_hi[k] < widths[k] - 1 {
                nest.clamp(i_cols[k], box_lo[k].into(), box_hi[k].into())?;
            }
        }
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
    use crate::template::Template;
    use crate::tiling::{Tiling, TilingBuilder};
    use dpgen_polyhedra::{Constraint, ConstraintSystem, LinExpr, Space};
    use proptest::prelude::*;

    /// The edge nest synthesised afresh from the local system plus the box
    /// rows: what the clamped local nest must reproduce cell for cell.
    fn synthesized_edge_nest(tiling: &Tiling, edge: &EdgeLayout) -> LoopNest {
        let mut sys = tiling.local_system().clone();
        let dim = sys.space().dim();
        let i_cols = tiling.i_cols();
        for (k, &col) in i_cols.iter().enumerate() {
            let mut lo = LinExpr::zero(dim);
            lo.set_coeff(col, 1);
            lo.set_constant(-i128::from(edge.box_lo[k]));
            sys.add(Constraint::ge0(lo)).unwrap();
            let mut hi = LinExpr::zero(dim);
            hi.set_coeff(col, -1);
            hi.set_constant(i128::from(edge.box_hi[k]));
            sys.add(Constraint::ge0(hi)).unwrap();
        }
        let order: Vec<usize> = tiling.loop_order().iter().map(|&k| i_cols[k]).collect();
        LoopNest::synthesize_with_free(&sys, &order).unwrap()
    }

    /// Hold every (tile, edge) pair's pack/unpack sequence and count to the
    /// synthesised nest's; returns how many pairs were compared.
    fn edges_match_synthesis(tiling: &Tiling, params: &[i64]) -> usize {
        let oracles: Vec<LoopNest> = tiling
            .edges()
            .iter()
            .map(|e| synthesized_edge_nest(tiling, e))
            .collect();
        let i_cols = tiling.i_cols();
        let mut point = tiling.make_point(params);
        let mut tiles = Vec::new();
        tiling.for_each_tile(&mut point, |t| tiles.push(t));
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for t in &tiles {
            tiling.set_tile(t, &mut point);
            for (e, (edge, oracle)) in tiling.edges().iter().zip(&oracles).enumerate() {
                got.clear();
                want.clear();
                edge.for_each_cell(&mut point, |c| got.extend_from_slice(c))
                    .unwrap();
                oracle
                    .for_each_point(&mut point, |p| {
                        want.extend(i_cols.iter().map(|&c| p[c] as i64))
                    })
                    .unwrap();
                assert_eq!(got, want, "tile {t:?}, edge {e}");
                let cells = want.len() / i_cols.len();
                assert_eq!(edge.count(&mut point).unwrap(), cells as u128);
                assert!(cells <= edge.max_cells(), "tile {t:?}, edge {e}");
            }
        }
        tiles.len() * tiling.edges().len()
    }

    fn system(vars: &[&str], params: &[&str], rows: &[&str]) -> ConstraintSystem {
        let mut sys = ConstraintSystem::new(Space::from_names(vars, params).unwrap());
        for row in rows {
            sys.add_text(row).unwrap();
        }
        sys
    }

    fn templates(offsets: &[Vec<i64>]) -> TemplateSet {
        let d = offsets[0].len();
        let named = offsets.iter().enumerate();
        TemplateSet::new(
            d,
            named
                .map(|(j, r)| Template::new(format!("r{j}"), r))
                .collect(),
        )
        .unwrap()
    }

    /// The unit vectors of `d` dimensions, scaled by `sign`.
    fn units(d: usize, sign: i64) -> Vec<Vec<i64>> {
        (0..d)
            .map(|k| (0..d).map(|j| if j == k { sign } else { 0 }).collect())
            .collect()
    }

    /// The nine paper specs' tilings (bandit2 w4, bandit3 w3, bandit_delay
    /// w3, msa3 w8, lcs2 w16, lcs3 w8, edit distance and Smith–Waterman w16,
    /// banded Smith–Waterman w16 band 32), each with two parameter sets.
    fn paper_tilings() -> Vec<(&'static str, Tiling, [Vec<i64>; 2])> {
        let simplex = |vars: &[&str]| -> ConstraintSystem {
            let mut rows: Vec<String> = vars.iter().map(|v| format!("{v} >= 0")).collect();
            rows.push(format!("{} <= N", vars.join(" + ")));
            let rows: Vec<&str> = rows.iter().map(String::as_str).collect();
            system(vars, &["N"], &rows)
        };
        let boxed = |d: usize| {
            let vars: Vec<String> = (1..=d).map(|k| format!("i{k}")).collect();
            let params: Vec<String> = (1..=d).map(|k| format!("L{k}")).collect();
            let space = Space::from_names(&vars, &params).unwrap();
            let mut sys = ConstraintSystem::new(space);
            for (v, p) in vars.iter().zip(&params) {
                sys.add_text(&format!("0 <= {v} <= {p}")).unwrap();
            }
            sys
        };
        let lcs = |d: usize| {
            let mut t = units(d, -1);
            t.push(vec![-1; d]);
            templates(&t)
        };
        let msa3 = templates(
            &(1..8u32)
                .map(|m| {
                    (0..3)
                        .map(|k| if m & (1 << k) != 0 { -1 } else { 0 })
                        .collect()
                })
                .collect::<Vec<_>>(),
        );
        let sw = || templates(&[vec![-1, 0], vec![0, -1], vec![-1, -1]]);
        let delay = system(
            &["u1", "s1", "f1", "u2", "s2", "f2"],
            &["N"],
            &[
                "u1 >= 0",
                "s1 >= 0",
                "f1 >= 0",
                "u2 >= 0",
                "s2 >= 0",
                "f2 >= 0",
                "s1 + f1 <= u1",
                "s2 + f2 <= u2",
                "u1 + u2 <= N",
            ],
        );
        let delay_templates = templates(&[
            vec![1, 1, 0, 0, 0, 0],
            vec![1, 0, 1, 0, 0, 0],
            vec![0, 0, 0, 1, 1, 0],
            vec![0, 0, 0, 1, 0, 1],
        ]);
        let build = |b: TilingBuilder| b.build().unwrap();
        vec![
            (
                "bandit2",
                build(TilingBuilder::new(
                    simplex(&["s1", "f1", "s2", "f2"]),
                    templates(&units(4, 1)),
                    vec![4; 4],
                )),
                [vec![24], vec![9]],
            ),
            (
                "bandit3",
                build(TilingBuilder::new(
                    simplex(&["s1", "f1", "s2", "f2", "s3", "f3"]),
                    templates(&units(6, 1)),
                    vec![3; 6],
                )),
                [vec![8], vec![5]],
            ),
            (
                "bandit_delay",
                build(TilingBuilder::new(delay, delay_templates, vec![3; 6])),
                [vec![8], vec![5]],
            ),
            (
                "msa3",
                build(TilingBuilder::new(boxed(3), msa3, vec![8; 3])),
                [vec![39; 3], vec![17, 9, 12]],
            ),
            (
                "lcs2",
                build(TilingBuilder::new(boxed(2), lcs(2), vec![16; 2])),
                [vec![399; 2], vec![40, 71]],
            ),
            (
                "lcs3",
                build(TilingBuilder::new(boxed(3), lcs(3), vec![8; 3])),
                [vec![39; 3], vec![12, 20, 7]],
            ),
            (
                "editdist",
                build(TilingBuilder::new(boxed(2), sw(), vec![16; 2])),
                [vec![399; 2], vec![33, 50]],
            ),
            (
                "smith_waterman",
                build(TilingBuilder::new(boxed(2), sw(), vec![16; 2])),
                [vec![399; 2], vec![50, 33]],
            ),
            (
                "banded_sw",
                build(TilingBuilder::new(boxed(2), sw(), vec![16; 2]).band(0, 1, -32, 32)),
                [vec![2399; 2], vec![100, 90]],
            ),
        ]
    }

    #[test]
    fn clamped_edge_nests_match_synthesis_on_the_paper_specs() {
        for (name, tiling, params) in paper_tilings() {
            for p in &params {
                let pairs = edges_match_synthesis(&tiling, p);
                assert!(pairs > 0, "{name} at {p:?} compared nothing");
            }
        }
    }

    /// A tiling's inputs: its system, templates, widths, loop order, band
    /// and the value of its one parameter `N`.
    type RandomSpec = (
        ConstraintSystem,
        TemplateSet,
        Vec<i64>,
        Vec<usize>,
        Option<(usize, usize, i64, i64)>,
        i64,
    );

    /// One random spec in the shape `dpgen_core::specgen` draws: 1–3
    /// dimensions with per-dimension bounds (some on `N`), up to two cross
    /// constraints, 1–3 templates with one sign per dimension, widths 1–5,
    /// a random loop order and, one time in four, a diagonal band.
    fn random_spec() -> impl Strategy<Value = RandomSpec> {
        use proptest::{bool::ANY, collection::vec};
        (1usize..4)
            .prop_flat_map(|d| {
                let bounds = vec((-2i64..3, ANY, 0i64..7, ANY), d);
                let cross = vec((vec(-2i64..3, d), -4i64..9, ANY), 0..3);
                let templates = (vec(ANY, d), vec(vec(0i64..3, d), 1..4));
                let band = (0u32..4, 0..d, 1..d.max(2), -3i64..1, 0i64..4);
                let rest = (vec(1i64..6, d), vec(0u32..1000, d), band, 4i64..13);
                (Just(d), bounds, cross, templates, rest)
            })
            .prop_map(|(d, bounds, cross, (signs, mags), rest)| {
                let (widths, keys, band, n) = rest;
                let vars: Vec<String> = (0..d).map(|k| format!("x{k}")).collect();
                let mut sys =
                    ConstraintSystem::new(Space::from_names(&vars, &["N".into()]).unwrap());
                for (v, &(lo, lo_on_n, hi, hi_on_n)) in vars.iter().zip(&bounds) {
                    let lo = match lo_on_n && lo > 0 {
                        true => format!("N - {lo}"),
                        false => lo.to_string(),
                    };
                    let hi = match hi_on_n {
                        true => format!("N - {}", hi % 3),
                        false => hi.to_string(),
                    };
                    sys.add_text(&format!("{lo} <= {v} <= {hi}")).unwrap();
                }
                // sum(c_k x_k) <= b (+ N).
                for (coeffs, b, with_n) in cross {
                    let mut e = LinExpr::zero(d + 1);
                    for (k, &c) in coeffs.iter().enumerate() {
                        e.set_coeff(k, -i128::from(c));
                    }
                    e.set_coeff(d, i128::from(with_n));
                    e.set_constant(i128::from(b));
                    if !e.is_constant() {
                        sys.add(Constraint::ge0(e)).unwrap();
                    }
                }
                let mut offsets: Vec<Vec<i64>> = Vec::new();
                for m in mags {
                    let sign = |k: usize| if signs[k] { 1 } else { -1 };
                    let mut r: Vec<i64> = (0..d).map(|k| sign(k) * m[k]).collect();
                    if r.iter().all(|&v| v == 0) {
                        r[0] = sign(0);
                    }
                    if !offsets.contains(&r) {
                        offsets.push(r);
                    }
                }
                let mut order: Vec<usize> = (0..d).collect();
                order.sort_by_key(|&k| keys[k]);
                let band = match band {
                    (0, a, step, lo, hi) if d >= 2 => Some((a, (a + step) % d, lo, hi)),
                    _ => None,
                };
                (sys, templates(&offsets), widths, order, band, n)
            })
    }

    proptest! {
        /// The same, over random specs: wherever a spec builds, every
        /// (tile, edge) pair packs what the synthesised nest scans.
        #[test]
        fn clamped_edge_nests_match_synthesis_on_random_specs(
            spec in random_spec(),
        ) {
            let (sys, templates, widths, order, band, n) = spec;
            let mut builder = TilingBuilder::new(sys, templates, widths).loop_order(order);
            if let Some((a, b, lo, hi)) = band {
                builder = builder.band(a, b, lo, hi);
            }
            if let Ok(tiling) = builder.build() {
                edges_match_synthesis(&tiling, &[n]);
            }
        }
    }

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
