//! Tile buffer memory layout: the paper's "mapping functions"
//! (Section IV-H, Figure 3).
//!
//! Each executing tile owns a dense row-major buffer covering its `w_1 × …
//! × w_d` cells plus ghost padding on each side large enough for every
//! template vector. A cell's buffer index (`loc` in the paper's programming
//! interface) is an affine function of its local coordinates, and each
//! template's read location (`loc_r1`, …) is `loc` plus a *constant* offset —
//! which is why the paper can reuse the mapping calculation across all
//! dependencies.

use crate::coord::Coord;
use crate::template::TemplateSet;

/// Ghost-padded row-major layout of one tile's buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileLayout {
    widths: Vec<i64>,
    pads_lo: Vec<i64>,
    pads_hi: Vec<i64>,
    extents: Vec<i64>,
    /// Row-major strides; the last dimension is contiguous.
    strides: Vec<i64>,
    /// Constant buffer-index offset of each template (`loc_r = loc + off`).
    template_offsets: Vec<i64>,
    size: usize,
}

impl TileLayout {
    /// Build the layout for tiles of the given widths and a template set.
    ///
    /// Low padding holds ghost cells for negative template components, high
    /// padding for positive ones.
    pub fn new(widths: &[i64], templates: &TemplateSet) -> TileLayout {
        let d = widths.len();
        assert_eq!(d, templates.dims(), "width/template dimension mismatch");
        assert!(widths.iter().all(|&w| w >= 1), "tile widths must be >= 1");
        let pads_lo: Vec<i64> = (0..d).map(|k| templates.max_negative(k)).collect();
        let pads_hi: Vec<i64> = (0..d).map(|k| templates.max_positive(k)).collect();
        let extents: Vec<i64> = (0..d)
            .map(|k| widths[k] + pads_lo[k] + pads_hi[k])
            .collect();
        let mut strides = vec![0i64; d];
        let mut acc = 1i64;
        for k in (0..d).rev() {
            strides[k] = acc;
            acc = acc
                .checked_mul(extents[k])
                .expect("tile buffer size overflows i64");
        }
        let size = usize::try_from(acc).expect("tile buffer size overflows usize");
        let template_offsets = templates
            .templates()
            .iter()
            .map(|t| (0..d).map(|k| strides[k] * t.offset[k]).sum::<i64>())
            .collect();
        TileLayout {
            widths: widths.to_vec(),
            pads_lo,
            pads_hi,
            extents,
            strides,
            template_offsets,
            size,
        }
    }

    /// Total buffer length in cells (including ghost padding).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Tile widths per dimension.
    pub fn widths(&self) -> &[i64] {
        &self.widths
    }

    /// Padded extent per dimension.
    pub fn extents(&self) -> &[i64] {
        &self.extents
    }

    /// Low-side ghost padding per dimension.
    pub fn pads_lo(&self) -> &[i64] {
        &self.pads_lo
    }

    /// High-side ghost padding per dimension.
    pub fn pads_hi(&self) -> &[i64] {
        &self.pads_hi
    }

    /// Row-major strides per dimension.
    pub fn strides(&self) -> &[i64] {
        &self.strides
    }

    /// Constant buffer offset of each template relative to `loc`, indexed
    /// by template id.
    pub fn template_offsets(&self) -> &[i64] {
        &self.template_offsets
    }

    /// Buffer index of local coordinates. Coordinates may reach into the
    /// ghost region: `local[k]` in `[-pads_lo[k], widths[k] + pads_hi[k])`.
    pub fn loc(&self, local: &[i64]) -> usize {
        debug_assert_eq!(local.len(), self.widths.len());
        let mut idx = 0i64;
        for (k, &coord) in local.iter().enumerate() {
            let shifted = coord + self.pads_lo[k];
            debug_assert!(
                shifted >= 0 && shifted < self.extents[k],
                "local coordinate {coord} out of padded range in dim {k}"
            );
            idx += self.strides[k] * shifted;
        }
        idx as usize
    }

    /// Buffer index of a *ghost* cell: a source-local coordinate `j` of the
    /// neighbouring tile at offset `delta`, mapped into this tile's padded
    /// buffer as `j + widths ∘ delta` (the destination mapping function the
    /// unpacking functions use, Section IV-I).
    pub fn loc_ghost(&self, src_local: &[i64], delta: &Coord) -> usize {
        debug_assert_eq!(src_local.len(), self.widths.len());
        let mut shifted = [0i64; crate::coord::MAX_DIMS];
        for k in 0..src_local.len() {
            shifted[k] = src_local[k] + self.widths[k] * delta[k];
        }
        self.loc(&shifted[..src_local.len()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::Template;

    fn set2(templates: Vec<Template>) -> TemplateSet {
        TemplateSet::new(2, templates).unwrap()
    }

    #[test]
    fn unit_templates_pad_high_side() {
        let t = set2(vec![
            Template::new("r1", &[1, 0]),
            Template::new("r2", &[0, 1]),
        ]);
        let layout = TileLayout::new(&[4, 4], &t);
        assert_eq!(layout.pads_lo(), &[0, 0]);
        assert_eq!(layout.pads_hi(), &[1, 1]);
        assert_eq!(layout.extents(), &[5, 5]);
        assert_eq!(layout.size(), 25);
        assert_eq!(layout.strides(), &[5, 1]);
        // loc(i, j) = 5i + j
        assert_eq!(layout.loc(&[0, 0]), 0);
        assert_eq!(layout.loc(&[2, 3]), 13);
        // Template offsets: +e0 -> +5, +e1 -> +1.
        assert_eq!(layout.template_offsets(), &[5, 1]);
    }

    #[test]
    fn negative_templates_pad_low_side() {
        let t = set2(vec![
            Template::new("up", &[-1, 0]),
            Template::new("diag", &[-1, -1]),
        ]);
        let layout = TileLayout::new(&[3, 3], &t);
        assert_eq!(layout.pads_lo(), &[1, 1]);
        assert_eq!(layout.pads_hi(), &[0, 0]);
        assert_eq!(layout.extents(), &[4, 4]);
        // loc(-1, -1) is the buffer origin.
        assert_eq!(layout.loc(&[-1, -1]), 0);
        assert_eq!(layout.loc(&[0, 0]), 5);
        // Offsets are negative.
        assert_eq!(layout.template_offsets(), &[-4, -5]);
    }

    #[test]
    fn loc_plus_template_offset_is_shifted_cell() {
        let t = set2(vec![
            Template::new("a", &[2, 0]),
            Template::new("b", &[1, 3]),
        ]);
        let layout = TileLayout::new(&[5, 4], &t);
        for i in 0..5i64 {
            for j in 0..4 {
                let base = layout.loc(&[i, j]) as i64;
                assert_eq!(
                    (base + layout.template_offsets()[0]) as usize,
                    layout.loc(&[i + 2, j])
                );
                assert_eq!(
                    (base + layout.template_offsets()[1]) as usize,
                    layout.loc(&[i + 1, j + 3])
                );
            }
        }
    }

    #[test]
    fn ghost_mapping_lands_in_padding() {
        let t = set2(vec![
            Template::new("r1", &[1, 0]),
            Template::new("r2", &[0, 1]),
        ]);
        let layout = TileLayout::new(&[4, 4], &t);
        // Neighbour at delta = (1, 0): its row j = (0, c) lands at local (4, c).
        let delta = Coord::from_slice(&[1, 0]);
        assert_eq!(layout.loc_ghost(&[0, 2], &delta), layout.loc(&[4, 2]));
        let delta = Coord::from_slice(&[0, 1]);
        assert_eq!(layout.loc_ghost(&[1, 0], &delta), layout.loc(&[1, 4]));
    }

    #[test]
    fn distinct_cells_have_distinct_locs() {
        let t = set2(vec![Template::new("a", &[1, 1])]);
        let layout = TileLayout::new(&[3, 5], &t);
        let mut seen = std::collections::HashSet::new();
        for i in 0..4i64 {
            for j in 0..6 {
                assert!(seen.insert(layout.loc(&[i, j])), "collision at ({i},{j})");
            }
        }
        assert!(seen.len() <= layout.size());
    }

    #[test]
    fn edge_vs_tile_memory_ratio() {
        // Section IV-I: for the 2-arm bandit a single edge uses w^3 memory
        // where a tile uses (about) w^4.
        let t4 = TemplateSet::new(
            4,
            vec![
                Template::new("r1", &[1, 0, 0, 0]),
                Template::new("r2", &[0, 1, 0, 0]),
                Template::new("r3", &[0, 0, 1, 0]),
                Template::new("r4", &[0, 0, 0, 1]),
            ],
        )
        .unwrap();
        let w = 8i64;
        let layout = TileLayout::new(&[w, w, w, w], &t4);
        let tile_cells = (w * w * w * w) as usize;
        let edge_cells = (w * w * w) as usize;
        assert!(layout.size() >= tile_cells);
        assert!(layout.size() < 2 * tile_cells);
        assert!(edge_cells * (w as usize) == tile_cells);
    }
}
