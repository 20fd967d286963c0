//! Serial, untiled reference executor.
//!
//! Runs the recurrence over the *original* iteration space with a single
//! dense array, exactly like the hand-written loop nests of Figure 1 of the
//! paper. Memory is `Θ(n^d)`, so this is for validation and baseline
//! measurements, not large problems: the whole point of the generated tiled
//! programs is to avoid this memory footprint (Section V-B).
//!
//! The same [`Kernel`] used with the tiled runtime runs here unchanged,
//! which is what makes the cross-validation meaningful.

use crate::kernel::{Kernel, Value};
use dpgen_polyhedra::{probe_box, BoxProbe};
use dpgen_tiling::tiling::CellRef;
use dpgen_tiling::{Direction, Tiling, MAX_DIMS};

/// The dense result of a reference run.
pub struct ReferenceResult<T> {
    values: Vec<T>,
    lb: Vec<i64>,
    ub: Vec<i64>,
    pads_lo: Vec<i64>,
    strides: Vec<i64>,
    computed: Vec<bool>,
}

impl<T: Copy> ReferenceResult<T> {
    /// The value at global coordinates `x`, or `None` outside the iteration
    /// space.
    pub fn get(&self, x: &[i64]) -> Option<T> {
        let idx = self.index(x)?;
        self.computed[idx].then(|| self.values[idx])
    }

    /// Per-dimension bounding box `[lb, ub]` of the iteration space.
    pub fn bounds(&self) -> (&[i64], &[i64]) {
        (&self.lb, &self.ub)
    }

    /// Fold every computed cell value (pad cells and points outside the
    /// space are skipped). This is the serial counterpart of the tiled
    /// runtime's whole-space [`crate::Reduction`].
    pub fn fold<A>(&self, init: A, mut f: impl FnMut(A, T) -> A) -> A {
        let mut acc = init;
        for (i, &done) in self.computed.iter().enumerate() {
            if done {
                acc = f(acc, self.values[i]);
            }
        }
        acc
    }

    /// Number of cells the reference run computed.
    pub fn cells_computed(&self) -> u64 {
        self.computed.iter().filter(|&&c| c).count() as u64
    }

    fn index(&self, x: &[i64]) -> Option<usize> {
        if x.len() != self.lb.len() {
            return None;
        }
        let mut idx = 0i64;
        for (k, &xk) in x.iter().enumerate() {
            if xk < self.lb[k] || xk > self.ub[k] {
                return None;
            }
            idx += self.strides[k] * (xk - self.lb[k] + self.pads_lo[k]);
        }
        Some(idx as usize)
    }
}

/// Execute the recurrence serially over the full iteration space.
///
/// An empty space computes no cell (its fold is the initial value), as a
/// plan executes it. Panics if the space is unbounded for the given
/// parameters, or if the dense array would be enormous (guarded at 2^31
/// cells).
pub fn run_reference<T, K>(tiling: &Tiling, params: &[i64], kernel: &K) -> ReferenceResult<T>
where
    T: Value,
    K: Kernel<T>,
{
    let original = tiling.original();
    let d = tiling.dims();
    let space_dim = original.space().dim();
    let mut point = vec![0i128; space_dim];
    for (col, &p) in original.space().param_indices().iter().zip(params) {
        point[*col] = p as i128;
    }

    // Bounding box: project onto each variable in turn.
    let ranges = match probe_box(original, &point).expect("bound evaluation failed") {
        BoxProbe::Bounded(ranges) => ranges,
        BoxProbe::Empty => {
            return ReferenceResult {
                values: Vec::new(),
                lb: vec![0; d],
                ub: vec![-1; d],
                pads_lo: vec![0; d],
                strides: vec![0; d],
                computed: Vec::new(),
            }
        }
        BoxProbe::Unbounded => panic!("iteration space unbounded"),
    };
    let lb: Vec<i64> = ranges.iter().map(|&(l, _)| l as i64).collect();
    let ub: Vec<i64> = ranges.iter().map(|&(_, u)| u as i64).collect();

    // Dense layout with the same ghost padding as a tile, so even erroneous
    // invalid reads stay in-bounds.
    let templates = tiling.templates();
    let pads_lo: Vec<i64> = (0..d).map(|k| templates.max_negative(k)).collect();
    let pads_hi: Vec<i64> = (0..d).map(|k| templates.max_positive(k)).collect();
    let extents: Vec<i64> = (0..d)
        .map(|k| ub[k] - lb[k] + 1 + pads_lo[k] + pads_hi[k])
        .collect();
    let mut strides = vec![0i64; d];
    let mut acc = 1i64;
    for k in (0..d).rev() {
        strides[k] = acc;
        acc = acc
            .checked_mul(extents[k])
            .expect("reference array too large");
    }
    assert!(acc < (1 << 31), "reference array too large ({acc} cells)");
    let size = acc as usize;
    let mut values = vec![T::default(); size];
    let mut computed = vec![false; size];

    // Template offsets for this layout.
    let offsets: Vec<i64> = templates
        .templates()
        .iter()
        .map(|t| (0..d).map(|k| strides[k] * t.offset[k]).sum())
        .collect();

    // Scan in the dependency-respecting directed order.
    let descending: Vec<bool> = tiling
        .loop_order()
        .iter()
        .map(|&k| templates.directions()[k] == Direction::Descending)
        .collect();
    let mut x = [0i64; MAX_DIMS];
    let mut local = [0i64; MAX_DIMS];
    let mut valid = [false; MAX_DIMS * 4];
    let ntemplates = templates.len();
    let mut read_point = point.clone();
    tiling
        .original_nest()
        .for_each_point_directed(&mut point, &descending, |p| {
            let mut loc = 0i64;
            for k in 0..d {
                x[k] = p[k] as i64;
                local[k] = x[k] - lb[k];
                loc += strides[k] * (local[k] + pads_lo[k]);
            }
            for (j, t) in templates.templates().iter().enumerate() {
                for k in 0..d {
                    read_point[k] = (x[k] + t.offset[k]) as i128;
                }
                valid[j] = original
                    .contains(&read_point)
                    .expect("validity evaluation failed");
            }
            let cell = CellRef {
                loc: loc as usize,
                x: &x[..d],
                local: &local[..d],
                valid: &valid[..ntemplates],
                offsets: &offsets,
            };
            kernel.compute(cell, &mut values);
            computed[loc as usize] = true;
        })
        .expect("reference scan failed");

    ReferenceResult {
        values,
        lb,
        ub,
        pads_lo,
        strides,
        computed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::PerCell;
    use crate::node::{run_node, NodeConfig, NodeJob, Probe, SingleOwner};
    use crate::priority::TilePriority;
    use crate::transport::NullTransport;
    use dpgen_polyhedra::{ConstraintSystem, Space};
    use dpgen_tiling::{Template, TemplateSet, TilingBuilder};

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

    fn path_kernel(cell: CellRef<'_>, values: &mut [u64]) {
        let a = if cell.valid[0] {
            values[cell.loc_r(0)]
        } else {
            1
        };
        let b = if cell.valid[1] {
            values[cell.loc_r(1)]
        } else {
            1
        };
        values[cell.loc] = a + b;
    }

    #[test]
    fn reference_matches_tiled_runtime() {
        let tiling = triangle(4);
        let n = 11i64;
        let reference = run_reference::<u64, _>(&tiling, &[n], &path_kernel);
        let probe = Probe::many(&[&[0, 0], &[3, 3], &[n, 0], &[0, n]]);
        let config = NodeConfig {
            priority: TilePriority::column_major(2),
            ..NodeConfig::new(2, 2)
        };
        let tiled = run_node::<u64, _, _, _>(
            &NodeJob {
                graph: &tiling.graph(&[n]),
                owner: &SingleOwner,
                transport: &NullTransport::default(),
                probe: &probe,
                config: &config,
                reduce: None,
                recovery: None,
            },
            &PerCell(&path_kernel),
        )
        .unwrap();
        for (i, c) in probe.coords().iter().enumerate() {
            assert_eq!(tiled.probes[i], reference.get(c.as_slice()), "at {c}");
        }
    }

    /// Below `N = 0` the triangle holds no point: the reference computes
    /// no cell, as the tiled run does, instead of refusing the space.
    #[test]
    fn an_empty_space_computes_no_cell() {
        let reference = run_reference::<u64, _>(&triangle(4), &[-1], &path_kernel);
        assert_eq!(reference.cells_computed(), 0);
        assert_eq!(reference.fold(7u64, |a, v| a + v), 7);
        assert_eq!(reference.get(&[0, 0]), None);
    }

    #[test]
    fn get_outside_space_is_none() {
        let tiling = triangle(3);
        let reference = run_reference::<u64, _>(&tiling, &[5], &path_kernel);
        assert_eq!(reference.get(&[6, 0]), None); // beyond the N = 5 box
        assert!(reference.get(&[5, 0]).is_some());
        assert_eq!(reference.get(&[3, 3]), None); // in box, outside triangle
        assert_eq!(reference.get(&[-1, 0]), None);
        assert_eq!(reference.get(&[0]), None); // wrong arity
    }

    #[test]
    fn bounds_are_tight() {
        let tiling = triangle(3);
        let reference = run_reference::<u64, _>(&tiling, &[7], &path_kernel);
        let (lb, ub) = reference.bounds();
        assert_eq!(lb, &[0, 0]);
        assert_eq!(ub, &[7, 7]);
    }
}
