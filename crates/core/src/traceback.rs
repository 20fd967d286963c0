//! Solution recovery by traceback (the Section VII-A future-work feature).
//!
//! A dynamic program usually wants more than the optimal *value*: it wants
//! the optimal *decisions* (an alignment, a pull policy). That requires
//! revisiting cells after the forward pass, but the tiled runtime discards
//! tile interiors to save memory. The paper's proposal: save the tile
//! *edges*, and recompute needed tiles on the fly during the traceback.
//! That is what this module does:
//!
//! * [`run_logged`] performs a serial forward pass that retains every
//!   inter-tile edge in an [`EdgeLog`] (memory `O(n^{d-1})`, not `O(n^d)`),
//! * [`Traceback`] then walks a path from a start cell: each step recomputes
//!   the (cached) tile containing the current cell from its logged edges
//!   and asks a user-supplied decision function which dependency the
//!   optimal policy follows.

use dpgen_runtime::{CompileFault, CompileStage, EdgeFault, Kernel, RunError, Value};
use dpgen_tiling::tiling::{CellRef, EachCell};
use dpgen_tiling::{Coord, TileGeom, TileGraph};
use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// All inter-tile edges produced during a forward pass, keyed by consumer
/// tile.
pub struct EdgeLog<T> {
    edges: HashMap<Coord, Vec<(Coord, Vec<T>)>>,
}

impl<T> EdgeLog<T> {
    /// Edges buffered for `tile` (empty slice for initial tiles).
    pub fn edges_for(&self, tile: &Coord) -> &[(Coord, Vec<T>)] {
        self.edges.get(tile).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of tiles with logged edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True when no edges were logged (single-tile problems).
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Total logged edge cells (the memory cost of traceback support).
    pub fn total_cells(&self) -> usize {
        self.edges
            .values()
            .flat_map(|v| v.iter().map(|(_, p)| p.len()))
            .sum()
    }
}

/// Serial forward pass over `graph`'s tiles retaining every inter-tile
/// edge. Fails, typed, when a tile's geometry cannot be recorded.
pub fn run_logged<T, K>(graph: &TileGraph, kernel: &K) -> Result<EdgeLog<T>, RunError>
where
    T: Value,
    K: Kernel<T>,
{
    let tiling = graph.tiling();
    // Per tile of the graph, the edges it still waits for.
    let mut remaining: Vec<usize> = (0..graph.len()).map(|i| graph.dep_total(i)).collect();
    let mut queue: VecDeque<usize> = graph.initial().collect();
    let mut log: HashMap<Coord, Vec<(Coord, Vec<T>)>> = HashMap::new();
    while let Some(i) = queue.pop_front() {
        let edges = log.get(&graph.tiles()[i]).map(Vec::as_slice).unwrap_or(&[]);
        let (values, geom) = compute_tile(graph, kernel, i, edges)?;
        // Pack edges for every consumer, log them, and decrement.
        for (dep_idx, dep) in tiling.deps().iter().enumerate() {
            let Some(consumer) = graph.consumer(i, dep_idx) else {
                continue;
            };
            let src_locs = geom.edge_cells(dep_idx);
            let payload = src_locs.iter().map(|&loc| values[loc as usize]).collect();
            log.entry(graph.tiles()[consumer])
                .or_default()
                .push((dep.delta, payload));
            remaining[consumer] -= 1;
            if remaining[consumer] == 0 {
                queue.push_back(consumer);
            }
        }
    }
    Ok(EdgeLog { edges: log })
}

/// The recorded geometry of tile `tile` (the node engine's: one per class).
fn geometry(graph: &TileGraph, tile: usize) -> Result<Cow<'_, Arc<TileGeom>>, RunError> {
    graph
        .geometry(tile)
        .map_err(|error| RunError::TileGeometry {
            rank: 0,
            tile: graph.tiles()[tile],
            error,
        })
}

/// Recompute tile `tile`'s values from logged edges by replaying its
/// recorded geometry, exactly as the node engine executes it.
fn compute_tile<'g, T, K>(
    graph: &'g TileGraph,
    kernel: &K,
    tile: usize,
    edges: &[(Coord, Vec<T>)],
) -> Result<(Vec<T>, Cow<'g, Arc<TileGeom>>), RunError>
where
    T: Value,
    K: Kernel<T>,
{
    let tiling = graph.tiling();
    let mut values = vec![T::default(); tiling.layout().size()];
    for (delta, payload) in edges {
        let dep = tiling.dep_index(delta);
        // A log of another problem's forward pass.
        let Some((dep_idx, src)) = dep.and_then(|dep| Some((dep, graph.source(tile, dep)?))) else {
            return Err(RunError::BadEdge(Box::new(EdgeFault {
                rank: 0,
                tile: graph.tiles()[tile],
                delta: *delta,
                detail: "unknown dependency offset or source tile".to_string(),
            })));
        };
        let src_geom = geometry(graph, src)?;
        let shift = tiling.edges()[dep_idx].ghost_shift;
        for (&loc, &v) in src_geom.edge_cells(dep_idx).iter().zip(payload) {
            values[(loc as i64 + shift) as usize] = v;
        }
    }
    let geom = geometry(graph, tile)?;
    tiling.replay(
        &geom,
        &graph.tiles()[tile],
        &mut EachCell(|cell: CellRef<'_>| kernel.compute(cell, &mut values)),
    );
    Ok((values, geom))
}

/// A decision step: given the cell (with its validity flags and offsets)
/// and the tile's values, return the template id the optimal policy
/// follows, or `None` to stop the trace.
pub type DecideFn<'f, T> = dyn FnMut(CellRef<'_>, &[T]) -> Option<usize> + 'f;

/// Walks optimal-decision paths over a logged forward pass.
pub struct Traceback<'a, T, K> {
    graph: &'a TileGraph,
    kernel: &'a K,
    log: &'a EdgeLog<T>,
    /// The tile recomputed last: its index, values and recording.
    cache: Option<(usize, Vec<T>, Cow<'a, Arc<TileGeom>>)>,
    /// Tiles recomputed so far (a measure of traceback cost).
    pub tiles_recomputed: usize,
}

impl<'a, T, K> Traceback<'a, T, K>
where
    T: Value,
    K: Kernel<T>,
{
    /// New traceback over a finished forward pass of `graph`
    /// ([`run_logged`]).
    pub fn new(graph: &'a TileGraph, kernel: &'a K, log: &'a EdgeLog<T>) -> Traceback<'a, T, K> {
        Traceback {
            graph,
            kernel,
            log,
            cache: None,
            tiles_recomputed: 0,
        }
    }

    /// Trace from `start`, calling `decide` at every visited cell. Returns
    /// the visited path (including `start`). Stops when `decide` returns
    /// `None` or the chosen dependency leaves the iteration space. A
    /// `start` that is no cell of the iteration space is a typed
    /// [`CompileStage::Options`] fault; a tile whose geometry cannot be
    /// recorded is [`RunError::TileGeometry`].
    pub fn trace(
        &mut self,
        start: &[i64],
        decide: &mut DecideFn<'_, T>,
    ) -> Result<Vec<Coord>, RunError> {
        let graph = self.graph;
        let tiling = graph.tiling();
        let d = tiling.dims();
        let widths = tiling.widths();
        let outside = || -> RunError {
            let detail = format!("traceback start {start:?} is outside the iteration space");
            CompileFault::new(CompileStage::Options, detail).into()
        };
        if start.len() != d {
            return Err(outside());
        }
        let mut x = Coord::from_slice(start);
        let mut path = vec![x];
        loop {
            // Which tile holds x?
            let mut tile = Coord::zeros(d);
            for k in 0..d {
                tile.set(k, x[k].div_euclid(widths[k]));
            }
            // Every step but the first lands on a cell a validity flag
            // vouched for, so only the start can miss.
            let tile_idx = graph.index_of(&tile).ok_or_else(outside)?;
            self.ensure_tile(tile_idx)?;
            let (_, values, geom) = self.cache.as_ref().expect("ensure_tile filled it");
            // Find the CellRef for x by replaying the tile's recording
            // (cells are cheap relative to a recompute; the tile is cached
            // between steps).
            let mut decision: Option<Option<usize>> = None;
            tiling.replay(
                geom,
                &tile,
                &mut EachCell(|cell: CellRef<'_>| {
                    if cell.x == x.as_slice() {
                        decision = Some(decide(cell, values));
                    }
                }),
            );
            let Some(j) = decision.ok_or_else(outside)? else {
                break;
            };
            x = x.add(&tiling.templates().templates()[j].offset);
            path.push(x);
        }
        Ok(path)
    }

    /// Recompute tile `tile` from the log unless it is the tile in `cache`.
    fn ensure_tile(&mut self, tile: usize) -> Result<(), RunError> {
        if !matches!(&self.cache, Some((cached, ..)) if *cached == tile) {
            let edges = self.log.edges_for(&self.graph.tiles()[tile]);
            let (values, geom) = compute_tile(self.graph, self.kernel, tile, edges)?;
            self.tiles_recomputed += 1;
            self.cache = Some((tile, values, geom));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpgen_polyhedra::{ConstraintSystem, Space};
    use dpgen_tiling::{Template, TemplateSet, Tiling, TilingBuilder};

    /// Max-path problem on the triangle: f(x) = score(x) + max(f(x+e1),
    /// f(x+e2)), base 0. The optimal path from (0,0) follows the larger
    /// branch at each step — a miniature alignment traceback.
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

    fn score(x: i64, y: i64) -> i64 {
        // Deterministic pseudo-random scores.
        (x * 7919 + y * 104729) % 97
    }

    fn kernel(cell: CellRef<'_>, values: &mut [i64]) {
        let a = if cell.valid[0] {
            values[cell.loc_r(0)]
        } else {
            i64::MIN / 2
        };
        let b = if cell.valid[1] {
            values[cell.loc_r(1)]
        } else {
            i64::MIN / 2
        };
        let best = a.max(b).max(0);
        values[cell.loc] = score(cell.x[0], cell.x[1]) + best;
    }

    /// Reference: dense DP + greedy traceback.
    fn reference_path(n: i64) -> (i64, Vec<(i64, i64)>) {
        let mut f = HashMap::new();
        for sum in (0..=n).rev() {
            for x in 0..=sum {
                let y = sum - x;
                let a = if x + 1 + y <= n {
                    f[&(x + 1, y)]
                } else {
                    i64::MIN / 2
                };
                let b = if x + y < n {
                    f[&(x, y + 1)]
                } else {
                    i64::MIN / 2
                };
                let best: i64 = a.max(b).max(0);
                f.insert((x, y), score(x, y) + best);
            }
        }
        let mut path = vec![(0i64, 0i64)];
        let (mut x, mut y) = (0i64, 0i64);
        loop {
            let a = if x + 1 + y <= n {
                Some(f[&(x + 1, y)])
            } else {
                None
            };
            let b = if x + y < n {
                Some(f[&(x, y + 1)])
            } else {
                None
            };
            match (a, b) {
                (None, None) => break,
                (Some(av), Some(bv)) if av >= bv => x += 1,
                (Some(_), None) => x += 1,
                _ => y += 1,
            }
            path.push((x, y));
        }
        (f[&(0, 0)], path)
    }

    #[test]
    fn traceback_matches_dense_reference() {
        for (n, w) in [(12i64, 3i64), (20, 4), (9, 2)] {
            let graph = triangle(w).graph(&[n]);
            let log = run_logged::<i64, _>(&graph, &kernel).unwrap();
            let (_, want_path) = reference_path(n);
            let mut tb = Traceback::new(&graph, &kernel, &log);
            let mut decide = |cell: CellRef<'_>, values: &[i64]| -> Option<usize> {
                let a = cell.valid[0].then(|| values[cell.loc_r(0)]);
                let b = cell.valid[1].then(|| values[cell.loc_r(1)]);
                match (a, b) {
                    (None, None) => None,
                    (Some(av), Some(bv)) if av >= bv => Some(0),
                    (Some(_), None) => Some(0),
                    _ => Some(1),
                }
            };
            let path = tb.trace(&[0, 0], &mut decide).unwrap();
            let got: Vec<(i64, i64)> = path.iter().map(|c| (c[0], c[1])).collect();
            assert_eq!(got, want_path, "N={n} w={w}");
            assert!(tb.tiles_recomputed >= 1);
        }
    }

    #[test]
    fn edge_log_memory_is_subquadratic() {
        // The log holds edges (O(n)), not the full space (O(n^2)).
        let n = 40i64;
        let log = run_logged::<i64, _>(&triangle(4).graph(&[n]), &kernel).unwrap();
        let total_space = ((n + 1) * (n + 2) / 2) as usize;
        assert!(
            log.total_cells() < total_space,
            "{} vs {}",
            log.total_cells(),
            total_space
        );
        assert!(!log.is_empty());
        assert!(!log.is_empty());
    }

    #[test]
    fn cache_avoids_recomputation_within_a_tile() {
        let n = 7i64; // single tile
        let graph = triangle(8).graph(&[n]);
        let log = run_logged::<i64, _>(&graph, &kernel).unwrap();
        let mut tb = Traceback::new(&graph, &kernel, &log);
        let mut decide = |cell: CellRef<'_>, values: &[i64]| -> Option<usize> {
            let a = cell.valid[0].then(|| values[cell.loc_r(0)]);
            let b = cell.valid[1].then(|| values[cell.loc_r(1)]);
            match (a, b) {
                (None, None) => None,
                (Some(av), Some(bv)) if av >= bv => Some(0),
                (Some(_), None) => Some(0),
                _ => Some(1),
            }
        };
        let path = tb.trace(&[0, 0], &mut decide).unwrap();
        assert_eq!(path.len() as i64, n + 1); // walks to the hypotenuse
        assert_eq!(tb.tiles_recomputed, 1);
    }

    /// A start that is no cell of the problem — in no tile, in a tile but
    /// past the hypotenuse, of the wrong arity — is an error naming it.
    #[test]
    fn a_start_outside_the_iteration_space_is_a_typed_fault() {
        let graph = triangle(4).graph(&[9]);
        let log = run_logged::<i64, _>(&graph, &kernel).unwrap();
        let mut tb = Traceback::new(&graph, &kernel, &log);
        for start in [&[40, 40][..], &[7, 3], &[-1, 0], &[0, 0, 0]] {
            let err = tb.trace(start, &mut |_, _| None).unwrap_err();
            let RunError::CompileError(fault) = &err else {
                panic!("start {start:?}: {err}");
            };
            assert_eq!(fault.stage, CompileStage::Options);
            assert!(err.to_string().contains(&format!("{start:?}")), "{err}");
        }
        assert_eq!(tb.trace(&[9, 0], &mut |_, _| None).unwrap().len(), 1);
    }
}
