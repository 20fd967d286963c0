//! Solution recovery by traceback (the Section VII-A future-work feature).
//!
//! A dynamic program usually wants more than the optimal *value*: it wants
//! the optimal *decisions* (an alignment, a pull policy). That requires
//! revisiting cells after the forward pass, but the tiled runtime discards
//! tile interiors to save memory. The paper's proposal: save the tile
//! *edges*, and recompute needed tiles on the fly during the traceback.
//! That is what this module does:
//!
//! * [`Plan::execute_logged`](crate::Plan::execute_logged) is an ordinary
//!   execution — any threads, ranks, schedule or fault plan — that keeps
//!   what its recovery checkpoints retain, every inter-tile edge, as an
//!   [`EdgeLog`] (memory `O(n^{d-1})`, not `O(n^d)`),
//! * [`Traceback`] then walks a path from a start cell: each step recomputes
//!   the (cached) tile containing the current cell from its logged edges
//!   and asks a user-supplied decision function which dependency the
//!   optimal policy follows.

use dpgen_runtime::{
    tile_geometry, unpack_edge, CompileFault, CompileStage, Delivery, Kernel, RunError, TileEdges,
    Value,
};
use dpgen_tiling::tiling::{CellRef, EachCell};
use dpgen_tiling::{Coord, TileGeom, TileGraph};
use std::borrow::Cow;
use std::sync::Arc;

/// All inter-tile edges produced during a forward pass: per consumer tile,
/// by its index in the plan's tile graph, the `(dependency index, payload)`
/// pairs the scheduler buffered for it.
pub struct EdgeLog<T> {
    edges: Vec<TileEdges<T>>,
}

impl<T> EdgeLog<T> {
    /// An empty log over a graph of `tiles` tiles.
    pub(crate) fn new(tiles: usize) -> EdgeLog<T> {
        EdgeLog {
            edges: (0..tiles).map(|_| Vec::new()).collect(),
        }
    }

    /// File a checkpoint's retained edges under their consumers.
    pub(crate) fn extend(&mut self, retained: Vec<Delivery<T>>) {
        for e in retained {
            self.edges[e.tile].push((e.dep, e.payload));
        }
    }

    /// Edges buffered for tile `tile` (empty slice for initial tiles).
    pub fn edges_for(&self, tile: usize) -> &[(usize, Vec<T>)] {
        self.edges.get(tile).map_or(&[], Vec::as_slice)
    }

    /// Number of tiles with logged edges.
    pub fn len(&self) -> usize {
        self.edges.iter().filter(|e| !e.is_empty()).count()
    }

    /// True when no edges were logged (single-tile problems).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total logged edge cells (the memory cost of traceback support).
    pub fn total_cells(&self) -> usize {
        let payloads = self.edges.iter().flatten();
        payloads.map(|(_, p)| p.len()).sum()
    }
}

/// Recompute tile `tile`'s values from its logged edges — the paper's
/// recompute-on-demand — by the node engine's own unpack and a replay of
/// the tile's recorded geometry, exactly as the engine executes it. An edge
/// the graph does not expect there (a log of another problem's forward
/// pass) is a typed [`RunError::BadEdge`].
fn compute_tile<'g, T, K>(
    graph: &'g TileGraph,
    kernel: &K,
    tile: usize,
    edges: &[(usize, Vec<T>)],
) -> Result<(Vec<T>, Cow<'g, Arc<TileGeom>>), RunError>
where
    T: Value,
    K: Kernel<T>,
{
    let tiling = graph.tiling();
    let mut values = vec![T::default(); tiling.layout().size()];
    for (dep, payload) in edges {
        unpack_edge(graph, 0, tile, *dep, payload, &mut values)?;
    }
    let geom = tile_geometry(graph, 0, tile)?;
    tiling.replay(
        &geom,
        &graph.coord(tile),
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
    /// New traceback over a finished forward pass on `graph`
    /// ([`Plan::execute_logged`](crate::Plan::execute_logged)).
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
    /// recorded is [`RunError::TileGeometry`]; a log whose edges do not fit
    /// the graph (another binding's forward pass) is [`RunError::BadEdge`].
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
            let edges = self.log.edges_for(tile);
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
    use crate::{ExecOpts, Plan, RunOutput};
    use dpgen_mpisim::{FaultPlan, KillTrigger, ReliabilityConfig};
    use dpgen_polyhedra::{ConstraintSystem, Space};
    use dpgen_runtime::{PerCell, Schedule};
    use dpgen_tiling::{Template, TemplateSet, Tiling, TilingBuilder};
    use std::collections::HashMap;
    use std::time::Duration;

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

    /// The larger branch, the first on a tie: `reference_path`'s rule.
    fn decide(cell: CellRef<'_>, values: &[i64]) -> Option<usize> {
        let a = cell.valid[0].then(|| values[cell.loc_r(0)]);
        let b = cell.valid[1].then(|| values[cell.loc_r(1)]);
        match (a, b) {
            (None, None) => None,
            (Some(av), Some(bv)) if av >= bv => Some(0),
            (Some(_), None) => Some(0),
            _ => Some(1),
        }
    }

    /// The forward pass of the `w`-tiled triangle at `n` under `opts`.
    fn forward(w: i64, n: i64, opts: &ExecOpts) -> (Arc<TileGraph>, RunOutput<i64>, EdgeLog<i64>) {
        let plan = Plan::on_tiling(triangle(w), &[n], vec![0]).unwrap();
        let (out, log) = plan.execute_logged(&PerCell(&kernel), opts).unwrap();
        (plan.graph().unwrap(), out, log)
    }

    /// One log, one path and one recompute count whatever ran the forward
    /// pass: threads x ranks x schedule, and a rank killed and recovered.
    #[test]
    fn traceback_matches_dense_reference() {
        let mut matrix = Vec::new();
        for schedule in [Schedule::Dynamic, Schedule::Static] {
            for (threads, ranks) in [(1usize, 1usize), (3, 1), (1, 2), (2, 2)] {
                let opts = ExecOpts::new().threads(threads).ranks(ranks);
                matrix.push(opts.schedule(schedule));
            }
        }
        let mut killed = ExecOpts::new()
            .threads(2)
            .ranks(2)
            .max_recoveries(1)
            .reliability(ReliabilityConfig {
                heartbeat_interval: Some(Duration::from_millis(2)),
                death_timeout: Duration::from_millis(100),
                ..ReliabilityConfig::default()
            });
        killed.comm.faults = Some(FaultPlan::kill_rank_at(0, KillTrigger::AfterSends(1)));
        matrix.push(killed);
        for (n, w) in [(12i64, 3i64), (20, 4), (9, 2)] {
            let (_, want_path) = reference_path(n);
            let mut first = None;
            for opts in &matrix {
                let (graph, out, log) = forward(w, n, opts);
                let lost = opts.max_recoveries;
                assert_eq!(out.recovery.ranks_lost, lost, "N={n} w={w} {opts:?}");
                let mut tb = Traceback::new(&graph, &kernel, &log);
                let path = tb.trace(&[0, 0], &mut decide).unwrap();
                let got: Vec<(i64, i64)> = path.iter().map(|c| (c[0], c[1])).collect();
                assert_eq!(got, want_path, "N={n} w={w} {opts:?}");
                assert!(tb.tiles_recomputed >= 1);
                // Every edge the graph has, cell for cell.
                let edge_cells = graph.edge_cells().unwrap();
                let modelled: u64 = (0..graph.len())
                    .flat_map(|i| (0..2).map(move |d| (i, d)))
                    .filter(|&(i, d)| graph.consumer(i, d).is_some())
                    .map(|(i, d)| edge_cells.get(i, d))
                    .sum();
                assert_eq!(log.total_cells() as u64, modelled, "N={n} w={w} {opts:?}");
                let mut edges: Vec<_> = (0..graph.len())
                    .map(|t| log.edges_for(t).to_vec())
                    .collect();
                edges.iter_mut().for_each(|e| e.sort());
                let (want_edges, want_recomputed) =
                    first.get_or_insert((edges.clone(), tb.tiles_recomputed));
                assert_eq!(&edges, want_edges, "N={n} w={w} {opts:?}");
                assert_eq!(tb.tiles_recomputed, *want_recomputed);
            }
        }
    }

    #[test]
    fn edge_log_memory_is_subquadratic() {
        // The log holds edges (O(n)), not the full space (O(n^2)).
        let n = 40i64;
        let (_, _, log) = forward(4, n, &ExecOpts::new());
        let total_space = ((n + 1) * (n + 2) / 2) as usize;
        assert!(
            log.total_cells() < total_space,
            "{} vs {}",
            log.total_cells(),
            total_space
        );
        assert!(!log.is_empty());
        assert!(log.len() > 1);
    }

    #[test]
    fn cache_avoids_recomputation_within_a_tile() {
        let n = 7i64; // single tile
        let (graph, _, log) = forward(8, n, &ExecOpts::new());
        assert!(log.is_empty());
        let mut tb = Traceback::new(&graph, &kernel, &log);
        let path = tb.trace(&[0, 0], &mut decide).unwrap();
        assert_eq!(path.len() as i64, n + 1); // walks to the hypotenuse
        assert_eq!(tb.tiles_recomputed, 1);
    }

    /// A start that is no cell of the problem — in no tile, in a tile but
    /// past the hypotenuse, of the wrong arity — is an error naming it.
    #[test]
    fn a_start_outside_the_iteration_space_is_a_typed_fault() {
        let (graph, _, log) = forward(4, 9, &ExecOpts::new());
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
