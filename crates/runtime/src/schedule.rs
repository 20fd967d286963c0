//! Static wavefront schedules.
//!
//! The paper's generated programs pull every tile through a dynamic ready
//! queue, which is robust for irregular polytopes but pays queue and steal
//! traffic on DAGs that are perfectly regular. Following the hybrid
//! static/dynamic scheduling literature (Dathathri et al., arXiv
//! 1610.07236), this module precomputes a *static wavefront order* when the
//! Ehrhart load model reports uniform slabs: each worker receives a fixed
//! tile sequence in pipeline order, and executes it front to back without
//! ever touching the ready heaps or stealing.
//!
//! A run is pinned or it is queued, decided once per run:
//!
//! * [`Schedule::Dynamic`] — the work-stealing ready heaps; always safe.
//! * [`Schedule::Static`] — every owned tile is pinned to a per-worker
//!   sequence. Requested via [`Schedule::Static`] but *applied* only when
//!   the load model reports uniform slabs (see `core::loadbalance`);
//!   irregular polytopes fall back to `Dynamic`.
//!
//! # The pipeline deal
//!
//! Template validation rejects mixed signs per dimension, so in
//! *flow-adjusted* coordinates (descending dimensions negated) every
//! dependency points from a componentwise-smaller tile to a larger one.
//! Consequently **any** lexicographic order on the adjusted coordinates is
//! a topological order of the tile DAG — which frees the plan to pick the
//! order that pipelines best rather than strict wavefront order. The plan
//! chooses a pipeline dimension `p` (the axis with the most distinct tile
//! rows), deals row `r` of `p` to worker `r mod workers`, and sorts each
//! worker's sequence lexicographically with `p` first. Each worker then
//! sweeps complete rows: consecutive tiles in a sweep depend on the tile
//! just executed by the *same* worker (for templates with a zero `p`
//! component) and on the neighbouring row owned by the *previous* worker —
//! the classic software-pipelined wavefront, with long same-worker runs
//! instead of a cross-worker hand-off per tile.
//!
//! # Why the static order cannot deadlock
//!
//! All per-worker sequences are restrictions of one global total order
//! (lex on adjusted coords with `p` first), and that order is topological.
//! Consider the unexecuted tile of this rank with the globally smallest
//! key. All of its dependencies on this rank have strictly smaller keys —
//! hence are executed (an edge from another rank arrives when that rank,
//! by the same argument, gets there) — and every earlier tile in its
//! owner's sequence also has a smaller key, so its owner's cursor is
//! parked exactly on it: the moment its last dependency edge arrives, that
//! worker proceeds. Some worker always makes progress.

use dpgen_tiling::{Coord, Direction, TileGraph, Tiling};
use std::fmt;

/// Tile scheduling mode, requested with `core::ExecOpts::schedule(..)`.
///
/// `Static` is a *request*: the runtime applies it only when the load
/// model's slab-uniformity check passes, and falls back to `Dynamic`
/// otherwise (the resolved mode is reported in `RunStats::schedule`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Schedule {
    /// Work-stealing ready heaps for every tile (the paper's runtime).
    #[default]
    Dynamic,
    /// Precomputed per-worker wavefront sequences for every owned tile;
    /// falls back to `Dynamic` on non-uniform polytopes.
    Static,
}

impl Schedule {
    /// Stable lowercase name, used in metrics and bench reports.
    pub fn name(&self) -> &'static str {
        match self {
            Schedule::Dynamic => "dynamic",
            Schedule::Static => "static",
        }
    }

    /// Numeric code recorded in trace events and metrics gauges.
    pub fn code(&self) -> u64 {
        match self {
            Schedule::Dynamic => 0,
            Schedule::Static => 1,
        }
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A precomputed static execution plan for one rank: per-worker sequences
/// of its tiles in wavefront order. Tiles are named by their index in the
/// [`TileGraph`] the plan was built on.
#[derive(Debug)]
pub struct StaticPlan {
    sequences: Vec<Vec<u32>>,
}

impl StaticPlan {
    /// Build the plan pinning every one of the `owned` tiles of `graph`
    /// over `workers` threads; `None` when there are none.
    ///
    /// Tiles are dealt by *pipeline row*: the plan picks the axis `p`
    /// with the most distinct flow-adjusted tile coordinates, assigns row
    /// `r` along `p` to worker `r mod workers`, and orders every sequence
    /// lexicographically on the adjusted coordinates with `p` first
    /// ([`TileGraph::ordering`]). All sequences are restrictions of that
    /// single global order, which is topological because adjusted
    /// dependency deltas are componentwise non-positive (see the module
    /// docs for the deadlock argument).
    pub fn build_on(
        graph: &TileGraph,
        owned: impl IntoIterator<Item = usize>,
        workers: usize,
    ) -> Option<StaticPlan> {
        let workers = workers.max(1);
        let tiling = graph.tiling();
        let mut pinned = vec![false; graph.len()];
        for i in owned {
            pinned[i] = true;
        }
        if !pinned.contains(&true) {
            return None;
        }
        let directions = tiling.templates().directions();
        let members = (0..graph.len()).filter(|&i| pinned[i]);
        let p = pipeline_dim(members.map(|i| &graph.tiles()[i]), tiling.dims());
        let mut sequences = vec![Vec::new(); workers];
        for &i in &graph.ordering(false, &[p]).order {
            if pinned[i as usize] {
                let row = adjusted(&graph.tiles()[i as usize], p, directions);
                sequences[row.rem_euclid(workers as i64) as usize].push(i);
            }
        }
        Some(StaticPlan { sequences })
    }

    /// [`StaticPlan::build_on`] for a bare tiling, at the parameters bound
    /// in `point`: derives a graph of its own to index the `owned` tiles
    /// (those outside the tile space are ignored); `None` under
    /// [`Schedule::Dynamic`]. What `benchmark/` times; everything that runs
    /// has a graph and calls `build_on`.
    #[doc(hidden)]
    pub fn build(
        tiling: &Tiling,
        point: &mut [i128],
        owned: &[Coord],
        workers: usize,
        mode: Schedule,
    ) -> Option<StaticPlan> {
        if mode == Schedule::Dynamic {
            return None;
        }
        let bound = |&col: &usize| i64::try_from(point[col]).expect("parameters are bound as i64");
        let params: Vec<i64> = tiling.param_cols().iter().map(bound).collect();
        let graph = tiling.graph(&params);
        let owned = owned.iter().filter_map(|t| graph.index_of(t));
        StaticPlan::build_on(&graph, owned, workers)
    }

    /// Per-worker tile sequences, wavefront-ordered.
    pub fn sequences(&self) -> &[Vec<u32>] {
        &self.sequences
    }

    /// Worker `w`'s sequence.
    pub fn sequence(&self, w: usize) -> &[u32] {
        &self.sequences[w]
    }

    /// Total pinned tiles across all workers.
    pub fn len(&self) -> usize {
        self.sequences.iter().map(Vec::len).sum()
    }

    /// True when no tile is pinned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Flow-adjusted coordinate along one axis: descending dimensions are
/// negated so every dependency delta is componentwise non-positive.
fn adjusted(tile: &Coord, k: usize, directions: &[Direction]) -> i64 {
    match directions[k] {
        Direction::Descending => -tile[k],
        Direction::Ascending => tile[k],
    }
}

/// The pipeline axis: the dimension with the most distinct tile
/// coordinates among `candidates`, so rows are as numerous (and as short)
/// as possible and cyclic dealing keeps every worker busy. Ties break to
/// the lowest axis.
fn pipeline_dim<'a>(candidates: impl Iterator<Item = &'a Coord> + Clone, dims: usize) -> usize {
    let mut best = (0usize, 0usize);
    for k in 0..dims {
        let mut rows: Vec<i64> = candidates.clone().map(|t| t[k]).collect();
        rows.sort_unstable();
        rows.dedup();
        if rows.len() > best.1 {
            best = (k, rows.len());
        }
    }
    best.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_default_is_dynamic() {
        assert_eq!(Schedule::default(), Schedule::Dynamic);
        assert_eq!(Schedule::Dynamic.name(), "dynamic");
        assert_eq!(Schedule::Static.to_string(), "static");
        assert_eq!(Schedule::Static.code(), 1);
    }

    #[test]
    fn pipeline_dim_prefers_the_axis_with_most_rows() {
        // A 2 × 4 tile grid: axis 1 has more distinct rows.
        let tiles: Vec<Coord> = (0..2)
            .flat_map(|i| (0..4).map(move |j| Coord::from_slice(&[i, j])))
            .collect();
        assert_eq!(pipeline_dim(tiles.iter(), 2), 1);
        // Square grids tie-break to axis 0.
        let square: Vec<Coord> = (0..3)
            .flat_map(|i| (0..3).map(move |j| Coord::from_slice(&[i, j])))
            .collect();
        assert_eq!(pipeline_dim(square.iter(), 2), 0);
    }
}
