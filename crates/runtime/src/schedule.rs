//! Static wavefront schedules.
//!
//! The paper's generated programs pull every tile through a dynamic ready
//! queue. Following the hybrid static/dynamic scheduling literature
//! (Dathathri et al., arXiv 1610.07236), a static order here is something
//! that queue *carries*: a pinned run's tiles pass through the same ready
//! heaps as any other run's, and only which heap a ready tile enters, and
//! under which key, differ. The mode is decided once per run:
//!
//! * [`Schedule::Dynamic`] — a ready tile enters the heap of the worker
//!   that readied it, keyed by its position in the priority's order.
//! * [`Schedule::Static`] — a ready tile enters the heap of its *home*
//!   worker, keyed by its position in the [`StaticPlan`]'s order. Each
//!   rank builds its plan in-run over the tiles it owns, on any polytope;
//!   a rank that owns no tile has no plan and runs `Dynamic`.
//!
//! Popping, stealing, idle waiting and the stall watchdog are one path for
//! both, and a heap path cannot deadlock: any ready tile can be popped by
//! any worker.
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
//! rows), homes row `r` of `p` on worker `r mod workers`, and keys every
//! tile by its position in the lexicographic order with `p` first. Each
//! worker then sweeps complete rows from its own heap: consecutive tiles in
//! a sweep depend on the tile just executed by the *same* worker (for
//! templates with a zero `p` component) and on the neighbouring row homed
//! on the *previous* worker — the classic software-pipelined wavefront,
//! with long same-worker runs instead of a cross-worker hand-off per tile.
//! On one worker the order is topological, so the heap pops the tiles in
//! exactly the plan's order.

use dpgen_tiling::{Coord, Direction, TileGraph, TileOrdering, Tiling};
use std::fmt;
use std::sync::Arc;

/// Tile scheduling mode, requested with `core::ExecOpts::schedule(..)`.
///
/// `Static` applies as asked on every rank that owns a tile; the mode a
/// rank ran is reported in `RunStats::schedule`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Schedule {
    /// Ready tiles stay with the worker that readied them, in priority
    /// order (the paper's runtime).
    #[default]
    Dynamic,
    /// Ready tiles go home to the worker their pipeline row is dealt to,
    /// in the plan's wavefront order.
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

/// A precomputed static plan for one rank's tiles: the plan's wavefront
/// order over the [`TileGraph`] it was built on, and each owned tile's
/// pipeline row. Independent of the worker count: a tile's home is its row
/// modulo the workers of the run that reads the plan.
#[derive(Debug)]
pub struct StaticPlan {
    /// Lexicographic on the flow-adjusted coordinates with the pipeline
    /// axis first (memoized by the graph).
    ordering: Arc<TileOrdering>,
    /// Per graph tile, its flow-adjusted coordinate along the pipeline axis
    /// when the plan owns it.
    rows: Vec<Option<i64>>,
    /// How many tiles the plan owns.
    owned: usize,
}

impl StaticPlan {
    /// Build the plan over the `owned` tiles of `graph`; `None` when there
    /// are none.
    ///
    /// The plan picks the axis `p` with the most distinct flow-adjusted
    /// tile coordinates among the owned tiles, records each owned tile's
    /// row along `p`, and orders the graph lexicographically on the
    /// adjusted coordinates with `p` first ([`TileGraph::ordering`]). That
    /// order is topological because adjusted dependency deltas are
    /// componentwise non-positive.
    pub fn build_on(
        graph: &TileGraph,
        owned: impl IntoIterator<Item = usize>,
    ) -> Option<StaticPlan> {
        let tiling = graph.tiling();
        let mut pinned = vec![false; graph.len()];
        for i in owned {
            pinned[i] = true;
        }
        let owned = pinned.iter().filter(|&&own| own).count();
        if owned == 0 {
            return None;
        }
        let directions = tiling.templates().directions();
        // The owned tiles' coordinates, walked once.
        let mut members = Vec::with_capacity(owned);
        let tiles = graph.coords().zip(&pinned);
        members.extend(tiles.filter_map(|(t, &own)| own.then_some(t)));
        let p = pipeline_dim(members.iter(), tiling.dims());
        let mut member = members.iter().map(|t| adjusted(t, p, directions));
        let rows = (pinned.iter()).map(|&own| if own { member.next() } else { None });
        let rows = rows.collect();
        Some(StaticPlan {
            ordering: graph.ordering(false, &[p]),
            rows,
            owned,
        })
    }

    /// [`StaticPlan::build_on`] for a bare tiling, at the parameters bound
    /// in `point`: derives a graph of its own to index the `owned` tiles
    /// (those outside the tile space are ignored); `None` under
    /// [`Schedule::Dynamic`]. `workers` is unused: a plan holds no per-worker
    /// state. What `benchmark/` times; everything that runs has a graph and
    /// calls `build_on`.
    #[doc(hidden)]
    pub fn build(
        tiling: &Tiling,
        point: &mut [i128],
        owned: &[Coord],
        _workers: usize,
        mode: Schedule,
    ) -> Option<StaticPlan> {
        if mode == Schedule::Dynamic {
            return None;
        }
        let bound = |&col: &usize| i64::try_from(point[col]).expect("parameters are bound as i64");
        let params: Vec<i64> = tiling.param_cols().iter().map(bound).collect();
        let graph = tiling.graph(&params);
        let owned = owned.iter().filter_map(|t| graph.index_of(t));
        StaticPlan::build_on(&graph, owned)
    }

    /// The plan's order over every tile of its graph: a tile's position in
    /// it is the tile's ready-heap key.
    pub fn ordering(&self) -> &Arc<TileOrdering> {
        &self.ordering
    }

    /// The worker, of `workers`, that tile `tile`'s pipeline row is dealt
    /// to: the heap it enters when ready. `None` when the plan does not own
    /// it.
    pub fn home(&self, tile: usize, workers: usize) -> Option<usize> {
        let row = self.rows[tile]?;
        Some(row.rem_euclid(workers.max(1) as i64) as usize)
    }

    /// How many tiles the plan owns.
    pub fn len(&self) -> usize {
        self.owned
    }

    /// True when the plan owns no tile.
    pub fn is_empty(&self) -> bool {
        self.owned == 0
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
