//! Static and mixed wavefront schedules.
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
//! Three modes:
//!
//! * [`Schedule::Dynamic`] — the existing work-stealing shards; always safe.
//! * [`Schedule::Static`] — every owned tile is pinned to a per-worker
//!   sequence. Requested via [`Schedule::Static`] but *applied* only when
//!   the load model reports uniform slabs (see `core::loadbalance`);
//!   irregular polytopes fall back to `Dynamic`.
//! * [`Schedule::Mixed`] — interior tiles (full `w₁ × … × w_d` boxes, whose
//!   cell count the Ehrhart model predicts exactly) are pinned statically;
//!   boundary tiles, clipped by the polytope, go through the dynamic queue.
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
//! Consider the unexecuted statically-pinned tile with the globally
//! smallest key. All of its statically-pinned dependencies have strictly
//! smaller keys — hence are executed — and every earlier tile in its
//! owner's sequence also has a smaller key, so its owner's cursor is
//! parked exactly on it: the moment its last dependency edge arrives, that
//! worker proceeds. In `Mixed` mode a pinned tile may additionally wait on
//! *dynamic* boundary tiles; walking the unexecuted-ancestor sub-DAG from
//! such a dependency reaches a source all of whose producers are executed,
//! which therefore must be dynamic and ready — and workers blocked on
//! their static cursor keep draining the dynamic queue, so that source
//! executes. Some worker always makes progress.

use dpgen_tiling::{Coord, Direction, Tiling};
use std::collections::HashSet;
use std::fmt;

/// Tile scheduling mode, requested with `core::ExecOpts::schedule(..)`.
///
/// `Static` is a *request*: the runtime applies it only when the load
/// model's slab-uniformity check passes, and falls back to `Dynamic`
/// otherwise (the resolved mode is reported in `RunStats::schedule`).
/// `Mixed` always applies — its boundary tiles stay dynamic, so it needs
/// no uniformity guarantee.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Schedule {
    /// Work-stealing ready heaps for every tile (the paper's runtime).
    #[default]
    Dynamic,
    /// Precomputed per-worker wavefront sequences for every owned tile;
    /// falls back to `Dynamic` on non-uniform polytopes.
    Static,
    /// Interior tiles pinned statically, boundary tiles dynamic.
    Mixed,
}

impl Schedule {
    /// Stable lowercase name, used in metrics and bench reports.
    pub fn name(&self) -> &'static str {
        match self {
            Schedule::Dynamic => "dynamic",
            Schedule::Static => "static",
            Schedule::Mixed => "mixed",
        }
    }

    /// Numeric code recorded in trace events and metrics gauges.
    pub fn code(&self) -> u64 {
        match self {
            Schedule::Dynamic => 0,
            Schedule::Static => 1,
            Schedule::Mixed => 2,
        }
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A precomputed static execution plan for one rank: per-worker tile
/// sequences in wavefront order, plus the membership set used by the
/// scheduler to route ready tiles away from the heaps.
#[derive(Debug)]
pub struct StaticPlan {
    sequences: Vec<Vec<Coord>>,
    members: HashSet<Coord>,
    mode: Schedule,
}

impl StaticPlan {
    /// Build the plan for `owned` tiles over `workers` threads.
    ///
    /// Returns `None` for [`Schedule::Dynamic`] (no plan) and for a
    /// [`Schedule::Mixed`] polytope with no interior tiles (an all-boundary
    /// problem degenerates to pure dynamic scheduling).
    ///
    /// Candidates are dealt by *pipeline row*: the plan picks the axis `p`
    /// with the most distinct flow-adjusted tile coordinates, assigns row
    /// `r` along `p` to worker `r mod workers`, and orders every sequence
    /// lexicographically on the adjusted coordinates with `p` first. All
    /// sequences are restrictions of that single global order, which is
    /// topological because adjusted dependency deltas are componentwise
    /// non-positive (see the module docs for the deadlock argument).
    pub fn build(
        tiling: &Tiling,
        point: &mut [i128],
        owned: &[Coord],
        workers: usize,
        mode: Schedule,
    ) -> Option<StaticPlan> {
        let workers = workers.max(1);
        let directions = tiling.templates().directions();
        let mut candidates: Vec<Coord> = match mode {
            Schedule::Dynamic => return None,
            Schedule::Static => owned.to_vec(),
            Schedule::Mixed => {
                // Corner containment test (constant work per tile) instead
                // of the exact Ehrhart count: building the plan is on the
                // run's critical path and charged to init_time, and the
                // per-tile count made Mixed measurably slower than Static
                // on all-interior spaces.
                owned
                    .iter()
                    .filter(|t| tiling.tile_is_full(t, point))
                    .copied()
                    .collect()
            }
        };
        if candidates.is_empty() {
            return None;
        }
        let p = pipeline_dim(&candidates, directions);
        candidates.sort_unstable_by_key(|t| pipeline_key(t, p, directions));
        let mut sequences: Vec<Vec<Coord>> = vec![Vec::new(); workers];
        for t in &candidates {
            let w = adjusted(t, p, directions).rem_euclid(workers as i64) as usize;
            sequences[w].push(*t);
        }
        let members = candidates.into_iter().collect();
        Some(StaticPlan {
            sequences,
            members,
            mode,
        })
    }

    /// Build a plan directly from per-worker sequences (the membership set
    /// is their union). The caller is responsible for wavefront-ordering
    /// each sequence; [`StaticPlan::build`] is the checked entry point.
    pub fn from_sequences(sequences: Vec<Vec<Coord>>, mode: Schedule) -> StaticPlan {
        let members = sequences.iter().flatten().copied().collect();
        StaticPlan {
            sequences,
            members,
            mode,
        }
    }

    /// The mode this plan realises (`Static` or `Mixed`).
    pub fn mode(&self) -> Schedule {
        self.mode
    }

    /// Per-worker tile sequences, wavefront-ordered.
    pub fn sequences(&self) -> &[Vec<Coord>] {
        &self.sequences
    }

    /// Worker `w`'s sequence.
    pub fn sequence(&self, w: usize) -> &[Coord] {
        &self.sequences[w]
    }

    /// Whether `tile` is pinned by this plan.
    pub fn is_member(&self, tile: &Coord) -> bool {
        self.members.contains(tile)
    }

    /// Total pinned tiles across all workers.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when no tile is pinned.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
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

/// The pipeline axis: the dimension with the most distinct adjusted tile
/// coordinates, so rows are as numerous (and as short) as possible and
/// cyclic dealing keeps every worker busy. Ties break to the lowest axis.
fn pipeline_dim(candidates: &[Coord], directions: &[Direction]) -> usize {
    let dims = candidates[0].dims();
    let mut best = (0usize, 0usize);
    for k in 0..dims {
        let distinct: HashSet<i64> = candidates
            .iter()
            .map(|t| adjusted(t, k, directions))
            .collect();
        if distinct.len() > best.1 {
            best = (k, distinct.len());
        }
    }
    best.0
}

/// Pipeline sort key: lexicographic on the adjusted coordinates with the
/// pipeline axis first — a topological total order (adjusted dependency
/// deltas are componentwise non-positive), smaller executes earlier.
fn pipeline_key(tile: &Coord, p: usize, directions: &[Direction]) -> Vec<i64> {
    let mut key = Vec::with_capacity(tile.dims() + 1);
    key.push(adjusted(tile, p, directions));
    for k in 0..tile.dims() {
        key.push(adjusted(tile, k, directions));
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_default_is_dynamic() {
        assert_eq!(Schedule::default(), Schedule::Dynamic);
        assert_eq!(Schedule::Dynamic.name(), "dynamic");
        assert_eq!(Schedule::Static.to_string(), "static");
        assert_eq!(Schedule::Mixed.code(), 2);
    }

    #[test]
    fn pipeline_key_sweeps_rows_of_the_pipeline_axis() {
        let asc = [Direction::Ascending, Direction::Ascending];
        // Pipeline axis 0: all of row 0 sorts before any of row 1.
        let a = pipeline_key(&Coord::from_slice(&[0, 5]), 0, &asc);
        let b = pipeline_key(&Coord::from_slice(&[1, 0]), 0, &asc);
        assert!(a < b, "row-major along the pipeline axis");
        // Within a row the remaining axes break ties lexicographically.
        let c = pipeline_key(&Coord::from_slice(&[1, 1]), 0, &asc);
        assert!(b < c);
        // Descending dimensions are negated: larger index = earlier.
        let desc = [Direction::Descending, Direction::Descending];
        let hi = pipeline_key(&Coord::from_slice(&[3, 3]), 0, &desc);
        let lo = pipeline_key(&Coord::from_slice(&[0, 0]), 0, &desc);
        assert!(hi < lo);
    }

    #[test]
    fn pipeline_dim_prefers_the_axis_with_most_rows() {
        let asc = [Direction::Ascending, Direction::Ascending];
        // A 2 × 4 tile grid: axis 1 has more distinct rows.
        let tiles: Vec<Coord> = (0..2)
            .flat_map(|i| (0..4).map(move |j| Coord::from_slice(&[i, j])))
            .collect();
        assert_eq!(pipeline_dim(&tiles, &asc), 1);
        // Square grids tie-break to axis 0.
        let square: Vec<Coord> = (0..3)
            .flat_map(|i| (0..3).map(move |j| Coord::from_slice(&[i, j])))
            .collect();
        assert_eq!(pipeline_dim(&square, &asc), 0);
    }
}
