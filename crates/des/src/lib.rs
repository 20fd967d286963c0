//! Discrete-event simulation of tile-DAG execution.
//!
//! The evaluation of the paper (Figures 6 and 7, Section VI) measures
//! wall-clock scaling on a 24-core-per-node, 8-node cluster. This
//! environment exposes a single CPU core, so parallel wall clock cannot be
//! observed directly; instead, this crate *simulates* the execution of the
//! exact tile graph the generated program would run:
//!
//! * the tile space, tile dependencies, per-tile work (cell counts) and
//!   per-edge payload sizes are the [`TileGraph`](dpgen_tiling::TileGraph)
//!   the runtime executes ([`simulate_on`] takes a plan's own;
//!   [`simulate`] derives one from a bare tiling), counted exactly, once
//!   per geometry class of tiles,
//! * tiles are dispatched to `threads` virtual workers per rank by the
//!   runtime's own [`DispatchRule`](dpgen_runtime::DispatchRule) — a ready
//!   heap per worker, the [`TilePriority`](dpgen_runtime::TilePriority) or
//!   static plan's key, the same homes and the same steals as the threaded
//!   scheduler,
//! * remote edges pay latency + per-cell bandwidth from a [`CostModel`]
//!   whose compute constants are *calibrated* against measured serial
//!   execution (see `dpgen-bench`),
//! * the critical path is the graph's
//!   [`longest_path`](dpgen_tiling::TileGraph::longest_path), the routine
//!   the runtime's `Timeline` measures an executed one with.
//!
//! What the simulation preserves is precisely what determines the shape of
//! the paper's scaling curves: the DAG critical path, the scheduler
//! priority, the load balance across ranks, and the communication volume.
//!
//! The simulator shares the runtime's dispatch rule but none of its
//! threads, locks or payloads: the threaded runtime in `dpgen-runtime`
//! remains the execution vehicle for all correctness tests.

pub mod model;
pub mod sim;

pub use model::{CostModel, SimConfig};
pub use sim::{simulate, simulate_on, SimError, SimResult};
