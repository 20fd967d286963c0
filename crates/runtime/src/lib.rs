//! Shared-memory node runtime for `dpgen`-generated programs.
//!
//! This crate is the Rust equivalent of the OpenMP layer of the programs the
//! paper's generator emits (Section V): on one node, a pool of worker
//! threads repeatedly
//!
//! 1. gets the next available tile from its own ready queue (stealing from
//!    the richest sibling when empty — see [`scheduler`]),
//! 2. unpacks the buffered edge data into the tile's ghost cells,
//! 3. executes the tile (the user's center-loop code),
//! 4. packs each valid outgoing edge and updates neighbouring tiles (or
//!    hands the edge to a [`Transport`] for another node),
//! 5. delivers the batch of outgoing edges, readying any completed tiles,
//! 6. polls for incoming edges when the lock is available.
//!
//! Tile-to-ready bookkeeping lives in [`scheduler::TileScheduler`]: the
//! pending table is an array of per-tile slots over the tile graph's dense
//! index and each worker owns a private priority queue, so delivery and
//! popping contend only on narrow locks.
//!
//! Only *pending* tiles (those with at least one satisfied dependency) are
//! tracked, and only *executing* tiles have full buffers in memory — the
//! paper's key memory optimisations (Section V-B). The [`memory`] module
//! accounts for live tiles and buffered edges so the Figure 4 peak-memory
//! comparison can be reproduced, and [`priority`] implements both the
//! paper's column-major-style priority (Figure 5) and the level-set
//! alternative of Figure 4(b).

pub mod checkpoint;
pub mod clock;
pub mod error;
pub mod kernel;
pub mod memory;
pub mod metrics;
pub mod node;
pub mod priority;
pub mod reduce;
pub mod reference;
pub mod rng;
pub mod schedule;
pub mod scheduler;
pub mod sharded;
pub mod stats;
pub mod trace;
pub mod transport;

pub use checkpoint::{CheckpointData, CheckpointSink, NodeRecovery, ResumeState, TileSet};
pub use clock::Clock;
pub use error::{
    most_severe, CompileFault, CompileStage, EdgeFault, PendingTile, RunError, StallSnapshot,
};
pub use kernel::{Kernel, PerCell, RunKernel, Value};
pub use memory::MemoryStats;
pub use metrics::{Histogram, Metric, MetricsRegistry};
pub use node::{
    run_node, tile_geometry, unpack_edge, NodeConfig, NodeJob, NodeResult, Probe, SingleOwner,
    TileOwner, DEFAULT_STALL_TIMEOUT, STALL_DUMP_EVENTS,
};
pub use priority::TilePriority;
pub use reduce::Reduction;
pub use reference::{run_reference, ReferenceResult};
pub use rng::SplitMix64;
pub use schedule::{Schedule, StaticPlan};
pub use scheduler::{Delivery, DispatchRule, DuplicateEdge, TileEdges, TileScheduler};
pub use sharded::{EdgeDelivery, ShardedScheduler};
pub use stats::RunStats;
pub use trace::{
    EventKind, RankTrace, TileSpan, Timeline, TraceEvent, TraceLevel, TraceRing, Tracer,
    TrackSummary, TrackTrace, RING_CAPACITY,
};
pub use transport::{EdgeMsg, LinkDiag, NullTransport, Transport, TransportError};
