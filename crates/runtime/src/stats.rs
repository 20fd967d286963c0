//! Per-run statistics reported by the node runtime.

use crate::schedule::Schedule;
use dpgen_tiling::TileShape;
use std::time::Duration;

/// Counters and timings from one node's run, used by the evaluation harness
/// (scaling efficiency, initial-tile-generation fraction, communication
/// volume, idle time).
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Tiles executed by this node.
    pub tiles_executed: u64,
    /// The schedule mode this node ran: the requested one, or `Dynamic`
    /// when a `Static` request reached a node that owns no tile.
    pub schedule: Schedule,
    /// The cell-level region shape of the tiling this node ran
    /// ([`TileShape::Banded`] for sparse diagonal-band spaces).
    pub shape: TileShape,
    /// Cells computed (center-loop executions).
    pub cells_computed: u64,
    /// Cells computed inside interior fast-path runs (all validity checks
    /// hoisted to the run endpoints; see `Tiling::scan_tile_fast`).
    pub interior_cells: u64,
    /// Cells computed by the per-cell boundary fallback.
    pub boundary_cells: u64,
    /// Interior runs dispatched to a batched `RunKernel`, counted run by
    /// run however they were grouped into blocks (0 on the per-cell
    /// execution path).
    pub runs_batched: u64,
    /// Cells evaluated inside batched runs (0 on the per-cell path; equals
    /// `interior_cells` on the batched path).
    pub cells_batched: u64,
    /// Interior blocks handed to `RunKernel::eval_block` — the one way
    /// interior cells reach a kernel, so nonzero on every path that computed
    /// an interior cell. A block is a rectangle of equal runs; `runs_batched
    /// / blocks_evaluated` is the mean rows per block on the batched path.
    pub blocks_evaluated: u64,
    /// Tile value buffers freshly allocated (plateaus at the worker count
    /// once per-worker pooling has warmed up).
    pub tile_buffers_allocated: u64,
    /// Tiles executed on a reused (pooled) value buffer.
    pub tile_buffers_reused: u64,
    /// Edge payload vectors freshly allocated or grown.
    pub edge_payloads_allocated: u64,
    /// Edge payload vectors reused from a worker's recycle list without
    /// allocating.
    pub edge_payloads_reused: u64,
    /// Edges delivered to tiles on the same node.
    pub edges_local: u64,
    /// Edges handed to the transport for other nodes.
    pub edges_remote: u64,
    /// Total edge cells packed (local + remote).
    pub edge_cells_packed: u64,
    /// Tile geometries this node's workers recorded during the run: the
    /// first tile of each class, and — once the graph's recordings are at
    /// their byte budget (see `TileGraph::geometry`) — every tile executed
    /// and every edge unpacked. 0 when a previous run of the plan already
    /// recorded the classes.
    pub geom_builds: u64,
    /// Geometry classes with a recording kept by the plan's tile graph when
    /// this node finished (shared by every rank and run of the plan).
    pub geom_classes: u64,
    /// Wall time this node spent before its first tile: filtering the
    /// plan's tile graph down to the initial tiles it owns, building a
    /// static plan when none was injected, and allocating its per-tile
    /// arrays. Deriving the graph itself — the discovery Section IV-K
    /// measures as < 0.5% of total run time — happens once per plan, not
    /// here (`figures e9` times it beside this).
    pub init_time: Duration,
    /// Total wall time of the run (including initialisation).
    pub total_time: Duration,
    /// Summed worker wait time (idle in the scheduler loop).
    pub idle_time: Duration,
    /// Successful work steals (a worker popped from another worker's ready
    /// queue because its own was empty).
    pub steal_count: u64,
    /// Steal attempts that found the chosen victim queue already empty.
    pub steal_fail_count: u64,
    /// Notifies sent to parked workers by deliveries that readied tiles,
    /// summed over the workers. 0 on a one-worker node, which never has a
    /// parked worker to wake; at most `tiles_executed`.
    pub wakeups: u64,
    /// Summed time workers spent blocked on contended scheduler locks
    /// (uncontended acquisitions cost nothing).
    pub lock_wait_time: Duration,
    /// Tiles executed by each worker, indexed by worker id (the per-worker
    /// load histogram; empty for runners that don't track it).
    pub tiles_per_worker: Vec<u64>,
    /// Peak simultaneously pending tiles in the scheduler's table.
    pub peak_pending_tiles: i64,
    /// Number of worker threads used.
    pub threads: usize,
    /// Peak number of simultaneously buffered edges.
    pub peak_edges: i64,
    /// Peak buffered edge cells.
    pub peak_edge_cells: i64,
    /// Peak simultaneously live (executing) tile buffers.
    pub peak_live_tiles: i64,
    /// Peak live tile buffer cells.
    pub peak_live_tile_cells: i64,
    /// Tiles this node skipped because a recovery checkpoint already held
    /// their results (0 outside recovery resumes). Not counted in
    /// `tiles_executed`.
    pub tiles_resumed: u64,
    /// Approximate bytes retained in this node's recovery checkpoint
    /// (completed-tile frontier plus boundary-edge payloads); 0 when
    /// checkpointing is off.
    pub checkpoint_bytes: u64,
}

impl RunStats {
    /// Add `other`'s work counters — cells and their split, blocks, edges
    /// and edge cells, geometry builds, buffer and payload pooling,
    /// wake-ups — into these: how a run sums what each of its workers
    /// counted. Timings, peaks and per-run facts are not counters and stay
    /// as they are.
    pub(crate) fn add_counts(&mut self, other: &RunStats) {
        self.cells_computed += other.cells_computed;
        self.interior_cells += other.interior_cells;
        self.boundary_cells += other.boundary_cells;
        self.runs_batched += other.runs_batched;
        self.cells_batched += other.cells_batched;
        self.blocks_evaluated += other.blocks_evaluated;
        self.tile_buffers_allocated += other.tile_buffers_allocated;
        self.tile_buffers_reused += other.tile_buffers_reused;
        self.edge_payloads_allocated += other.edge_payloads_allocated;
        self.edge_payloads_reused += other.edge_payloads_reused;
        self.edges_local += other.edges_local;
        self.edges_remote += other.edges_remote;
        self.edge_cells_packed += other.edge_cells_packed;
        self.geom_builds += other.geom_builds;
        self.wakeups += other.wakeups;
    }

    /// Fraction of wall time spent in initial tile generation.
    pub fn init_fraction(&self) -> f64 {
        if self.total_time.is_zero() {
            return 0.0;
        }
        self.init_time.as_secs_f64() / self.total_time.as_secs_f64()
    }

    /// Mean idle fraction per worker.
    pub fn idle_fraction(&self) -> f64 {
        if self.total_time.is_zero() || self.threads == 0 {
            return 0.0;
        }
        self.idle_time.as_secs_f64() / (self.total_time.as_secs_f64() * self.threads as f64)
    }

    /// Fraction of tiles that were obtained by stealing.
    pub fn steal_fraction(&self) -> f64 {
        if self.tiles_executed == 0 {
            return 0.0;
        }
        self.steal_count as f64 / self.tiles_executed as f64
    }

    /// Mean lock-wait fraction per worker.
    pub fn lock_wait_fraction(&self) -> f64 {
        if self.total_time.is_zero() || self.threads == 0 {
            return 0.0;
        }
        self.lock_wait_time.as_secs_f64() / (self.total_time.as_secs_f64() * self.threads as f64)
    }

    /// Computed cells per second of wall time (0.0 for zero-duration runs).
    pub fn cells_per_sec(&self) -> f64 {
        if self.total_time.is_zero() {
            return 0.0;
        }
        self.cells_computed as f64 / self.total_time.as_secs_f64()
    }

    /// Fraction of cells computed on the interior fast path (0.0 when the
    /// runner doesn't track the split).
    pub fn interior_fraction(&self) -> f64 {
        let total = self.interior_cells + self.boundary_cells;
        if total == 0 {
            return 0.0;
        }
        self.interior_cells as f64 / total as f64
    }

    /// Mean batched-run length in cells (0.0 on the per-cell path).
    pub fn mean_run_len(&self) -> f64 {
        if self.runs_batched == 0 {
            return 0.0;
        }
        self.cells_batched as f64 / self.runs_batched as f64
    }

    /// Fraction of tiles executed on a reused pooled buffer.
    pub fn buffer_reuse_fraction(&self) -> f64 {
        let total = self.tile_buffers_allocated + self.tile_buffers_reused;
        if total == 0 {
            return 0.0;
        }
        self.tile_buffers_reused as f64 / total as f64
    }

    /// Load imbalance across workers: max over mean of `tiles_per_worker`
    /// (1.0 = perfectly even; 0.0 when the histogram is empty).
    pub fn worker_imbalance(&self) -> f64 {
        let n = self.tiles_per_worker.len();
        if n == 0 {
            return 0.0;
        }
        let total: u64 = self.tiles_per_worker.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let max = *self.tiles_per_worker.iter().max().unwrap() as f64;
        max / (total as f64 / n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions() {
        let s = RunStats {
            init_time: Duration::from_millis(5),
            total_time: Duration::from_millis(1000),
            idle_time: Duration::from_millis(500),
            threads: 4,
            ..Default::default()
        };
        assert!((s.init_fraction() - 0.005).abs() < 1e-9);
        assert!((s.idle_fraction() - 0.125).abs() < 1e-9);
        let z = RunStats::default();
        assert_eq!(z.init_fraction(), 0.0);
        assert_eq!(z.idle_fraction(), 0.0);
    }

    #[test]
    fn hot_path_metrics() {
        let s = RunStats {
            cells_computed: 1000,
            interior_cells: 900,
            boundary_cells: 100,
            tile_buffers_allocated: 4,
            tile_buffers_reused: 96,
            total_time: Duration::from_millis(500),
            ..Default::default()
        };
        assert!((s.cells_per_sec() - 2000.0).abs() < 1e-9);
        assert!((s.interior_fraction() - 0.9).abs() < 1e-12);
        assert!((s.buffer_reuse_fraction() - 0.96).abs() < 1e-12);
        let b = RunStats {
            runs_batched: 30,
            cells_batched: 900,
            ..Default::default()
        };
        assert!((b.mean_run_len() - 30.0).abs() < 1e-12);
        assert_eq!(RunStats::default().mean_run_len(), 0.0);
        let z = RunStats::default();
        assert_eq!(z.cells_per_sec(), 0.0);
        assert_eq!(z.interior_fraction(), 0.0);
        assert_eq!(z.buffer_reuse_fraction(), 0.0);
    }

    #[test]
    fn contention_metrics() {
        let s = RunStats {
            tiles_executed: 100,
            steal_count: 25,
            lock_wait_time: Duration::from_millis(100),
            total_time: Duration::from_millis(1000),
            threads: 4,
            tiles_per_worker: vec![40, 20, 20, 20],
            ..Default::default()
        };
        assert!((s.steal_fraction() - 0.25).abs() < 1e-12);
        assert!((s.lock_wait_fraction() - 0.025).abs() < 1e-12);
        assert!((s.worker_imbalance() - 1.6).abs() < 1e-12);
        let z = RunStats::default();
        assert_eq!(z.steal_fraction(), 0.0);
        assert_eq!(z.lock_wait_fraction(), 0.0);
        assert_eq!(z.worker_imbalance(), 0.0);
    }
}
