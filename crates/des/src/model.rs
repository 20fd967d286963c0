//! Cost model and simulation configuration.

use dpgen_runtime::{Schedule, TilePriority};

/// Virtual-time costs of the simulated machine.
///
/// The compute constants (`cell_cost`, `tile_overhead`, `edge_cell_cost`)
/// should be calibrated from a measured serial run of the actual kernel;
/// the interconnect constants default to commodity-cluster values
/// (~5 µs MPI latency, ~1 GB/s effective per-link bandwidth on the
/// paper-era hardware).
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Seconds of compute per cell (kernel execution).
    pub cell_cost: f64,
    /// Fixed per-tile cost: buffer allocation, scheduler pop, bookkeeping.
    /// Paid by every tile under either schedule: the runtime dispatches a
    /// static run's tiles through the same ready heaps as a dynamic run's.
    pub tile_overhead: f64,
    /// Unread. A static run's tiles pay `tile_overhead` like any other; the
    /// field stays only while callers still name it in struct literals.
    pub static_tile_overhead: f64,
    /// Seconds per edge cell for packing plus unpacking.
    pub edge_cell_cost: f64,
    /// Per-message latency for a remote edge (seconds).
    pub comm_latency: f64,
    /// Per-cell transfer cost for a remote edge (seconds; cell size /
    /// bandwidth).
    pub comm_cell_cost: f64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            cell_cost: 20e-9,           // ~20 ns per DP cell
            tile_overhead: 2e-6,        // ~2 µs per tile dispatch
            static_tile_overhead: 5e-7, // unread
            edge_cell_cost: 4e-9,       // pack + unpack
            comm_latency: 5e-6,         // MPI eager-message latency
            comm_cell_cost: 8e-9,       // 8-byte value at ~1 GB/s
        }
    }
}

/// Shape of the simulated machine and scheduler.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of simulated nodes (MPI ranks).
    pub ranks: usize,
    /// Virtual worker threads per rank (OpenMP threads).
    pub threads_per_rank: usize,
    /// Ready-queue priority, as in the real scheduler.
    pub priority: TilePriority,
    /// Cost model.
    pub cost: CostModel,
    /// Send buffers per directed rank pair (the Section VI-C tunable): a
    /// worker that must send a remote edge while all buffers are in flight
    /// stalls until one frees. `usize::MAX` disables the limit.
    pub send_buffers: usize,
    /// Schedule mode, mirroring the runtime's `NodeConfig`: under `Static`
    /// each rank builds the runtime's `StaticPlan` over the tiles it owns,
    /// and a ready tile goes to its home worker's heap keyed by the plan's
    /// order, exactly as the runtime's dispatch rule routes it.
    pub schedule: Schedule,
}

impl SimConfig {
    /// Single-node configuration with the given thread count and a
    /// column-major priority over `dims` dimensions.
    pub fn shared(threads: usize, dims: usize) -> SimConfig {
        SimConfig {
            ranks: 1,
            threads_per_rank: threads,
            priority: TilePriority::column_major(dims),
            cost: CostModel::default(),
            send_buffers: usize::MAX,
            schedule: Schedule::Dynamic,
        }
    }

    /// Multi-node configuration with the paper's Figure 5 order as printed
    /// ([`TilePriority::paper_default`]), not the runtime's default
    /// ([`TilePriority::pipelined`]): the model simulates the paper's
    /// program, whose Section VI-C tile-size crossover depends on it.
    pub fn hybrid(
        ranks: usize,
        threads_per_rank: usize,
        dims: usize,
        lb_dims: &[usize],
    ) -> SimConfig {
        SimConfig {
            ranks,
            threads_per_rank,
            priority: TilePriority::paper_default(dims, lb_dims),
            cost: CostModel::default(),
            send_buffers: usize::MAX,
            schedule: Schedule::Dynamic,
        }
    }

    /// Same configuration with a different schedule mode.
    pub fn with_schedule(mut self, schedule: Schedule) -> SimConfig {
        self.schedule = schedule;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_costs_are_sane() {
        let c = CostModel::default();
        assert!(c.cell_cost > 0.0 && c.cell_cost < 1e-6);
        assert!(c.comm_latency > c.cell_cost);
    }

    #[test]
    fn config_builders() {
        let s = SimConfig::shared(24, 4);
        assert_eq!(s.ranks, 1);
        assert_eq!(s.threads_per_rank, 24);
        let h = SimConfig::hybrid(8, 24, 4, &[0, 1]);
        assert_eq!(h.ranks, 8);
        assert_eq!(h.schedule, Schedule::Dynamic);
        assert_eq!(h.with_schedule(Schedule::Static).schedule, Schedule::Static);
        let h = SimConfig::hybrid(8, 24, 4, &[0, 1]);
        match h.priority {
            TilePriority::ColumnMajor { dim_order } => assert_eq!(dim_order, vec![0, 1, 2, 3]),
            _ => unreachable!(),
        }
    }
}
