//! Benchmark harness regenerating every figure of the paper's evaluation
//! (Section VI).
//!
//! Two measurement vehicles:
//!
//! * **Real runs** of the threaded runtime (`dpgen-runtime` /
//!   `dpgen-mpisim`) — used wherever the quantity of interest is not wall
//!   clock parallelism: correctness values, peak edge memory (Figure 4),
//!   initial-generation fraction (Section IV-K), communication volume and
//!   send-buffer stalls (Section VI-C), packing ratios (Section IV-I).
//! * **Calibrated simulation** (`dpgen-des`) — used for the scaling curves
//!   (Figures 6 and 7, tile-size and load-balancing sweeps), because this
//!   environment has a single CPU core. The simulator's compute constants
//!   are calibrated from a measured serial run of the same kernel (see
//!   [`calibrate`]); the DAG, priorities, load balance and communication
//!   volumes are the real generated structures.
//!
//! The `figures` binary (`cargo run --release -p dpgen-bench --bin
//! figures`) prints each experiment as the paper-style series and writes
//! CSV files under `results/`. Every wall-clock timing goes through
//! [`paired`].

pub mod experiments;
pub mod paired;
pub mod report;

use dpgen_core::{ExecOpts, Plan};
use dpgen_des::CostModel;
use dpgen_mpisim::Wire;
use dpgen_runtime::{Kernel, TilePriority, Value};
use dpgen_tiling::Tiling;

/// Measure the serial per-cell and per-edge-cell costs of a kernel by
/// running the real tiled runtime with one worker, and fold them into a
/// [`CostModel`] (interconnect constants keep their defaults).
pub fn calibrate<T, K>(tiling: &Tiling, params: &[i64], kernel: &K) -> CostModel
where
    T: Value + Wire,
    K: Kernel<T>,
{
    let opts = ExecOpts::new().priority(TilePriority::column_major(tiling.dims()));
    let res = Plan::on_tiling(tiling.clone(), params, vec![])
        .and_then(|plan| plan.execute(kernel, &opts))
        .expect("calibration run executes");
    let stats = &res.per_rank[0].stats;
    let cells = stats.cells_computed.max(1) as f64;
    let tiles = stats.tiles_executed as f64;
    let edge_cells = stats.edge_cells_packed as f64;
    let compute = stats.total_time.as_secs_f64() - stats.init_time.as_secs_f64();
    // Attribute ~80% of measured time to cells and ~10% each to per-tile
    // overhead and edge handling — but only when the measured run actually
    // exercised those paths (a single-tile run has no edges, and dividing
    // its time by one edge would produce absurd unit costs). Unattributed
    // shares fall back to the defaults with their time given to cells.
    let defaults = CostModel::default();
    let mut cell_share = 0.8;
    let tile_overhead = if tiles >= 8.0 {
        (0.1 * compute / tiles).max(1e-9)
    } else {
        cell_share += 0.1;
        defaults.tile_overhead
    };
    let edge_cell_cost = if edge_cells >= 1000.0 {
        (0.1 * compute / edge_cells).max(1e-11)
    } else {
        cell_share += 0.1;
        defaults.edge_cell_cost
    };
    CostModel {
        cell_cost: (cell_share * compute / cells).max(1e-10),
        tile_overhead,
        edge_cell_cost,
        ..defaults
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpgen_problems::Bandit2;
    use dpgen_tiling::tiling::CellRef;

    #[test]
    fn calibration_produces_positive_costs() {
        let program = Bandit2::program(4).unwrap();
        let kernel = Bandit2::default().kernel();
        let cost = calibrate::<f64, _>(program.tiling(), &[16], &kernel);
        assert!(cost.cell_cost > 0.0);
        assert!(cost.tile_overhead > 0.0);
        assert!(cost.edge_cell_cost > 0.0);
        assert!(cost.cell_cost < 1e-3, "per-cell cost implausibly high");
    }

    #[test]
    fn calibration_handles_tiny_problems() {
        let program = Bandit2::program(64).unwrap(); // single tile, no edges
        let kernel = |cell: CellRef<'_>, values: &mut [f64]| {
            values[cell.loc] = 0.0;
        };
        let cost = calibrate::<f64, _>(program.tiling(), &[4], &kernel);
        assert!(cost.cell_cost > 0.0);
    }
}
