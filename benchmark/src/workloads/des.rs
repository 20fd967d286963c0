//! `des_scaling`: the discrete-event simulator behind every scaling number
//! the repo publishes. One op simulates the `lcs_batched` tile DAG on 24
//! shared-memory workers and on 4 ranks x 6 threads with the real load
//! balancer's tile owners. It is the only workload where `dpgen-des` works,
//! and the one ROADMAP item 3's O(tiles) set-up fix must move.

use super::lcs::{self, LcsRun};
use super::{all_tiles, compile_layers};
use crate::harness::{EndToEnd, OpOutcome, Workload};
use crate::inputs::spec_text;
use crate::metrics::Metrics;
use crate::trace::Recorder;
use dpgen_core::{BalanceMethod, ExecOpts, LoadBalance, MapOwner, Program};
use dpgen_des::{simulate, CostModel, SimConfig, SimResult};
use dpgen_problems::Lcs;
use dpgen_runtime::{Schedule, SingleOwner};
use dpgen_tiling::Tiling;

const HYBRID_RANKS: usize = 4;
const HYBRID_THREADS: usize = 6;
const SHARED_WORKERS: usize = 24;

pub struct DesInputs {
    text: String,
    params: Vec<i64>,
    tiles: u64,
    cells: u128,
}

pub struct DesRun {
    program: Program,
    owner: MapOwner,
}

fn hybrid_balance(tiling: &Tiling, params: &[i64]) -> LoadBalance {
    let method = BalanceMethod::Slabs { lb_dims: vec![0] };
    LoadBalance::compute(tiling, params, HYBRID_RANKS, &method)
}

/// What every simulation result must satisfy whatever the machine shape.
fn sane(r: &SimResult, inputs: &DesInputs) -> bool {
    r.critical_path <= r.makespan
        && r.makespan <= r.serial_time
        && r.tiles as u64 == inputs.tiles
        && r.cells == inputs.cells
}

impl Workload for DesRun {
    type Inputs = DesInputs;

    const NAME: &'static str = "des_scaling";
    const WORK_UNIT: &'static str = "tiles";

    fn inputs(_seed: u64) -> DesInputs {
        // The simulator's input is the tile DAG of `lcs_batched`, which the
        // strings do not shape: this workload has no random part.
        let (len, width) = lcs::BATCHED_SHAPE;
        let side = len as u64 + 1;
        DesInputs {
            text: spec_text(&Lcs::spec(2, width)),
            params: vec![len as i64; 2],
            tiles: (side / width as u64).pow(2),
            cells: (side as u128).pow(2),
        }
    }

    fn work_per_op(inputs: &DesInputs) -> f64 {
        // Two simulations of the whole DAG per op.
        2.0 * inputs.tiles as f64
    }

    fn setup(inputs: &DesInputs) -> DesRun {
        let program = Program::parse(&inputs.text).expect("LCS spec generates");
        let owner = hybrid_balance(program.tiling(), &inputs.params).into_owner();
        DesRun { program, owner }
    }

    fn op(&mut self, inputs: &DesInputs) -> OpOutcome {
        let tiling = self.program.tiling();
        let shared = simulate(
            tiling,
            &inputs.params,
            &SingleOwner,
            &SimConfig::shared(SHARED_WORKERS, 2),
        );
        let hybrid = simulate(
            tiling,
            &inputs.params,
            &self.owner,
            &SimConfig::hybrid(HYBRID_RANKS, HYBRID_THREADS, 2, &[0]),
        );
        OpOutcome {
            ok: sane(&shared, inputs) && sane(&hybrid, inputs),
            // The simulator is deterministic: its makespans must repeat to
            // the bit, so they are compared as counters.
            counters: vec![
                ("des.shared_makespan_bits", shared.makespan.to_bits()),
                ("des.hybrid_makespan_bits", hybrid.makespan.to_bits()),
                ("des.hybrid_msgs_remote", hybrid.msgs_remote),
                ("des.hybrid_cells_remote", hybrid.cells_remote),
            ],
        }
    }

    fn layers(&mut self, inputs: &DesInputs, rec: &mut Recorder, m: &mut Metrics, e2e: &EndToEnd) {
        let tiling = self.program.tiling();
        let warm = ExecOpts::new()
            .ranks(HYBRID_RANKS)
            .threads(HYBRID_THREADS)
            .schedule(Schedule::Static);
        rec.span("compile_path", |rec| {
            compile_layers(rec, m, Self::NAME, &inputs.text, &inputs.params, &warm, 5)
        });

        // The simulator's set-up materialises every tile with an exact
        // cell count; this is that loop, timed on its own.
        let (enum_ms, _) = rec.reps("des.tile_enum", 5, || {
            let mut point = tiling.make_point(&inputs.params);
            all_tiles(tiling, &inputs.params)
                .iter()
                .map(|t| tiling.tile_cell_count(t, &mut point))
                .sum::<u128>()
        });
        m.set("des.tiles", inputs.tiles as f64);
        m.set("des.tile_enum_ms", enum_ms);
        m.set(
            "des.sim_ms_per_ktile",
            e2e.op_stat_ms() / (Self::work_per_op(inputs) / 1e3),
        );

        // Model against measurement on the one configuration this host can
        // run: `lcs_batched` on two workers. The cost model is calibrated
        // from the measured one-thread run (all per-tile and per-edge costs
        // folded into the per-cell cost), so the prediction is what two
        // workers would take if the DAG were the only limit.
        let (one_thread_ms, two_thread_ms) =
            rec.span("lcs_batched_reference", LcsRun::<false>::reference_times);
        let calibrated = CostModel {
            cell_cost: one_thread_ms / 1e3 / inputs.cells as f64,
            tile_overhead: 0.0,
            static_tile_overhead: 0.0,
            edge_cell_cost: 0.0,
            ..CostModel::default()
        };
        let mut config = SimConfig::shared(2, 2).with_schedule(Schedule::Static);
        config.cost = calibrated;
        let predicted = rec.span("des.simulate_2_workers", |_| {
            simulate(tiling, &inputs.params, &SingleOwner, &config)
        });
        m.set("des.model_error", predicted.makespan * 1e3 / two_thread_ms);
    }
}
