//! `lcs_batched` and `lcs_percell_fine`: the same runtime layer used two
//! ways. Batched at width 48 under a static schedule, the kernel, the run
//! scan and SIMD do almost all the work and the scheduler almost none — the
//! headline throughput row. Per-cell at width 12 under the dynamic
//! scheduler, dispatch, pop/deliver, pack/unpack and the per-cell scan
//! dominate — the path that lost 21% unnoticed across PRs 7-10.

use super::{all_tiles, compile_layers, ADMIT_CELLS};
use crate::harness::{EndToEnd, OpOutcome, Workload};
use crate::inputs::{dna, spec_text, Rng};
use crate::metrics::Metrics;
use crate::oracle;
use crate::trace::Recorder;
use dpgen_core::{ExecOpts, Plan, Program, RunOutput};
use dpgen_problems::Lcs;
use dpgen_runtime::memory::MemoryStats;
use dpgen_runtime::{
    EdgeDelivery, Kernel, Probe, RunKernel, Schedule, ShardedScheduler, TilePriority, TraceLevel,
};
use dpgen_tiling::tiling::{CellRef, RunCtx, TileVisitor};
use dpgen_tiling::{Coord, Tiling};
use std::collections::HashMap;
use std::sync::Arc;

/// Worker threads of the timed ops. One: the host's two virtual cores behave
/// as one physical core part of the time, so a two-thread op's time varies
/// up to 2x between runs even at its fastest (README, "Host"). Two-thread
/// scaling is measured in the traced pass instead.
const THREADS: usize = 1;
/// Repetitions of each layer timing in the traced pass; the fastest counts.
const LAYER_REPS: usize = 20;

struct Shape {
    /// String length; `len + 1` is a multiple of `width`, so slabs are
    /// uniform and a static schedule is honoured.
    len: usize,
    width: i64,
    batched: bool,
    schedule: Schedule,
}

const BATCHED: Shape = Shape {
    len: 1535,
    width: 48,
    batched: true,
    schedule: Schedule::Static,
};

const PERCELL_FINE: Shape = Shape {
    len: 623,
    width: 12,
    batched: false,
    schedule: Schedule::Dynamic,
};

/// `(len, width)` of `lcs_batched`: `des_scaling` simulates the same DAG.
pub const BATCHED_SHAPE: (usize, i64) = (BATCHED.len, BATCHED.width);

pub struct LcsInputs {
    text: String,
    a: Vec<u8>,
    b: Vec<u8>,
    /// The oracle's LCS length.
    expect: i64,
    cells: u64,
    tiles: u64,
}

/// `FINE = false` is `lcs_batched`, `FINE = true` is `lcs_percell_fine`.
pub struct LcsRun<const FINE: bool> {
    plan: Arc<Plan>,
    problem: Lcs,
    opts: ExecOpts,
}

/// Does nothing per cell or per run: what is left when it runs is the
/// runtime's own cost per tile (dispatch, buffers, scan, edge packing).
struct NullKernel;

impl Kernel<i64> for NullKernel {
    fn compute(&self, _cell: CellRef<'_>, _values: &mut [i64]) {}
}

impl RunKernel<i64> for NullKernel {
    fn eval_run(&self, _run: &RunCtx<'_>, _values: &mut [i64]) {}
}

/// Counts what a tile scan hands out, with no kernel behind it.
#[derive(Default)]
struct CountingVisitor {
    cells: u64,
    runs: u64,
}

impl TileVisitor for CountingVisitor {
    fn cell(&mut self, _cell: CellRef<'_>) {
        self.cells += 1;
    }
    fn run(&mut self, run: RunCtx<'_>) {
        self.cells += run.len as u64;
        self.runs += 1;
    }
}

impl<const FINE: bool> LcsRun<FINE> {
    const SHAPE: Shape = if FINE { PERCELL_FINE } else { BATCHED };

    fn execute<K: RunKernel<i64>>(&self, kernel: &K, opts: &ExecOpts) -> RunOutput<i64> {
        let out = if Self::SHAPE.batched {
            self.plan.execute_batched::<i64, _>(kernel, opts)
        } else {
            self.plan.execute::<i64, _>(kernel, opts)
        };
        out.expect("LCS execution failed")
    }
}

impl LcsRun<false> {
    /// Fastest one-thread and two-thread op times of `lcs_batched` in
    /// milliseconds, measured on the spot: what `des_scaling` calibrates
    /// and checks its model against.
    pub fn reference_times(rec: &mut Recorder) -> (f64, f64) {
        let inputs = Self::inputs(0);
        let mut run = Self::setup(&inputs);
        assert!(
            run.op(&inputs).ok,
            "lcs_batched reference op failed its oracle"
        );
        let two = run.opts.clone().threads(2);
        let mut fastest = |name: &str, opts: &ExecOpts| {
            rec.reps(name, LAYER_REPS, || run.execute(&run.problem, opts))
                .0
        };
        (
            fastest("lcs_batched.one_thread", &run.opts),
            fastest("lcs_batched.two_threads", &two),
        )
    }
}

impl<const FINE: bool> Workload for LcsRun<FINE> {
    type Inputs = LcsInputs;

    const NAME: &'static str = if FINE {
        "lcs_percell_fine"
    } else {
        "lcs_batched"
    };
    const WORK_UNIT: &'static str = "cells";

    fn inputs(seed: u64) -> LcsInputs {
        let shape = Self::SHAPE;
        let rng = Rng::new(seed);
        let a = dna(&mut rng.fork(1), shape.len);
        let b = dna(&mut rng.fork(2), shape.len);
        let side = shape.len as u64 + 1;
        LcsInputs {
            text: spec_text(&Lcs::spec(2, shape.width)),
            expect: oracle::lcs_len(&a, &b),
            a,
            b,
            cells: side * side,
            tiles: (side / shape.width as u64).pow(2),
        }
    }

    fn work_per_op(inputs: &LcsInputs) -> f64 {
        inputs.cells as f64
    }

    fn setup(inputs: &LcsInputs) -> Self {
        let shape = Self::SHAPE;
        let program = Program::parse(&inputs.text).expect("LCS spec generates");
        let problem = Lcs::new(&[&inputs.a, &inputs.b]);
        let plan = program.compile(&problem.params());
        plan.admit(ADMIT_CELLS).expect("LCS plan admitted");
        let opts = ExecOpts::new()
            .threads(THREADS)
            .schedule(shape.schedule)
            .probe(Probe::at(&problem.goal()));
        plan.warm(&opts);
        LcsRun {
            plan,
            problem,
            opts,
        }
    }

    fn op(&mut self, inputs: &LcsInputs) -> OpOutcome {
        let out = self.execute(&self.problem, &self.opts);
        let stats = &out.per_rank[0].stats;
        OpOutcome {
            ok: out.probes[0] == Some(inputs.expect)
                && stats.cells_computed == inputs.cells
                && stats.tiles_executed == inputs.tiles
                && stats.schedule == Self::SHAPE.schedule,
            counters: vec![
                ("runtime.tiles_executed", stats.tiles_executed),
                ("runtime.cells_computed", stats.cells_computed),
                ("runtime.interior_cells", stats.interior_cells),
                ("runtime.runs_batched", stats.runs_batched),
                ("runtime.edges_local", stats.edges_local),
                ("runtime.edge_cells_packed", stats.edge_cells_packed),
            ],
        }
    }

    fn layers(&mut self, inputs: &LcsInputs, rec: &mut Recorder, m: &mut Metrics, e2e: &EndToEnd) {
        let cells = inputs.cells as f64;
        let params = self.problem.params();
        rec.span("compile_path", |rec| {
            compile_layers(rec, m, Self::NAME, &inputs.text, &params, &self.opts, 5)
        });
        let tiling = self.plan.tiling();
        let tiles = all_tiles(tiling, &params);
        let per_tile = 1e6 / tiles.len() as f64;

        // The tile scan alone, both ways, with a counting visitor.
        let mut point = tiling.make_point(&params);
        let mut counted = CountingVisitor::default();
        let (runs_ms, ()) = rec.reps("tiling.scan_runs", LAYER_REPS, || {
            counted = CountingVisitor::default();
            for t in &tiles {
                tiling
                    .scan_tile_runs(t, &mut point, &mut counted)
                    .expect("scan");
            }
        });
        rec.count("tiling.scan_cells", counted.cells);
        rec.count("tiling.scan_runs", counted.runs);
        let (cell_ms, _) = rec.reps("tiling.scan_cell", LAYER_REPS, || {
            let mut odd_locs = 0u64;
            for t in &tiles {
                tiling
                    .scan_tile_fast(t, &mut point, |cell| odd_locs += cell.loc as u64 & 1)
                    .expect("scan");
            }
            odd_locs
        });
        m.set("tiling.scan_runs_ns_per_cell", runs_ms * 1e6 / cells);
        m.set("tiling.scan_cell_ns_per_cell", cell_ms * 1e6 / cells);

        let sched_ms = scheduler_alone_ms(rec, tiling, &tiles, &params, self.plan.lb_dims());
        m.set("runtime.sched_ns_per_tile", sched_ms * per_tile);

        // The same plan with a kernel that does nothing: what is left is
        // the runtime's cost per tile. The real op minus that is the kernel.
        let (null_ms, _) = rec.reps("null_exec", LAYER_REPS, || {
            self.execute(&NullKernel, &self.opts)
        });
        m.set("runtime.null_exec_ns_per_tile", null_ms * per_tile);
        m.set(
            "problems.kernel_ns_per_cell",
            (e2e.op_stat_ms() - null_ms) * 1e6 / cells,
        );

        // Two worker threads: the scaling over the timed one-thread op, and
        // the runtime's own account of where its workers' time went.
        let two = self.opts.clone().threads(2);
        let (two_ms, out) = rec.reps("two_thread_exec", LAYER_REPS, || {
            self.execute(&self.problem, &two)
        });
        let stats = &out.per_rank[0].stats;
        m.set("runtime.thread_scaling", e2e.op_stat_ms() / two_ms);
        m.set("runtime.idle_frac", stats.idle_fraction());
        m.set("runtime.lock_wait_frac", stats.lock_wait_fraction());
        m.set("runtime.init_frac", stats.init_fraction());
        m.set("runtime.steal_count", stats.steal_count as f64);
        m.set("runtime.interior_frac", stats.interior_fraction());
        m.set("runtime.mean_run_len", stats.mean_run_len());
        m.set("runtime.buffer_reuse_frac", stats.buffer_reuse_fraction());
        m.set("runtime.edge_cells_packed", stats.edge_cells_packed as f64);

        // Untraced and span-traced ops in alternation; the ratio of the
        // fastest of each is the tracing overhead.
        let spans = self.opts.clone().trace(TraceLevel::Spans);
        let (mut plain_ms, mut spans_ms) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..LAYER_REPS {
            let plain = rec.reps("untraced_exec", 1, || {
                self.execute(&self.problem, &self.opts)
            });
            let traced = rec.reps("spans_exec", 1, || self.execute(&self.problem, &spans));
            plain_ms = plain_ms.min(plain.0);
            spans_ms = spans_ms.min(traced.0);
        }
        m.set("trace.spans_overhead_frac", spans_ms / plain_ms - 1.0);

        // The ceiling: a hand-written two-row loop over the same strings
        // (one thread, no tiles, no framework). The oracle is that loop.
        let (roofline_ms, _) = rec.reps("ceiling.roofline", LAYER_REPS, || {
            oracle::lcs_len(&inputs.a, &inputs.b)
        });
        m.set("ceiling.roofline_ms", roofline_ms);
        m.set("ceiling.roofline_frac", roofline_ms / e2e.op_stat_ms());
    }
}

/// The scheduler alone: mark, pop and deliver every tile of the DAG once,
/// with empty payloads, on one worker. The DAG (consumers, dependency
/// totals) is derived before the spans open: that is the tiling's work, not
/// the scheduler's. Returns the fastest pass in milliseconds.
fn scheduler_alone_ms(
    rec: &mut Recorder,
    tiling: &Tiling,
    tiles: &[Coord],
    params: &[i64],
    lb_dims: &[usize],
) -> f64 {
    let mut point = tiling.make_point(params);
    let index: HashMap<Coord, usize> = tiles.iter().enumerate().map(|(i, t)| (*t, i)).collect();
    let consumers: Vec<Vec<(Coord, Coord, usize)>> = tiles
        .iter()
        .map(|t| {
            tiling
                .deps()
                .iter()
                .filter_map(|dep| {
                    let c = t.sub(&dep.delta);
                    index
                        .contains_key(&c)
                        .then(|| (c, dep.delta, tiling.dep_total(&c, &mut point)))
                })
                .collect()
        })
        .collect();
    let initial: Vec<Coord> = tiles
        .iter()
        .filter(|t| tiling.dep_total(t, &mut point) == 0)
        .copied()
        .collect();
    let mut popped = 0u64;
    let (ms, ()) =
        rec.reps("runtime.sched", LAYER_REPS, || {
            let sched: ShardedScheduler<i64> = ShardedScheduler::new(
                TilePriority::paper_default(tiling.dims(), lb_dims),
                tiling.templates().directions().to_vec(),
                1,
                Arc::new(MemoryStats::new()),
            );
            for t in &initial {
                sched.mark_initial(*t);
            }
            popped = 0;
            let mut batch: Vec<EdgeDelivery<i64>> = Vec::new();
            while let Some((tile, _edges)) = sched.pop(0) {
                popped += 1;
                batch.extend(consumers[index[&tile]].iter().map(|&(c, delta, total)| {
                    EdgeDelivery {
                        tile: c,
                        delta,
                        payload: Vec::new(),
                        total,
                    }
                }));
                sched.deliver_batch(0, &mut batch);
            }
        });
    rec.count("runtime.sched_tiles", popped);
    ms
}
