//! One function per experiment in the paper's evaluation; see DESIGN.md's
//! experiment index (E1-E15). Each returns a [`Table`] whose rows are the
//! series the corresponding figure plots.
//!
//! Every function takes `quick`: `true` shrinks problem sizes for tests;
//! the `figures` binary runs with `false`.

use crate::calibrate;
use crate::paired::{paired, variant, Ratio};
use crate::report::{fmt_dur_us, fmt_f, fmt_spread, Table};
use dpgen_codegen::emit_c;
use dpgen_core::loadbalance::{BalanceMethod, LoadBalance};
use dpgen_core::traceback::Traceback;
use dpgen_core::{ExecOpts, Plan, ProblemSpec, Program, RunOutput};
use dpgen_des::{simulate_on, CostModel, SimConfig};
use dpgen_mpisim::CommConfig;
use dpgen_problems::{
    random_sequence, BandedSw, Bandit2, Bandit3, BanditDelay, EditDistance, Lcs, Msa, Posterior,
    SmithWaterman,
};
use dpgen_runtime::{PerCell, Probe, Schedule, SingleOwner, TilePriority, Value};
use dpgen_tiling::tiling::CellRef;
use dpgen_tiling::{TileGraph, Tiling};
use std::sync::Arc;

fn grid_program(templates_negative: bool, width: i64) -> Program {
    let t = if templates_negative {
        "template r1 -1 0\ntemplate r2 0 -1\n"
    } else {
        "template r1 1 0\ntemplate r2 0 1\n"
    };
    Program::parse(&format!(
        "name grid\nvars x y\nparams N\n\
         constraint 0 <= x <= N\nconstraint 0 <= y <= N\n\
         {t}order x y\nloadbalance x\nwidths {width} {width}\n"
    ))
    .expect("grid spec generates")
}

fn count_kernel(cell: CellRef<'_>, values: &mut [u64]) {
    let a = if cell.valid[0] {
        values[cell.loc_r(0)]
    } else {
        1
    };
    let b = if cell.valid[1] {
        values[cell.loc_r(1)]
    } else {
        1
    };
    values[cell.loc] = a.wrapping_add(b);
}

/// Take the single node's owned `RunStats` out of a single-rank run.
fn node_stats<T: Value>(out: RunOutput<T>) -> dpgen_runtime::RunStats {
    out.per_rank
        .into_iter()
        .next()
        .expect("single-rank run")
        .stats
}

/// E1 — correctness of the generated 2-arm bandit program (Figure 1 /
/// Section II): V(0) from the tiled parallel run vs the dense solver.
pub fn e1_bandit_correctness(quick: bool) -> Table {
    let mut table = Table::new(
        "e1",
        "2-arm bandit V(0): generated tiled program vs dense reference",
        &["N", "V(0) tiled", "V(0) dense", "abs err"],
    );
    let problem = Bandit2::default();
    let program = Bandit2::program(4).unwrap();
    let ns: &[i64] = if quick { &[4, 8] } else { &[6, 10, 14, 18] };
    for &n in ns {
        let want = problem.solve_dense(n);
        let opts = ExecOpts::new().threads(2).probe(Probe::at(&[0, 0, 0, 0]));
        let res = program
            .compile(&[n])
            .execute::<f64, _>(&problem.kernel(), &opts)
            .unwrap();
        let got = res.probes[0].unwrap();
        table.row(vec![
            n.to_string(),
            fmt_f(got, 6),
            fmt_f(want, 6),
            format!("{:.1e}", (got - want).abs()),
        ]);
    }
    table.note("values must agree to floating-point accuracy");
    table
}

/// E2/E3 — Figure 4: peak buffered edges under different execution
/// priorities on an n×n tile grid, serial execution.
///
/// Paper's analysis: column-major buffers about `n + 1` edges; level sets
/// about `2(n - 1)`.
pub fn e2_memory_orderings(quick: bool) -> Table {
    let n_tiles: i64 = if quick { 6 } else { 16 };
    let width = 4i64;
    let n = n_tiles * width - 1;
    let program = grid_program(false, width);
    let mut table = Table::new(
        "e2",
        "Fig 4: peak buffered edges vs execution priority (n x n tile grid)",
        &["priority", "n", "peak edges", "paper model"],
    );
    for (name, priority, model) in [
        (
            "column-major",
            TilePriority::column_major(2),
            format!("n+1 = {}", n_tiles + 1),
        ),
        (
            "level-set",
            TilePriority::LevelSet,
            format!("2(n-1) = {}", 2 * (n_tiles - 1)),
        ),
        (
            "fig-5 default",
            TilePriority::paper_default(2, &[0]),
            format!("n+1 = {}", n_tiles + 1),
        ),
    ] {
        let opts = ExecOpts::new().threads(1).priority(priority);
        let res = program
            .compile(&[n])
            .execute::<u64, _>(&count_kernel, &opts)
            .unwrap();
        table.row(vec![
            name.to_string(),
            n_tiles.to_string(),
            res.per_rank[0].stats.peak_edges.to_string(),
            model,
        ]);
    }
    table.note("serial execution (1 worker), so ordering is fully priority-driven");
    table
}

struct ScalingCase {
    name: &'static str,
    /// The problem's tile DAG, derived and counted once for the whole
    /// thread sweep.
    graph: TileGraph,
    cost: CostModel,
}

/// The E4 problems, each with `pinned` as its cost model when given and
/// a model calibrated on its own kernel otherwise.
fn shared_scaling_cases(quick: bool, pinned: Option<CostModel>) -> Vec<ScalingCase> {
    let mut cases = Vec::new();
    {
        let n = if quick { 24 } else { 200 };
        let program = Bandit2::program(8).unwrap();
        let kernel = Bandit2::default().kernel();
        let cost = pinned.unwrap_or_else(|| calibrate::<f64, _>(program.tiling(), &[n], &kernel));
        cases.push(ScalingCase {
            name: "bandit2",
            graph: program.tiling().graph(&[n]),
            cost,
        });
    }
    {
        let n = if quick { 8 } else { 21 };
        let program = Bandit3::program(if quick { 2 } else { 3 }).unwrap();
        let kernel = Bandit3::default().kernel();
        let cost = pinned.unwrap_or_else(|| calibrate::<f64, _>(program.tiling(), &[n], &kernel));
        cases.push(ScalingCase {
            name: "bandit3",
            graph: program.tiling().graph(&[n]),
            cost,
        });
    }
    {
        // Full size gives a 51x51 tile grid: a wavefront comfortably wider
        // than 24 workers, the regime of the paper's Figure 6.
        let len = if quick { 100 } else { 1200 };
        let a = random_sequence(len, 1);
        let b = random_sequence(len, 2);
        let problem = Msa::new(&[&a, &b]);
        let program = Msa::program(2, if quick { 16 } else { 24 }).unwrap();
        let cost = pinned
            .unwrap_or_else(|| calibrate::<i64, _>(program.tiling(), &problem.params(), &problem));
        cases.push(ScalingCase {
            name: "msa2",
            graph: program.tiling().graph(&problem.params()),
            cost,
        });
    }
    {
        let len = if quick { 120 } else { 1600 };
        let a = random_sequence(len, 3);
        let b = random_sequence(len, 4);
        let problem = Lcs::new(&[&a, &b]);
        let program = Lcs::program(2, if quick { 16 } else { 32 }).unwrap();
        let cost = pinned
            .unwrap_or_else(|| calibrate::<i64, _>(program.tiling(), &problem.params(), &problem));
        cases.push(ScalingCase {
            name: "lcs2",
            graph: program.tiling().graph(&problem.params()),
            cost,
        });
    }
    cases
}

/// E4 — Figure 6: shared-memory scaling (speedup vs worker count on one
/// node). Paper: 2-arm bandit reaches 22.35x on 24 cores; most problems
/// achieve speedup >= 22.
pub fn e4_shared_scaling(quick: bool) -> Table {
    e4_shared_scaling_on(quick, None)
}

/// [`e4_shared_scaling`] on the cost model `pinned` when given: the seam
/// through which tests hold the modelled relations to fixed constants.
fn e4_shared_scaling_on(quick: bool, pinned: Option<CostModel>) -> Table {
    let mut table = Table::new(
        "e4",
        "Fig 6: shared-memory scaling (calibrated simulation)",
        &["problem", "threads", "speedup", "efficiency", "bound"],
    );
    let threads: &[usize] = if quick {
        &[1, 4, 24]
    } else {
        &[1, 2, 4, 8, 12, 16, 20, 24]
    };
    for case in shared_scaling_cases(quick, pinned) {
        for &t in threads {
            let config = SimConfig {
                ranks: 1,
                threads_per_rank: t,
                priority: TilePriority::column_major(case.graph.tiling().dims()),
                cost: case.cost,
                send_buffers: usize::MAX,
                schedule: Schedule::Dynamic,
            };
            let sim = simulate_on(&case.graph, &SingleOwner, &config).expect("simulation input");
            table.row(vec![
                case.name.to_string(),
                t.to_string(),
                fmt_f(sim.speedup(), 2),
                fmt_f(sim.efficiency(t), 3),
                fmt_f(sim.speedup_bound(), 1),
            ]);
        }
    }
    table.note("paper: bandit2 speedup 22.35 at 24 cores (93% efficiency)");
    table.note("compute costs calibrated from measured serial runs; see DESIGN.md");
    table
}

/// E4b — contention observability for the work-stealing scheduler:
/// *real* multi-threaded runs (the e4 series is a calibrated simulation)
/// reporting the steal, failed-steal, lock-wait and per-worker-balance
/// counters the scheduler exports through [`dpgen_runtime::RunStats`].
pub fn e4b_contention(quick: bool) -> Table {
    let mut table = Table::new(
        "e4b",
        "scheduler contention: real runs (steals, lock wait, balance)",
        &[
            "problem",
            "threads",
            "wall (ms)",
            "tiles",
            "steals",
            "steal fails",
            "lock wait (us)",
            "idle frac",
            "imbalance",
        ],
    );
    let threads: &[usize] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let mut stats_rows: Vec<(String, usize, dpgen_runtime::RunStats)> = Vec::new();
    {
        let n: i64 = if quick { 16 } else { 40 };
        let problem = Bandit2::default();
        let program = Bandit2::program(if quick { 4 } else { 8 }).unwrap();
        for &t in threads {
            let opts = ExecOpts::new().threads(t).probe(Probe::at(&[0, 0, 0, 0]));
            let res = program
                .compile(&[n])
                .execute::<f64, _>(&problem.kernel(), &opts)
                .unwrap();
            stats_rows.push(("bandit2".into(), t, node_stats(res)));
        }
    }
    {
        let len = if quick { 120 } else { 800 };
        let a = random_sequence(len, 3);
        let b = random_sequence(len, 4);
        let problem = Lcs::new(&[&a, &b]);
        let program = Lcs::program(2, if quick { 8 } else { 16 }).unwrap();
        for &t in threads {
            let opts = ExecOpts::new().threads(t);
            let res = program
                .compile(&problem.params())
                .execute::<i64, _>(&problem, &opts)
                .unwrap();
            stats_rows.push(("lcs2".into(), t, node_stats(res)));
        }
    }
    for (name, t, stats) in stats_rows {
        table.row(vec![
            name,
            t.to_string(),
            fmt_f(stats.total_time.as_secs_f64() * 1e3, 2),
            stats.tiles_executed.to_string(),
            stats.steal_count.to_string(),
            stats.steal_fail_count.to_string(),
            fmt_dur_us(stats.lock_wait_time),
            fmt_f(stats.idle_fraction(), 3),
            fmt_f(stats.worker_imbalance(), 2),
        ]);
    }
    table.note("steals move ready tiles between per-worker deques; lock wait is time blocked on contended tile-slot/queue locks");
    table.note("imbalance = max/mean tiles per worker (1.00 = perfectly even)");
    table
}

/// E5 — Figure 7: weak scaling across ranks. Problem size grows with the
/// rank count so the per-rank work stays constant; efficiency is
/// normalised by the actual number of locations (as the paper does).
///
/// Three series, because the ready-queue priority decides the result: the
/// paper's program, Figure 5 as printed ([`TilePriority::paper_default`],
/// lb dimensions first), sweeps a rank's slabs one after the other, so the
/// slab its downstream neighbour waits for comes last and the ranks run as
/// a chain; the runtime's default ([`TilePriority::pipelined`], lb
/// dimensions last) and level-set order feed the neighbour from the first
/// tiles on.
pub fn e5_weak_scaling(quick: bool) -> Table {
    e5_weak_scaling_on(quick, None)
}

/// [`e5_weak_scaling`] on the cost model `pinned` when given, calibrated
/// on the bandit kernel otherwise.
fn e5_weak_scaling_on(quick: bool, pinned: Option<CostModel>) -> Table {
    let mut table = Table::new(
        "e5",
        "Fig 7: weak scaling across simulated MPI ranks (24 threads each)",
        &[
            "priority",
            "ranks",
            "N",
            "cells",
            "cells/rank",
            "efficiency",
            "idle frac",
        ],
    );
    // Quick mode uses fewer virtual threads so the tiny problems are not
    // hopelessly oversubscribed; full mode mirrors the paper's 24-core
    // nodes with a problem large enough to feed them.
    let threads = if quick { 4usize } else { 24 };
    let base_n: i64 = if quick { 28 } else { 256 };
    let problem = Bandit2::default();
    let kernel = problem.kernel();
    let program = Bandit2::program(8).unwrap();
    let tiling = program.tiling();
    let cost = pinned.unwrap_or_else(|| calibrate::<f64, _>(tiling, &[base_n], &kernel));
    let priorities = [
        (
            "lb-first column-major",
            TilePriority::paper_default(4, &[0, 1]),
        ),
        ("level-set", TilePriority::LevelSet),
        ("pipelined", TilePriority::pipelined(4, &[0, 1])),
    ];
    // Per priority, its 1-rank throughput and its rows (the table lists one
    // priority after the other).
    let mut series: Vec<(Option<f64>, Vec<Vec<String>>)> =
        vec![(None, Vec::new()); priorities.len()];
    for ranks in [1usize, 2, 4, 8] {
        // cells ~ N^4 / 24: scale N by ranks^(1/4).
        let n = ((base_n as f64) * (ranks as f64).powf(0.25)).round() as i64;
        // One graph and one partition per problem size, alive for that size
        // only: both priorities simulate the same tiles, cell counts and
        // owners.
        let graph = Arc::new(tiling.graph(&[n]));
        let lb_dims = vec![0, 1];
        let owner = LoadBalance::compute_on(&graph, ranks, &BalanceMethod::Slabs { lb_dims });
        for ((name, priority), (baseline, rows)) in priorities.iter().zip(&mut series) {
            let config = SimConfig {
                ranks,
                threads_per_rank: threads,
                priority: priority.clone(),
                cost,
                send_buffers: usize::MAX,
                schedule: Schedule::Dynamic,
            };
            let sim = simulate_on(&graph, &owner, &config).expect("simulation input");
            let throughput = sim.cells as f64 / sim.makespan;
            let base = *baseline.get_or_insert(throughput);
            rows.push(vec![
                name.to_string(),
                ranks.to_string(),
                n.to_string(),
                sim.cells.to_string(),
                (sim.cells / ranks as u128).to_string(),
                fmt_f(throughput / (base * ranks as f64), 3),
                fmt_f(sim.idle_fraction(), 3),
            ]);
        }
    }
    for row in series.into_iter().flat_map(|(_, rows)| rows) {
        table.row(row);
    }
    table.note("paper: ~90% efficiency on 8 nodes vs 1 node; 84% combined vs 1 core");
    table.note("efficiency is per priority, against that priority's own 1-rank run");
    table.note(
        "lb-first is the paper's program (Figure 5 as printed); pipelined is the runtime's default",
    );
    table
}

/// E6 — Section VI-C: tile-size sweep. The paper saw width 15 win at
/// <= 4 nodes but hurt beyond (pipelined load balancing starves on large
/// tiles). Two arms: the simulated cluster on the 3-arm bandit (many
/// workers, where small tiles win) and the real runtime on one thread on
/// the 2-arm bandit (no parallelism to feed, where large tiles win).
pub fn e6_tile_size(quick: bool) -> Table {
    let mut table = Table::new(
        "e6",
        "Sec VI-C: tile width vs makespan (simulated cluster, bandit3; real serial runtime, bandit2)",
        &[
            "source",
            "width",
            "ranks",
            "tiles",
            "makespan (ms)",
            "idle frac",
        ],
    );
    // N = 150 is where width-15 tiles (8008 of them) outnumber four ranks'
    // workers often enough to win there. Narrower than 8 is out of reach
    // at that size, not for the counting (six or seven classes at these
    // widths) but for the simulator's own per-tile state: width 5 would be
    // 1.9M tiles.
    let n: i64 = if quick { 10 } else { 150 };
    let widths: &[i64] = if quick { &[3, 5] } else { &[8, 10, 15] };
    let ranks_list: &[usize] = if quick { &[1, 4] } else { &[1, 4, 8] };
    let kernel = Bandit3::default().kernel();
    // Calibrate once on a multi-tile configuration; the kernel cost is
    // width-independent.
    let cal_program = Bandit3::program(3).unwrap();
    let cost = calibrate::<f64, _>(cal_program.tiling(), &[n.min(12)], &kernel);
    for &w in widths {
        let program = Bandit3::program(w).unwrap();
        // One graph per width, shared by every rank count's partition and
        // simulation.
        let graph = Arc::new(program.tiling().graph(&[n]));
        for &ranks in ranks_list {
            let owner = LoadBalance::compute_on(
                &graph,
                ranks,
                &BalanceMethod::Slabs {
                    lb_dims: vec![0, 1],
                },
            );
            let config = SimConfig {
                ranks,
                threads_per_rank: 24,
                priority: TilePriority::paper_default(6, &[0, 1]),
                cost,
                send_buffers: usize::MAX,
                schedule: Schedule::Dynamic,
            };
            let sim = simulate_on(&graph, &owner, &config).expect("simulation input");
            table.row(vec![
                format!("des bandit3 N={n}"),
                w.to_string(),
                ranks.to_string(),
                sim.tiles.to_string(),
                fmt_f(sim.makespan * 1e3, 3),
                fmt_f(sim.idle_fraction(), 3),
            ]);
        }
    }
    // The real-runtime arm: one thread, so width only trades tile count
    // (scheduler traffic, edge packing) against nothing. The widths run
    // interleaved, each round on fresh plans.
    let n2: i64 = if quick { 12 } else { 24 };
    let widths2: &[i64] = if quick { &[2, 4] } else { &[2, 4, 8, 12] };
    let rounds = if quick { 3 } else { 10 };
    let kernel2 = Bandit2::default().kernel();
    let opts = ExecOpts::new().probe(Probe::at(&[0, 0, 0, 0]));
    let programs = widths2.iter().map(|&w| Bandit2::program(w).unwrap());
    let programs: Vec<Program> = programs.collect();
    let execute = |plan: &Plan| plan.execute::<f64, _>(&kernel2, &opts).unwrap();
    let fresh = || programs.iter().map(|p| p.compile(&[n2])).collect();
    let variants = (0..widths2.len())
        .map(|k| variant(move |plans: &mut Vec<Arc<Plan>>| execute(&plans[k])))
        .collect();
    let timings = paired(rounds, 0, fresh, variants);
    for ((w, program), t) in widths2.iter().zip(&programs).zip(&timings) {
        let stats = node_stats(execute(&program.compile(&[n2])));
        table.row(vec![
            format!("runtime bandit2 N={n2}"),
            w.to_string(),
            "1".to_string(),
            stats.tiles_executed.to_string(),
            fmt_f(t.q[1] * 1e3, 3),
            fmt_f(stats.idle_fraction(), 3),
        ]);
    }
    table.note("paper: width 15 best for <= 4 nodes; smaller tiles win beyond");
    table.note(format!("runtime rows: 1 rank x 1 thread, median execute of {rounds} interleaved rounds on fresh plans"));
    table
}

/// E7 — Section VI-C: send/receive buffer count sweep on the real
/// simulated-MPI runtime (stall counts are the mechanism the paper's
/// buffer tuning addresses).
pub fn e7_buffer_sweep(quick: bool) -> Table {
    let mut table = Table::new(
        "e7",
        "Sec VI-C: send/recv buffer count, real mpisim runtime + simulated cluster, bandit2",
        &[
            "buffers",
            "wall (ms)",
            "send stalls",
            "stall time (us)",
            "remote edges",
            "sim makespan (ms)",
            "sim stall (ms)",
        ],
    );
    let n: i64 = if quick { 16 } else { 32 };
    let problem = Bandit2::default();
    let program = Bandit2::program(4).unwrap();
    // Simulated-cluster counterpart: the same DAG with bounded in-flight
    // messages and deliberately high latency, so the buffer limit bites.
    let graph = Arc::new(program.tiling().graph(&[n]));
    let owner = LoadBalance::compute_on(
        &graph,
        4,
        &BalanceMethod::Slabs {
            lb_dims: vec![0, 1],
        },
    );
    let sim_of = |buffers: usize| {
        let config = SimConfig {
            ranks: 4,
            threads_per_rank: 4,
            priority: TilePriority::paper_default(4, &[0, 1]),
            cost: CostModel {
                comm_latency: 50e-6,
                ..CostModel::default()
            },
            send_buffers: buffers,
            schedule: Schedule::Dynamic,
        };
        simulate_on(&graph, &owner, &config).expect("simulation input")
    };
    for buffers in [1usize, 2, 4, 16] {
        let opts = ExecOpts::new()
            .ranks(4)
            .threads(1)
            .comm(CommConfig {
                send_buffers: buffers,
                recv_buffers: buffers,
                ..CommConfig::default()
            })
            .balance(BalanceMethod::Slabs {
                lb_dims: vec![0, 1],
            })
            .stall_timeout(std::time::Duration::from_secs(60))
            .probe(Probe::at(&[0, 0, 0, 0]));
        let res = program
            .compile(&[n])
            .execute::<f64, _>(&problem.kernel(), &opts)
            .unwrap();
        let stalls: u64 = res.comm_stats.iter().map(|s| s.send_stalls()).sum();
        let stall_us: f64 = res
            .comm_stats
            .iter()
            .map(|s| s.stall_time().as_secs_f64() * 1e6)
            .sum();
        let sim = sim_of(buffers);
        table.row(vec![
            buffers.to_string(),
            fmt_f(res.total_time.as_secs_f64() * 1e3, 2),
            stalls.to_string(),
            fmt_f(stall_us, 1),
            res.edges_remote().to_string(),
            fmt_f(sim.makespan * 1e3, 3),
            fmt_f(sim.send_stall_time * 1e3, 3),
        ]);
    }
    table.note("few buffers force senders to stall until receivers drain");
    table
}

/// E8 — Section IV-J / Figure 2: balance quality vs number of
/// load-balancing dimensions.
pub fn e8_lb_dims(quick: bool) -> Table {
    let mut table = Table::new(
        "e8",
        "Fig 2 / Sec IV-J: load-balance quality vs balancing dimensions",
        &[
            "lb dims",
            "ranks",
            "imbalance",
            "idle frac",
            "makespan (ms)",
        ],
    );
    let n: i64 = if quick { 24 } else { 48 };
    let ranks = 8usize;
    let program = Bandit2::program(8).unwrap();
    let tiling = program.tiling();
    let kernel = Bandit2::default().kernel();
    let cost = calibrate::<f64, _>(tiling, &[n.min(24)], &kernel);
    let graph = Arc::new(tiling.graph(&[n]));
    for lb_dims in [vec![0usize], vec![0, 1], vec![0, 1, 2]] {
        let owner = LoadBalance::compute_on(
            &graph,
            ranks,
            &BalanceMethod::Slabs {
                lb_dims: lb_dims.clone(),
            },
        );
        let imbalance = owner.imbalance();
        let config = SimConfig {
            ranks,
            threads_per_rank: 24,
            priority: TilePriority::paper_default(4, &lb_dims),
            cost,
            send_buffers: usize::MAX,
            schedule: Schedule::Dynamic,
        };
        let sim = simulate_on(&graph, &owner, &config).expect("simulation input");
        table.row(vec![
            format!("{lb_dims:?}"),
            ranks.to_string(),
            fmt_f(imbalance, 4),
            fmt_f(sim.idle_fraction(), 3),
            fmt_f(sim.makespan * 1e3, 3),
        ]);
    }
    table.note("paper: balancing fewer than all dims suffices, but too few is poor");
    table
}

/// E9 — Section IV-K: the fraction of run time spent generating initial
/// tiles (paper: typically < 0.5% even at the largest runs). The discovery
/// — enumerate the tile space, count every tile's existing dependencies —
/// is the derivation of the plan's tile graph, paid once per plan, so it is
/// timed on fresh plans and reported beside the run's own `init_time` (the
/// owner filter over that graph); the fraction is both over both.
pub fn e9_init_fraction(quick: bool) -> Table {
    let mut table = Table::new(
        "e9",
        "Sec IV-K: serial initial-tile generation as a fraction of run time",
        &[
            "problem",
            "tiles",
            "graph (ms)",
            "init (ms)",
            "total (ms)",
            "fraction",
        ],
    );
    // Per case its program and binding, and how to execute a plan of it on
    // one thread.
    type Execute = Box<dyn Fn(&Plan) -> dpgen_runtime::RunStats>;
    let mut cases: Vec<(&str, Program, Vec<i64>, Execute)> = Vec::new();
    {
        let n: i64 = if quick { 20 } else { 48 };
        let kernel = Bandit2::default().kernel();
        cases.push((
            "bandit2",
            Bandit2::program(8).unwrap(),
            vec![n],
            Box::new(move |plan| {
                node_stats(plan.execute::<f64, _>(&kernel, &ExecOpts::new()).unwrap())
            }),
        ));
    }
    {
        let len = if quick { 80 } else { 400 };
        let a = random_sequence(len, 1);
        let b = random_sequence(len, 2);
        let problem = Msa::new(&[&a, &b]);
        cases.push((
            "msa2",
            Msa::program(2, 16).unwrap(),
            problem.params(),
            Box::new(move |plan| {
                node_stats(plan.execute::<i64, _>(&problem, &ExecOpts::new()).unwrap())
            }),
        ));
    }
    let rounds = if quick { 3 } else { 20 };
    let fresh = || cases.iter().map(|(_, p, at, _)| p.compile(at)).collect();
    let derive = |plan: &Plan| plan.graph().expect("the binding has the spec's arity");
    let variants = (0..cases.len())
        .map(|k| variant(move |plans: &mut Vec<Arc<Plan>>| derive(&plans[k])))
        .collect();
    let timings = paired(rounds, 0, fresh, variants);
    for ((name, program, params, execute), t) in cases.iter().zip(&timings) {
        let plan = program.compile(params);
        derive(&plan);
        let stats = execute(&plan);
        let graph_ms = t.q[1] * 1e3;
        let init_ms = stats.init_time.as_secs_f64() * 1e3;
        let total_ms = graph_ms + stats.total_time.as_secs_f64() * 1e3;
        table.row(vec![
            name.to_string(),
            stats.tiles_executed.to_string(),
            fmt_f(graph_ms, 3),
            fmt_f(init_ms, 3),
            fmt_f(total_ms, 3),
            format!("{:.3}%", 100.0 * (graph_ms + init_ms) / total_ms),
        ]);
    }
    table.note("paper: < 0.5% of total run time for even the largest runs");
    table.note(format!("graph = deriving the plan's tile graph, once per plan (median of {rounds} interleaved rounds on fresh plans); init = one run's owner filter over it; total = graph + run"));
    table
}

/// E10 — Figure 8 (future work): hyperplane load balancing vs slabs on a
/// wedge-shaped space — hyperplanes shorten the critical path and cut
/// idle time.
pub fn e10_hyperplane(quick: bool) -> Table {
    let mut table = Table::new(
        "e10",
        "Fig 8: slab vs hyperplane load balancing (simulated idle time)",
        &[
            "space",
            "method",
            "ranks",
            "imbalance",
            "idle frac",
            "makespan (ms)",
        ],
    );
    let wedge = Program::parse(
        "name wedge\nvars x y\nparams N\n\
         constraint x >= 0\nconstraint y >= 0\nconstraint x + y <= N\n\
         template r1 1 0\ntemplate r2 0 1\n\
         order x y\nloadbalance x y\nwidths 4 4\n",
    )
    .unwrap();
    let n_wedge: i64 = if quick { 40 } else { 127 };
    let bandit = Bandit2::program(8).unwrap();
    let n_bandit: i64 = if quick { 24 } else { 48 };
    let cases: Vec<(&str, &Tiling, i64, Vec<usize>)> = vec![
        ("2d-wedge", wedge.tiling(), n_wedge, vec![0, 1]),
        ("bandit2", bandit.tiling(), n_bandit, vec![0, 1]),
    ];
    for (name, tiling, n, lb_dims) in cases {
        // One graph per space: both methods and both rank counts cut and
        // simulate the same tiles.
        let graph = Arc::new(tiling.graph(&[n]));
        for (method_name, method) in [
            (
                "slabs",
                BalanceMethod::Slabs {
                    lb_dims: lb_dims.clone(),
                },
            ),
            ("hyperplane", BalanceMethod::Hyperplane),
        ] {
            for ranks in [4usize, 8] {
                let owner = LoadBalance::compute_on(&graph, ranks, &method);
                let imbalance = owner.imbalance();
                let config = SimConfig {
                    ranks,
                    threads_per_rank: 8,
                    priority: TilePriority::paper_default(tiling.dims(), &lb_dims),
                    cost: CostModel::default(),
                    send_buffers: usize::MAX,
                    schedule: Schedule::Dynamic,
                };
                let sim = simulate_on(&graph, &owner, &config).expect("simulation input");
                table.row(vec![
                    name.to_string(),
                    method_name.to_string(),
                    ranks.to_string(),
                    fmt_f(imbalance, 4),
                    fmt_f(sim.idle_fraction(), 3),
                    fmt_f(sim.makespan * 1e3, 3),
                ]);
            }
        }
    }
    table.note("paper: hyperplane cuts reduced idle time on wedge-shaped spaces");
    table
}

/// E11 — Section IV-I: packed edge size vs full tile size (the w^(d-1)
/// vs w^d analysis for the 2-arm bandit).
pub fn e11_packing_ratio(_quick: bool) -> Table {
    let mut table = Table::new(
        "e11",
        "Sec IV-I: packed edge cells vs tile cells, 2-arm bandit",
        &[
            "width",
            "tile cells",
            "edge cells (1 edge)",
            "edges/tile",
            "ratio",
        ],
    );
    for w in [4i64, 8, 12] {
        let program = Bandit2::program(w).unwrap();
        let tiling = program.tiling();
        let n = 6 * w; // enough for interior tiles
                       // Interior tile (1,0,0,0) of the simplex: full w^4 cells.
        let tile = dpgen_tiling::Coord::from_slice(&[1, 0, 0, 0]);
        let mut point = tiling.make_point(&[n]);
        let tile_cells = tiling.tile_cell_count(&tile, &mut point);
        tiling.set_tile(&tile, &mut point);
        let edge_cells = tiling.edges()[0].count(&mut point).unwrap();
        table.row(vec![
            w.to_string(),
            tile_cells.to_string(),
            edge_cells.to_string(),
            tiling.deps().len().to_string(),
            format!("1/{}", tile_cells / edge_cells.max(1)),
        ]);
    }
    table.note("paper: one edge uses w^3 where the tile uses w^4 (ratio 1/w)");
    table
}

/// E12 — Section VII-A: traceback by edge logging and tile recomputation.
pub fn e12_traceback(quick: bool) -> Table {
    let mut table = Table::new(
        "e12",
        "Sec VII-A: traceback support cost (edge log + recomputation)",
        &[
            "len",
            "full cells",
            "logged cells",
            "log %",
            "path len",
            "tiles recomputed",
            "total tiles",
        ],
    );
    let len: usize = if quick { 10 } else { 24 };
    let seqs: Vec<Vec<u8>> = (0..3).map(|k| random_sequence(len, 200 + k)).collect();
    let problem = Msa::new(&[&seqs[0], &seqs[1], &seqs[2]]);
    let plan = Msa::program(3, 6).unwrap().compile(&problem.params());
    let graph = plan.graph().expect("the binding fits the program");
    let (_, log) = plan
        .execute_logged::<i64, _>(&PerCell(&problem), &ExecOpts::new())
        .expect("forward pass completes");
    let full = (len as u128 + 1).pow(3);
    let mut tb = Traceback::new(&graph, &problem, &log);
    let path = tb
        .trace(&problem.goal(), &mut |cell, values| {
            problem.decide(cell, values)
        })
        .expect("the goal is a cell of the problem");
    table.row(vec![
        len.to_string(),
        full.to_string(),
        log.total_cells().to_string(),
        fmt_f(100.0 * log.total_cells() as f64 / full as f64, 2),
        (path.len() - 1).to_string(),
        tb.tiles_recomputed.to_string(),
        graph.len().to_string(),
    ]);
    table.note(
        "edge log is O(n^{d-1}) vs O(n^d) full state; traceback recomputes only visited tiles",
    );
    table
}

/// The 2-arm bandit's recurrence by hand: one descending 4-D nest over a
/// dense `(n + 2)^4` array, the same arithmetic as
/// [`dpgen_problems::bandit2::Bandit2Kernel`] (each arm's posterior mean
/// read from its [`Posterior`] table). Returns `V(0)`. `v` is kept between
/// calls, so a timed call pays no allocation or page fault; no cell is read
/// before it is written.
fn bandit2_dense_nest(arms: &[Posterior; 2], n: i64, v: &mut Vec<f64>) -> f64 {
    let side = (n + 2) as usize;
    v.resize(side.pow(4), 0.0);
    let at = |s1: i64, f1: i64, s2: i64, f2: i64| {
        ((s1 as usize * side + f1 as usize) * side + s2 as usize) * side + f2 as usize
    };
    for s1 in (0..=n).rev() {
        for f1 in (0..=n - s1).rev() {
            for s2 in (0..=n - s1 - f1).rev() {
                for f2 in (0..=n - s1 - f1 - s2).rev() {
                    let here = at(s1, f1, s2, f2);
                    if s1 + f1 + s2 + f2 == n {
                        v[here] = (s1 + s2) as f64;
                        continue;
                    }
                    let p1 = arms[0].get(s1, f1);
                    let p2 = arms[1].get(s2, f2);
                    let v1 =
                        p1 * v[at(s1 + 1, f1, s2, f2)] + (1.0 - p1) * v[at(s1, f1 + 1, s2, f2)];
                    let v2 =
                        p2 * v[at(s1, f1, s2 + 1, f2)] + (1.0 - p2) * v[at(s1, f1, s2, f2 + 1)];
                    v[here] = v1.max(v2);
                }
            }
        }
    }
    v[0]
}

/// One execution of `plan` with `kernel`; returns the probed `V(0)`.
fn run<K: dpgen_runtime::Kernel<f64>>(plan: &Plan, kernel: &K, opts: &ExecOpts) -> f64 {
    let out = plan
        .execute::<f64, _>(kernel, opts)
        .expect("bandit2 executes");
    out.probes[0].expect("V(0) is probed")
}

/// E13 — the `bandit2_hybrid` workload's ceiling: the 2-arm bandit at
/// `N = 48`, width 8, executed by the runtime at 1 and 2 ranks of one
/// thread, against a hand-written dense nest with the same arithmetic, with
/// the runtime's own per-cell path (a null kernel) split out and the
/// kernel's posterior tables against the two divisions per cell they
/// replace (a dividing kernel) — all in one process.
pub fn e13_bandit2_ceiling(quick: bool) -> Table {
    let mut table = Table::new(
        "e13",
        "bandit2_hybrid's ceiling: the runtime vs a hand-written nest, 2-arm bandit w = 8",
        &[
            "variant",
            "best (ms)",
            "median (ms)",
            "/ ceiling",
            "[q1, q3]",
            "rounds won",
        ],
    );
    let (n, rounds) = if quick { (16, 3) } else { (48, 40) };
    let problem = Bandit2::default();
    let plan = Bandit2::program(8).unwrap().compile(&[n]);
    let one = ExecOpts::new().probe(Probe::at(&[0; 4]));
    let two = one.clone().ranks(2);
    plan.warm(&one);
    plan.warm(&two);
    let kernel = problem.kernel();
    let null = |cell: CellRef<'_>, values: &mut [f64]| values[cell.loc] = 0.0;
    // The same kernel dividing twice per cell instead of reading its tables.
    let dividing = |cell: CellRef<'_>, values: &mut [f64]| {
        if !cell.valid[0] {
            values[cell.loc] = (cell.x[0] + cell.x[2]) as f64;
            return;
        }
        let p1 = Posterior::mean(problem.prior1, cell.x[0], cell.x[1]);
        let p2 = Posterior::mean(problem.prior2, cell.x[2], cell.x[3]);
        let v1 = p1 * values[cell.loc_r(0)] + (1.0 - p1) * values[cell.loc_r(1)];
        let v2 = p2 * values[cell.loc_r(2)] + (1.0 - p2) * values[cell.loc_r(3)];
        values[cell.loc] = v1.max(v2);
    };

    let arms = [problem.prior1, problem.prior2].map(Posterior::new);
    let mut dense = Vec::new();
    let want = bandit2_dense_nest(&arms, n, &mut dense);
    let got = run(&plan, &kernel, &one);
    let close = (got - want).abs() <= 1e-9 * want.abs().max(1.0);
    assert!(close, "runtime: V(0) {got} vs the nest's {want}");
    let divided = run(&plan, &dividing, &one);
    assert_eq!(divided.to_bits(), got.to_bits(), "dividing kernel: V(0)");
    let (names, variants): (Vec<&str>, Vec<_>) = [
        (
            "hand-written dense nest",
            variant(|_| bandit2_dense_nest(&arms, n, &mut dense)),
        ),
        ("runtime 1x1", variant(|_| run(&plan, &kernel, &one))),
        ("runtime 2x1", variant(|_| run(&plan, &kernel, &two))),
        ("null kernel 1x1", variant(|_| run(&plan, &null, &one))),
        (
            "dividing kernel 1x1",
            variant(|_| run(&plan, &dividing, &one)),
        ),
    ]
    .into_iter()
    .unzip();
    let timings = paired(rounds, 0, || (), variants);
    for (name, t) in names.iter().zip(&timings) {
        table.row(vec![
            name.to_string(),
            fmt_f(t.best * 1e3, 3),
            fmt_f(t.q[1] * 1e3, 3),
            fmt_f(t.ratio.q[1], 2),
            fmt_spread(t.ratio.q, 2),
            t.ratio.wins.to_string(),
        ]);
    }
    let tables = Ratio::of(&timings[4].samples, &timings[1].samples);
    table.note(format!(
        "N = {n}, {rounds} rounds, every variant once a round in rotated order; ratios and rounds won are per round against the ceiling (the nest); ranks x threads; every variant computes V(0) of the same problem (checked against the nest)"
    ));
    table.note(format!(
        "dividing / table kernel = {:.2} {} per round; the tables ran faster in {} of {rounds} rounds",
        tables.q[1],
        fmt_spread(tables.q, 2),
        tables.losses
    ));
    table.note("null kernel = the runtime's per-cell path alone; dividing kernel = the kernel with two divisions per cell in place of its posterior tables");
    table
}

/// The admission limit `compile_paper` admits every plan under.
const ADMIT_CELLS: u128 = 1 << 40;

/// The nine specs `compile_paper` generates, at its parameters.
fn compile_paper_specs() -> Vec<(&'static str, ProblemSpec, Vec<i64>)> {
    let (seq2, seq3) = (vec![399, 399], vec![39, 39, 39]);
    vec![
        ("bandit2", Bandit2::spec(4), vec![24]),
        ("bandit3", Bandit3::spec(3), vec![8]),
        ("bandit_delay", BanditDelay::spec(3), vec![8]),
        ("msa3", Msa::spec(3, 8), seq3.clone()),
        ("lcs2", Lcs::spec(2, 16), seq2.clone()),
        ("lcs3", Lcs::spec(3, 8), seq3),
        ("editdist", EditDistance::spec(16), seq2.clone()),
        ("smith_waterman", SmithWaterman::spec(16), seq2),
        ("banded_sw", BandedSw::spec(16, 32), vec![2399, 2399]),
    ]
}

/// `spec` as input-file text, which [`ProblemSpec::parse`] reads back.
fn spec_text(spec: &ProblemSpec) -> String {
    let mut s = format!("name {}\nvars {}\n", spec.name, spec.vars.join(" "));
    if !spec.params.is_empty() {
        s += &format!("params {}\n", spec.params.join(" "));
    }
    for c in &spec.constraints {
        s += &format!("constraint {c}\n");
    }
    let ints = |v: &[i64]| v.iter().map(i64::to_string).collect::<Vec<_>>().join(" ");
    for t in &spec.templates {
        s += &format!("template {} {}\n", t.name, ints(&t.offsets));
    }
    if let Some(b) = &spec.band {
        s += &format!("band {} {} {} {}\n", b.a, b.b, b.lo, b.hi);
    }
    if !spec.order.is_empty() {
        s += &format!("order {}\n", spec.order.join(" "));
    }
    if !spec.load_balance.is_empty() {
        s += &format!("loadbalance {}\n", spec.load_balance.join(" "));
    }
    s += &format!("widths {}\ntype {}\n", ints(&spec.widths), spec.value_type);
    for (keyword, body) in [
        ("define", &spec.defines),
        ("init", &spec.init_code),
        ("code", &spec.center_code),
    ] {
        if !body.is_empty() {
            s += &format!("{keyword} {{\n{body}\n}}\n");
        }
    }
    s
}

/// E14 — the compile path stage by stage: what `compile_paper` pays per
/// spec, from input text to emitted C. Each cell is the median over
/// [`paired`] rounds of one stage on one of the nine specs, in µs; stages
/// that derive something memoized (the graph, its classes, a balance) get a
/// fresh plan each round, derived up to that stage before the round.
pub fn e14_compile_stages(quick: bool) -> Table {
    const STAGES: [&str; 7] = [
        "parse",
        "from_spec",
        "compile + admit",
        "graph",
        "classes",
        "balance",
        "emit_c",
    ];
    let columns: Vec<String> = std::iter::once("spec".to_string())
        .chain(STAGES.iter().map(|s| format!("{s} (us)")))
        .chain(["C bytes", "bound terms"].map(String::from))
        .collect();
    let columns: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut table = Table::new(
        "e14",
        "compile path by stage, the nine compile_paper specs",
        &columns,
    );
    let rounds = if quick { 3 } else { 50 };
    let mut totals = [0.0f64; STAGES.len()];
    let (mut bytes, mut terms) = (0usize, 0usize);
    // Per round, the nine specs' sums of `from_spec` and of `emit_c`.
    let (mut from_spec, mut emit) = (vec![0.0; rounds], vec![0.0; rounds]);
    for (name, spec, params) in compile_paper_specs() {
        let text = spec_text(&spec);
        let program = Program::from_spec(spec.clone()).expect("paper spec generates");
        let graph = |plan: &Plan| plan.graph().expect("paper plan binds");
        let slabs = BalanceMethod::Slabs {
            lb_dims: spec.load_balance_indices(),
        };
        // A round's input: `from_spec`'s, and a fresh plan for `graph` to
        // derive, one with its graph derived for `classes`, and one with
        // its classes too for `balance`.
        type Fresh = (Option<ProblemSpec>, [Arc<Plan>; 3]);
        let fresh = || -> Fresh {
            let plans = [0, 1, 2].map(|_| program.compile(&params));
            graph(&plans[1]);
            graph(&plans[2]).classes();
            (Some(spec.clone()), plans)
        };
        let stages = paired(
            rounds,
            1,
            fresh,
            vec![
                variant(|_: &mut Fresh| ProblemSpec::parse(&text).expect("text parses")),
                variant(|f: &mut Fresh| Program::from_spec(f.0.take().expect("once a round"))),
                variant(|_: &mut Fresh| program.compile(&params).admit(ADMIT_CELLS).is_ok()),
                variant(|f: &mut Fresh| graph(&f.1[0])),
                variant(|f: &mut Fresh| graph(&f.1[1]).classes()),
                variant(|f: &mut Fresh| LoadBalance::compute_on(&graph(&f.1[2]), 2, &slabs)),
                variant(|_: &mut Fresh| emit_c(&program)),
            ],
        );
        for r in 0..rounds {
            from_spec[r] += stages[1].samples[r];
            emit[r] += stages[6].samples[r];
        }
        let mut cells = vec![name.to_string()];
        for (k, t) in stages.iter().enumerate() {
            totals[k] += t.q[1] * 1e6;
            cells.push(fmt_f(t.q[1] * 1e6, 1));
        }
        let source = emit_c(&program);
        let tiling = program.tiling();
        let spec_terms = tiling.local_nest().bound_terms() + tiling.tile_nest().bound_terms();
        cells.push(source.len().to_string());
        cells.push(spec_terms.to_string());
        bytes += source.len();
        terms += spec_terms;
        table.row(cells);
    }
    let mut cells = vec!["nine specs".to_string()];
    cells.extend(totals.iter().map(|&v| fmt_f(v, 1)));
    cells.push(bytes.to_string());
    cells.push(terms.to_string());
    table.row(cells);
    let ratio = Ratio::of(&emit, &from_spec);
    table.note(format!(
        "median of {rounds} rounds per spec and stage, a spec's stages interleaved in rotated order; emit_c / from_spec = {:.3} {} per round over the nine specs' sums (emit_c faster in {} of {rounds} rounds)",
        ratio.q[1],
        fmt_spread(ratio.q, 3),
        ratio.wins
    ));
    table.note("balance: the slab cut for 2 ranks on a fresh graph, cells counted inside");
    table.note("bound terms: the lower and upper bounds of the local and tile nests");
    table
}

/// LCS length of `a` and `b` by the plain recurrence: each row of
/// `b.len() + 1` values from the one above it, two rows in all.
fn lcs_two_row_loop(a: &[u8], b: &[u8]) -> i64 {
    let (mut up, mut row) = (vec![0i64; b.len() + 1], vec![0i64; b.len() + 1]);
    for &ca in a {
        for (k, &cb) in b.iter().enumerate() {
            row[k + 1] = if ca == cb {
                up[k] + 1
            } else {
                up[k + 1].max(row[k])
            };
        }
        std::mem::swap(&mut up, &mut row);
    }
    up[b.len()]
}

/// E15 — `lcs_percell_fine`'s per-cell path: LCS of two 623-character DNA
/// strings at width 12 (2704 tiles), one worker under the dynamic
/// scheduler, through `Plan::execute` with a null kernel (the runtime's own
/// cost per tile and per cell), with the LCS kernel replayed cell by cell,
/// and through `execute_batched` (each interior block swept whole), beside a
/// hand-written two-row loop over the same strings (the ceiling) — all in
/// one process.
pub fn e15_lcs_per_cell(quick: bool) -> Table {
    let mut table = Table::new(
        "e15",
        "lcs_percell_fine's per-cell path: the runtime vs a hand-written loop, LCS w = 12",
        &[
            "variant",
            "best (ms)",
            "median (ms)",
            "/ ceiling",
            "[q1, q3]",
            "rounds won",
        ],
    );
    let (len, rounds) = if quick { (95, 3) } else { (623, 30) };
    let (a, b) = (random_sequence(len, 5), random_sequence(len, 6));
    let problem = Lcs::new(&[&a, &b]);
    let plan = Lcs::program(2, 12).unwrap().compile(&problem.params());
    let opts = ExecOpts::new()
        .threads(1)
        .schedule(Schedule::Dynamic)
        .probe(Probe::at(&problem.goal()));
    plan.warm(&opts);
    let null = |_: CellRef<'_>, _: &mut [i64]| {};
    let per_cell = || {
        let out = plan.execute::<i64, _>(&problem, &opts);
        out.expect("LCS executes").probes[0]
    };
    let batched = || {
        let out = plan.execute_batched::<i64, _>(&problem, &opts);
        out.expect("LCS executes").probes[0]
    };
    let want = lcs_two_row_loop(&a, &b);
    assert_eq!((per_cell(), batched()), (Some(want), Some(want)));
    let (names, variants): (Vec<&str>, Vec<_>) = [
        (
            "hand-written two-row loop",
            variant(|_| lcs_two_row_loop(&a, &b)),
        ),
        (
            "null kernel, execute",
            variant(|_| plan.execute::<i64, _>(&null, &opts).is_ok()),
        ),
        ("LCS, execute (per cell)", variant(|_| per_cell())),
        ("LCS, execute_batched", variant(|_| batched())),
    ]
    .into_iter()
    .unzip();
    let timings = paired(rounds, 0, || (), variants);
    for (name, t) in names.iter().zip(&timings) {
        table.row(vec![
            name.to_string(),
            fmt_f(t.best * 1e3, 3),
            fmt_f(t.q[1] * 1e3, 3),
            fmt_f(t.ratio.q[1], 2),
            fmt_spread(t.ratio.q, 2),
            t.ratio.wins.to_string(),
        ]);
    }
    let per_block = Ratio::of(&timings[2].samples, &timings[3].samples);
    table.note(format!(
        "strings of {len}, {rounds} rounds, every variant once a round in rotated order; ratios and rounds won are per round against the ceiling; one worker, dynamic schedule; per-cell and batched runs probe the loop's LCS length"
    ));
    table.note(format!(
        "per-cell / batched = {:.3} {} per round; batched ran faster in {} of {rounds} rounds",
        per_block.q[1],
        fmt_spread(per_block.q, 3),
        per_block.losses
    ));
    table.note("null kernel = the runtime's per-tile and per-cell path with no cell body; per cell = the LCS cell replayed through PerCell, the path Plan::execute takes");
    table
}

/// An experiment: its id and what runs it.
pub type Runner = (&'static str, fn(bool) -> Table);

/// Every experiment, in order.
pub const RUNNERS: [Runner; 15] = [
    ("e1", e1_bandit_correctness),
    ("e2", e2_memory_orderings),
    ("e4", e4_shared_scaling),
    ("e4b", e4b_contention),
    ("e5", e5_weak_scaling),
    ("e6", e6_tile_size),
    ("e7", e7_buffer_sweep),
    ("e8", e8_lb_dims),
    ("e9", e9_init_fraction),
    ("e10", e10_hyperplane),
    ("e11", e11_packing_ratio),
    ("e12", e12_traceback),
    ("e13", e13_bandit2_ceiling),
    ("e14", e14_compile_stages),
    ("e15", e15_lcs_per_cell),
];

/// What `args` asks `figures` to run: whether at `--quick` sizes, and the
/// [`RUNNERS`] they name (all of them if they name none). Any other
/// argument is an error that names every such argument.
pub fn select(args: &[String]) -> Result<(bool, Vec<Runner>), String> {
    let ids = RUNNERS.map(|(id, _)| id);
    let unknown: Vec<&str> = (args.iter().map(String::as_str))
        .filter(|a| *a != "--quick" && !ids.contains(a))
        .collect();
    if !unknown.is_empty() {
        let (unknown, ids) = (unknown.join(" "), ids.join(" "));
        let known = format!("flags: --quick; experiments: {ids}");
        return Err(format!("unknown arguments: {unknown}; {known}"));
    }
    let all = args.iter().all(|a| a == "--quick");
    let runners = RUNNERS
        .into_iter()
        .filter(|(id, _)| all || args.iter().any(|a| a == id));
    Ok((args.iter().any(|a| a == "--quick"), runners.collect()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cost model the DES tests read, written down so that a modelled
    /// relation does not move with what else the host runs. Its constants
    /// sit inside what `calibrate` measured for the bandit2 kernel at
    /// N = 28 on the 2-vCPU reference host: 24–34 ns a cell, 3.1–4.3 µs a
    /// tile and 12–17 ns an edge cell over five runs.
    const PINNED: CostModel = CostModel {
        cell_cost: 30e-9,
        tile_overhead: 3.8e-6,
        static_tile_overhead: 5e-7,
        edge_cell_cost: 15e-9,
        comm_latency: 5e-6,
        comm_cell_cost: 8e-9,
    };

    #[test]
    fn select_refuses_unknown_ids_and_flags_before_running_anything() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let ids = |r: Vec<Runner>| r.into_iter().map(|(id, _)| id).collect::<Vec<_>>();
        let err = select(&args(&["--quick", "e11", "e99", "--quik"])).unwrap_err();
        assert!(err.contains("e99 --quik;"), "{err}");
        let (quick, all) = select(&[]).unwrap();
        assert_eq!((quick, all.len()), (false, RUNNERS.len()));
        let (quick, some) = select(&args(&["e13", "--quick", "e4"])).unwrap();
        assert_eq!((quick, ids(some)), (true, vec!["e4", "e13"]));
        assert_eq!(ids(select(&args(&["--quick"])).unwrap().1).len(), 15);
    }

    #[test]
    fn e1_values_match() {
        let t = e1_bandit_correctness(true);
        assert_eq!(t.rows.len(), 2);
        for row in &t.rows {
            let err: f64 = row[3].parse().unwrap();
            assert!(err < 1e-9);
        }
    }

    #[test]
    fn e2_priorities_order_memory() {
        let t = e2_memory_orderings(true);
        let col: i64 = t.rows[0][2].parse().unwrap();
        let level: i64 = t.rows[1][2].parse().unwrap();
        assert!(
            level > col,
            "level-set ({level}) must buffer more edges than column-major ({col})"
        );
    }

    #[test]
    fn e4_speedup_grows_with_threads() {
        let t = e4_shared_scaling_on(true, Some(PINNED));
        // For each problem: speedup(24) > speedup(1) = 1.
        for chunk in t.rows.chunks(3) {
            let s1: f64 = chunk[0][2].parse().unwrap();
            let s24: f64 = chunk[2][2].parse().unwrap();
            assert!((s1 - 1.0).abs() < 0.05, "{chunk:?}");
            assert!(s24 > 2.0, "24 threads should speed up: {chunk:?}");
        }
    }

    #[test]
    fn e4b_contention_counters_populated() {
        let t = e4b_contention(true);
        assert_eq!(t.rows.len(), 6); // 2 problems x 3 thread counts
        for row in &t.rows {
            let threads: usize = row[1].parse().unwrap();
            let tiles: u64 = row[3].parse().unwrap();
            let steals: u64 = row[4].parse().unwrap();
            assert!(tiles > 0, "no tiles executed: {row:?}");
            if threads == 1 {
                assert_eq!(steals, 0, "single worker cannot steal: {row:?}");
            } else {
                assert!(steals <= tiles, "steals exceed tiles: {row:?}");
            }
            let imbalance: f64 = row[8].parse().unwrap();
            assert!(imbalance >= 1.0 - 1e-9, "imbalance below 1: {row:?}");
        }
    }

    #[test]
    fn e5_efficiency_reasonable() {
        let t = e5_weak_scaling_on(true, Some(PINNED));
        assert_eq!(t.rows.len(), 12); // 3 priorities x 4 rank counts
        let mut eff8 = Vec::new();
        for series in t.rows.chunks(4) {
            assert_eq!(series[0][5], "1.000", "{series:?}");
            let eff: f64 = series[3][5].parse().unwrap();
            assert!(eff > 0.3, "8-rank weak efficiency collapsed: {series:?}");
            assert!(eff <= 1.15, "efficiency above 1 is suspicious: {series:?}");
            eff8.push((series[0][0].clone(), eff));
        }
        // The runtime's default scales at least as well as Figure 5.
        let (figure5, pipelined) = (&eff8[0], &eff8[2]);
        assert_eq!(
            (&*figure5.0, &*pipelined.0),
            ("lb-first column-major", "pipelined")
        );
        assert!(pipelined.1 >= figure5.1, "{eff8:?}");
    }

    #[test]
    fn e11_ratio_is_one_over_w() {
        let t = e11_packing_ratio(true);
        for row in &t.rows {
            let w: u128 = row[0].parse().unwrap();
            let tile: u128 = row[1].parse().unwrap();
            let edge: u128 = row[2].parse().unwrap();
            assert_eq!(tile, w.pow(4));
            assert_eq!(edge, w.pow(3));
        }
    }

    #[test]
    fn e13_every_variant_is_timed_against_the_nest() {
        let t = e13_bandit2_ceiling(true);
        assert_eq!(t.rows.len(), 5);
        for row in &t.rows {
            let best: f64 = row[1].parse().unwrap();
            let median: f64 = row[2].parse().unwrap();
            assert!(best > 0.0 && best <= median, "{row:?}");
        }
        let ceiling = &t.rows[0];
        assert_eq!(ceiling[0], "hand-written dense nest");
        assert_eq!(ceiling[3..], ["1.00", "[1.00, 1.00]", "0"]);
    }

    #[test]
    fn e15_times_per_cell_against_batched_and_the_loop() {
        let t = e15_lcs_per_cell(true);
        assert_eq!(t.rows.len(), 4);
        for row in &t.rows {
            let best: f64 = row[1].parse().unwrap();
            let median: f64 = row[2].parse().unwrap();
            assert!(best > 0.0 && best <= median, "{row:?}");
        }
        assert_eq!(t.rows[0][0], "hand-written two-row loop");
        assert_eq!(t.rows[0][3..], ["1.00", "[1.00, 1.00]", "0"]);
        // CI's gate reads the per-round median from this note.
        let ratio = t.notes[1].split("per-cell / batched = ").nth(1).unwrap();
        let median: f64 = ratio.split(' ').next().unwrap().parse().unwrap();
        assert!(median > 0.0, "{}", t.notes[1]);
    }

    #[test]
    fn e14_times_every_stage_of_the_nine_specs() {
        let t = e14_compile_stages(true);
        assert_eq!(t.rows.len(), 10);
        let (specs, total) = t.rows.split_at(9);
        assert_eq!(total[0][0], "nine specs");
        for k in 1..t.columns.len() {
            let col = |row: &Vec<String>| row[k].parse::<f64>().unwrap();
            let sum: f64 = specs.iter().map(col).sum();
            // Each cell is rounded to 0.1 us; the total is the sum unrounded.
            assert!(
                (sum - col(&total[0])).abs() <= 0.05 * 10.0,
                "{:?}",
                t.columns[k]
            );
            assert!(col(&total[0]) > 0.0, "{:?}", t.columns[k]);
        }
        // CI's gate reads the per-round median from this note.
        let ratio = t.notes[0].split("emit_c / from_spec = ").nth(1).unwrap();
        let median: f64 = ratio.split(' ').next().unwrap().parse().unwrap();
        assert!(median > 0.0, "{}", t.notes[0]);
        // The texts round-trip: every spec's parsed text generates the same C.
        for (name, spec, _) in compile_paper_specs() {
            let reparsed = ProblemSpec::parse(&spec_text(&spec)).unwrap();
            let emit = |s: ProblemSpec| emit_c(&Program::from_spec(s).unwrap());
            assert_eq!(emit(reparsed), emit(spec), "{name}");
        }
    }

    #[test]
    fn e12_log_smaller_than_space() {
        let t = e12_traceback(true);
        let full: u128 = t.rows[0][1].parse().unwrap();
        let logged: u128 = t.rows[0][2].parse().unwrap();
        assert!(logged < full);
        let path: usize = t.rows[0][4].parse().unwrap();
        assert!(path >= 10); // at least max(len) columns
    }
}
