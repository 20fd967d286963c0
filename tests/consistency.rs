//! Property-based cross-executor consistency: for randomized iteration
//! spaces, tile widths, thread counts and rank counts, the tiled runtime
//! and the hybrid driver must agree exactly with the dense reference
//! executor.

use dpgen::core::{ExecOpts, Plan, RunOutput};
use dpgen::polyhedra::{ConstraintSystem, Space};
use dpgen::problems::{random_sequence, Bandit2, Lcs, SmithWaterman};
use dpgen::runtime::{
    run_reference, EventKind, Kernel, PerCell, Probe, Reduction, RunKernel, Schedule, StaticPlan,
    TilePriority, TraceLevel,
};
use dpgen::tiling::tiling::{CellRef, RunCtx};
use dpgen::tiling::{Template, TemplateSet, Tiling, TilingBuilder};
use proptest::prelude::*;

const THREAD_MATRIX: [usize; 4] = [1, 2, 4, 8];

/// Build a random 2-D iteration space: a box with up to two extra random
/// half-plane cuts (kept feasible by construction through the origin
/// region), unit positive templates.
fn build_tiling(cuts: &[(i64, i64, i64)], widths: (i64, i64)) -> Option<Tiling> {
    let space = Space::from_names(&["x", "y"], &["N"]).ok()?;
    let mut sys = ConstraintSystem::new(space);
    sys.add_text("0 <= x <= N").ok()?;
    sys.add_text("0 <= y <= N").ok()?;
    for &(a, b, c) in cuts {
        // a*x + b*y <= c*N with a, b >= 0 and c >= a + b keeps the
        // diagonal corner cut but the space nonempty (origin stays in).
        sys.add_text(&format!("{a}*x + {b}*y <= {c}*N")).ok()?;
    }
    let templates = TemplateSet::new(
        2,
        vec![Template::new("r1", &[1, 0]), Template::new("r2", &[0, 1])],
    )
    .ok()?;
    TilingBuilder::new(sys, templates, vec![widths.0, widths.1])
        .build()
        .ok()
}

/// Weighted path-sum kernel: exercises both validity flags and values.
fn kernel(cell: CellRef<'_>, values: &mut [i64]) {
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
    values[cell.loc] = a
        .wrapping_mul(3)
        .wrapping_add(b)
        .wrapping_add(cell.x[0] - 2 * cell.x[1]);
}

/// Kernel over arbitrary template counts: value = mix of valid deps.
fn generic_kernel(cell: CellRef<'_>, values: &mut [i64]) {
    let mut acc: i64 = cell
        .x
        .iter()
        .enumerate()
        .map(|(k, &v)| (k as i64 + 2) * v)
        .sum();
    for (j, &ok) in cell.valid.iter().enumerate() {
        if ok {
            acc = acc
                .wrapping_mul(31)
                .wrapping_add(values[cell.loc_r(j)])
                .wrapping_add(j as i64);
        } else {
            acc = acc.wrapping_add(7);
        }
    }
    values[cell.loc] = acc;
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random multi-component template sets (uniform sign per dimension),
    /// random widths: the tiled runtime still matches the reference.
    /// Multi-component templates make single templates cross several tile
    /// boundaries (Section IV-F's hard case).
    #[test]
    fn random_templates_match_reference(
        n in 4i64..16,
        w1 in 1i64..5,
        w2 in 1i64..5,
        comps in proptest::collection::vec((0i64..3, 0i64..3), 1..4),
        threads in 1usize..4,
        sign in proptest::bool::ANY,
    ) {
        // Build nonzero templates; flip all signs together to keep each
        // dimension uniformly signed.
        let templates: Vec<Template> = comps
            .iter()
            .enumerate()
            .filter(|(_, &(a, b))| a != 0 || b != 0)
            .map(|(i, &(a, b))| {
                let (a, b) = if sign { (a, b) } else { (-a, -b) };
                Template::new(format!("t{i}"), &[a, b])
            })
            .collect();
        if templates.is_empty() {
            return Ok(());
        }
        let space = Space::from_names(&["x", "y"], &["N"]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        sys.add_text("0 <= x <= N").unwrap();
        sys.add_text("0 <= y <= N").unwrap();
        sys.add_text("x + 2*y <= 2*N").unwrap(); // cut a corner for shape
        let set = TemplateSet::new(2, templates).unwrap();
        let tiling = TilingBuilder::new(sys, set, vec![w1, w2]).build().unwrap();
        let reference = run_reference::<i64, _>(&tiling, &[n], &generic_kernel);
        let coords: Vec<[i64; 2]> = vec![[0, 0], [n, 0], [0, n / 2], [n / 2, n / 4]];
        let refs: Vec<&[i64]> = coords.iter().map(|c| c.as_slice()).collect();
        let probe = Probe::many(&refs);
        let opts = ExecOpts::new()
            .threads(threads)
            .priority(TilePriority::column_major(2))
            .probe(probe);
        let res = Plan::on_tiling(tiling.clone(), &[n], vec![])
            .unwrap()
            .execute::<i64, _>(&generic_kernel, &opts)
            .unwrap();
        for (i, c) in coords.iter().enumerate() {
            prop_assert_eq!(res.probes[i], reference.get(c), "at {:?}", c);
        }
        prop_assert_eq!(
            res.per_rank[0].stats.cells_computed as u128,
            tiling.total_cells(&[n])
        );
    }

    #[test]
    fn tiled_equals_reference(
        n in 3i64..20,
        w1 in 1i64..8,
        w2 in 1i64..8,
        a in 0i64..3,
        b in 0i64..3,
        extra in 0i64..3,
        threads in 1usize..5,
    ) {
        let cuts = if a + b > 0 { vec![(a, b, a + b + extra)] } else { vec![] };
        let Some(tiling) = build_tiling(&cuts, (w1, w2)) else {
            return Ok(());
        };
        let reference = run_reference::<i64, _>(&tiling, &[n], &kernel);
        // Probe a scatter of cells, including the origin and corners.
        let coords: Vec<[i64; 2]> = vec![
            [0, 0], [n, 0], [0, n], [n / 2, n / 3], [1, 1], [n - 1, 1],
        ];
        let refs: Vec<&[i64]> = coords.iter().map(|c| c.as_slice()).collect();
        let probe = Probe::many(&refs);
        let opts = ExecOpts::new()
            .threads(threads)
            .priority(TilePriority::column_major(2))
            .probe(probe);
        let res = Plan::on_tiling(tiling.clone(), &[n], vec![])
            .unwrap()
            .execute::<i64, _>(&kernel, &opts)
            .unwrap();
        for (i, c) in coords.iter().enumerate() {
            prop_assert_eq!(res.probes[i], reference.get(c), "at {:?}", c);
        }
    }

    #[test]
    fn hybrid_equals_reference(
        n in 5i64..18,
        w in 1i64..6,
        ranks in 1usize..5,
    ) {
        let Some(tiling) = build_tiling(&[(1, 1, 2)], (w, w)) else {
            return Ok(());
        };
        let reference = run_reference::<i64, _>(&tiling, &[n], &kernel);
        let opts = ExecOpts::new()
            .ranks(ranks)
            .threads(2)
            .probe(Probe::at(&[0, 0]));
        let res = Plan::on_tiling(tiling.clone(), &[n], vec![0])
            .unwrap()
            .execute::<i64, _>(&kernel, &opts)
            .unwrap();
        prop_assert_eq!(res.probes[0], reference.get(&[0, 0]));
        // Conservation: every cell computed exactly once across ranks.
        prop_assert_eq!(res.cells_computed() as u128, tiling.total_cells(&[n]));
    }

    #[test]
    fn scheduler_work_conservation(
        n in 3i64..16,
        w in 1i64..7,
        threads in 1usize..4,
    ) {
        let Some(tiling) = build_tiling(&[], (w, w)) else { return Ok(()) };
        let opts = ExecOpts::new()
            .threads(threads)
            .priority(TilePriority::LevelSet);
        let res = Plan::on_tiling(tiling.clone(), &[n], vec![])
            .unwrap()
            .execute::<i64, _>(&kernel, &opts)
            .unwrap();
        let stats = &res.per_rank[0].stats;
        prop_assert_eq!(stats.cells_computed as u128, tiling.total_cells(&[n]));
        // Edges: every tile dependency crossing produces exactly one edge.
        let mut point = tiling.make_point(&[n]);
        let mut expect_edges = 0u64;
        let mut tiles = Vec::new();
        tiling.for_each_tile(&mut point, |t| tiles.push(t));
        for t in &tiles {
            expect_edges += tiling.dep_total(t, &mut point) as u64;
        }
        prop_assert_eq!(stats.edges_local, expect_edges);
    }
}

/// The matrix tests below run with the interior fast-path scan and
/// per-worker buffer pooling enabled (the runtime default), so their
/// bit-identical assertions double as the equivalence check for the hot
/// path. This helper pins the accounting invariants on top: the
/// interior/boundary split covers every cell, and tile buffer allocations
/// plateau at the worker count.
fn assert_hot_path_stats(stats: &dpgen::runtime::RunStats, threads: usize, ctx: &str) {
    assert_eq!(
        stats.interior_cells + stats.boundary_cells,
        stats.cells_computed,
        "interior/boundary split must cover all cells ({ctx})"
    );
    assert!(
        stats.tile_buffers_allocated <= threads as u64,
        "pooling must allocate at most one buffer per worker, got {} for {} threads ({ctx})",
        stats.tile_buffers_allocated,
        threads
    );
    assert_eq!(
        stats.tile_buffers_allocated + stats.tile_buffers_reused,
        stats.tiles_executed,
        "every tile runs on a fresh or pooled buffer ({ctx})"
    );
    assert_eq!(
        stats.edge_payloads_allocated + stats.edge_payloads_reused,
        stats.edges_local + stats.edges_remote,
        "every packed edge takes exactly one payload vector ({ctx})"
    );
}

/// The counters every execution of one problem on one rank must agree on,
/// whatever its thread count, schedule or order.
fn exact_counters(stats: &dpgen::runtime::RunStats) -> [u64; 8] {
    [
        stats.tiles_executed,
        stats.cells_computed,
        stats.interior_cells,
        stats.boundary_cells,
        stats.blocks_evaluated,
        stats.edges_local,
        stats.edges_remote,
        stats.edge_cells_packed,
    ]
}

/// Thread-count consistency matrix (the paper's determinism claim): LCS
/// results are bit-identical across threads ∈ {1, 2, 4, 8} and tile
/// widths, and match both the dense solver and the serial reference
/// executor.
#[test]
fn lcs_matrix_bit_identical_across_threads_and_widths() {
    let a = random_sequence(37, 11);
    let b = random_sequence(41, 12);
    let problem = Lcs::new(&[&a, &b]);
    let want = problem.solve_dense();
    let goal = problem.goal();
    let mid = [goal[0] / 2, goal[1] / 3];
    for width in [2i64, 5, 16] {
        let program = Lcs::program(2, width).unwrap();
        let reference = run_reference::<i64, _>(program.tiling(), &problem.params(), &problem);
        assert_eq!(reference.get(&goal), Some(want), "reference vs dense");
        for threads in THREAD_MATRIX {
            let probe = Probe::many(&[&goal, &mid]);
            let opts = ExecOpts::new()
                .threads(threads)
                .priority(TilePriority::column_major(2))
                .probe(probe);
            let res = program
                .compile(&problem.params())
                .execute::<i64, _>(&problem, &opts)
                .unwrap();
            assert_eq!(res.probes[0], Some(want), "w={width} threads={threads}");
            assert_eq!(
                res.probes[1],
                reference.get(&mid),
                "w={width} threads={threads}"
            );
            assert_hot_path_stats(&res.per_rank[0].stats, threads, &format!("lcs w={width}"));
        }
    }
}

/// Schedule-mode consistency matrix: the Dynamic and Static schedules are
/// bit-identical on LCS across every thread count and several widths, and
/// agree on every exact counter. Width 2 divides the first sequence's
/// extent, so its slabs are uniform; widths 5 and 16 leave a ragged last
/// slab. A requested `Static` runs `Static` at every width.
#[test]
fn lcs_schedule_matrix_bit_identical() {
    let a = random_sequence(37, 11);
    let b = random_sequence(41, 12);
    let problem = Lcs::new(&[&a, &b]);
    let want = problem.solve_dense();
    let goal = problem.goal();
    let mid = [goal[0] / 2, goal[1] / 3];
    for width in [2i64, 5, 16] {
        let program = Lcs::program(2, width).unwrap();
        let reference = run_reference::<i64, _>(program.tiling(), &problem.params(), &problem);
        let mut dynamic = Vec::new();
        for schedule in [Schedule::Dynamic, Schedule::Static] {
            for (t, threads) in THREAD_MATRIX.into_iter().enumerate() {
                let probe = Probe::many(&[&goal, &mid]);
                let opts = ExecOpts::new()
                    .threads(threads)
                    .priority(TilePriority::column_major(2))
                    .schedule(schedule)
                    .probe(probe);
                let res = program
                    .compile(&problem.params())
                    .execute::<i64, _>(&problem, &opts)
                    .unwrap();
                let ctx = format!("lcs w={width} threads={threads} schedule={schedule}");
                assert_eq!(res.probes[0], Some(want), "{ctx}");
                assert_eq!(res.probes[1], reference.get(&mid), "{ctx}");
                let stats = &res.per_rank[0].stats;
                assert_hot_path_stats(stats, threads, &ctx);
                assert_eq!(
                    stats.tiles_per_worker.iter().sum::<u64>(),
                    stats.tiles_executed,
                    "{ctx}"
                );
                // Slabs are uniform at width 2 only; the request sticks at
                // every width.
                assert_eq!(stats.schedule, schedule, "{ctx}");
                match schedule {
                    Schedule::Dynamic => dynamic.push(exact_counters(stats)),
                    Schedule::Static => assert_eq!(exact_counters(stats), dynamic[t], "{ctx}"),
                }
            }
        }
    }
}

/// At one worker a `Static` run executes its tiles in exactly the plan's
/// order, tile for tile: the plan's order is topological, so the ready heap
/// carrying it always holds the next tile of the order and pops it. Read
/// off a `Spans` trace's `TileStart` events, on LCS at the benchmark's
/// width 48 and on a 3-D LCS.
#[test]
fn one_worker_static_runs_execute_the_plans_order() {
    for (width, lens) in [(48i64, vec![479usize, 431]), (4, vec![15, 11, 13])] {
        let seqs: Vec<Vec<u8>> = (lens.iter().enumerate())
            .map(|(k, &len)| random_sequence(len, 40 + k as u64))
            .collect();
        let refs: Vec<&[u8]> = seqs.iter().map(Vec::as_slice).collect();
        let problem = Lcs::new(&refs);
        let plan = Lcs::program(lens.len(), width)
            .unwrap()
            .compile(&problem.params());
        let opts = ExecOpts::new()
            .schedule(Schedule::Static)
            .trace(TraceLevel::Spans)
            .probe(Probe::at(&problem.goal()));
        let out = plan.execute::<i64, _>(&problem, &opts).unwrap();
        let ctx = format!("lcs{} w={width}", lens.len());
        assert_eq!(out.probes[0], Some(problem.solve_dense()), "{ctx}");
        assert_eq!(out.per_rank[0].stats.schedule, Schedule::Static, "{ctx}");
        let graph = plan.graph().unwrap();
        let static_plan = StaticPlan::build_on(&graph, 0..graph.len()).unwrap();
        let timeline = out.timeline.expect("Spans builds a timeline");
        let events = &timeline.traces[0].tracks[0].events;
        let started: Vec<u32> = (events.iter())
            .filter(|e| e.kind == EventKind::TileStart)
            .map(|e| e.tile.unwrap() as u32)
            .collect();
        assert_eq!(started, static_plan.ordering().order, "{ctx}");
    }
}

/// Smith–Waterman's whole-space max reduction is order-independent, so
/// every thread count and width must give the exact dense answer.
#[test]
fn smith_waterman_matrix_bit_identical() {
    let a = random_sequence(44, 21);
    let b = random_sequence(39, 22);
    let problem = SmithWaterman::new(&a, &b);
    let want = problem.solve_dense();
    assert!(want > 0, "degenerate test input");
    for width in [3i64, 8, 32] {
        let program = SmithWaterman::program(width).unwrap();
        for threads in THREAD_MATRIX {
            let reduce = Reduction::max_i64();
            let opts = ExecOpts::new()
                .threads(threads)
                .priority(TilePriority::column_major(2));
            let res = program
                .compile(&problem.params())
                .execute_reduce::<i64, _>(&PerCell(&problem), &reduce, &opts)
                .unwrap();
            assert_eq!(res.reduction, Some(want), "w={width} threads={threads}");
            assert_hot_path_stats(&res.per_rank[0].stats, threads, &format!("sw w={width}"));
        }
    }
}

/// Smith–Waterman under a requested Static schedule: the reduction stays
/// exactly the dense answer for every thread count, the tile accounting is
/// conserved, and every exact counter is the Dynamic run's.
#[test]
fn smith_waterman_schedule_matrix_bit_identical() {
    let a = random_sequence(44, 21);
    let b = random_sequence(39, 22);
    let problem = SmithWaterman::new(&a, &b);
    let want = problem.solve_dense();
    let program = SmithWaterman::program(8).unwrap();
    for threads in THREAD_MATRIX {
        let run = |schedule| {
            let reduce = Reduction::max_i64();
            let opts = ExecOpts::new()
                .threads(threads)
                .priority(TilePriority::column_major(2))
                .schedule(schedule);
            program
                .compile(&problem.params())
                .execute_reduce::<i64, _>(&PerCell(&problem), &reduce, &opts)
                .unwrap()
        };
        let (res, dynamic) = (run(Schedule::Static), run(Schedule::Dynamic));
        let ctx = format!("sw threads={threads} schedule=static");
        assert_eq!(res.reduction, Some(want), "{ctx}");
        let stats = &res.per_rank[0].stats;
        assert_eq!(
            stats.tiles_per_worker.iter().sum::<u64>(),
            stats.tiles_executed,
            "{ctx}"
        );
        let dynamic = &dynamic.per_rank[0].stats;
        assert_eq!(exact_counters(stats), exact_counters(dynamic), "{ctx}");
    }
}

/// The 2-arm bandit computes in f64; every cell is written exactly once
/// from fully-delivered dependencies, so the probed value must be
/// *bit*-identical (`to_bits`) across thread counts and widths, and equal
/// to the serial reference executor's cell.
#[test]
fn bandit2_matrix_bit_identical() {
    let n = 10i64;
    let problem = Bandit2::default();
    let kernel = problem.kernel();
    let origin = [0i64, 0, 0, 0];
    let mut bits: Option<u64> = None;
    for width in [3i64, 4, 8] {
        let program = Bandit2::program(width).unwrap();
        let reference = run_reference::<f64, _>(program.tiling(), &[n], &kernel);
        let ref_bits = reference.get(&origin).unwrap().to_bits();
        for threads in THREAD_MATRIX {
            let opts = ExecOpts::new()
                .threads(threads)
                .priority(TilePriority::column_major(4))
                .probe(Probe::at(&origin));
            let res = program
                .compile(&[n])
                .execute::<f64, _>(&kernel, &opts)
                .unwrap();
            let got = res.probes[0].unwrap().to_bits();
            assert_eq!(got, ref_bits, "w={width} threads={threads} vs reference");
            assert_hot_path_stats(
                &res.per_rank[0].stats,
                threads,
                &format!("bandit2 w={width}"),
            );
            // Also identical across widths: per-cell arithmetic never
            // depends on tiling geometry.
            assert_eq!(*bits.get_or_insert(got), got, "w={width} threads={threads}");
        }
    }
    // And the value itself is the dense solver's answer (allowing only
    // for its different summation order).
    let f = f64::from_bits(bits.unwrap());
    assert!((f - problem.solve_dense(n)).abs() < 1e-9);
}

/// Counts the interior runs the engine hands to `eval_run`.
struct CountingRuns<'a> {
    inner: &'a Lcs,
    runs: std::sync::atomic::AtomicU64,
}

impl Kernel<i64> for CountingRuns<'_> {
    fn compute(&self, cell: CellRef<'_>, values: &mut [i64]) {
        self.inner.compute(cell, values)
    }
}

impl RunKernel<i64> for CountingRuns<'_> {
    fn eval_run(&self, run: &RunCtx<'_>, values: &mut [i64]) {
        self.runs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.inner.eval_run(run, values)
    }
}

/// The node engine has one scan; whether a kernel's own `eval_run` is
/// used rides on the entry point's kernel type alone. `Plan::execute`
/// lifts its kernel with `PerCell`, so even a `RunKernel` passed there
/// runs cell by cell and reports no batching; `Plan::execute_batched`
/// dispatches every interior run to it.
#[test]
fn execute_never_calls_eval_run_and_execute_batched_always_does() {
    use std::sync::atomic::Ordering;
    let a = random_sequence(37, 11);
    let b = random_sequence(41, 12);
    let problem = Lcs::new(&[&a, &b]);
    let plan = Lcs::program(2, 5).unwrap().compile(&problem.params());
    let kernel = CountingRuns {
        inner: &problem,
        runs: Default::default(),
    };
    for (threads, ranks) in [(1usize, 1usize), (3, 1), (2, 2)] {
        let opts = ExecOpts::new()
            .threads(threads)
            .ranks(ranks)
            .probe(Probe::at(&problem.goal()));
        let ctx = format!("threads={threads} ranks={ranks}");
        let runs_batched = |out: &RunOutput<i64>| -> u64 {
            out.per_rank.iter().map(|r| r.stats.runs_batched).sum()
        };

        let per_cell = plan.execute::<i64, _>(&kernel, &opts).unwrap();
        assert_eq!(kernel.runs.load(Ordering::Relaxed), 0, "{ctx}");
        assert_eq!(runs_batched(&per_cell), 0, "{ctx}");

        let batched = plan.execute_batched::<i64, _>(&kernel, &opts).unwrap();
        let called = kernel.runs.swap(0, Ordering::Relaxed);
        assert!(called > 0, "{ctx}");
        assert_eq!(runs_batched(&batched), called, "{ctx}");
        assert_eq!(batched.probes, per_cell.probes, "{ctx}");
        assert_eq!(batched.probes[0], Some(problem.solve_dense()), "{ctx}");
    }
}

/// Per-cell execution *is* the `PerCell` adapter: `execute(&k)` and
/// `execute_batched(&PerCell(&k))` are the same path, and
/// `execute_reduce(&PerCell(&k), ..)` only adds the fold — so probes and
/// every work counter agree exactly, on one rank and across ranks.
#[test]
fn execute_equals_execute_batched_through_per_cell() {
    let a = random_sequence(29, 5);
    let b = random_sequence(33, 6);
    let problem = SmithWaterman::new(&a, &b);
    let plan = SmithWaterman::program(4)
        .unwrap()
        .compile(&problem.params());
    for (threads, ranks) in [(1usize, 1usize), (3, 1), (2, 2)] {
        let opts = ExecOpts::new()
            .threads(threads)
            .ranks(ranks)
            .probe(Probe::many(&[&[0, 0], &[7, 9]]));
        let reduction = Reduction::new(0i64, |x: i64, y: i64| x.max(y));
        let plain: RunOutput<i64> = plan.execute(&problem, &opts).unwrap();
        let lifted = plan.execute_batched(&PerCell(&problem), &opts).unwrap();
        let reduced = plan
            .execute_reduce(&PerCell(&problem), &reduction, &opts)
            .unwrap();
        let ctx = format!("threads={threads} ranks={ranks}");
        assert_eq!((plain.reduction, lifted.reduction), (None, None), "{ctx}");
        assert_eq!(reduced.reduction, Some(problem.solve_dense()), "{ctx}");
        for other in [&lifted, &reduced] {
            assert_eq!(plain.probes, other.probes, "{ctx}");
            for (p, o) in plain.per_rank.iter().zip(&other.per_rank) {
                let (p, o) = (&p.stats, &o.stats);
                assert_eq!(p.cells_computed, o.cells_computed, "{ctx}");
                assert_eq!(p.interior_cells, o.interior_cells, "{ctx}");
                assert_eq!(p.boundary_cells, o.boundary_cells, "{ctx}");
                assert_eq!(p.tiles_executed, o.tiles_executed, "{ctx}");
                assert_eq!((p.runs_batched, o.runs_batched), (0, 0), "{ctx}");
                assert_eq!((p.cells_batched, o.cells_batched), (0, 0), "{ctx}");
            }
        }
    }
}

/// An execution starts only the threads it cannot do without: worker 0 of
/// a node is the thread that called it, and the hybrid driver runs its
/// first rank on the caller's thread. So a serial-width execution starts
/// none, and `ranks(r).threads(t)` starts `r * t - 1`, the caller among
/// the threads that compute.
#[test]
fn executions_compute_on_the_calling_thread() {
    use std::collections::HashSet;
    use std::sync::Mutex;
    let a = random_sequence(37, 11);
    let b = random_sequence(41, 12);
    let problem = Lcs::new(&[&a, &b]);
    let plan = Lcs::program(2, 5).unwrap().compile(&problem.params());
    for (threads, ranks) in [(1usize, 1usize), (1, 2), (2, 2)] {
        let seen = Mutex::new(HashSet::new());
        let kernel = |cell: CellRef<'_>, values: &mut [i64]| {
            seen.lock().unwrap().insert(std::thread::current().id());
            problem.compute(cell, values);
        };
        let opts = ExecOpts::new()
            .threads(threads)
            .ranks(ranks)
            .probe(Probe::at(&problem.goal()));
        let out = plan.execute::<i64, _>(&kernel, &opts).unwrap();
        assert_eq!(out.probes[0], Some(problem.solve_dense()));
        let seen = seen.into_inner().unwrap();
        let ctx = format!("threads={threads} ranks={ranks}");
        assert!(
            seen.len() <= threads * ranks,
            "{ctx}: {} threads",
            seen.len()
        );
        // Rank 0 owns tiles and its worker 0 takes the first of them.
        if threads == 1 {
            assert!(seen.contains(&std::thread::current().id()), "{ctx}");
        }
    }
}

/// The simulator and the runtime walk one tile DAG: the tiles, the cells
/// and the cross-rank edges `dpgen-des` models on a plan's graph are the
/// ones an execution of that plan performs.
#[test]
fn model_and_runtime_agree_on_the_dag() {
    use dpgen::runtime::SingleOwner;
    use dpgen::tiling::TileGraph;
    use dpgen_des::{simulate_on, SimConfig, SimResult};

    fn agree<T: dpgen::runtime::Value>(
        sim: &SimResult,
        graph: &TileGraph,
        out: &RunOutput<T>,
        what: &str,
    ) {
        let tiles: u64 = out.per_rank.iter().map(|r| r.stats.tiles_executed).sum();
        assert_eq!(sim.tiles as u64, tiles, "{what}: tiles");
        assert_eq!(sim.cells, out.cells_computed() as u128, "{what}: cells");
        assert_eq!(sim.msgs_remote, out.edges_remote(), "{what}: remote edges");
        // The edge cells the model charges, counted once per geometry
        // class, are the ones the run packed tile by tile.
        let edge_cells = graph.edge_cells().unwrap();
        let modelled: u64 = (0..graph.len())
            .flat_map(|i| (0..graph.tiling().deps().len()).map(move |d| (i, d)))
            .filter(|&(i, d)| graph.consumer(i, d).is_some())
            .map(|(i, d)| edge_cells.get(i, d))
            .sum();
        let packed: u64 = out.per_rank.iter().map(|r| r.stats.edge_cells_packed).sum();
        assert_eq!(modelled, packed, "{what}: edge cells");
    }

    let a = random_sequence(70, 11);
    let b = random_sequence(70, 12);
    let lcs = Lcs::new(&[&a, &b]);
    let plan = Lcs::program(2, 8).unwrap().compile(&lcs.params());
    let out = plan
        .execute_batched::<i64, _>(&lcs, &ExecOpts::new().threads(2))
        .unwrap();
    let graph = plan.graph().unwrap();
    let sim = simulate_on(&graph, &SingleOwner, &SimConfig::shared(2, 2)).unwrap();
    agree(&sim, &graph, &out, "lcs, one rank");
    assert_eq!(sim.msgs_remote, 0);

    // Two ranks, partitioned by the plan's own load balance.
    let bandit = Bandit2::default();
    let plan = Bandit2::program(4).unwrap().compile(&[16]);
    let out = plan
        .execute::<f64, _>(&bandit.kernel(), &ExecOpts::new().ranks(2))
        .unwrap();
    let owner = out
        .balance
        .clone()
        .expect("two ranks partition")
        .into_owner();
    let graph = plan.graph().unwrap();
    let sim = simulate_on(&graph, &owner, &SimConfig::hybrid(2, 1, 4, plan.lb_dims())).unwrap();
    agree(&sim, &graph, &out, "bandit2, two ranks");
    assert!(sim.msgs_remote > 0);
}
