//! Invariants of the index-keyed work-stealing scheduler, checked over
//! random polytopes and tile widths by driving [`TileScheduler`] directly as
//! the data structure of a serial executor:
//!
//! * every tile pops exactly once,
//! * a tile never pops before all of its dependency edges were delivered,
//! * the pending slots and all ready queues drain to empty,
//! * on one worker it pops the tile sequence, and reaches the peaks, of the
//!   `Coord`-keyed scheduler it replaced (kept as `ShardedScheduler`),
//! * a duplicate edge is a typed fault, in every build,
//!
//! plus the `RunStats` contention-counter regression tests for the real
//! multi-threaded runtime.

use dpgen::core::{ExecOpts, Plan};
use dpgen::polyhedra::{ConstraintSystem, Space};
use dpgen::runtime::sharded::{EdgeDelivery, ShardedScheduler};
use dpgen::runtime::{
    run_node, Delivery, DuplicateEdge, EdgeMsg, MemoryStats, NodeConfig, NodeJob, PerCell, Probe,
    RunError, SingleOwner, StaticPlan, TilePriority, TileScheduler, Transport, TransportError,
};
use dpgen::tiling::tiling::CellRef;
use dpgen::tiling::{Coord, Template, TemplateSet, TileGraph, Tiling, TilingBuilder};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

/// A random 2-D iteration space: a box with an optional diagonal cut,
/// unit positive templates (each tile depends on its +x / +y neighbours).
fn build_tiling(cut: Option<(i64, i64, i64)>, widths: (i64, i64)) -> Option<Tiling> {
    let space = Space::from_names(&["x", "y"], &["N"]).ok()?;
    let mut sys = ConstraintSystem::new(space);
    sys.add_text("0 <= x <= N").ok()?;
    sys.add_text("0 <= y <= N").ok()?;
    if let Some((a, b, c)) = cut {
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

/// A `d`-dimensional simplex `x_1 + … + x_d <= N` over the positive orthant
/// with unit positive templates: the bandit problems' shape.
fn simplex(d: usize, width: i64) -> Tiling {
    let names: Vec<String> = (0..d).map(|k| format!("x{k}")).collect();
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    let mut sys = ConstraintSystem::new(Space::from_names(&names, &["N"]).unwrap());
    for name in &names {
        sys.add_text(&format!("{name} >= 0")).unwrap();
    }
    sys.add_text(&format!("{} <= N", names.join(" + ")))
        .unwrap();
    let units = (0..d).map(|k| {
        let mut offset = vec![0i64; d];
        offset[k] = 1;
        Template::new(format!("r{k}"), &offset)
    });
    let templates = TemplateSet::new(d, units.collect()).unwrap();
    let tiling = TilingBuilder::new(sys, templates, vec![width; d]);
    tiling.build().unwrap()
}

fn path_kernel(cell: CellRef<'_>, values: &mut [i64]) {
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

/// The edges tile `tile` of `graph` sends when it finishes, each with a
/// payload of `cells` cells.
fn out_edges(graph: &TileGraph, tile: usize, cells: usize) -> Vec<Delivery<i64>> {
    let deps = 0..graph.tiling().deps().len();
    let edge = |dep| {
        Some(Delivery {
            tile: graph.consumer(tile, dep)?,
            dep,
            payload: vec![0; cells],
        })
    };
    deps.filter_map(edge).collect()
}

/// Every permutation of `0..d`.
fn permutations(d: usize) -> Vec<Vec<usize>> {
    if d == 0 {
        return vec![Vec::new()];
    }
    let mut all = Vec::new();
    for rest in permutations(d - 1) {
        for at in 0..d {
            let mut order = rest.clone();
            order.insert(at, d - 1);
            all.push(order);
        }
    }
    all
}

/// One worker, one DAG, both schedulers: the index scheduler must pop the
/// tiles in the order the `Coord`-keyed one does, and see the same peaks.
/// Edge payloads grow with the tile's index so that the cell peak tells
/// orders apart too.
fn assert_same_pops_as_the_coord_scheduler(tiling: &Tiling, params: &[i64]) {
    let graph = tiling.graph(params);
    let d = tiling.dims();
    let mut priorities = vec![TilePriority::LevelSet];
    priorities.extend(
        permutations(d)
            .into_iter()
            .map(|dim_order| TilePriority::ColumnMajor { dim_order }),
    );
    for priority in priorities {
        let new_mem = Arc::new(MemoryStats::new());
        let new: TileScheduler<'_, i64> =
            TileScheduler::new(&graph, priority.clone(), 1, new_mem.clone(), None);
        let old_mem = Arc::new(MemoryStats::new());
        let old: ShardedScheduler<i64> = ShardedScheduler::new(
            priority.clone(),
            tiling.templates().directions().to_vec(),
            1,
            old_mem.clone(),
        );
        for i in graph.initial() {
            new.mark_initial(i);
            old.mark_initial(graph.tiles()[i]);
        }
        let mut popped = 0;
        while let Some((tile, edges)) = new.pop(0) {
            let (old_tile, old_edges) = old.pop(0).expect("the Coord scheduler ran dry first");
            assert_eq!(graph.tiles()[tile], old_tile, "{priority:?}: pop {popped}");
            assert_eq!(edges.len(), old_edges.len());
            popped += 1;
            let mut batch = out_edges(&graph, tile, tile % 5);
            let mut old_batch: Vec<EdgeDelivery<i64>> = batch
                .iter()
                .map(|e| EdgeDelivery {
                    tile: graph.tiles()[e.tile],
                    delta: tiling.deps()[e.dep].delta,
                    payload: e.payload.clone(),
                    total: graph.dep_total(e.tile),
                })
                .collect();
            let old_ready = old.deliver_batch(0, &mut old_batch);
            assert_eq!(new.deliver(0, &mut batch), Ok(old_ready));
        }
        assert!(old.pop(0).is_none());
        assert_eq!(popped, graph.len(), "{priority:?}");
        assert_eq!(new_mem.peak_edges(), old_mem.peak_edges(), "{priority:?}");
        assert_eq!(
            new_mem.peak_edge_cells(),
            old_mem.peak_edge_cells(),
            "{priority:?}"
        );
        // Pending tiles are counted per batch here and per edge there: a
        // batch that starts some tiles and completes others reads highest
        // mid-batch when the starts are counted first, which the index
        // scheduler always does and the Coord one does when the edges
        // happen to come in that order.
        let (new_peak, old_peak) = (new_mem.peak_pending_tiles(), old_mem.peak_pending_tiles());
        assert!(
            (old_peak..old_peak + tiling.deps().len() as i64).contains(&new_peak),
            "{priority:?}: {new_peak} pending against {old_peak}"
        );
        assert_eq!(new_mem.current_edges(), 0);
        assert_eq!(new_mem.current_pending_tiles(), 0);
    }
}

#[test]
fn index_scheduler_pops_what_the_coord_scheduler_pops_on_the_shapes_the_repo_runs() {
    // A diagonal band.
    let space = Space::from_names(&["x", "y"], &["N"]).unwrap();
    let mut sys = ConstraintSystem::new(space);
    sys.add_text("0 <= x <= N").unwrap();
    sys.add_text("0 <= y <= N").unwrap();
    let templates = TemplateSet::new(
        2,
        vec![
            Template::new("up", &[-1, 0]),
            Template::new("left", &[0, -1]),
            Template::new("diag", &[-1, -1]),
        ],
    )
    .unwrap();
    let band = TilingBuilder::new(sys, templates, vec![3, 4]).band(0, 1, -5, 2);
    assert_same_pops_as_the_coord_scheduler(&band.build().unwrap(), &[29]);
    // Three dimensions, six column-major orders.
    assert_same_pops_as_the_coord_scheduler(&simplex(3, 2), &[9]);
    // The 2-arm bandit's 4-D simplex.
    assert_same_pops_as_the_coord_scheduler(&simplex(4, 3), &[10]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Drive the scheduler through a whole problem serially, delivering
    /// each executed tile's outgoing edges in one batch from a rotating
    /// worker index (so stealing paths are exercised too). Checks the pop
    /// count, readiness precondition, and final drain.
    #[test]
    fn every_tile_pops_exactly_once_after_all_deps(
        n in 3i64..14,
        w1 in 1i64..6,
        w2 in 1i64..6,
        workers in 1usize..5,
        a in 0i64..3,
        b in 0i64..3,
        priority in proptest::sample::select(vec![
            TilePriority::column_major(2),
            TilePriority::LevelSet,
        ]),
    ) {
        let cut = (a + b > 0).then_some((a, b, a + b + 1));
        let Some(tiling) = build_tiling(cut, (w1, w2)) else { return Ok(()) };
        let graph = tiling.graph(&[n]);
        let mem = Arc::new(MemoryStats::new());
        let sched: TileScheduler<'_, i64> =
            TileScheduler::new(&graph, priority, workers, mem.clone(), None);
        for i in graph.initial() {
            sched.mark_initial(i);
        }

        let mut popped = vec![0usize; graph.len()];
        let mut turn = 0usize;
        loop {
            // Rotate the popping worker: the tile was usually pushed by a
            // different index, so most pops are steals when workers > 1.
            let w = turn % workers;
            turn += 1;
            let Some((tile, edges)) = sched.pop(w) else { break };
            popped[tile] += 1;
            // Readiness precondition: exactly its full dependency set, one
            // edge per dependency that exists.
            prop_assert_eq!(edges.len(), graph.dep_total(tile), "tile {} popped early", tile);
            let deps: HashSet<usize> = edges.iter().map(|(dep, _)| *dep).collect();
            prop_assert_eq!(deps.len(), edges.len());
            prop_assert!(deps.iter().all(|&dep| graph.source(tile, dep).is_some()));
            // Deliver this tile's outgoing edges in one batch.
            prop_assert!(sched.deliver(w, &mut out_edges(&graph, tile, 2)).is_ok());
        }

        // Every tile exactly once.
        prop_assert!(popped.iter().all(|&count| count == 1), "pops per tile: {:?}", popped);
        // Everything drained.
        prop_assert_eq!(sched.pending_len(), 0);
        prop_assert_eq!(sched.ready_len(), 0);
        prop_assert_eq!(mem.current_edges(), 0);
        prop_assert_eq!(mem.current_pending_tiles(), 0);
        // Steal accounting stays within the pop count.
        prop_assert!(sched.steal_count() as usize <= graph.len());
    }

    /// On one worker the index scheduler is the `Coord`-keyed one it
    /// replaced: same pops, same peaks, under every priority.
    #[test]
    fn index_scheduler_pops_what_the_coord_scheduler_pops(
        n in 3i64..14,
        w1 in 1i64..6,
        w2 in 1i64..6,
        a in 0i64..3,
        b in 0i64..3,
    ) {
        let cut = (a + b > 0).then_some((a, b, a + b + 1));
        let Some(tiling) = build_tiling(cut, (w1, w2)) else { return Ok(()) };
        assert_same_pops_as_the_coord_scheduler(&tiling, &[n]);
    }

    /// The precomputed static plan is a valid parallel schedule: every
    /// owned tile has a home and a key and nothing else has a home, every
    /// producer's key is smaller than its consumer's, and the scheduler
    /// carrying the plan — `mark_initial`, `pop`, `deliver`, another rank's
    /// tiles run whenever ready — drains every owned tile exactly once, in
    /// exactly the plan's order on one worker of one rank. Only an empty
    /// owned set has no plan.
    #[test]
    fn static_plan_is_a_topological_cover(
        n in 3i64..16,
        w1 in 1i64..6,
        w2 in 1i64..6,
        workers in 1usize..5,
        a in 0i64..3,
        b in 0i64..3,
        ranks in 1i64..4,
    ) {
        let cut = (a + b > 0).then_some((a, b, a + b + 1));
        let Some(tiling) = build_tiling(cut, (w1, w2)) else { return Ok(()) };
        let graph = tiling.graph(&[n]);
        let tiles = graph.tiles();
        // Rank 0's share of a cyclic deal of the first axis.
        let owned: Vec<bool> = tiles.iter().map(|t| t[0].rem_euclid(ranks) == 0).collect();
        let owned_tiles = || (0..graph.len()).filter(|&i| owned[i]);
        prop_assert!(StaticPlan::build_on(&graph, []).is_none());
        let Some(plan) = StaticPlan::build_on(&graph, owned_tiles()) else {
            prop_assert_eq!(owned_tiles().count(), 0, "only no tiles is no plan");
            return Ok(());
        };
        let plan = Arc::new(plan);
        prop_assert_eq!(plan.len(), owned_tiles().count());
        prop_assert_eq!(plan.ordering().order.len(), graph.len());

        // A home for every owned tile and no other; a key for every tile,
        // each position of the order once.
        let key = &plan.ordering().rank;
        for (i, t) in tiles.iter().enumerate() {
            let home = plan.home(i, workers);
            prop_assert_eq!(home.is_some(), owned[i], "membership wrong for {}", t);
            prop_assert!(home.is_none_or(|h| h < workers));
            prop_assert_eq!(plan.ordering().order[key[i] as usize] as usize, i);
        }

        // The order is topological: producers first.
        let (ndeps, dag) = (tiling.deps().len(), &graph);
        let producers = |i: usize| (0..ndeps).filter_map(move |dep| dag.source(i, dep));
        for i in 0..graph.len() {
            for p in producers(i) {
                prop_assert!(key[p] < key[i], "{} keyed before its producer {}", tiles[i], tiles[p]);
            }
        }

        // The scheduler carrying the plan drains every owned tile exactly
        // once; another rank's tiles run whenever ready, and their edges to
        // this rank's are delivered as they finish.
        let sched: TileScheduler<'_, i64> = TileScheduler::new(
            &graph,
            TilePriority::LevelSet,
            workers,
            Arc::new(MemoryStats::new()),
            Some(plan.clone()),
        );
        for i in graph.initial().filter(|&i| owned[i]) {
            sched.mark_initial(i);
        }
        let mut executed = vec![false; graph.len()];
        let mut popped = Vec::new();
        let ours = |tile: usize| {
            let mut edges = out_edges(&graph, tile, 1);
            edges.retain(|e| owned[e.tile]);
            edges
        };
        loop {
            let mut progressed = false;
            for i in 0..graph.len() {
                if !owned[i] && !executed[i] && producers(i).all(|p| executed[p]) {
                    executed[i] = true;
                    progressed = true;
                    prop_assert!(sched.deliver(0, &mut ours(i)).is_ok());
                }
            }
            for w in 0..workers {
                let Some((tile, edges)) = sched.pop(w) else { continue };
                prop_assert!(owned[tile] && !executed[tile], "{} popped again", tiles[tile]);
                prop_assert_eq!(edges.len(), graph.dep_total(tile));
                executed[tile] = true;
                popped.push(tile as u32);
                progressed = true;
                prop_assert!(sched.deliver(w, &mut ours(tile)).is_ok());
            }
            if !progressed {
                break;
            }
        }
        prop_assert!(executed.iter().all(|&e| e), "the planned run did not drain");
        prop_assert_eq!(popped.len(), plan.len());
        prop_assert_eq!((sched.ready_len(), sched.pending_len()), (0, 0));
        if ranks == 1 && workers == 1 {
            prop_assert_eq!(&popped, &plan.ordering().order);
        }
    }

    /// The same invariants hold end-to-end through the real threaded
    /// runtime: work conservation and a drained scheduler, any thread
    /// count, any priority.
    #[test]
    fn threaded_runtime_conserves_work(
        n in 3i64..16,
        w in 1i64..6,
        threads in 1usize..6,
    ) {
        let Some(tiling) = build_tiling(Some((1, 1, 2)), (w, w)) else { return Ok(()) };
        let opts = ExecOpts::new()
            .threads(threads)
            .priority(TilePriority::LevelSet)
            .probe(Probe::at(&[0, 0]));
        let res = Plan::on_tiling(tiling.clone(), &[n], vec![])
            .unwrap()
            .execute::<i64, _>(&path_kernel, &opts)
            .unwrap();
        let stats = &res.per_rank[0].stats;
        prop_assert_eq!(stats.cells_computed as u128, tiling.total_cells(&[n]));
        prop_assert_eq!(stats.tiles_per_worker.len(), threads);
        let per_worker: u64 = stats.tiles_per_worker.iter().sum();
        prop_assert_eq!(per_worker, stats.tiles_executed);
        prop_assert!(stats.peak_pending_tiles >= 0);
    }
}

/// Delivers one forged edge before anything runs and swallows what it is
/// sent: stands in for a peer rank.
struct Forged(Mutex<Option<EdgeMsg<i64>>>);

impl Transport<i64> for Forged {
    fn send(&self, _: usize, _: EdgeMsg<i64>) -> Result<(), TransportError> {
        Ok(())
    }
    fn try_recv(&self) -> Option<EdgeMsg<i64>> {
        self.0.lock().unwrap().take()
    }
}

/// A second edge for one `(tile, dependency)` used to be a `debug_assert!`:
/// in release the tile went ready one edge short and computed on a default
/// ghost strip. It is refused by the scheduler and a typed `BadEdge` from
/// the run, in every build.
#[test]
fn duplicate_edge_delivery_is_a_typed_fault() {
    let tiling = build_tiling(None, (3, 3)).unwrap();
    let graph = tiling.graph(&[8]);
    // Tile (1, 1) reads (2, 1) and (1, 2).
    let tile = graph.index_of(&Coord::from_slice(&[1, 1])).unwrap();
    let sched: TileScheduler<'_, i64> = TileScheduler::new(
        &graph,
        TilePriority::LevelSet,
        2,
        Arc::new(MemoryStats::new()),
        None,
    );
    let edge = |payload: Vec<i64>| {
        vec![Delivery {
            tile,
            dep: 0,
            payload,
        }]
    };
    assert_eq!(sched.deliver(0, &mut edge(vec![1])), Ok(0));
    // Same (tile, dependency) again, from another worker.
    assert_eq!(
        sched.deliver(1, &mut edge(vec![2])),
        Err(DuplicateEdge { tile, dep: 0 })
    );
    assert_eq!(sched.pending_len(), 1);

    // The same through a run: rank 0 owns every tile, and a peer that does
    // not exist sends (1, 1) the edge (2, 1) is going to send it.
    let forged = EdgeMsg {
        tile: Coord::from_slice(&[1, 1]),
        delta: tiling.deps()[0].delta,
        payload: vec![7; 3],
    };
    let err = run_node(
        &NodeJob {
            graph: &graph,
            owner: &SingleOwner,
            transport: &Forged(Mutex::new(Some(forged))),
            probe: &Probe::default(),
            config: &NodeConfig::new(1, 2),
            reduce: None,
            recovery: None,
        },
        &PerCell(&path_kernel),
    )
    .unwrap_err();
    match &err {
        RunError::BadEdge(fault) => {
            assert_eq!(fault.tile, Coord::from_slice(&[1, 1]));
            assert_eq!(fault.delta, tiling.deps()[0].delta);
            assert!(fault.detail.contains("duplicate edge"), "{err}");
        }
        other => panic!("expected BadEdge, got {other}"),
    }
}

/// Regression: the contention counters in `RunStats` are populated and
/// self-consistent for real runs.
#[test]
fn run_stats_contention_counters_populated() {
    let tiling = build_tiling(None, (2, 2)).unwrap();
    let n = 30i64;

    // Single worker: a full histogram, but no stealing possible.
    let opts = ExecOpts::new()
        .threads(1)
        .priority(TilePriority::column_major(2))
        .probe(Probe::at(&[0, 0]));
    let serial = Plan::on_tiling(tiling.clone(), &[n], vec![])
        .unwrap()
        .execute::<i64, _>(&path_kernel, &opts)
        .unwrap();
    let serial_stats = &serial.per_rank[0].stats;
    assert!(serial_stats.tiles_executed > 0);
    assert_eq!(serial_stats.steal_count, 0);
    assert_eq!(serial_stats.steal_fail_count, 0);
    assert_eq!(
        serial_stats.tiles_per_worker,
        vec![serial_stats.tiles_executed]
    );

    // Four workers: histogram sums to the tile count, steal counters are
    // bounded by it, and summed wait times fit inside workers x wall time.
    let opts = ExecOpts::new()
        .threads(4)
        .priority(TilePriority::column_major(2))
        .probe(Probe::at(&[0, 0]));
    let par = Plan::on_tiling(tiling.clone(), &[n], vec![])
        .unwrap()
        .execute::<i64, _>(&path_kernel, &opts)
        .unwrap();
    let par_stats = &par.per_rank[0].stats;
    assert_eq!(par_stats.threads, 4);
    assert_eq!(par_stats.tiles_per_worker.len(), 4);
    assert_eq!(
        par_stats.tiles_per_worker.iter().sum::<u64>(),
        par_stats.tiles_executed
    );
    assert_eq!(par_stats.tiles_executed, serial_stats.tiles_executed);
    assert!(par_stats.steal_count <= par_stats.tiles_executed);
    assert!(par_stats.idle_time <= par_stats.total_time * 4);
    assert!(par_stats.lock_wait_time <= par_stats.total_time * 4);
    assert!(par_stats.worker_imbalance() >= 1.0);
    // Results identical regardless of worker count.
    assert_eq!(par.probes, serial.probes);
}

/// Regression for the ready-length mirror racing its heap: producers
/// deliver, consumers pop and steal, and an observer keeps reading
/// `ready_len()` the way an idle worker and the stall snapshot do. The
/// counter may lag, but it can never exceed the number of deliveries
/// started — a wrapped counter reads as ~`usize::MAX` in release builds and
/// overflows the sum in debug builds.
#[test]
fn ready_len_never_exceeds_deliveries_under_contention() {
    use std::sync::atomic::{AtomicU64, Ordering};
    const QUEUES: usize = 4;
    const PER_PRODUCER: i64 = 50_000;
    const ROUNDS: u64 = 5;
    const TOTAL: u64 = QUEUES as u64 * PER_PRODUCER as u64;
    // QUEUES rows of tiles, each waiting for the one before it in its row:
    // one edge makes a tile ready.
    let space = Space::from_names(&["x", "y"], &[]).unwrap();
    let mut sys = ConstraintSystem::new(space);
    sys.add_text(&format!("0 <= x <= {}", QUEUES - 1)).unwrap();
    sys.add_text(&format!("0 <= y <= {PER_PRODUCER}")).unwrap();
    let templates = TemplateSet::new(2, vec![Template::new("prev", &[0, -1])]).unwrap();
    let tiling = TilingBuilder::new(sys, templates, vec![1, 1]);
    let graph = tiling.build().unwrap().graph(&[]);
    // A million deliveries in all, a fresh scheduler every fifth of them.
    for _ in 0..ROUNDS {
        let sched: TileScheduler<'_, i64> =
            TileScheduler::new(&graph, TilePriority::LevelSet, QUEUES, Arc::default(), None);
        let (delivered, popped, worst) = (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
        let (s, graph, delivered, popped, worst) = (&sched, &graph, &delivered, &popped, &worst);
        std::thread::scope(|scope| {
            for w in 0..QUEUES {
                scope.spawn(move || {
                    let mut batch = Vec::with_capacity(1);
                    for i in 1..=PER_PRODUCER {
                        // Counted before the edge lands, so the observer's
                        // bound holds at every instant.
                        delivered.fetch_add(1, Ordering::SeqCst);
                        let tile = graph.index_of(&Coord::from_slice(&[w as i64, i]));
                        batch.push(Delivery {
                            tile: tile.unwrap(),
                            dep: 0,
                            payload: vec![i],
                        });
                        assert_eq!(s.deliver(w, &mut batch), Ok(1));
                    }
                });
                scope.spawn(move || {
                    while popped.load(Ordering::SeqCst) < TOTAL {
                        match s.pop(w) {
                            Some(_) => {
                                popped.fetch_add(1, Ordering::SeqCst);
                            }
                            None => std::thread::yield_now(),
                        }
                    }
                });
            }
            scope.spawn(move || {
                while popped.load(Ordering::SeqCst) < TOTAL {
                    let ready = s.ready_len() as u64;
                    if ready > delivered.load(Ordering::SeqCst) {
                        worst.fetch_max(ready, Ordering::SeqCst);
                    }
                }
            });
        });
        assert_eq!(
            worst.load(Ordering::SeqCst),
            0,
            "ready_len() reported more ready tiles than were ever delivered"
        );
        assert_eq!(sched.ready_len(), 0);
        assert_eq!(sched.pending_len(), 0);
    }
}
