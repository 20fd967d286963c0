//! Invariants of the sharded work-stealing scheduler, checked over random
//! polytopes and tile widths by driving [`ShardedScheduler`] directly as
//! the data structure of a serial executor:
//!
//! * every tile pops exactly once,
//! * a tile never pops before all of its dependency edges were delivered,
//! * the pending table and all ready queues drain to empty,
//! * the duplicate-edge panic fires (debug builds),
//!
//! plus the `RunStats` contention-counter regression tests for the real
//! multi-threaded runtime.

use dpgen::core::{ExecOpts, Plan};
use dpgen::polyhedra::{ConstraintSystem, Space};
use dpgen::runtime::sharded::{EdgeDelivery, ShardedScheduler};
use dpgen::runtime::{MemoryStats, Probe, Schedule, StaticPlan, TilePriority};
use dpgen::tiling::tiling::CellRef;
use dpgen::tiling::{Coord, Template, TemplateSet, Tiling, TilingBuilder};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

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
            TilePriority::Fifo,
        ]),
    ) {
        let cut = (a + b > 0).then_some((a, b, a + b + 1));
        let Some(tiling) = build_tiling(cut, (w1, w2)) else { return Ok(()) };
        let mut point = tiling.make_point(&[n]);
        let mut tiles: Vec<Coord> = Vec::new();
        tiling.for_each_tile(&mut point, |t| tiles.push(t));
        let dep_totals: HashMap<Coord, usize> = tiles
            .iter()
            .map(|t| (*t, tiling.dep_total(t, &mut point)))
            .collect();

        let mem = Arc::new(MemoryStats::new());
        let sched: ShardedScheduler<i64> = ShardedScheduler::new(
            priority,
            tiling.templates().directions().to_vec(),
            workers,
            mem.clone(),
        );
        for (t, &total) in &dep_totals {
            if total == 0 {
                sched.mark_initial(*t);
            }
        }

        let mut popped: HashMap<Coord, usize> = HashMap::new();
        let mut turn = 0usize;
        loop {
            // Rotate the popping worker: the tile was usually pushed by a
            // different index, so most pops are steals when workers > 1.
            let w = turn % workers;
            turn += 1;
            let Some((tile, edges)) = sched.pop(w) else { break };
            *popped.entry(tile).or_insert(0) += 1;
            // Readiness precondition: exactly its full dependency set.
            prop_assert_eq!(edges.len(), dep_totals[&tile], "tile {} popped early", tile);
            // Deliver this tile's outgoing edges in one batch.
            let mut batch: Vec<EdgeDelivery<i64>> = Vec::new();
            for dep in tiling.deps() {
                let consumer = tile.sub(&dep.delta);
                if !tiling.tile_in_space(&consumer, &mut point) {
                    continue;
                }
                batch.push(EdgeDelivery {
                    tile: consumer,
                    delta: dep.delta,
                    payload: vec![0i64; 2],
                    total: dep_totals[&consumer],
                });
            }
            sched.deliver_batch(w, &mut batch);
        }

        // Every tile exactly once.
        prop_assert_eq!(popped.len(), tiles.len());
        for (t, count) in &popped {
            prop_assert_eq!(*count, 1, "tile {} popped {} times", t, count);
        }
        // Everything drained.
        prop_assert_eq!(sched.pending_len(), 0);
        prop_assert_eq!(sched.ready_len(), 0);
        prop_assert_eq!(mem.current_edges(), 0);
        prop_assert_eq!(mem.current_pending_tiles(), 0);
        // Steal accounting stays within the pop count.
        prop_assert!(sched.steal_count() as usize <= tiles.len());
    }

    /// The precomputed static plan is a valid parallel schedule: every
    /// member tile is dealt exactly once, each worker's sequence respects
    /// the tile DAG (same-worker producers appear earlier), and executing
    /// the plan — each cursor strictly front-to-back, dynamic boundary
    /// tiles whenever ready — drains the whole tile set without deadlock.
    /// `Static` covers exactly the tile set a dynamic run would execute,
    /// while `Mixed` pins exactly the full-interior tiles.
    #[test]
    fn static_plan_is_a_topological_cover(
        n in 3i64..16,
        w1 in 1i64..6,
        w2 in 1i64..6,
        workers in 1usize..5,
        a in 0i64..3,
        b in 0i64..3,
        mode in proptest::sample::select(vec![Schedule::Static, Schedule::Mixed]),
    ) {
        let cut = (a + b > 0).then_some((a, b, a + b + 1));
        let Some(tiling) = build_tiling(cut, (w1, w2)) else { return Ok(()) };
        let mut point = tiling.make_point(&[n]);
        let mut tiles: Vec<Coord> = Vec::new();
        tiling.for_each_tile(&mut point, |t| tiles.push(t));
        let Some(plan) = StaticPlan::build(&tiling, &mut point, &tiles, workers, mode) else {
            // Only Mixed may decline, and only when nothing is interior.
            prop_assert_eq!(mode, Schedule::Mixed);
            let full: u128 = (w1 * w2) as u128;
            for t in &tiles {
                prop_assert!(tiling.tile_cell_count(t, &mut point) < full);
            }
            return Ok(());
        };
        prop_assert_eq!(plan.mode(), mode);
        prop_assert_eq!(plan.sequences().len(), workers);

        // Every member exactly once across the sequences, and membership
        // matches the mode.
        let mut position: HashMap<Coord, (usize, usize)> = HashMap::new();
        for (w, seq) in plan.sequences().iter().enumerate() {
            for (pos, t) in seq.iter().enumerate() {
                prop_assert!(position.insert(*t, (w, pos)).is_none(), "tile {} dealt twice", t);
                prop_assert!(plan.is_member(t));
            }
        }
        prop_assert_eq!(position.len(), plan.len());
        let tile_set: HashSet<Coord> = tiles.iter().copied().collect();
        let full: u128 = (w1 * w2) as u128;
        for t in &tiles {
            match mode {
                Schedule::Static => prop_assert!(position.contains_key(t)),
                Schedule::Mixed => prop_assert_eq!(
                    position.contains_key(t),
                    tiling.tile_cell_count(t, &mut point) == full,
                    "mixed membership wrong for {}", t
                ),
                Schedule::Dynamic => unreachable!(),
            }
        }

        // Per-worker topological order: a producer dealt to the same
        // worker must appear earlier in that worker's sequence
        // (producer = tile + delta here).
        for (t, &(w, pos)) in &position {
            for dep in tiling.deps() {
                let producer = t.add(&dep.delta);
                if let Some(&(pw, ppos)) = position.get(&producer) {
                    if pw == w {
                        prop_assert!(
                            ppos < pos,
                            "worker {} runs {} before its producer {}", w, t, producer
                        );
                    }
                }
            }
        }

        // Deadlock freedom, checked by direct execution: each cursor moves
        // strictly front-to-back and only when every producer is executed;
        // dynamic (non-member) tiles run whenever ready. The schedule is
        // live iff this drains every tile in the space.
        let mut executed: HashSet<Coord> = HashSet::new();
        let mut cursors = vec![0usize; workers];
        loop {
            let mut progressed = false;
            let ready = |t: &Coord, executed: &HashSet<Coord>| {
                tiling.deps().iter().all(|dep| {
                    let producer = t.add(&dep.delta);
                    !tile_set.contains(&producer) || executed.contains(&producer)
                })
            };
            for t in &tiles {
                if !plan.is_member(t) && !executed.contains(t) && ready(t, &executed) {
                    executed.insert(*t);
                    progressed = true;
                }
            }
            for (w, cursor) in cursors.iter_mut().enumerate() {
                while let Some(t) = plan.sequence(w).get(*cursor) {
                    if !ready(t, &executed) {
                        break;
                    }
                    executed.insert(*t);
                    *cursor += 1;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        prop_assert_eq!(
            executed.len(),
            tiles.len(),
            "static schedule deadlocked with {} of {} tiles executed",
            executed.len(),
            tiles.len()
        );
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

#[test]
#[cfg(debug_assertions)]
fn duplicate_edge_delivery_panics() {
    let sched: ShardedScheduler<i64> = ShardedScheduler::new(
        TilePriority::Fifo,
        vec![
            dpgen::tiling::Direction::Ascending,
            dpgen::tiling::Direction::Ascending,
        ],
        2,
        Arc::new(MemoryStats::new()),
    );
    let tile = Coord::from_slice(&[1, 1]);
    let delta = Coord::from_slice(&[-1, 0]);
    let edge = |payload: Vec<i64>| EdgeDelivery {
        tile,
        delta,
        payload,
        total: 2,
    };
    sched.deliver_batch(0, &mut vec![edge(vec![1])]);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // Same (tile, delta) again — must trip the duplicate-edge check.
        sched.deliver_batch(1, &mut vec![edge(vec![2])]);
    }))
    .expect_err("duplicate edge must panic");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(msg.contains("duplicate edge"), "unexpected panic: {msg}");
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
    const PER_PRODUCER: i64 = 250_000;
    const TOTAL: u64 = QUEUES as u64 * PER_PRODUCER as u64;
    let sched: ShardedScheduler<i64> = ShardedScheduler::new(
        TilePriority::Fifo,
        vec![
            dpgen::tiling::Direction::Ascending,
            dpgen::tiling::Direction::Ascending,
        ],
        QUEUES,
        Arc::new(MemoryStats::new()),
    );
    let (delivered, popped, worst) = (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
    let (s, delivered, popped, worst) = (&sched, &delivered, &popped, &worst);
    std::thread::scope(|scope| {
        for w in 0..QUEUES {
            scope.spawn(move || {
                let mut batch = Vec::with_capacity(1);
                for i in 0..PER_PRODUCER {
                    // Counted before the edge lands, so the observer's
                    // bound holds at every instant.
                    delivered.fetch_add(1, Ordering::SeqCst);
                    let tile = Coord::from_slice(&[w as i64, i]);
                    batch.push(EdgeDelivery {
                        tile,
                        delta: Coord::from_slice(&[0, -1]),
                        payload: vec![i],
                        total: 1,
                    });
                    s.deliver_batch(w, &mut batch);
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
