//! The tiled "OpenMP + MPI" driver.
//!
//! Mirrors the structure of the generated program's `main` (Section V-A):
//! initialise the communication world, run the load balancer, then start one
//! process per node — here, one thread per simulated rank, the first of
//! them the caller's own — each of which runs the shared-memory node
//! runtime with its own worker pool and exchanges edges through
//! `dpgen-mpisim`. One rank is the same program with no world to
//! initialise and nothing to balance: the paper's shared-memory numbers
//! (Figure 6) are its hybrid program on one node.
//!
//! Multi-rank failure handling: every rank shares one cancellation flag, so
//! the first rank to fail (kernel panic, stall, transport error) tears the
//! others down promptly; the engine then reports the most diagnostic error
//! (by [`RunError::severity`]) rather than a sympathetic `Cancelled`.
//!
//! The public entry point is [`crate::Plan::execute`] (and its batched,
//! reducing and logging siblings), which checks the options and calls
//! `hybrid_run`; nothing else does.

use crate::loadbalance::LoadBalance;
use crate::plan::{ExecOpts, Plan};
use crate::run::RunOutput;
use crate::traceback::EdgeLog;
use dpgen_mpisim::{CommStats, CommWorld, Wire};
use dpgen_runtime::{
    run_node, CheckpointData, CheckpointSink, CompileFault, CompileStage, EventKind,
    MetricsRegistry, NodeConfig, NodeJob, NodeRecovery, NodeResult, NullTransport, RankTrace,
    Reduction, ResumeState, RunError, RunKernel, RunStats, SingleOwner, TileOwner, TileSet,
    Timeline, Tracer, Transport, Value,
};
use dpgen_tiling::Coord;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tunables of elastic rank recovery (see [`ExecOpts::recovery`]).
#[derive(Debug, Clone, Copy)]
pub struct RecoveryConfig {
    /// How often idle links emit heartbeat frames (injected into
    /// `ReliabilityConfig::heartbeat_interval` for the run).
    pub heartbeat_interval: Duration,
    /// Silence window after which a peer is declared dead. Keep it
    /// comfortably above `heartbeat_interval` and well below the stall
    /// watchdog window, so death surfaces as the sharper `PeerDead`
    /// rather than a generic `Stalled`.
    pub death_timeout: Duration,
    /// How many rank deaths the coordinator absorbs before giving up
    /// and surfacing the `PeerDead` error to the caller.
    pub max_recoveries: usize,
}

impl Default for RecoveryConfig {
    fn default() -> RecoveryConfig {
        RecoveryConfig {
            heartbeat_interval: Duration::from_millis(5),
            death_timeout: Duration::from_millis(250),
            max_recoveries: 1,
        }
    }
}

/// What the recovery coordinator did during a tiled run. All zeros for
/// an undisturbed run (and for runs with recovery disabled, except
/// `epochs`, which counts execution rounds and is always at least 1).
#[derive(Debug, Clone, Default)]
pub struct RecoveryStats {
    /// Ranks declared dead and retired from the world.
    pub ranks_lost: usize,
    /// Slabs reassigned to a surviving rank (one per lost rank).
    pub slabs_migrated: usize,
    /// Total wall time spent in the coordinator between a failed epoch's
    /// join and the resumed epoch's spawn (checkpoint extraction,
    /// ownership patching, replay routing, world rebuild).
    pub recovery_latency: Duration,
    /// Aggregate bytes retained in the per-rank slab checkpoints at the
    /// end of the run (0 when the run neither recovers nor logs).
    pub checkpoint_bytes: u64,
    /// Tiles skipped on resume because a checkpoint already held their
    /// results (summed over ranks and epochs).
    pub tiles_resumed: u64,
    /// Execution epochs: 1 for an undisturbed run, +1 per recovery.
    pub epochs: usize,
}

/// The tiled engine behind [`crate::Plan::execute`]: `opts.ranks` ranks
/// of `opts.threads` workers on the plan's memoized artifacts. Any rank's
/// failure cancels the others, and the most diagnostic error across ranks
/// is returned. `opts` must already have passed the plan's validation. A
/// `logged` run keeps the checkpoints' retained edges — every edge of the
/// forward pass — and returns them as the [`EdgeLog`]; any other run
/// returns an empty one.
pub(crate) fn hybrid_run<T, RK>(
    plan: &Plan,
    opts: &ExecOpts,
    kernel: &RK,
    reduce: Option<&Reduction<T>>,
    logged: bool,
) -> Result<(RunOutput<T>, EdgeLog<T>), RunError>
where
    T: Value + Wire,
    RK: RunKernel<T>,
{
    let t_start = Instant::now();
    let probe = &opts.probe;
    let artifacts = plan.artifacts(opts)?;
    let graph = &*artifacts.graph;
    let balance = artifacts.partition.as_deref();
    // The owners are an array over the graph's tile index: a partition of
    // another graph would hand every rank somebody else's tiles.
    if let Some(b) = balance {
        let (theirs, ours) = (b.graph(), graph);
        if theirs.len() != ours.len() || theirs.params() != ours.params() {
            return Err(CompileFault::new(
                CompileStage::Options,
                format!("the load balance was computed on {theirs:?}, the plan runs on {ours:?}"),
            )
            .into());
        }
    }
    let priority = &artifacts.priority;

    // Every rank's tracer shares one epoch so timestamps land on one
    // global clock and the timeline lines up across ranks (and,
    // under recovery, across execution epochs).
    let epoch = Instant::now();
    let tracers: Vec<Option<Arc<Tracer>>> = (0..opts.ranks)
        .map(|rank| Tracer::create(rank, opts.threads, opts.trace, epoch))
        .collect();

    // Recovery wiring: heartbeats ride the comm links so survivors detect
    // a dead peer in bounded time, and each rank streams its completed
    // tiles into an incremental slab checkpoint. One rank has no peer to
    // lose, so there it stays off. A logged run keeps the checkpoints too,
    // for the edges in them, whether or not it recovers.
    let recovery = opts.recovery.filter(|_| opts.ranks > 1);
    let mut comm_config = opts.comm;
    if let Some(rc) = &recovery {
        comm_config.reliability.heartbeat_interval = Some(rc.heartbeat_interval);
        comm_config.reliability.death_timeout = rc.death_timeout;
    }
    let recovery_on = recovery.is_some();
    let max_recoveries = recovery.map_or(0, |rc| rc.max_recoveries);
    let combine = reduce.map(|r| r.combine_fn());
    let retain = recovery_on || logged;
    let mut sinks: Vec<Arc<CheckpointSink<T>>> = if retain {
        (0..opts.ranks)
            .map(|_| Arc::new(CheckpointSink::new(combine.clone())))
            .collect()
    } else {
        Vec::new()
    };
    let mut resume: Vec<Option<ResumeState<T>>> = (0..opts.ranks).map(|_| None).collect();
    // `map[orig]` = the rank currently executing the slab the balancer
    // assigned to `orig`; identity until a rank dies.
    let mut map: Vec<usize> = (0..opts.ranks).collect();
    let mut retired: Vec<usize> = Vec::new();
    let mut rec_stats = RecoveryStats::default();

    let (per_rank, comm_stats) = loop {
        // A job cancelled between epochs never starts the next one; a job
        // cancelled mid-epoch is caught by the per-rank worker polls below.
        if let Some(c) = &opts.cancel {
            if c.load(std::sync::atomic::Ordering::Acquire) {
                return Err(RunError::Cancelled { rank: 0 });
            }
        }
        rec_stats.epochs += 1;
        // One rank owns every tile and has nobody to talk to: no world, no
        // partition, and (below) no thread besides the caller's.
        let single = NullTransport::default();
        let mut world = match balance {
            Some(_) => CommWorld::create_elastic::<T>(opts.ranks, comm_config, &retired),
            None => Vec::new(),
        };
        for (comm, tracer) in world.iter_mut().zip(&tracers) {
            if let Some(t) = tracer {
                comm.attach_tracer(t.clone());
            }
        }
        let comm_stats: Vec<Arc<CommStats>> = world.iter().map(|r| r.stats()).collect();
        let reassigned = balance.map(|base| ReassignedOwner {
            base,
            map: map.clone(),
        });
        let owner: &dyn TileOwner = match &reassigned {
            Some(o) => o,
            None => &SingleOwner,
        };
        let mut seats: Vec<(usize, &dyn Transport<T>)> = world
            .iter()
            .filter(|comm| !retired.contains(&comm.rank()))
            .map(|comm| (comm.rank(), comm as &dyn Transport<T>))
            .collect();
        if balance.is_none() {
            seats.push((0, &single));
        }
        // One flag for the whole world: the first failing rank raises it
        // and every other rank bails out instead of waiting on silent
        // peers.
        let cancel = Arc::new(AtomicBool::new(false));

        let mut per_rank: Vec<Option<Result<NodeResult<T>, RunError>>> =
            (0..opts.ranks).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            // The calling thread runs the first live rank itself, once the
            // others are started: one thread fewer to place, wake and join
            // per execution, and none at all before that rank's first tile.
            let mut inline = None;
            for (rank, transport) in seats {
                let recovery = retain.then(|| NodeRecovery {
                    sink: sinks[rank].clone(),
                    resume: resume[rank].take(),
                });
                let node_config = NodeConfig {
                    threads: opts.threads,
                    priority: priority.clone(),
                    schedule: opts.schedule,
                    rank,
                    stall_timeout: opts.stall_timeout,
                    cancel: Some(cancel.clone()),
                    job_cancel: opts.cancel.clone(),
                    tracer: tracers[rank].clone(),
                };
                let run_rank = move || {
                    run_node(
                        &NodeJob {
                            graph,
                            owner,
                            transport,
                            probe,
                            config: &node_config,
                            reduce,
                            recovery: recovery.as_ref(),
                        },
                        kernel,
                    )
                };
                if inline.is_none() {
                    inline = Some((rank, run_rank));
                } else {
                    handles.push((rank, scope.spawn(run_rank)));
                }
            }
            if let Some((rank, run_rank)) = inline {
                per_rank[rank] = Some(run_rank());
            }
            for (rank, h) in handles {
                per_rank[rank] = Some(h.join().expect("rank thread panicked"));
            }
        });

        // Surface the most diagnostic failure: a root cause (kernel panic,
        // bad edge) beats a death report beats a symptom (stall, transport)
        // beats a sympathetic cancellation.
        let mut worst: Option<RunError> = None;
        let mut dead_rank: Option<usize> = None;
        for r in per_rank.iter().flatten() {
            if let Err(e) = r {
                if let RunError::PeerDead { rank, .. } = e {
                    dead_rank.get_or_insert(*rank);
                }
                if worst
                    .as_ref()
                    .map(|w| e.severity() > w.severity())
                    .unwrap_or(true)
                {
                    worst = Some(e.clone());
                }
            }
        }
        match worst {
            None => {
                let per_rank: Vec<NodeResult<T>> = per_rank
                    .into_iter()
                    .map(|r| match r {
                        Some(r) => r.unwrap(),
                        // Retired ranks ran nothing this epoch; they hold a
                        // seat in the per-rank vector so rank indices stay
                        // stable for metrics and reporting.
                        None => NodeResult {
                            probes: vec![None; probe.len()],
                            reduction: None,
                            stats: RunStats::default(),
                        },
                    })
                    .collect();
                break (per_rank, comm_stats);
            }
            Some(e) => {
                // A kernel panic or a corrupt edge is a root cause that
                // re-execution would only repeat; everything below that
                // severity is recoverable when a death report names the
                // slab to migrate.
                let fatal = matches!(e, RunError::KernelPanic { .. } | RunError::BadEdge { .. });
                let budget_left = rec_stats.ranks_lost < max_recoveries;
                match dead_rank {
                    Some(dead) if recovery_on && budget_left && !fatal => {
                        let balance = balance.expect("a peer died, so there is a partition");
                        let t_recover = Instant::now();
                        recover(
                            dead,
                            balance,
                            &combine,
                            &mut sinks,
                            &mut resume,
                            &mut map,
                            &mut retired,
                            &tracers,
                        );
                        rec_stats.ranks_lost += 1;
                        rec_stats.slabs_migrated += 1;
                        rec_stats.recovery_latency += t_recover.elapsed();
                    }
                    _ => return Err(e),
                }
            }
        }
    };

    // Merge probes: each coordinate is resolved by exactly one rank.
    let mut probes = vec![None; probe.len()];
    for r in &per_rank {
        for (i, v) in r.probes.iter().enumerate() {
            if v.is_some() {
                debug_assert!(probes[i].is_none(), "probe resolved by two ranks");
                probes[i] = *v;
            }
        }
    }

    // All rank threads have joined, so every ring is quiescent: drain them
    // into the cross-rank timeline on the graph the run executed.
    let traces: Vec<RankTrace> = tracers.iter().flatten().map(|t| t.drain()).collect();
    let timeline = (!traces.is_empty()).then(|| Timeline::build(artifacts.graph.clone(), traces));

    // With checkpoints the node engine routes per-tile reduction
    // contributions into the sinks instead of merging them mid-run (a
    // failed epoch must not leave half its tiles in the global
    // accumulator); fold the surviving per-rank partials in now. Every
    // tile is complete in exactly one live rank's sink (a dead rank's
    // re-ran on its adoptee), so the sinks' edges are the run's edge log.
    let mut log = EdgeLog::new(if logged { graph.len() } else { 0 });
    for sink in &sinks {
        let data = sink.take();
        if let (Some(r), Some(a)) = (reduce, data.acc) {
            r.merge(a);
        }
        rec_stats.checkpoint_bytes += data.bytes;
        if logged {
            log.extend(data.edges);
        }
    }
    rec_stats.tiles_resumed = per_rank.iter().map(|r| r.stats.tiles_resumed).sum();

    let mut metrics = MetricsRegistry::new();
    for (rank, r) in per_rank.iter().enumerate() {
        metrics.record_run_stats(&format!("rank{rank}."), &r.stats);
    }
    for (rank, s) in comm_stats.iter().enumerate() {
        s.register_metrics(&mut metrics, &format!("rank{rank}.comm."));
    }
    if let Some(tl) = &timeline {
        tl.register_metrics(&mut metrics);
    }
    if recovery_on {
        metrics.add_counter("recovery.ranks_lost", rec_stats.ranks_lost as u64);
        metrics.add_counter("recovery.slabs_migrated", rec_stats.slabs_migrated as u64);
        metrics.add_counter("recovery.checkpoint_bytes", rec_stats.checkpoint_bytes);
        metrics.add_counter("recovery.tiles_resumed", rec_stats.tiles_resumed);
        metrics.add_counter("recovery.epochs", rec_stats.epochs as u64);
        metrics.set_gauge(
            "recovery.latency_ms",
            rec_stats.recovery_latency.as_secs_f64() * 1e3,
        );
    }
    let out = RunOutput {
        probes,
        reduction: reduce.map(|r| r.finish()),
        per_rank,
        comm_stats,
        balance: balance.cloned(),
        timeline,
        metrics,
        total_time: t_start.elapsed(),
        balance_time: artifacts.balance_time,
        recovery: rec_stats,
    };
    Ok((out, log))
}

/// The patched tile ownership of a recovered world: the balancer's
/// assignment composed with the orig-rank → current-rank migration map.
struct ReassignedOwner<'a> {
    base: &'a LoadBalance,
    map: Vec<usize>,
}

impl TileOwner for ReassignedOwner<'_> {
    fn owner_at(&self, idx: usize, tile: &Coord) -> usize {
        self.map[self.base.owner_at(idx, tile)]
    }
}

/// One recovery round: retire the dead rank, migrate its slab to the
/// lowest-loaded survivor, and rebuild every survivor's resume state from
/// the checkpoints. Called between epochs with all rank threads joined.
#[allow(clippy::too_many_arguments)]
fn recover<T: Value>(
    dead: usize,
    balance: &LoadBalance,
    combine: &Option<Arc<dyn Fn(T, T) -> T + Send + Sync>>,
    sinks: &mut [Arc<CheckpointSink<T>>],
    resume: &mut [Option<ResumeState<T>>],
    map: &mut [usize],
    retired: &mut Vec<usize>,
    tracers: &[Option<Arc<Tracer>>],
) {
    let ranks = map.len();
    // Extract every rank's checkpoint; the dead rank's retained state is
    // untrustworthy (its results may never have left the node) and is
    // discarded wholesale — its tiles simply re-execute.
    let mut datas: Vec<CheckpointData<T>> = sinks.iter().map(|s| s.take()).collect();
    datas[dead] = CheckpointData::default();
    retired.push(dead);

    // Adoptee: the survivor with the least assigned work under the load
    // model (balancer weights of every original slab it currently runs),
    // ties broken by lowest rank id — deterministic, so every observer
    // of the same death agrees without communication.
    let mut load = vec![0u128; ranks];
    for orig in 0..ranks {
        load[map[orig]] += balance.rank_work[orig];
    }
    let adoptee = (0..ranks)
        .filter(|r| !retired.contains(r))
        .min_by_key(|&r| (load[r], r))
        .expect("a rank reported the death, so at least one survivor exists");
    for m in map.iter_mut() {
        if *m == dead {
            *m = adoptee;
        }
    }

    if let Some(t) = &tracers[adoptee] {
        let track = t.comm_track();
        t.record(track, EventKind::PeerDeath, None, dead as u64);
        t.record(track, EventKind::RecoveryStart, None, dead as u64);
        t.record(track, EventKind::SlabMigrated, None, adoptee as u64);
    }

    // The union of all surviving completed sets: tiles that will not
    // re-execute. Retained edges into them are already consumed; retained
    // edges into anything else replay into the new owner's scheduler.
    let mut union = TileSet::default();
    for d in &datas {
        union.union_with(&d.completed);
    }
    let tiles = balance.graph().tiles();
    let mut states: Vec<ResumeState<T>> = (0..ranks).map(|_| ResumeState::default()).collect();
    for (r, d) in datas.iter().enumerate() {
        states[r].completed = d.completed.clone();
        states[r].probes = d.probes.clone();
        for e in &d.edges {
            if union.contains(e.tile) {
                continue;
            }
            let owner = map[balance.owner_at(e.tile, &tiles[e.tile])];
            states[owner].replay.push(e.clone());
        }
    }
    for (r, st) in states.into_iter().enumerate() {
        resume[r] = Some(st);
    }

    // Next epoch's sinks continue each survivor's history (a second
    // failure must still find the full record); the corpse gets a fresh
    // empty sink to keep rank indexing simple.
    for r in 0..ranks {
        sinks[r] = Arc::new(if retired.contains(&r) {
            CheckpointSink::new(combine.clone())
        } else {
            CheckpointSink::seeded(combine.clone(), datas[r].clone())
        });
    }

    if let Some(t) = &tracers[adoptee] {
        t.record(t.comm_track(), EventKind::RecoveryDone, None, dead as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadbalance::BalanceMethod;
    use dpgen_mpisim::CommConfig;
    use dpgen_polyhedra::{ConstraintSystem, Space};
    use dpgen_runtime::{Kernel, PerCell, Probe};
    use dpgen_tiling::tiling::CellRef;
    use dpgen_tiling::{Template, TemplateSet, Tiling, TilingBuilder};

    fn triangle(w: i64) -> Tiling {
        let space = Space::from_names(&["x", "y"], &["N"]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        sys.add_text("x >= 0").unwrap();
        sys.add_text("y >= 0").unwrap();
        sys.add_text("x + y <= N").unwrap();
        let templates = TemplateSet::new(
            2,
            vec![Template::new("r1", &[1, 0]), Template::new("r2", &[0, 1])],
        )
        .unwrap();
        TilingBuilder::new(sys, templates, vec![w, w])
            .build()
            .unwrap()
    }

    fn path_kernel(cell: CellRef<'_>, values: &mut [f64]) {
        let a = if cell.valid[0] {
            values[cell.loc_r(0)]
        } else {
            1.0
        };
        let b = if cell.valid[1] {
            values[cell.loc_r(1)]
        } else {
            1.0
        };
        values[cell.loc] = a + b;
    }

    fn expected(n: i64) -> f64 {
        // Reference via the dense executor.
        let tiling = triangle(1_000_000); // single giant tile
        let r = dpgen_runtime::run_reference::<f64, _>(&tiling, &[n], &path_kernel);
        r.get(&[0, 0]).unwrap()
    }

    /// One execution of a per-cell kernel on a fresh plan.
    fn run<K: Kernel<f64>>(
        tiling: &Tiling,
        n: i64,
        lb_dims: &[usize],
        opts: &ExecOpts,
        kernel: &K,
        reduce: Option<&Reduction<f64>>,
    ) -> Result<RunOutput<f64>, RunError> {
        let plan = Plan::on_tiling(tiling.clone(), &[n], lb_dims.to_vec())?;
        match reduce {
            Some(r) => plan.execute_reduce(&PerCell(kernel), r, opts),
            None => plan.execute(kernel, opts),
        }
    }

    /// `ranks` x `threads`, probing the origin.
    fn opts(ranks: usize, threads: usize) -> ExecOpts {
        ExecOpts::new()
            .ranks(ranks)
            .threads(threads)
            .probe(Probe::at(&[0, 0]))
    }

    #[test]
    fn hybrid_matches_reference_across_rank_counts() {
        let n = 25i64;
        let want = expected(n);
        let tiling = triangle(3);
        for ranks in [1usize, 2, 4] {
            for threads in [1usize, 2] {
                let config = opts(ranks, threads);
                let res = run(&tiling, n, &[0], &config, &path_kernel, None).unwrap();
                assert_eq!(res.probes[0], Some(want), "ranks={ranks} threads={threads}");
                assert_eq!(res.cells_computed(), ((n + 1) * (n + 2) / 2) as u64);
                // Neither logged nor recovering: no rank has a checkpoint.
                assert_eq!(res.recovery.checkpoint_bytes, 0);
                assert!(res.per_rank.iter().all(|r| r.stats.checkpoint_bytes == 0));
                if ranks > 1 {
                    assert!(res.edges_remote() > 0, "multi-rank runs must communicate");
                    assert!(res.bytes_sent() > 0);
                } else {
                    assert_eq!(res.edges_remote(), 0);
                }
            }
        }
    }

    #[test]
    fn hyperplane_balancing_also_correct() {
        let n = 20i64;
        let want = expected(n);
        let tiling = triangle(2);
        let config = opts(3, 2).balance(BalanceMethod::Hyperplane);
        let res = run(&tiling, n, &[0], &config, &path_kernel, None).unwrap();
        assert_eq!(res.probes[0], Some(want));
    }

    #[test]
    fn tiny_buffers_still_complete() {
        let n = 18i64;
        let want = expected(n);
        let tiling = triangle(2);
        let config = opts(4, 1).comm(CommConfig {
            send_buffers: 1,
            recv_buffers: 1,
            ..CommConfig::default()
        });
        let res = run(&tiling, n, &[0, 1], &config, &path_kernel, None).unwrap();
        assert_eq!(res.probes[0], Some(want));
    }

    #[test]
    fn multiple_probes_merge_across_ranks() {
        let n = 15i64;
        let tiling = triangle(2);
        let config = opts(3, 1);
        let probe = Probe::many(&[&[0, 0], &[n, 0], &[0, n], &[7, 7]]);
        let res = run(&tiling, n, &[0], &config.probe(probe), &path_kernel, None).unwrap();
        assert!(res.probes[0].is_some());
        assert!(res.probes[1].is_some());
        assert!(res.probes[2].is_some());
        assert!(res.probes[3].is_some()); // 7+7 <= 15
    }

    fn recovery_config() -> RecoveryConfig {
        RecoveryConfig {
            heartbeat_interval: Duration::from_millis(2),
            death_timeout: Duration::from_millis(100),
            max_recoveries: 1,
        }
    }

    #[test]
    fn killed_rank_recovers_bit_identical() {
        use dpgen_mpisim::{FaultPlan, KillTrigger};
        let n = 25i64;
        let want = expected(n);
        let tiling = triangle(3);
        for ranks in [2usize, 4] {
            let mut config = opts(ranks, 2);
            config.comm.faults = Some(FaultPlan::kill_rank_at(0, KillTrigger::AfterSends(3)));
            config.recovery = Some(recovery_config());
            let r = Reduction::new(0.0f64, |a, b| a + b);
            let res = run(&tiling, n, &[0], &config, &path_kernel, Some(&r)).unwrap();
            assert_eq!(res.probes[0], Some(want), "ranks={ranks}");
            assert_eq!(res.recovery.ranks_lost, 1);
            assert_eq!(res.recovery.slabs_migrated, 1);
            assert_eq!(res.recovery.epochs, 2);
            assert!(res.recovery.checkpoint_bytes > 0);
            assert!(res.recovery.recovery_latency > Duration::ZERO);
            // The reduction must cover every cell exactly once across the
            // death, the migration, and the resumed epoch.
            let serial = {
                let t = triangle(1_000_000);
                let rf = dpgen_runtime::run_reference::<f64, _>(&t, &[n], &path_kernel);
                rf.fold(0.0, |a, b| a + b)
            };
            let got = res.reduction.unwrap();
            assert!(
                (got - serial).abs() < 1e-6,
                "ranks={ranks}: {got} vs {serial}"
            );
        }
    }

    #[test]
    fn recovery_enabled_undisturbed_run_is_clean() {
        let n = 20i64;
        let want = expected(n);
        let tiling = triangle(3);
        let mut config = opts(3, 2);
        config.recovery = Some(recovery_config());
        let res = run(&tiling, n, &[0], &config, &path_kernel, None).unwrap();
        assert_eq!(res.probes[0], Some(want));
        assert_eq!(res.recovery.ranks_lost, 0);
        assert_eq!(res.recovery.slabs_migrated, 0);
        assert_eq!(res.recovery.epochs, 1);
        assert!(res.recovery.checkpoint_bytes > 0);
    }

    #[test]
    fn kill_without_recovery_surfaces_the_death() {
        use dpgen_mpisim::{FaultPlan, KillTrigger, ReliabilityConfig};
        let tiling = triangle(3);
        let mut config = opts(2, 1);
        config.comm.faults = Some(FaultPlan::kill_rank_at(0, KillTrigger::AfterSends(2)));
        // Heartbeats on, recovery coordinator off: survivors report the
        // typed death instead of recovering from it.
        config.comm.reliability = ReliabilityConfig {
            heartbeat_interval: Some(Duration::from_millis(2)),
            death_timeout: Duration::from_millis(100),
            ..ReliabilityConfig::default()
        };
        config.stall_timeout = Some(Duration::from_secs(20));
        let err = run(&tiling, 25, &[0], &config, &path_kernel, None).unwrap_err();
        assert!(
            matches!(err, RunError::PeerDead { rank: 0, .. }),
            "expected PeerDead for rank 0, got: {err}"
        );
    }

    #[test]
    fn kernel_panic_on_one_rank_fails_the_world() {
        let tiling = triangle(2);
        let bomb = |cell: CellRef<'_>, values: &mut [f64]| {
            if cell.x[0] == 4 && cell.x[1] == 4 {
                panic!("driver-level injected fault");
            }
            path_kernel(cell, values);
        };
        let mut config = opts(2, 1);
        config.stall_timeout = Some(Duration::from_secs(10));
        let err = run(&tiling, 12, &[0], &config, &bomb, None).unwrap_err();
        assert!(
            matches!(err, RunError::KernelPanic { .. }),
            "cancellation must not mask the root cause: {err}"
        );
    }
}
