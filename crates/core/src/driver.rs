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
//! ([`most_severe`], the rule each rank applies to its own workers) rather
//! than a sympathetic `Cancelled`.
//!
//! Results meet once, here: probes merge across ranks, and the run's
//! whole-space reduction is the identity folded with the ranks' partials —
//! or, when the run keeps checkpoints, with the checkpoints' folds.
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
    most_severe, run_node, CheckpointData, CheckpointSink, Clock, CompileFault, CompileStage,
    EventKind, MetricsRegistry, NodeConfig, NodeJob, NodeRecovery, NodeResult, NullTransport,
    RankTrace, Reduction, ResumeState, RunError, RunKernel, RunStats, SingleOwner, TileOwner,
    TileSet, Timeline, Tracer, Transport, Value,
};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

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
    // The run's one clock: the tracers, and the nodes and worlds of every
    // recovery epoch, read it, so trace stamps, progress clocks and
    // heartbeat ages line up and a later epoch starts late on it.
    let clock = Clock::real();
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

    let tracers: Vec<Option<Arc<Tracer>>> = (0..opts.ranks)
        .map(|rank| Tracer::create(rank, opts.threads, opts.trace, &clock))
        .collect();

    // Recovery wiring: the heartbeats of `opts.comm.reliability` let
    // survivors detect a dead peer in bounded time (validation refuses
    // recovery without them), and each rank streams its completed tiles
    // into an incremental slab checkpoint. One rank has no peer to lose,
    // so there it stays off. A logged run keeps the checkpoints too, for
    // the edges in them, whether or not it recovers.
    let recovery_on = opts.ranks > 1 && opts.max_recoveries > 0;
    let retain = recovery_on || logged;
    let mut sinks: Vec<Arc<CheckpointSink<T>>> = if retain {
        (0..opts.ranks)
            .map(|_| Arc::new(CheckpointSink::new(reduce.cloned())))
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
            Some(_) => {
                CommWorld::create_elastic::<T>(opts.ranks, opts.comm, &retired, clock.clone())
            }
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
                    cancel: cancel.clone(),
                    job_cancel: opts.cancel.clone(),
                    tracer: tracers[rank].clone(),
                    clock: clock.clone(),
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
        let errors = || per_rank.iter().flatten().filter_map(|r| r.as_ref().err());
        let dead_rank = errors().find_map(|e| match e {
            RunError::PeerDead { rank, .. } => Some(*rank),
            _ => None,
        });
        match most_severe(errors()).cloned() {
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
                // A root cause is what re-execution would only repeat;
                // everything below it is recoverable when a death report
                // names the slab to migrate.
                let budget_left = rec_stats.ranks_lost < opts.max_recoveries;
                match dead_rank {
                    Some(dead) if budget_left && !e.is_root_cause() => {
                        let balance = balance.expect("a peer died, so there is a partition");
                        let t_recover = clock.now();
                        recover(
                            dead,
                            balance,
                            reduce,
                            &mut sinks,
                            &mut resume,
                            &mut map,
                            &mut retired,
                            &tracers,
                        );
                        rec_stats.ranks_lost += 1;
                        rec_stats.slabs_migrated += 1;
                        rec_stats.recovery_latency += clock.now() - t_recover;
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

    // Every tile is complete in exactly one live rank's sink (a dead rank's
    // re-ran on its adoptee), so the sinks' edges are the run's edge log and
    // their folds the run's reduction partials: a rank's own fold covers
    // only the tiles it ran in the last epoch.
    let mut log = EdgeLog::new(if logged { graph.len() } else { 0 });
    let mut partials: Vec<T> = Vec::new();
    for sink in &sinks {
        let data = sink.take();
        partials.extend(data.acc);
        rec_stats.checkpoint_bytes += data.bytes;
        if logged {
            log.extend(data.edges);
        }
    }
    if !retain {
        partials.extend(per_rank.iter().filter_map(|r| r.reduction));
    }
    // The one place partials meet.
    let reduction =
        reduce.map(|r| (partials.into_iter()).fold(r.identity(), |a, p| r.combine(a, p)));
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
        reduction,
        per_rank,
        comm_stats,
        balance: balance.cloned(),
        timeline,
        metrics,
        total_time: clock.now(),
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
    fn owner_at(&self, idx: usize) -> usize {
        self.map[self.base.owner_at(idx)]
    }
}

/// One recovery round: retire the dead rank, migrate its slab to the
/// lowest-loaded survivor, and rebuild every survivor's resume state from
/// the checkpoints. Called between epochs with all rank threads joined.
#[allow(clippy::too_many_arguments)]
fn recover<T: Value>(
    dead: usize,
    balance: &LoadBalance,
    reduce: Option<&Reduction<T>>,
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
    let mut states: Vec<ResumeState<T>> = (0..ranks).map(|_| ResumeState::default()).collect();
    for (r, d) in datas.iter().enumerate() {
        states[r].completed = d.completed.clone();
        states[r].probes = d.probes.clone();
        for e in &d.edges {
            if union.contains(e.tile) {
                continue;
            }
            let owner = map[balance.owner_at(e.tile)];
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
            CheckpointSink::new(reduce.cloned())
        } else {
            CheckpointSink::seeded(reduce.cloned(), datas[r].clone())
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

    /// Writes 1 to every cell: a sum reduction counts the cells a run
    /// folded.
    fn ones(cell: CellRef<'_>, values: &mut [i64]) {
        values[cell.loc] = 1;
    }

    /// The triangle at N = 40, width 3: 41 * 42 / 2 cells.
    fn triangle_40() -> (Arc<Plan>, i64) {
        let plan = Plan::on_tiling(triangle(3), &[40], vec![0]).unwrap();
        (plan, 861)
    }

    #[test]
    fn one_reduction_executed_twice_returns_the_same_total() {
        let (plan, cells) = triangle_40();
        let sum = Reduction::sum_i64();
        for ranks in [1usize, 2] {
            let opts = ExecOpts::new().threads(2).ranks(ranks);
            for pass in 0..2 {
                let out = plan.execute_reduce(&PerCell(&ones), &sum, &opts).unwrap();
                assert_eq!(out.reduction, Some(cells), "ranks={ranks} pass {pass}");
            }
        }
    }

    #[test]
    fn concurrent_runs_share_one_reduction_and_each_gets_its_own_total() {
        let (plan, cells) = triangle_40();
        let sum = Reduction::sum_i64();
        let opts = ExecOpts::new().threads(2);
        // Each run waits at its last cell, the origin, until the other has
        // reached its own: the two are in flight together.
        let both = std::sync::Barrier::new(2);
        let meet = |cell: CellRef<'_>, values: &mut [i64]| {
            if cell.x == [0, 0] {
                both.wait();
            }
            ones(cell, values);
        };
        std::thread::scope(|s| {
            let runs: Vec<_> = (0..2)
                .map(|_| s.spawn(|| plan.execute_reduce(&PerCell(&meet), &sum, &opts)))
                .collect();
            for run in runs {
                let out = run.join().unwrap().unwrap();
                assert_eq!(out.reduction, Some(cells));
            }
        });
    }

    #[test]
    fn each_rank_reports_its_own_fold_and_the_run_folds_the_ranks() {
        let (plan, cells) = triangle_40();
        let opts = ExecOpts::new().threads(2).ranks(2);
        let out = (plan.execute_reduce(&PerCell(&ones), &Reduction::sum_i64(), &opts)).unwrap();
        let mut total = 0;
        for (rank, r) in out.per_rank.iter().enumerate() {
            let ran = r.stats.cells_computed as i64;
            assert!(0 < ran && ran < cells, "rank {rank} ran {ran} cells");
            assert_eq!(r.reduction, Some(ran), "rank {rank}");
            total += ran;
        }
        assert_eq!((total, out.reduction), (cells, Some(cells)));
    }

    /// Recovery on: heartbeats every 2 ms, a peer silent for 100 ms is
    /// dead, one death absorbed.
    fn recovering(opts: ExecOpts) -> ExecOpts {
        opts.max_recoveries(1)
            .reliability(dpgen_mpisim::ReliabilityConfig {
                heartbeat_interval: Some(Duration::from_millis(2)),
                death_timeout: Duration::from_millis(100),
                ..Default::default()
            })
    }

    #[test]
    fn killed_rank_recovers_bit_identical() {
        use dpgen_mpisim::{FaultPlan, KillTrigger};
        let n = 25i64;
        let want = expected(n);
        let tiling = triangle(3);
        for ranks in [2usize, 4] {
            let mut config = recovering(opts(ranks, 2));
            config.comm.faults = Some(FaultPlan::kill_rank_at(0, KillTrigger::AfterSends(3)));
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
        let config = recovering(opts(3, 2));
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
        config.stall_timeout = Duration::from_secs(20);
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
        config.stall_timeout = Duration::from_secs(10);
        let err = run(&tiling, 12, &[0], &config, &bomb, None).unwrap_err();
        assert!(
            matches!(err, RunError::KernelPanic { .. }),
            "cancellation must not mask the root cause: {err}"
        );
    }
}
