//! Failure handling and edge cases across the stack: malformed inputs,
//! degenerate problems, and — the fault-injection matrix — hybrid runs over
//! a wire that drops, duplicates, reorders and corrupts packets, which must
//! be bit-identical to fault-free runs or fail with a typed diagnosis.

use dpgen::core::{BalanceMethod, ExecOpts, Program, ProgramError};
use dpgen::mpisim::{CommConfig, FaultPlan, KillTrigger, ReliabilityConfig};
use dpgen::problems::{random_sequence, EditDistance, Lcs};
use dpgen::runtime::{
    run_node, Kernel, NodeConfig, NodeJob, NullTransport, PerCell, Probe, RunError, Schedule,
    TileOwner, TilePriority, TransportError,
};
use dpgen::tiling::tiling::CellRef;
use dpgen::tiling::Coord;
use proptest::prelude::*;
use std::time::Duration;

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
    values[cell.loc] = a + b;
}

const TRIANGLE: &str = "name t\nvars x y\nparams N\n\
    constraint x >= 0\nconstraint y >= 0\nconstraint x + y <= N\n\
    template r1 1 0\ntemplate r2 0 1\nwidths 4 4\n";

#[test]
fn malformed_specs_are_rejected_not_panicking() {
    for bad in [
        "",                                                         // empty
        "vars x\n",                                                 // no constraints
        "vars x\nconstraint 0 <= x <= 5\n",                         // no widths
        "vars x\nconstraint 0 <= x <= 5\nwidths 0\n",               // zero width
        "vars x\nconstraint 0 <= x <= 5\nwidths 2\ntemplate r 0\n", // zero template
        "vars x y\nconstraint 0 <= x <= 5\nconstraint 0 <= y <= 5\nwidths 2 2\n\
         template a 1 0\ntemplate b -1 0\n", // mixed signs
        "vars x\nconstraint x >= 0\nwidths 2\n",                    // unbounded
        "vars x\nconstraint 0 <= x <= zz\nwidths 2\n",              // unknown name
    ] {
        assert!(Program::parse(bad).is_err(), "accepted: {bad:?}");
    }
}

#[test]
fn error_messages_are_informative() {
    let err = Program::parse("vars x\nbogus\n").unwrap_err();
    assert!(err.to_string().contains("line 2"), "{err}");
    let err = Program::parse("vars x\nconstraint x >= 0\nwidths 2\n").unwrap_err();
    match &err {
        ProgramError::Tiling(e) => assert!(e.to_string().contains("unbounded"), "{e}"),
        other => panic!("expected tiling error, got {other}"),
    }
}

#[test]
fn zero_size_problem_runs() {
    // N = 0: a single cell at the origin.
    let program = Program::parse(TRIANGLE).unwrap();
    let opts = ExecOpts::new().threads(4).probe(Probe::at(&[0, 0]));
    let res = program
        .compile(&[0])
        .execute::<u64, _>(&count_kernel, &opts)
        .unwrap();
    assert_eq!(res.probes[0], Some(2)); // both deps invalid -> 1 + 1
    assert_eq!(res.per_rank[0].stats.cells_computed, 1);
}

#[test]
fn probes_outside_space_are_none_not_panics() {
    let program = Program::parse(TRIANGLE).unwrap();
    let probe = Probe::many(&[&[0, 0], &[100, 100], &[-3, 0], &[3, 3]]);
    let opts = ExecOpts::new().threads(2).probe(probe);
    let res = program
        .compile(&[4])
        .execute::<u64, _>(&count_kernel, &opts)
        .unwrap();
    assert!(res.probes[0].is_some());
    assert_eq!(res.probes[1], None);
    assert_eq!(res.probes[2], None);
    assert_eq!(res.probes[3], None); // 3 + 3 > 4
}

#[test]
fn giant_tile_is_a_single_tile_run() {
    let program = Program::parse(&TRIANGLE.replace("widths 4 4", "widths 1000 1000")).unwrap();
    let opts = ExecOpts::new().threads(4).probe(Probe::at(&[0, 0]));
    let res = program
        .compile(&[20])
        .execute::<u64, _>(&count_kernel, &opts)
        .unwrap();
    assert_eq!(res.per_rank[0].stats.tiles_executed, 1);
    assert_eq!(res.probes[0], Some(1 << 21));
    assert_eq!(res.per_rank[0].stats.edges_local, 0);
}

#[test]
fn width_one_tiles_are_cells() {
    let program = Program::parse(&TRIANGLE.replace("widths 4 4", "widths 1 1")).unwrap();
    let n = 6i64;
    let opts = ExecOpts::new().threads(3).probe(Probe::at(&[0, 0]));
    let res = program
        .compile(&[n])
        .execute::<u64, _>(&count_kernel, &opts)
        .unwrap();
    assert_eq!(
        res.per_rank[0].stats.tiles_executed,
        ((n + 1) * (n + 2) / 2) as u64
    );
    assert_eq!(res.probes[0], Some(1 << (n + 1)));
}

#[test]
fn oversubscribed_threads_work() {
    // Far more threads than tiles.
    let program = Program::parse(TRIANGLE).unwrap();
    let opts = ExecOpts::new().threads(32).probe(Probe::at(&[0, 0]));
    let res = program
        .compile(&[6])
        .execute::<u64, _>(&count_kernel, &opts)
        .unwrap();
    assert_eq!(res.probes[0], Some(1 << 7));
}

#[test]
fn zero_threads_clamps_to_one() {
    let program = Program::parse(TRIANGLE).unwrap();
    let opts = ExecOpts::new().threads(0).probe(Probe::at(&[0, 0]));
    let res = program
        .compile(&[5])
        .execute::<u64, _>(&count_kernel, &opts)
        .unwrap();
    assert_eq!(res.probes[0], Some(1 << 6));
    assert_eq!(res.per_rank[0].stats.threads, 1);
}

#[test]
fn hybrid_more_ranks_than_tiles() {
    let a = random_sequence(6, 1);
    let b = random_sequence(5, 2);
    let problem = EditDistance::new(&a, &b);
    let program = EditDistance::program(4).unwrap(); // few tiles
    let params = problem.params();
    let opts = ExecOpts::new()
        .ranks(6)
        .threads(2)
        .probe(Probe::at(&[params[0], params[1]]));
    let res = program
        .compile(&params)
        .execute::<i64, _>(&problem, &opts)
        .unwrap();
    assert_eq!(res.probes[0].unwrap(), problem.solve_dense());
}

#[test]
fn degenerate_one_dimensional_problem() {
    let program =
        Program::parse("vars x\nparams N\nconstraint 0 <= x <= N\ntemplate r 1\nwidths 5\n")
            .unwrap();
    let kernel = |cell: CellRef<'_>, values: &mut [u64]| {
        values[cell.loc] = if cell.valid[0] {
            values[cell.loc_r(0)] + 1
        } else {
            1
        };
    };
    let opts = ExecOpts::new()
        .threads(2)
        .priority(TilePriority::LevelSet)
        .probe(Probe::at(&[0]));
    let res = program
        .compile(&[17])
        .execute::<u64, _>(&kernel, &opts)
        .unwrap();
    assert_eq!(res.probes[0], Some(18));
}

/// A faulty-wire communicator configuration: every knob tightened so small
/// test problems exercise retransmission quickly.
fn faulty_comm(plan: FaultPlan) -> CommConfig {
    CommConfig {
        send_buffers: 2,
        recv_buffers: 2,
        reliability: ReliabilityConfig {
            ack_timeout: Duration::from_millis(1),
            max_backoff: Duration::from_millis(20),
            ..ReliabilityConfig::default()
        },
        faults: Some(plan),
    }
}

/// The seeded fault matrix (drop / duplicate / reorder / corrupt /
/// everything × LCS / edit distance × 1, 2, 4 ranks): every cell must be
/// bit-identical to the dense reference, with retransmit work bounded —
/// faults cost bandwidth, never correctness.
#[test]
fn seeded_fault_matrix_is_bit_identical() {
    let a = random_sequence(14, 21);
    let b = random_sequence(13, 22);
    let lcs = Lcs::new(&[&a, &b]);
    let lcs_program = Lcs::program(2, 3).unwrap();
    let lcs_want = lcs.solve_dense();
    let ed = EditDistance::new(&a, &b);
    let ed_program = EditDistance::program(3).unwrap();
    let ed_want = ed.solve_dense();

    let plans = [
        ("drop", FaultPlan::drops(11, 0.2)),
        (
            "dup",
            FaultPlan {
                duplicate: 0.25,
                ..FaultPlan::none().with_seed(12)
            },
        ),
        (
            "reorder",
            FaultPlan {
                reorder: 0.3,
                ..FaultPlan::none().with_seed(13)
            },
        ),
        (
            "corrupt",
            FaultPlan {
                corrupt: 0.2,
                ..FaultPlan::none().with_seed(14)
            },
        ),
        ("all", FaultPlan::uniform(15, 0.15)),
    ];
    for (name, plan) in plans {
        for ranks in [1usize, 2, 4] {
            let opts = ExecOpts::new()
                .ranks(ranks)
                .threads(1)
                .comm(faulty_comm(plan))
                .balance(BalanceMethod::Slabs { lb_dims: vec![0] })
                .stall_timeout(Duration::from_secs(20))
                .probe(Probe::at(&lcs.goal()));
            let res = lcs_program
                .compile(&lcs.params())
                .execute::<i64, _>(&lcs, &opts)
                .unwrap_or_else(|e| panic!("lcs {name} ranks={ranks}: {e}"));
            assert_eq!(res.probes[0], Some(lcs_want), "lcs {name} ranks={ranks}");

            let opts = ExecOpts::new()
                .ranks(ranks)
                .threads(1)
                .comm(faulty_comm(plan))
                .balance(BalanceMethod::Slabs { lb_dims: vec![0] })
                .stall_timeout(Duration::from_secs(20))
                .probe(Probe::at(&[ed.params()[0], ed.params()[1]]));
            let res = ed_program
                .compile(&ed.params())
                .execute::<i64, _>(&ed, &opts)
                .unwrap_or_else(|e| panic!("editdist {name} ranks={ranks}: {e}"));
            assert_eq!(
                res.probes[0],
                Some(ed_want),
                "editdist {name} ranks={ranks}"
            );

            // Retransmits stay proportional to traffic (no livelock): each
            // first transmission can cost at most a small number of
            // recovery rounds at these fault rates.
            let sent: u64 = res.comm_stats.iter().map(|s| s.msgs_sent()).sum();
            let retrans = res.retransmits();
            assert!(
                retrans <= 50 * sent + 100,
                "editdist {name} ranks={ranks}: {retrans} retransmits for {sent} sends"
            );
            if ranks > 1 && plan.drop > 0.0 {
                let dropped: u64 = res.comm_stats.iter().map(|s| s.faults_dropped()).sum();
                assert!(dropped > 0, "{name} ranks={ranks}: plan injected nothing");
            }
        }
    }
}

/// Acceptance wedge: 100% drop, every retransmit lost too, must terminate
/// with `RunError::Stalled` carrying a scheduler snapshot — not hang.
#[test]
fn wedged_run_terminates_with_stall_snapshot() {
    let a = random_sequence(16, 31);
    let b = random_sequence(15, 32);
    let problem = EditDistance::new(&a, &b);
    let program = EditDistance::program(4).unwrap();
    let opts = ExecOpts::new()
        .ranks(2)
        .threads(1)
        .comm(CommConfig {
            // A window large enough that the sender never blocks: both
            // ranks end up waiting on traffic that can never arrive.
            send_buffers: 64,
            recv_buffers: 4,
            reliability: ReliabilityConfig {
                ack_timeout: Duration::from_millis(1),
                max_backoff: Duration::from_millis(5),
                send_timeout: Duration::from_secs(5),
                // Heartbeats stay off: this test must die in the stall
                // watchdog, not in peer-death detection.
                ..ReliabilityConfig::default()
            },
            faults: Some(FaultPlan::drops(99, 1.0)),
        })
        .balance(BalanceMethod::Slabs { lb_dims: vec![0] })
        .stall_timeout(Duration::from_millis(400));
    let err = program
        .compile(&problem.params())
        .execute::<i64, _>(&problem, &opts)
        .unwrap_err();
    match &err {
        RunError::Stalled(snap) => {
            assert!(snap.stalled_for >= Duration::from_millis(400));
            assert_eq!(snap.threads, 1);
            // The snapshot names the wedge: the display mentions progress
            // counts and the pending tiles it waits on.
            let text = err.to_string();
            assert!(text.contains("no progress"), "{text}");
            assert!(text.contains("tiles executed"), "{text}");
        }
        other => panic!("expected Stalled, got {other}"),
    }
}

/// A peer dead from the start, with nothing to diagnose the death
/// (heartbeats off): rank 0 needs nothing from it and runs every tile it
/// owns, but its frames to the dead rank 1 are never acknowledged, so its
/// drain of the world never finishes. The rank's one stall watchdog must
/// end the drain with a snapshot of the frames it waited on — not hang.
#[test]
fn a_drain_that_never_finishes_terminates_with_stall_snapshot() {
    let a = random_sequence(16, 31);
    let b = random_sequence(15, 32);
    let problem = EditDistance::new(&a, &b);
    let program = EditDistance::program(4).unwrap();
    let opts = ExecOpts::new()
        .ranks(2)
        .threads(1)
        .comm(CommConfig {
            // A window rank 0's sends never fill: it finishes its tiles.
            send_buffers: 64,
            faults: Some(FaultPlan::kill_rank_at(
                1,
                KillTrigger::AfterDuration(Duration::ZERO),
            )),
            ..CommConfig::default()
        })
        .balance(BalanceMethod::Slabs { lb_dims: vec![0] })
        .stall_timeout(Duration::from_millis(300));
    assert!(opts.comm.reliability.heartbeat_interval.is_none());
    let err = program
        .compile(&problem.params())
        .execute::<i64, _>(&problem, &opts)
        .unwrap_err();
    match &err {
        RunError::Stalled(snap) => {
            assert_eq!(snap.rank, 0, "{err}");
            assert_eq!(snap.tiles_executed, snap.tiles_owned, "{err}");
            assert!(snap.unacked_frames > 0, "{err}");
            assert!(snap.stalled_for >= Duration::from_millis(300), "{err}");
        }
        other => panic!("expected Stalled from rank 0's drain, got {other}"),
    }
}

/// A mis-partitioned single-node run (owner claims a foreign rank exists,
/// but the transport is Null) surfaces `TransportError::NoRoute` as a typed
/// run failure instead of aborting a worker thread.
#[test]
fn mispartitioned_null_transport_is_a_typed_error() {
    /// Per tile of the graph, rank `t[0] mod 2`.
    struct SplitOwner(Vec<usize>);
    impl TileOwner for SplitOwner {
        fn owner_at(&self, idx: usize) -> usize {
            self.0[idx]
        }
    }
    let program = Program::parse(TRIANGLE).unwrap();
    let config = NodeConfig {
        stall_timeout: Duration::from_secs(10),
        ..NodeConfig::new(2, 2)
    };
    let graph = program.tiling().graph(&[16]);
    let owner = SplitOwner(graph.coords().map(|t| (t[0] % 2) as usize).collect());
    let err = run_node::<u64, _, _, _>(
        &NodeJob {
            graph: &graph,
            owner: &owner,
            transport: &NullTransport::default(),
            probe: &Probe::default(),
            config: &config,
            reduce: None,
            recovery: None,
        },
        &PerCell(&count_kernel),
    )
    .unwrap_err();
    match &err {
        RunError::Transport(TransportError::NoRoute { dest: 1, .. }) => {}
        other => panic!("expected NoRoute to rank 1, got {other}"),
    }
}

/// A panicking kernel in a multi-rank run is quarantined with its tile
/// coordinate and cancels the sibling rank promptly.
#[test]
fn hybrid_kernel_panic_quarantines_the_tile() {
    let a = random_sequence(12, 5);
    let b = random_sequence(12, 6);
    let problem = EditDistance::new(&a, &b);
    let program = EditDistance::program(3).unwrap();
    struct Bomb(EditDistance);
    impl Kernel<i64> for Bomb {
        fn compute(&self, cell: CellRef<'_>, values: &mut [i64]) {
            if cell.x[0] == 7 && cell.x[1] == 7 {
                panic!("poisoned cell (7,7)");
            }
            self.0.compute(cell, values);
        }
    }
    let opts = ExecOpts::new()
        .ranks(2)
        .threads(1)
        .balance(BalanceMethod::Slabs { lb_dims: vec![0] })
        .stall_timeout(Duration::from_secs(10));
    let err = program
        .compile(&problem.params())
        .execute::<i64, _>(&Bomb(problem.clone()), &opts)
        .unwrap_err();
    match &err {
        RunError::KernelPanic { tile, message, .. } => {
            // Cell (7,7) lives in tile (2,2) with width 3.
            assert_eq!(*tile, Coord::from_slice(&[2, 2]));
            assert!(message.contains("poisoned cell"), "{message}");
        }
        other => panic!("expected KernelPanic, got {other}"),
    }
}

/// The elastic-recovery chaos matrix: kill each rank in turn across
/// {2, 4} ranks × {LCS, edit distance} × {Dynamic, Static} schedules.
/// Upstream ranks die on a send-count trigger; the downstream-most rank
/// never sends data, so it is dead from the start instead. Every kill
/// must be detected by heartbeat silence, its slabs migrated exactly
/// once, and the final result must stay bit-identical to the dense
/// reference.
#[test]
fn chaos_matrix_kill_each_rank_recovers_bit_identical() {
    let a = random_sequence(26, 91);
    let b = random_sequence(25, 92);
    let lcs = Lcs::new(&[&a, &b]);
    let lcs_program = Lcs::program(2, 3).unwrap();
    let lcs_want = lcs.solve_dense();
    let ed = EditDistance::new(&a, &b);
    let ed_program = EditDistance::program(3).unwrap();
    let ed_want = ed.solve_dense();
    let reliability = ReliabilityConfig {
        heartbeat_interval: Some(Duration::from_millis(2)),
        death_timeout: Duration::from_millis(80),
        ..ReliabilityConfig::default()
    };

    for ranks in [2usize, 4] {
        for victim in 0..ranks {
            // Slab balancing puts the wavefront source on rank 0: every
            // rank but the last sends data downstream, so a send-count
            // trigger fires deterministically. The downstream-most rank
            // only receives, and any timer long enough for it to do
            // something is one a fast run finishes inside (81 tiles take
            // under 500 µs): it is dead before its first heartbeat. The
            // run cannot finish without its slab, so detection, one
            // migration and a second epoch follow whatever the speed.
            let trigger = if victim + 1 < ranks {
                KillTrigger::AfterSends(1)
            } else {
                KillTrigger::AfterDuration(Duration::ZERO)
            };
            let plan = FaultPlan::kill_rank_at(victim, trigger);
            for schedule in [Schedule::Dynamic, Schedule::Static] {
                let label = format!("ranks={ranks} victim={victim} {schedule:?}");
                let opts = ExecOpts::new()
                    .ranks(ranks)
                    .threads(1)
                    .schedule(schedule)
                    .comm(CommConfig {
                        faults: Some(plan),
                        reliability,
                        ..CommConfig::default()
                    })
                    .max_recoveries(1)
                    .balance(BalanceMethod::Slabs { lb_dims: vec![0] })
                    .stall_timeout(Duration::from_secs(20))
                    .probe(Probe::at(&lcs.goal()));
                let res = lcs_program
                    .compile(&lcs.params())
                    .execute::<i64, _>(&lcs, &opts)
                    .unwrap_or_else(|e| panic!("lcs {label}: {e}"));
                assert_eq!(res.probes[0], Some(lcs_want), "lcs {label}");
                assert_eq!(res.recovery.ranks_lost, 1, "lcs {label}");
                assert_eq!(res.recovery.slabs_migrated, 1, "lcs {label}");
                assert_eq!(res.recovery.epochs, 2, "lcs {label}");
                assert!(
                    res.recovery.recovery_latency > Duration::ZERO,
                    "lcs {label}"
                );
                assert!(
                    res.recovery.recovery_latency < Duration::from_secs(10),
                    "lcs {label}: detection took {:?}",
                    res.recovery.recovery_latency
                );

                let opts = ExecOpts::new()
                    .ranks(ranks)
                    .threads(1)
                    .schedule(schedule)
                    .comm(CommConfig {
                        faults: Some(plan),
                        reliability,
                        ..CommConfig::default()
                    })
                    .max_recoveries(1)
                    .balance(BalanceMethod::Slabs { lb_dims: vec![0] })
                    .stall_timeout(Duration::from_secs(20))
                    .probe(Probe::at(&[ed.params()[0], ed.params()[1]]));
                let res = ed_program
                    .compile(&ed.params())
                    .execute::<i64, _>(&ed, &opts)
                    .unwrap_or_else(|e| panic!("editdist {label}: {e}"));
                assert_eq!(res.probes[0], Some(ed_want), "editdist {label}");
                assert_eq!(res.recovery.ranks_lost, 1, "editdist {label}");
                assert_eq!(res.recovery.slabs_migrated, 1, "editdist {label}");
                assert!(res.recovery.checkpoint_bytes > 0, "editdist {label}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The headline reliability property: for ANY seeded fault schedule
    /// with drop rate < 1, a consistency problem over the faulty wire is
    /// bit-identical to the dense reference scan.
    #[test]
    fn any_fault_schedule_below_total_loss_is_bit_identical(
        seed in 0u64..u64::MAX,
        drop in 0.0f64..0.8,
        duplicate in 0.0f64..0.5,
        reorder in 0.0f64..0.5,
        corrupt in 0.0f64..0.4,
        max_delay in 1u32..12,
        ranks in 2usize..5,
        alen in 8usize..16,
        blen in 8usize..16,
    ) {
        let a = random_sequence(alen, seed ^ 0x5EED);
        let b = random_sequence(blen, seed ^ 0xFEED);
        let problem = EditDistance::new(&a, &b);
        let program = EditDistance::program(3).unwrap();
        let plan = FaultPlan { seed, drop, duplicate, reorder, corrupt, max_delay, kill: None };
        let opts = ExecOpts::new()
            .ranks(ranks)
            .threads(1)
            .comm(faulty_comm(plan))
            .balance(BalanceMethod::Slabs { lb_dims: vec![0] })
            .stall_timeout(Duration::from_secs(20))
            .probe(Probe::at(&[problem.params()[0], problem.params()[1]]));
        let res = program
            .compile(&problem.params())
            .execute::<i64, _>(&problem, &opts)
            .unwrap();
        prop_assert_eq!(res.probes[0], Some(problem.solve_dense()));
    }
}

#[test]
fn empty_iteration_space_for_parameters() {
    // Context N >= 2 excluded by N = 1: no tiles, run completes trivially.
    let program =
        Program::parse("vars x\nparams N\nconstraint 2 <= x <= N\ntemplate r 1\nwidths 3\n")
            .unwrap();
    let kernel = |cell: CellRef<'_>, values: &mut [u64]| {
        values[cell.loc] = cell.x[0] as u64;
    };
    let opts = ExecOpts::new()
        .threads(2)
        .priority(TilePriority::LevelSet)
        .probe(Probe::at(&[2]));
    let res = program
        .compile(&[1])
        .execute::<u64, _>(&kernel, &opts)
        .unwrap();
    assert_eq!(res.per_rank[0].stats.tiles_executed, 0);
    assert_eq!(res.probes[0], None);
}
