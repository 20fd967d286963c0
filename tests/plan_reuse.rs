//! Compile-once / execute-many consistency.
//!
//! The compile/execute split's core promise: one compiled [`Plan`]
//! executed N times — concurrently, across the threads x ranks matrix —
//! is bit-identical to N freshly compiled plans' first executions, and a
//! cancelled execution never poisons the plan, its memoized schedule
//! artifacts, or the shared buffer pools behind it.

use dpgen::core::{ExecOpts, Program};
use dpgen::problems::{random_sequence, Lcs};
use dpgen::runtime::{Kernel, Probe, RunError};
use dpgen::tiling::CellRef;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn lcs_fixture() -> (Lcs, Program) {
    let a = random_sequence(48, 91);
    let b = random_sequence(52, 92);
    let problem = Lcs::new(&[&a, &b]);
    let program = Lcs::program(2, 8).unwrap();
    (problem, program)
}

/// The threads x ranks matrix every consistency suite in this repo
/// exercises: serial, shared-memory, and hybrid shapes.
const MATRIX: &[(usize, usize)] = &[(1, 1), (2, 1), (4, 1), (1, 2), (2, 2), (2, 4)];

/// One compiled plan, executed 3x concurrently per matrix point, must
/// match 3 fresh compile-and-execute round trips bit-for-bit.
#[test]
fn one_plan_executed_concurrently_matches_fresh_compiles() {
    let (problem, program) = lcs_fixture();
    let params = problem.params();
    let plan = program.compile(&params);
    let probe = Probe::at(&problem.goal());
    let want = problem.solve_dense();

    for &(threads, ranks) in MATRIX {
        const N: usize = 3;
        let opts = ExecOpts::new()
            .threads(threads)
            .ranks(ranks)
            .probe(probe.clone());
        // N concurrent executions of the SAME Arc'd plan...
        let shared: Vec<i64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..N)
                .map(|_| {
                    let plan = plan.clone();
                    let opts = opts.clone();
                    let problem = &problem;
                    scope.spawn(move || {
                        let out = plan.execute::<i64, _>(problem, &opts).unwrap();
                        out.probes[0].unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // ...against N fresh compile-and-run round trips.
        for (i, got) in shared.iter().enumerate() {
            let fresh = program
                .compile(&params)
                .execute::<i64, _>(&problem, &opts)
                .unwrap();
            assert_eq!(
                Some(*got),
                fresh.probes[0],
                "threads={threads} ranks={ranks} execution {i}"
            );
            assert_eq!(*got, want, "threads={threads} ranks={ranks}");
        }
    }
}

/// A cancelled execution — both one that never starts and one aborted
/// mid-flight — leaves the plan and its pooled buffers fully usable:
/// subsequent executions stay bit-identical to the dense reference.
#[test]
fn cancellation_does_not_poison_the_plan_or_its_pools() {
    let (problem, program) = lcs_fixture();
    let params = problem.params();
    let plan = program.compile(&params);
    let probe = Probe::at(&problem.goal());
    let want = problem.solve_dense();

    // Pre-set flag: the run aborts before computing anything.
    let dead = Arc::new(AtomicBool::new(true));
    let opts = ExecOpts::new().threads(2).probe(probe.clone()).cancel(dead);
    let err = plan.execute::<i64, _>(&problem, &opts).unwrap_err();
    assert!(matches!(err, RunError::Cancelled { .. }), "got {err}");

    // Mid-flight: a kernel slow enough that the flag flips while tiles
    // are in progress. The run may abort or (rarely) squeak through;
    // either way the plan must stay healthy.
    let flag = Arc::new(AtomicBool::new(false));
    let slow = |cell: CellRef<'_>, values: &mut [i64]| {
        std::thread::sleep(Duration::from_micros(50));
        problem.compute(cell, values);
    };
    let opts = ExecOpts::new()
        .threads(2)
        .probe(probe.clone())
        .cancel(flag.clone());
    std::thread::scope(|scope| {
        let plan = plan.clone();
        let worker = scope.spawn(move || plan.execute::<i64, _>(&slow, &opts));
        std::thread::sleep(Duration::from_millis(5));
        flag.store(true, Ordering::Release);
        match worker.join().unwrap() {
            Ok(out) => assert_eq!(out.probes[0], Some(want)),
            Err(e) => assert!(matches!(e, RunError::Cancelled { .. }), "got {e}"),
        }
    });

    // The same plan, afterwards, across the matrix: still bit-identical.
    for &(threads, ranks) in MATRIX {
        let opts = ExecOpts::new()
            .threads(threads)
            .ranks(ranks)
            .probe(probe.clone());
        let out = plan.execute::<i64, _>(&problem, &opts).unwrap();
        assert_eq!(
            out.probes[0],
            Some(want),
            "post-cancel threads={threads} ranks={ranks}"
        );
    }
}

/// The same consistency holds end-to-end through the resident engine:
/// concurrent jobs sharing one cached plan all agree with the dense
/// reference, and the cache serves every submission after the first.
#[test]
fn engine_jobs_sharing_a_cached_plan_agree_with_the_reference() {
    use dpgen_serve::{Engine, EngineConfig};

    let a = random_sequence(32, 81);
    let b = random_sequence(36, 82);
    let problem = Lcs::new(&[&a, &b]);
    let spec = Lcs::spec(2, 8);
    let params = problem.params();
    let want = problem.solve_dense() as u64;

    let engine = Engine::new(EngineConfig {
        workers: 3,
        ..EngineConfig::default()
    });
    // The engine's cell type is u64; LCS lengths are nonnegative, so the
    // kernel ports directly.
    let (sa, sb) = (a.clone(), b.clone());
    let kernel: dpgen_serve::JobKernel = Arc::new(move |cell: CellRef<'_>, values: &mut [u64]| {
        if cell.x.contains(&0) {
            values[cell.loc] = 0;
        } else if sa[(cell.x[0] - 1) as usize] == sb[(cell.x[1] - 1) as usize] {
            values[cell.loc] = values[cell.loc_r(2)] + 1;
        } else {
            values[cell.loc] = values[cell.loc_r(0)].max(values[cell.loc_r(1)]);
        }
    });
    let opts = ExecOpts::new().threads(2).probe(Probe::at(&problem.goal()));
    let handles: Vec<_> = (0..8)
        .map(|_| {
            engine
                .submit(&spec, &params, kernel.clone(), Some(opts.clone()))
                .unwrap()
        })
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        let out = h.wait().unwrap_or_else(|e| panic!("job {i}: {e}"));
        assert_eq!(out.probes[0], Some(want), "job {i}");
    }
    assert_eq!(engine.cache().misses(), 1);
    assert_eq!(engine.cache().hits(), 7);
}
