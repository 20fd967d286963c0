//! End-to-end integration: spec text → generated program → compiled
//! plan; the dense reference, one-rank and multi-rank executions all agree
//! with independent dense solvers, for every workload in `dpgen-problems`.

use dpgen::core::loadbalance::BalanceMethod;
use dpgen::core::{ExecOpts, Program};
use dpgen::mpisim::CommConfig;
use dpgen::problems::{random_sequence, Bandit2, Bandit3, EditDistance, Lcs, Msa};
use dpgen::runtime::{run_reference, Probe, TilePriority};

#[test]
fn bandit2_all_execution_modes_agree() {
    let problem = Bandit2::default();
    let kernel = problem.kernel();
    let n = 12i64;
    let want = problem.solve_dense(n);
    let program = Bandit2::program(4).unwrap();
    let probe = Probe::at(&[0, 0, 0, 0]);

    // The runtime's own dense, untiled reference executor.
    let reference = run_reference::<f64, _>(program.tiling(), &[n], &kernel);
    assert!((reference.get(&[0, 0, 0, 0]).unwrap() - want).abs() < 1e-9);

    // Shared memory at several thread counts.
    for threads in [1usize, 3, 8] {
        let opts = ExecOpts::new().threads(threads).probe(probe.clone());
        let res = program
            .compile(&[n])
            .execute::<f64, _>(&kernel, &opts)
            .unwrap();
        assert!(
            (res.probes[0].unwrap() - want).abs() < 1e-9,
            "threads {threads}"
        );
    }

    // Hybrid at several rank × thread shapes.
    for (ranks, threads) in [(2usize, 2usize), (4, 1), (3, 3)] {
        let opts = ExecOpts::new()
            .ranks(ranks)
            .threads(threads)
            .probe(probe.clone());
        let res = program
            .compile(&[n])
            .execute::<f64, _>(&kernel, &opts)
            .unwrap();
        assert!(
            (res.probes[0].unwrap() - want).abs() < 1e-9,
            "{ranks}x{threads}"
        );
    }
}

#[test]
fn bandit2_paper_value_grows_with_horizon() {
    // V(0)/N increases with N: longer horizons let adaptivity learn more.
    let problem = Bandit2::default();
    let program = Bandit2::program(6).unwrap();
    let kernel = problem.kernel();
    let probe = Probe::at(&[0, 0, 0, 0]);
    let mut last = 0.5;
    for n in [2i64, 8, 20, 40] {
        let opts = ExecOpts::new().threads(4).probe(probe.clone());
        let res = program
            .compile(&[n])
            .execute::<f64, _>(&kernel, &opts)
            .unwrap();
        let per_trial = res.probes[0].unwrap() / n as f64;
        assert!(per_trial > last - 1e-9, "N={n}: {per_trial} vs {last}");
        last = per_trial;
    }
    assert!(
        last > 0.58,
        "adaptivity should clearly beat 0.5, got {last}"
    );
}

#[test]
fn bandit3_hybrid_agrees_with_dense() {
    let problem = Bandit3::default();
    let n = 6i64;
    let want = problem.solve_dense(n);
    let program = Bandit3::program(2).unwrap();
    let opts = ExecOpts::new()
        .ranks(2)
        .threads(2)
        .probe(Probe::at(&[0; 6]));
    let res = program
        .compile(&[n])
        .execute::<f64, _>(&problem.kernel(), &opts)
        .unwrap();
    assert!((res.probes[0].unwrap() - want).abs() < 1e-9);
}

#[test]
fn alignment_problems_agree_under_every_balance_method() {
    let a = random_sequence(30, 5);
    let b = random_sequence(26, 6);
    let problem = EditDistance::new(&a, &b);
    let want = problem.solve_dense();
    let program = EditDistance::program(5).unwrap();
    let params = problem.params();
    let probe = Probe::at(&[params[0], params[1]]);
    for balance in [
        BalanceMethod::Slabs { lb_dims: vec![0] },
        BalanceMethod::Slabs {
            lb_dims: vec![0, 1],
        },
        BalanceMethod::Hyperplane,
    ] {
        let opts = ExecOpts::new()
            .ranks(3)
            .threads(2)
            .balance(balance.clone())
            .stall_timeout(std::time::Duration::from_secs(60))
            .probe(probe.clone());
        let res = program
            .compile(&params)
            .execute::<i64, _>(&problem, &opts)
            .unwrap();
        assert_eq!(res.probes[0].unwrap(), want, "{balance:?}");
    }
}

#[test]
fn priorities_do_not_change_results() {
    let a = random_sequence(24, 7);
    let b = random_sequence(24, 8);
    let problem = Lcs::new(&[&a, &b]);
    let want = problem.solve_dense();
    let program = Lcs::program(2, 4).unwrap();
    let params = problem.params();
    for priority in [TilePriority::column_major(2), TilePriority::LevelSet] {
        let opts = ExecOpts::new()
            .threads(4)
            .priority(priority.clone())
            .probe(Probe::at(&problem.goal()));
        let res = program
            .compile(&params)
            .execute::<i64, _>(&problem, &opts)
            .unwrap();
        assert_eq!(res.probes[0].unwrap(), want, "{priority:?}");
    }
}

#[test]
fn msa3_hybrid_with_tiny_buffers() {
    let a = random_sequence(10, 9);
    let b = random_sequence(9, 10);
    let c = random_sequence(8, 11);
    let problem = Msa::new(&[&a, &b, &c]);
    let want = problem.solve_dense();
    let program = Msa::program(3, 3).unwrap();
    let opts = ExecOpts::new()
        .ranks(4)
        .threads(2)
        .comm(CommConfig {
            send_buffers: 1,
            recv_buffers: 1,
            ..CommConfig::default()
        })
        .balance(BalanceMethod::Slabs {
            lb_dims: vec![0, 1],
        })
        .stall_timeout(std::time::Duration::from_secs(60))
        .probe(Probe::at(&problem.goal()));
    let res = program
        .compile(&problem.params())
        .execute::<i64, _>(&problem, &opts)
        .unwrap();
    assert_eq!(res.probes[0].unwrap(), want);
}

#[test]
fn spec_text_round_trip_runs() {
    // Full path: text file -> parse -> generate -> run.
    let program = Program::parse(
        "name triangle\n\
         vars x y\n\
         params N\n\
         constraint x >= 0\n\
         constraint y >= 0\n\
         constraint x + y <= N\n\
         template r1 1 0\n\
         template r2 0 1\n\
         order x y\n\
         loadbalance x\n\
         widths 4 4\n",
    )
    .unwrap();
    let kernel = |cell: dpgen::tiling::tiling::CellRef<'_>, values: &mut [u64]| {
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
    };
    let opts = ExecOpts::new().threads(2).probe(Probe::at(&[0, 0]));
    let res = program
        .compile(&[10])
        .execute::<u64, _>(&kernel, &opts)
        .unwrap();
    // f(0,0) counts monotone lattice paths of length N+1 from the
    // hypotenuse: 2^(N+1).
    assert_eq!(res.probes[0], Some(2u64.pow(11)));
}
