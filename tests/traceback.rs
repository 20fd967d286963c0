//! The traceback's forward pass is an ordinary execution: whatever ran it —
//! threads, ranks, schedule, a rank killed and recovered — the retained
//! edge log is the same, and walking it gives the dense reference's path.

use dpgen::core::traceback::{EdgeLog, Traceback};
use dpgen::core::{ExecOpts, Plan};
use dpgen::mpisim::{FaultPlan, KillTrigger, ReliabilityConfig};
use dpgen::problems::{random_sequence, Msa};
use dpgen::runtime::{run_reference, PerCell, RunError, Schedule};
use std::sync::Arc;
use std::time::Duration;

/// Three random sequences of length `len`, and their width-8 plan.
fn msa3(len: usize) -> (Msa, Arc<Plan>) {
    let seqs: Vec<Vec<u8>> = (0..3).map(|k| random_sequence(len, 100 + k)).collect();
    let problem = Msa::new(&[&seqs[0], &seqs[1], &seqs[2]]);
    let plan = Msa::program(3, 8).unwrap().compile(&problem.params());
    (problem, plan)
}

/// Goal to origin by `Msa::decide`: the first move whose cost accounts for
/// the cell.
fn trace(
    problem: &Msa,
    plan: &Plan,
    log: &EdgeLog<i64>,
) -> Result<(Vec<Vec<i64>>, usize), RunError> {
    let graph = plan.graph()?;
    let mut tb = Traceback::new(&graph, problem, log);
    let path = tb.trace(&problem.goal(), &mut |cell, values| {
        problem.decide(cell, values)
    })?;
    let path = path.iter().map(|x| x.as_slice().to_vec()).collect();
    Ok((path, tb.tiles_recomputed))
}

/// The same walk over the dense, untiled table.
fn dense_path(problem: &Msa, plan: &Plan) -> Vec<Vec<i64>> {
    let dense = run_reference::<i64, _>(plan.tiling(), &problem.params(), problem);
    let moves = plan.tiling().templates().templates();
    let mut x = problem.goal();
    let mut path = vec![x.clone()];
    while x.iter().any(|&c| c != 0) {
        let prev = |m: usize| -> Vec<i64> {
            let offset = moves[m].offset.as_slice();
            x.iter().zip(offset).map(|(a, b)| a + b).collect()
        };
        let m = (0..moves.len())
            .find(|&m| {
                dense.get(&prev(m)).is_some_and(|v| {
                    let column = problem.column_cost(&x, moves[m].offset.as_slice());
                    Some(v + column) == dense.get(&x)
                })
            })
            .expect("some move accounts for every cell but the origin");
        x = prev(m);
        path.push(x.clone());
    }
    path
}

#[test]
fn every_execution_retains_the_same_log_and_traces_the_dense_path() {
    let (problem, plan) = msa3(23);
    let graph = plan.graph().unwrap();
    let want_path = dense_path(&problem, &plan);
    // What the model says a forward pass packs: the third leg of
    // `model_and_runtime_agree_on_the_dag`.
    let edge_cells = graph.edge_cells().unwrap();
    let modelled: u64 = (0..graph.len())
        .flat_map(|i| (0..graph.tiling().deps().len()).map(move |d| (i, d)))
        .filter(|&(i, d)| graph.consumer(i, d).is_some())
        .map(|(i, d)| edge_cells.get(i, d))
        .sum();

    let mut matrix = Vec::new();
    for schedule in [Schedule::Dynamic, Schedule::Static] {
        for (threads, ranks) in [(1usize, 1usize), (3, 1), (1, 2), (2, 2)] {
            let opts = ExecOpts::new().threads(threads).ranks(ranks);
            matrix.push(opts.schedule(schedule));
        }
    }
    let mut killed = ExecOpts::new()
        .threads(2)
        .ranks(2)
        .max_recoveries(1)
        .reliability(ReliabilityConfig {
            heartbeat_interval: Some(Duration::from_millis(2)),
            death_timeout: Duration::from_millis(100),
            ..ReliabilityConfig::default()
        });
    killed.comm.faults = Some(FaultPlan::kill_rank_at(0, KillTrigger::AfterSends(1)));
    matrix.push(killed);

    let mut first = None;
    for opts in &matrix {
        let (out, log) = plan
            .execute_logged::<i64, _>(&PerCell(&problem), opts)
            .unwrap();
        let lost = opts.max_recoveries;
        assert_eq!(out.recovery.ranks_lost, lost, "{opts:?}");
        if opts.schedule == Schedule::Static {
            let pinned = |r: &dpgen::runtime::NodeResult<i64>| r.stats.schedule == Schedule::Static;
            assert!(out.per_rank.iter().all(pinned), "{opts:?}");
        }
        assert_eq!(log.total_cells() as u64, modelled, "{opts:?}");
        let mut edges: Vec<_> = (0..graph.len())
            .map(|t| log.edges_for(t).to_vec())
            .collect();
        edges.iter_mut().for_each(|e| e.sort());
        let (path, recomputed) = trace(&problem, &plan, &log).unwrap();
        assert_eq!(path, want_path, "{opts:?}");
        let (want_edges, want_recomputed) = first.get_or_insert((edges.clone(), recomputed));
        assert!(&edges == want_edges, "{opts:?}: another log");
        assert_eq!(recomputed, *want_recomputed, "{opts:?}");
    }
}

/// Lengths 40 and 41 tile alike (216 tiles, the same dependencies) but
/// their boundary edges differ in size: one's log does not fit the other.
#[test]
fn a_log_of_another_binding_is_a_bad_edge_not_a_wrong_path() {
    let (problem, plan) = msa3(40);
    let (other, other_plan) = msa3(41);
    assert_eq!(
        plan.graph().unwrap().len(),
        other_plan.graph().unwrap().len()
    );
    let (_, log) = other_plan
        .execute_logged::<i64, _>(&PerCell(&other), &ExecOpts::new())
        .unwrap();
    let err = trace(&problem, &plan, &log).unwrap_err();
    let RunError::BadEdge(fault) = &err else {
        panic!("expected BadEdge, got {err}");
    };
    assert!(fault.detail.contains("cells, tiling expects"), "{err}");
}
