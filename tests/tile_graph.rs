//! The tile graph at the sizes the unit tests do not reach, and the
//! simulation of the one DAG the benchmark simulates.
//!
//! `dpgen-tiling`'s property tests hold every tile, link and class of small
//! graphs to the tiling. Here one graph of more than 10^5 tiles is held to
//! it on a seeded sample, and the `des_scaling` DAG's simulated makespans
//! are pinned to the bit.

use dpgen::core::{BalanceMethod, LoadBalance};
use dpgen::problems::{Bandit2, Lcs};
use dpgen::runtime::{SingleOwner, SplitMix64, TilePriority};
use dpgen_des::{simulate, simulate_on, SimConfig};
use std::sync::Arc;

/// 2-D LCS at width 1: one tile per cell, 321^2 = 103 041 tiles in rows of
/// 321. Sampled tiles' links and dependency counts are what the tiling says
/// of their neighbours, one membership test each.
#[test]
fn a_graph_of_a_hundred_thousand_tiles_agrees_with_its_tiling() {
    let program = Lcs::program(2, 1).unwrap();
    let tiling = program.tiling();
    let params = [320, 320];
    let graph = tiling.graph(&params);
    assert_eq!(graph.len(), 321 * 321);
    let mut point = tiling.make_point(&params);
    let mut rng = SplitMix64::new(0x7115);
    // Both corners, then a seeded sample.
    let corners = [0, graph.len() - 1].into_iter();
    let sample = corners.chain((0..2000).map(|_| rng.next_below(graph.len() as u64) as usize));
    for i in sample {
        let t = graph.coord(i);
        assert_eq!(graph.index_of(&t), Some(i));
        assert_eq!(
            graph.dep_total(i),
            tiling.dep_total(&t, &mut point),
            "tile {t}"
        );
        for (dep_idx, dep) in tiling.deps().iter().enumerate() {
            for (found, neighbour) in [
                (graph.source(i, dep_idx), t.add(&dep.delta)),
                (graph.consumer(i, dep_idx), t.sub(&dep.delta)),
            ] {
                let exists = tiling.tile_in_space(&neighbour, &mut point);
                assert_eq!(found.is_some(), exists, "tile {t} dep {dep_idx}");
                if let Some(n) = found {
                    assert_eq!(graph.coord(n), neighbour, "tile {t} dep {dep_idx}");
                }
            }
        }
    }
}

/// The `des_scaling` workload's two simulations of the `lcs_batched` DAG
/// (LCS 1535^2 at width 48, 1024 tiles): 24 shared-memory workers, and 4
/// ranks x 6 threads over the load balancer's slabs along dimension 0. The
/// simulator is deterministic, so its makespans repeat to the bit whatever
/// derives the graph it reads.
///
/// Re-pinned when the model began to dispatch through the runtime's rule —
/// a heap per virtual worker, an empty worker robbing the richest — in
/// place of one heap per rank that any free worker drew from: the steal
/// order moved the shared makespan 3.4672 → 3.4615 ms and the hybrid one
/// 8.312 → 6.414 ms. The remote traffic did not move.
#[test]
fn the_des_scaling_dag_simulates_to_the_pinned_bits() {
    let program = Lcs::program(2, 48).unwrap();
    let tiling = program.tiling();
    let params = [1535, 1535];
    let shared = simulate(tiling, &params, &SingleOwner, &SimConfig::shared(24, 2));
    let method = BalanceMethod::Slabs { lb_dims: vec![0] };
    let owner = LoadBalance::compute(tiling, &params, 4, &method).into_owner();
    let hybrid = simulate(tiling, &params, &owner, &SimConfig::hybrid(4, 6, 2, &[0]));
    assert_eq!(shared.makespan.to_bits(), 4570128171889681936);
    assert_eq!(hybrid.makespan.to_bits(), 4574045248065856796);
    assert_eq!((hybrid.msgs_remote, hybrid.cells_remote), (189, 4701));
    assert_eq!((shared.tiles, shared.cells), (1024, 1536 * 1536));
}

/// What the simulator's dispatch does not touch keeps the bits it had
/// while each rank dispatched from one heap: with one worker per rank a
/// rank's one heap under the runtime's dispatch rule is that heap, so a
/// `Dynamic` makespan (and every rank's busy and idle time) is unchanged;
/// the critical path and the remote traffic are the DAG's and the owners',
/// at every worker count. Recorded on LCS at width 48 (N = 1535) and the
/// 2-arm bandit at width 8 (N = 48) over the load balancer's slabs, before
/// the model routed ready tiles as the runtime does. `fold` mixes the busy
/// and idle bits of every rank.
#[test]
fn one_worker_per_rank_and_the_dag_keep_their_bits() {
    type Pin = (&'static str, usize, &'static str, u64, u64, u64, u64, u64);
    #[rustfmt::skip]
    let pins: [Pin; 18] = [
        ("lcs", 1, "paper_default", 0x3fa9_9a0d_d522_282a, 0xf533_41ba_a445_0547, 0x3f69_346e_f27c_08db, 0, 0),
        ("lcs", 1, "pipelined", 0x3fa9_9a0d_d522_282a, 0xf533_41ba_a445_0547, 0x3f69_346e_f27c_08db, 0, 0),
        ("lcs", 1, "level_set", 0x3fa9_9a0d_d522_282b, 0xf533_41ba_a445_0567, 0x3f69_346e_f27c_08db, 0, 0),
        ("lcs", 2, "paper_default", 0x3fa8_d445_abca_8d5c, 0x67f7_1c08_5095_157b, 0x3f69_3fb9_75cf_5c62, 63, 1567),
        ("lcs", 2, "pipelined", 0x3f9a_6854_fe09_2fc1, 0x7d1e_0983_1c49_15b5, 0x3f69_3fb9_75cf_5c62, 63, 1567),
        ("lcs", 2, "level_set", 0x3fa0_3438_15f1_0302, 0x7b72_d567_99a9_b1d5, 0x3f69_3fb9_75cf_5c62, 63, 1567),
        ("lcs", 4, "paper_default", 0x3fa7_48b5_591b_57be, 0xc882_13d1_7137_27f1, 0x3f69_564e_7c76_0370, 189, 4701),
        ("lcs", 4, "pipelined", 0x3f8c_0a82_64f4_a148, 0xa174_0369_c81d_e278, 0x3f69_564e_7c76_0370, 189, 4701),
        ("lcs", 4, "level_set", 0x3f92_384c_3b86_ad91, 0x2ebc_8e84_bf7c_31b7, 0x3f69_564e_7c76_0370, 189, 4701),
        ("bandit2", 1, "paper_default", 0x3f7a_e7db_4ea3_59c2, 0xef5c_fb69_d46b_3847, 0x3f3e_8334_0db4_daa3, 0, 0),
        ("bandit2", 1, "pipelined", 0x3f7a_e7db_4ea3_59c2, 0xef5c_fb69_d46b_3847, 0x3f3e_8334_0db4_daa3, 0, 0),
        ("bandit2", 1, "level_set", 0x3f7a_e7db_4ea3_59c7, 0xef5c_fb69_d46b_38e7, 0x3f3e_8334_0db4_daa3, 0, 0),
        ("bandit2", 2, "paper_default", 0x3f72_feb8_8ad4_0c90, 0xc240_d332_5564_c4ab, 0x3f3f_1bcf_1379_03a1, 56, 12341),
        ("bandit2", 2, "pipelined", 0x3f6c_51c0_f915_3b5c, 0xcbf7_7897_1c72_399f, 0x3f3f_1bcf_1379_03a1, 56, 12341),
        ("bandit2", 2, "level_set", 0x3f6c_51c0_f915_3b62, 0xcbf7_7897_1c71_387f, 0x3f3f_1bcf_1379_03a1, 56, 12341),
        ("bandit2", 4, "paper_default", 0x3f68_a15b_1dcc_b364, 0x6444_3511_c091_0540, 0x3f40_1427_ddc8_2551, 114, 25321),
        ("bandit2", 4, "pipelined", 0x3f60_5cbe_0ad6_e26a, 0x5545_cfff_a83a_5d0f, 0x3f40_1427_ddc8_2551, 114, 25321),
        ("bandit2", 4, "level_set", 0x3f60_073a_9812_9718, 0xe718_d7e8_ea47_4053, 0x3f40_1427_ddc8_2551, 114, 25321),
    ];
    let lcs = Lcs::program(2, 48).unwrap();
    let bandit2 = Bandit2::program(8).unwrap();
    for (problem, ranks, order, makespan, fold, critical_path, msgs, cells) in pins {
        let (program, params, lb_dims) = match problem {
            "lcs" => (&lcs, vec![1535, 1535], vec![0]),
            _ => (&bandit2, vec![48], vec![0, 1]),
        };
        let graph = Arc::new(program.tiling().graph(&params));
        let dims = graph.tiling().dims();
        let method = BalanceMethod::Slabs {
            lb_dims: lb_dims.clone(),
        };
        let owner = LoadBalance::compute_on(&graph, ranks, &method);
        let priority = match order {
            "paper_default" => TilePriority::paper_default(dims, &lb_dims),
            "pipelined" => TilePriority::pipelined(dims, &lb_dims),
            _ => TilePriority::LevelSet,
        };
        for threads in [1, 2, 6, 24] {
            let config = SimConfig {
                priority: priority.clone(),
                ..SimConfig::hybrid(ranks, threads, dims, &lb_dims)
            };
            let s = simulate_on(&graph, &owner, &config).unwrap();
            let case = format!("{problem} {ranks} x {threads} {order}");
            let dag = (s.critical_path.to_bits(), s.msgs_remote, s.cells_remote);
            assert_eq!(dag, (critical_path, msgs, cells), "{case}");
            if threads == 1 {
                let times = s.busy.iter().chain(&s.idle).map(|t| t.to_bits());
                let folded = times.fold(0u64, |h, t| h.rotate_left(5) ^ t);
                assert_eq!((s.makespan.to_bits(), folded), (makespan, fold), "{case}");
            }
        }
    }
}
