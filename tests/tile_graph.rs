//! The tile graph at the sizes the unit tests do not reach, and the
//! simulation of the one DAG the benchmark simulates.
//!
//! `dpgen-tiling`'s property tests hold every tile, link and class of small
//! graphs to the tiling. Here one graph of more than 10^5 tiles is held to
//! it on a seeded sample, and the `des_scaling` DAG's simulated makespans
//! are pinned to the bit.

use dpgen::core::{BalanceMethod, LoadBalance};
use dpgen::problems::Lcs;
use dpgen::runtime::{SingleOwner, SplitMix64};
use dpgen_des::{simulate, SimConfig};

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
        let t = graph.tiles()[i];
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
                    assert_eq!(graph.tiles()[n], neighbour, "tile {t} dep {dep_idx}");
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
#[test]
fn the_des_scaling_dag_simulates_to_the_pinned_bits() {
    let program = Lcs::program(2, 48).unwrap();
    let tiling = program.tiling();
    let params = [1535, 1535];
    let shared = simulate(tiling, &params, &SingleOwner, &SimConfig::shared(24, 2));
    let method = BalanceMethod::Slabs { lb_dims: vec![0] };
    let owner = LoadBalance::compute(tiling, &params, 4, &method).into_owner();
    let hybrid = simulate(tiling, &params, &owner, &SimConfig::hybrid(4, 6, 2, &[0]));
    assert_eq!(shared.makespan.to_bits(), 4570141278301346304);
    assert_eq!(hybrid.makespan.to_bits(), 4575944981392601763);
    assert_eq!((hybrid.msgs_remote, hybrid.cells_remote), (189, 4701));
    assert_eq!((shared.tiles, shared.cells), (1024, 1536 * 1536));
}
