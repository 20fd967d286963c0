//! Tile priorities (Section V-B, Figures 4 and 5 of the paper).
//!
//! Tiles are not calculated in a fixed order but popped from a priority
//! queue as their dependencies are satisfied. The execution plan changes
//! peak memory by up to a factor of `d`: the paper's Figure 4 contrasts
//! column-major order (about `n + 1` buffered edges on an `n × n` grid)
//! with level-set order (about `2(n − 1)`, but maximal parallelism).
//!
//! The generated code's actual priority (Figure 5) prefers column-major
//! order with the load-balancing dimensions as the highest priority, so
//! tiles whose edges must be communicated to other nodes execute early.
//!
//! Priorities are *flow-adjusted*: a dimension whose templates are positive
//! executes from high tile indices down (Figure 3), so "earlier" along that
//! dimension means a larger index. [`TilePriority::ordering`] sorts a tile
//! graph's tiles into that order, earliest first.

use crate::rng::SplitMix64;
use dpgen_tiling::{TileGraph, TileOrdering};
use std::sync::Arc;

/// Ordering policy for the ready-tile priority queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TilePriority {
    /// Column-major in the given dimension order (highest priority first).
    /// This is the paper's Figure 5 priority when the order starts with the
    /// load-balancing dimensions.
    ColumnMajor {
        /// Problem-dimension indices, most significant first.
        dim_order: Vec<usize>,
    },
    /// Execute by level sets (anti-diagonal wavefronts): maximal parallelism
    /// at the cost of up to `d ×` edge memory (Figure 4(b)).
    LevelSet,
}

impl TilePriority {
    /// Column-major over dimensions `0, 1, …, d-1`.
    pub fn column_major(dims: usize) -> TilePriority {
        TilePriority::ColumnMajor {
            dim_order: (0..dims).collect(),
        }
    }

    /// The priority used by the paper's generated code (Figure 5):
    /// column-major with the load-balancing dimensions most significant,
    /// followed by the remaining dimensions in index order.
    pub fn paper_default(dims: usize, lb_dims: &[usize]) -> TilePriority {
        let mut order: Vec<usize> = lb_dims.to_vec();
        for k in 0..dims {
            if !order.contains(&k) {
                order.push(k);
            }
        }
        TilePriority::ColumnMajor { dim_order: order }
    }

    /// A reproducible pseudo-random priority for a given seed: one of the
    /// two policy families above, column-major with a randomly permuted
    /// dimension order.
    ///
    /// Any seed must produce a *valid* total order — this only varies which
    /// of the legal execution plans is chosen, so differential testers (the
    /// spec fuzzer) can sweep schedules without ever constructing an order
    /// the scheduler would reject.
    pub fn seeded(dims: usize, seed: u64) -> TilePriority {
        let mut rng = SplitMix64::new(seed);
        match rng.next_below(2) {
            0 => TilePriority::LevelSet,
            _ => {
                let mut dim_order: Vec<usize> = (0..dims).collect();
                rng.shuffle(&mut dim_order);
                TilePriority::ColumnMajor { dim_order }
            }
        }
    }

    /// `graph`'s tiles in this priority's order, with every tile's position
    /// in it: what the scheduler's ready heaps and the simulator's key on.
    /// Column-major compares flow-adjusted coordinates in `dim_order`,
    /// level-set their sum and then the coordinates in index order; either
    /// way a full key is unique per tile, so no arrival number is needed to
    /// break ties. Sorted once per graph and order ([`TileGraph::ordering`]).
    pub fn ordering(&self, graph: &TileGraph) -> Arc<TileOrdering> {
        match self {
            TilePriority::ColumnMajor { dim_order } => graph.ordering(false, dim_order),
            TilePriority::LevelSet => graph.ordering(true, &[]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_puts_lb_dims_first() {
        let p = TilePriority::paper_default(3, &[2]);
        match p {
            TilePriority::ColumnMajor { dim_order } => assert_eq!(dim_order, vec![2, 0, 1]),
            _ => unreachable!(),
        }
    }

    #[test]
    fn seeded_is_reproducible_and_valid() {
        for seed in 0..32u64 {
            let a = TilePriority::seeded(3, seed);
            let b = TilePriority::seeded(3, seed);
            assert_eq!(a, b);
            if let TilePriority::ColumnMajor { dim_order } = a {
                let mut sorted = dim_order.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, vec![0, 1, 2]);
            }
        }
    }
}
