//! Tile priorities (Section V-B, Figures 4 and 5 of the paper).
//!
//! Tiles are not calculated in a fixed order but popped from a priority
//! queue as their dependencies are satisfied. The execution plan changes
//! peak memory by up to a factor of `d`: the paper's Figure 4 contrasts
//! column-major order (about `n + 1` buffered edges on an `n × n` grid)
//! with level-set order (about `2(n − 1)`, but maximal parallelism).
//!
//! The paper's Figure 5 gives its priority one purpose: tiles whose edges
//! must be communicated to other nodes execute early. Read as printed —
//! column-major with the load-balancing dimensions most significant
//! ([`TilePriority::paper_default`]) — it does the opposite: a rank sweeps
//! its slabs one after the other, so the slab its downstream neighbour
//! waits for comes last and the ranks run as a chain. The runtime's
//! default is therefore [`TilePriority::pipelined`], the load-balancing
//! dimensions *least* significant: every slab advances one column at a
//! time, so a rank feeds its neighbour from its first tile on. Both are
//! column-major, so both buffer about `n + 1` edges on an `n × n` grid.
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
    /// load-balancing dimensions, and the runtime's pipelined default when
    /// it ends with them.
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

    /// The Figure 5 order as printed: column-major with the load-balancing
    /// dimensions most significant, followed by the remaining dimensions in
    /// index order. What the emitted C program uses and the simulator's
    /// paper configuration models; the runtime's default is
    /// [`TilePriority::pipelined`].
    pub fn paper_default(dims: usize, lb_dims: &[usize]) -> TilePriority {
        let mut order: Vec<usize> = lb_dims.to_vec();
        for k in 0..dims {
            if !order.contains(&k) {
                order.push(k);
            }
        }
        TilePriority::ColumnMajor { dim_order: order }
    }

    /// The pipelined wavefront, the runtime's default order: column-major
    /// with the dimensions outside `lb_dims` most significant, in index
    /// order, and `lb_dims` last, in their given order. A rank advances all
    /// of its slabs together, so the tiles a downstream rank waits for are
    /// among its first, not its last.
    pub fn pipelined(dims: usize, lb_dims: &[usize]) -> TilePriority {
        let mut order: Vec<usize> = (0..dims).filter(|k| !lb_dims.contains(k)).collect();
        order.extend_from_slice(lb_dims);
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
    fn pipelined_puts_lb_dims_last() {
        let order = |p: TilePriority| match p {
            TilePriority::ColumnMajor { dim_order } => dim_order,
            _ => unreachable!(),
        };
        assert_eq!(order(TilePriority::pipelined(4, &[0, 1])), vec![2, 3, 0, 1]);
        assert_eq!(order(TilePriority::pipelined(2, &[0])), vec![1, 0]);
        assert_eq!(order(TilePriority::pipelined(3, &[2, 0])), vec![1, 2, 0]);
        // No lb dims, or all of them in index order: plain column-major.
        for lb_dims in [&[][..], &[0, 1, 2]] {
            assert_eq!(
                TilePriority::pipelined(3, lb_dims),
                TilePriority::column_major(3)
            );
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
