//! The `Coord`-keyed scheduler the runtime ran on until tiles got a dense
//! index, cut down to what `benchmark/` still calls.
//!
//! [`crate::scheduler::TileScheduler`] is the scheduler: `run_node`, the
//! tests and everything else in the workspace use it. This one is kept
//! because `benchmark/` (which a change that claims a gain may not edit)
//! times `ShardedScheduler::{new, mark_initial, pop, deliver_batch}` as
//! `runtime.sched_ns_per_tile`, and because it is what the index scheduler
//! is held to: `tests/scheduler_invariants.rs` drives both over one DAG and
//! requires the same pop sequence and the same peaks. It needs no tile
//! graph — tiles are whatever coordinates arrive — and pays for that with a
//! pending table of `Coord`-hashed shards (locked once per shard per batch,
//! after a sort of the batch by shard), a `Vec` per pending tile and a
//! `Vec<i64>` key per ready tile. It goes with ROADMAP item 1.

use crate::memory::MemoryStats;
use crate::priority::TilePriority;
use dpgen_tiling::{Coord, Direction};
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// One edge delivery to [`ShardedScheduler::deliver_batch`].
#[doc(hidden)]
pub struct EdgeDelivery<T> {
    /// The consumer tile.
    pub tile: Coord,
    /// The dependency offset this edge satisfies.
    pub delta: Coord,
    /// Packed boundary cells.
    pub payload: Vec<T>,
    /// The consumer's full dependency count.
    pub total: usize,
}

/// A tile's buffered edges: `(dependency offset, payload)` pairs.
#[doc(hidden)]
pub type CoordEdges<T> = Vec<(Coord, Vec<T>)>;

struct Pending<T> {
    edges: CoordEdges<T>,
    total: usize,
}

/// A ready tile carrying its buffered edges (min-heap via `Reverse`).
struct ReadyTile<T> {
    key: Vec<i64>,
    tile: Coord,
    edges: CoordEdges<T>,
}

impl<T> PartialEq for ReadyTile<T> {
    fn eq(&self, other: &ReadyTile<T>) -> bool {
        self.key == other.key
    }
}

impl<T> Eq for ReadyTile<T> {}

impl<T> Ord for ReadyTile<T> {
    fn cmp(&self, other: &ReadyTile<T>) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

impl<T> PartialOrd for ReadyTile<T> {
    fn partial_cmp(&self, other: &ReadyTile<T>) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct WorkerQueue<T> {
    heap: Mutex<BinaryHeap<Reverse<ReadyTile<T>>>>,
    /// Mirror of `heap.len()`, only written while `heap` is locked.
    len: AtomicUsize,
}

/// See the [module docs](self).
#[doc(hidden)]
pub struct ShardedScheduler<T> {
    priority: TilePriority,
    directions: Vec<Direction>,
    shards: Vec<Mutex<HashMap<Coord, Pending<T>>>>,
    shard_mask: u64,
    queues: Vec<WorkerQueue<T>>,
    seq: AtomicU64,
    stats: Arc<MemoryStats>,
}

/// The heap key of a tile: its flow-adjusted coordinates in the priority's
/// order, then the arrival number `seq` (the tie-break that makes the
/// queue a total order). Smaller keys pop first.
fn key(priority: &TilePriority, tile: &Coord, directions: &[Direction], seq: u64) -> Vec<i64> {
    let flow = |k: usize| match directions[k] {
        Direction::Descending => -tile[k],
        Direction::Ascending => tile[k],
    };
    let mut key = Vec::with_capacity(tile.dims() + 2);
    match priority {
        TilePriority::ColumnMajor { dim_order } => key.extend(dim_order.iter().map(|&k| flow(k))),
        TilePriority::LevelSet => {
            key.push((0..tile.dims()).map(flow).sum());
            key.extend((0..tile.dims()).map(flow));
        }
    }
    key.push(seq as i64);
    key
}

fn hash_coord(tile: &Coord) -> u64 {
    // Same multiplicative mix as Coord's Hash.
    const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    let mut h: u64 = tile.dims() as u64;
    for &v in tile.as_slice() {
        h = (h.rotate_left(5) ^ (v as u64)).wrapping_mul(K);
    }
    h
}

impl<T> ShardedScheduler<T> {
    /// New scheduler for `workers` threads, with `8 × workers` pending
    /// shards rounded up to a power of two (minimum 16).
    pub fn new(
        priority: TilePriority,
        directions: Vec<Direction>,
        workers: usize,
        stats: Arc<MemoryStats>,
    ) -> ShardedScheduler<T> {
        let workers = workers.max(1);
        let shard_count = (workers * 8).next_power_of_two().max(16);
        ShardedScheduler {
            priority,
            directions,
            shards: (0..shard_count)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            shard_mask: shard_count as u64 - 1,
            queues: (0..workers)
                .map(|_| WorkerQueue {
                    heap: Mutex::new(BinaryHeap::new()),
                    len: AtomicUsize::new(0),
                })
                .collect(),
            seq: AtomicU64::new(0),
            stats,
        }
    }

    fn shard_of(&self, tile: &Coord) -> usize {
        (hash_coord(tile) & self.shard_mask) as usize
    }

    fn push_ready(&self, worker: usize, tile: Coord, edges: CoordEdges<T>) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let key = key(&self.priority, &tile, &self.directions, seq);
        let q = &self.queues[worker];
        let mut heap = q.heap.lock();
        heap.push(Reverse(ReadyTile { key, tile, edges }));
        q.len.store(heap.len(), Ordering::Release);
    }

    /// Enqueue a tile with no dependencies, round-robin over the queues.
    pub fn mark_initial(&self, tile: Coord) {
        let turn = self.seq.load(Ordering::Relaxed) + 1;
        self.push_ready((turn % self.queues.len() as u64) as usize, tile, Vec::new());
    }

    /// Apply one delivery to an already-locked shard; `Some(edges)` when it
    /// completed the tile's dependency set.
    fn deliver_into(
        &self,
        map: &mut HashMap<Coord, Pending<T>>,
        e: EdgeDelivery<T>,
    ) -> Option<CoordEdges<T>> {
        self.stats.edges_buffered(1, e.payload.len());
        let entry = match map.entry(e.tile) {
            Entry::Occupied(o) => o.into_mut(),
            Entry::Vacant(v) => {
                self.stats.tiles_pending(1, 0);
                v.insert(Pending {
                    edges: Vec::with_capacity(e.total),
                    total: e.total,
                })
            }
        };
        entry.edges.push((e.delta, e.payload));
        if entry.edges.len() == entry.total {
            self.stats.tiles_pending(0, 1);
            map.remove(&e.tile).map(|pending| pending.edges)
        } else {
            None
        }
    }

    /// Deliver a batch of edges, acquiring each shard's lock once per
    /// batch; newly ready tiles go to `worker`'s queue. Returns how many
    /// tiles became ready. The batch is drained in place.
    pub fn deliver_batch(&self, worker: usize, batch: &mut Vec<EdgeDelivery<T>>) -> usize {
        batch.sort_unstable_by_key(|e| self.shard_of(&e.tile));
        let mut newly_ready = 0usize;
        let mut it = batch.drain(..).peekable();
        while let Some(first) = it.next() {
            let shard_idx = self.shard_of(&first.tile);
            let mut ready: Vec<(Coord, CoordEdges<T>)> = Vec::new();
            {
                let mut shard = self.shards[shard_idx].lock();
                let mut next = Some(first);
                while let Some(e) = next {
                    let tile = e.tile;
                    if let Some(edges) = self.deliver_into(&mut shard, e) {
                        ready.push((tile, edges));
                    }
                    next = it.next_if(|e| self.shard_of(&e.tile) == shard_idx);
                }
            }
            // Queue pushes happen after the shard lock is dropped so the
            // scheduler never holds two locks at once.
            newly_ready += ready.len();
            for (tile, edges) in ready {
                self.push_ready(worker, tile, edges);
            }
        }
        newly_ready
    }

    fn pop_from(&self, queue: usize) -> Option<ReadyTile<T>> {
        let q = &self.queues[queue];
        if q.len.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut heap = q.heap.lock();
        let got = heap.pop();
        q.len.store(heap.len(), Ordering::Release);
        got.map(|Reverse(t)| t)
    }

    /// Pop the next tile for `worker`: its own queue first, then the
    /// richest other queue's best.
    pub fn pop(&self, worker: usize) -> Option<(Coord, CoordEdges<T>)> {
        let entry = self.pop_from(worker).or_else(|| {
            let lens = self.queues.iter().map(|q| q.len.load(Ordering::Acquire));
            let (victim, _) = lens
                .enumerate()
                .filter(|&(i, len)| i != worker && len > 0)
                .max_by_key(|&(i, len)| (len, Reverse(i)))?;
            self.pop_from(victim)
        })?;
        let cells = entry.edges.iter().map(|(_, payload)| payload.len()).sum();
        self.stats.edges_consumed(entry.edges.len(), cells);
        Some((entry.tile, entry.edges))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ASC2: [Direction; 2] = [Direction::Ascending, Direction::Ascending];
    const DESC2: [Direction; 2] = [Direction::Descending, Direction::Descending];

    fn k(p: &TilePriority, tile: [i64; 2], directions: &[Direction], seq: u64) -> Vec<i64> {
        key(p, &Coord::from_slice(&tile), directions, seq)
    }

    #[test]
    fn column_major_orders_columns_first() {
        let p = TilePriority::column_major(2);
        // Ascending flow: (0, 5) before (1, 0).
        assert!(k(&p, [0, 5], &ASC2, 0) < k(&p, [1, 0], &ASC2, 1));
        // Within a column, smaller second coordinate first.
        assert!(k(&p, [1, 2], &ASC2, 0) < k(&p, [1, 3], &ASC2, 1));
    }

    #[test]
    fn descending_flow_flips_order() {
        let p = TilePriority::column_major(2);
        // Descending flow (positive templates): larger coordinates first.
        assert!(k(&p, [3, 0], &DESC2, 0) < k(&p, [2, 9], &DESC2, 1));
    }

    #[test]
    fn level_set_orders_by_wavefront() {
        let p = TilePriority::LevelSet;
        // Level 2 tiles before level 3 tiles.
        assert!(k(&p, [0, 2], &ASC2, 5) < k(&p, [3, 0], &ASC2, 0));
        assert!(k(&p, [2, 0], &ASC2, 5) < k(&p, [1, 2], &ASC2, 0));
        // Same level: deterministic lexicographic tie-break.
        assert!(k(&p, [0, 2], &ASC2, 1) < k(&p, [1, 1], &ASC2, 0));
    }

    #[test]
    fn every_key_ends_in_the_arrival_number() {
        let p = TilePriority::LevelSet;
        assert!(k(&p, [1, 1], &ASC2, 0) < k(&p, [1, 1], &ASC2, 1));
    }
}
