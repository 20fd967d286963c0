//! The sharded, work-stealing tile scheduler.
//!
//! The node-local tile scheduler (Section V-B of the paper): a *pending
//! table* holding, for every tile with at least one satisfied dependency,
//! the edges buffered so far, and *ready queues* of tiles whose
//! dependencies are all satisfied. Only pending tiles are stored — while
//! the iteration space has `Θ(n^d)` locations, at most `O(n^{d-1})` tiles
//! can be pending at once, an order-of-magnitude memory saving.
//!
//! A single queue behind one lock serializes every pop and every edge
//! delivery — exactly the contention the paper's Section VII-C warns about
//! for large core counts. This scheduler avoids it with three ideas:
//!
//! 1. **Per-worker ready deques.** Each worker owns a priority queue of
//!    ready tiles. Tiles a worker makes ready go to its own queue (locality:
//!    the producing worker just touched the neighbouring tile's edges), so
//!    an executing worker usually pops from a lock nobody else wants. When
//!    its queue is empty it *steals* from the richest other queue, chosen by
//!    cheap atomic length counters.
//! 2. **A sharded pending table.** The `Coord → buffered edges` map is
//!    split into `8 × workers` shards (rounded up to a power of two, at
//!    least 16) by a multiplicative hash of the tile coordinates; concurrent
//!    deliveries to different tiles almost never share a lock.
//! 3. **Batched delivery.** A worker accumulates the outgoing local edges
//!    of the tile it just executed and delivers them grouped by shard — one
//!    lock acquisition per shard per batch instead of one per edge.
//!
//! Priority ordering consequently becomes *best-effort per worker*: each
//! queue pops in true priority order, but a stolen tile may run before a
//! better-priority tile in a busy queue. The paper's priority is itself
//! only a memory/communication heuristic (Section V-B), so results are
//! unchanged — every tile still executes exactly once, after all of its
//! dependencies (see `tests/scheduler_invariants.rs`).
//!
//! Contention is observable: the scheduler counts steals, failed steals
//! (the length counter raced to empty) and the time spent *waiting* for
//! contended locks (a `try_lock` that succeeds costs nothing).

use crate::memory::MemoryStats;
use crate::priority::TilePriority;
use crate::schedule::StaticPlan;
use crate::trace::{EventKind, Tracer};
use dpgen_tiling::{Coord, Direction};
use parking_lot::{Mutex, MutexGuard};
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One local edge delivery, buffered by a worker while it packs the tile it
/// just executed and handed to [`ShardedScheduler::deliver_batch`].
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

/// A tile's buffered incoming edges: `(dependency delta, packed payload)`
/// pairs, handed to the kernel when the tile executes.
pub type TileEdges<T> = Vec<(Coord, Vec<T>)>;

struct Pending<T> {
    edges: TileEdges<T>,
    total: usize,
}

/// A ready tile carrying its buffered edges (min-heap via `Reverse`).
struct ReadyTile<T> {
    key: Vec<i64>,
    tile: Coord,
    edges: TileEdges<T>,
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
    /// Mirror of `heap.len()`, readable without the lock (steal victim
    /// selection and the idle-wait check). Only written while `heap` is
    /// locked, so it equals `heap.len()` whenever the lock is free: a
    /// counter updated after the guard dropped lets two poppers that both
    /// read 1 subtract twice before the matching add lands, wrapping it.
    len: AtomicUsize,
}

/// Sharded work-stealing scheduler; all methods take `&self`.
pub struct ShardedScheduler<T> {
    priority: TilePriority,
    directions: Vec<Direction>,
    shards: Vec<Mutex<HashMap<Coord, Pending<T>>>>,
    shard_mask: u64,
    queues: Vec<WorkerQueue<T>>,
    /// Statically pinned tiles whose dependency sets are complete, parked
    /// here (instead of the ready heaps) until their owner's cursor reaches
    /// them. Sharded by the same Coord hash as the pending table.
    static_shards: Vec<Mutex<HashMap<Coord, TileEdges<T>>>>,
    /// Mirror of the total static-ready count, readable without locks.
    static_len: AtomicUsize,
    plan: Option<Arc<StaticPlan>>,
    seq: AtomicU64,
    stats: Arc<MemoryStats>,
    steals: AtomicU64,
    steal_fails: AtomicU64,
    lock_wait_ns: AtomicU64,
    tracer: Option<Arc<Tracer>>,
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
    /// New scheduler for `workers` threads. The pending table gets
    /// `8 × workers` shards rounded up to a power of two (minimum 16): with
    /// a uniform hash, the probability that two of `w` simultaneous
    /// deliveries share a shard stays below `w²/(2·8w) ≈ 6%` per batch.
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
            static_shards: (0..shard_count)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            static_len: AtomicUsize::new(0),
            plan: None,
            seq: AtomicU64::new(0),
            stats,
            steals: AtomicU64::new(0),
            steal_fails: AtomicU64::new(0),
            lock_wait_ns: AtomicU64::new(0),
            tracer: None,
        }
    }

    /// Attach an event tracer: `TileReady` is recorded when a tile enters
    /// a ready queue, `Steal` when a worker takes a tile from a sibling.
    pub fn with_tracer(mut self, tracer: Option<Arc<Tracer>>) -> ShardedScheduler<T> {
        self.tracer = tracer;
        self
    }

    /// Attach a static plan: ready tiles the plan pins are routed to the
    /// static-ready table (popped by [`ShardedScheduler::take_static`] in
    /// plan order) instead of the work-stealing heaps.
    pub fn with_plan(mut self, plan: Option<Arc<StaticPlan>>) -> ShardedScheduler<T> {
        self.plan = plan;
        self
    }

    /// Number of worker queues.
    pub fn workers(&self) -> usize {
        self.queues.len()
    }

    /// Number of pending-table shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, tile: &Coord) -> usize {
        (hash_coord(tile) & self.shard_mask) as usize
    }

    /// Lock `m`, charging any wait (the lock was contended) to
    /// `lock_wait_ns`.
    fn timed_lock<'a, U>(&self, m: &'a Mutex<U>) -> MutexGuard<'a, U> {
        if let Some(g) = m.try_lock() {
            return g;
        }
        let t0 = Instant::now();
        let g = m.lock();
        self.lock_wait_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        g
    }

    fn push_ready(&self, worker: usize, entry: ReadyTile<T>) {
        if let Some(t) = &self.tracer {
            t.record(worker, EventKind::TileReady, Some(&entry.tile), 0);
        }
        let q = &self.queues[worker];
        let mut heap = self.timed_lock(&q.heap);
        heap.push(Reverse(entry));
        q.len.store(heap.len(), Ordering::Release);
    }

    fn make_ready(&self, tile: Coord, edges: TileEdges<T>) -> ReadyTile<T> {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let key = self.priority.key(&tile, &self.directions, seq);
        ReadyTile { key, tile, edges }
    }

    /// Route a tile whose dependency set just completed: statically pinned
    /// tiles park in the static-ready table (their owner's cursor will
    /// collect them), everything else goes to `worker`'s ready heap.
    fn route_ready(&self, worker: usize, tile: Coord, edges: TileEdges<T>) {
        if self.plan.as_ref().is_some_and(|p| p.is_member(&tile)) {
            if let Some(t) = &self.tracer {
                t.record(worker, EventKind::TileReady, Some(&tile), 1);
            }
            let mut shard = self.timed_lock(&self.static_shards[self.shard_of(&tile)]);
            let prev = shard.insert(tile, edges);
            debug_assert!(prev.is_none(), "tile {tile} readied twice");
            // Counted before the shard unlocks: a taker can only find the
            // tile after its add landed, so `static_len` never underflows.
            self.static_len.fetch_add(1, Ordering::Release);
        } else {
            let entry = self.make_ready(tile, edges);
            self.push_ready(worker, entry);
        }
    }

    /// Enqueue a tile with no dependencies (Section IV-K). Initial tiles
    /// are spread round-robin over the worker queues (statically pinned
    /// ones go straight to the static-ready table).
    pub fn mark_initial(&self, tile: Coord) {
        if self.plan.as_ref().is_some_and(|p| p.is_member(&tile)) {
            self.route_ready(0, tile, Vec::new());
            return;
        }
        let entry = self.make_ready(tile, Vec::new());
        let worker = (self.seq.load(Ordering::Relaxed) % self.queues.len() as u64) as usize;
        self.push_ready(worker, entry);
    }

    /// Apply one delivery to an already-locked shard; `Some(edges)` when it
    /// completed the tile's dependency set.
    fn deliver_into(
        &self,
        map: &mut HashMap<Coord, Pending<T>>,
        tile: Coord,
        delta: Coord,
        payload: Vec<T>,
        total: usize,
    ) -> Option<TileEdges<T>> {
        debug_assert!(total > 0, "tile with zero deps must use mark_initial");
        self.stats.edge_buffered(payload.len());
        let entry = match map.entry(tile) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => {
                self.stats.tile_pending();
                v.insert(Pending {
                    edges: Vec::with_capacity(total),
                    total,
                })
            }
        };
        debug_assert_eq!(entry.total, total, "inconsistent dependency totals");
        debug_assert!(
            !entry.edges.iter().any(|(d, _)| *d == delta),
            "duplicate edge {delta} for tile {tile}"
        );
        entry.edges.push((delta, payload));
        if entry.edges.len() == entry.total {
            let pending = map.remove(&tile).unwrap();
            self.stats.tile_unpended();
            Some(pending.edges)
        } else {
            None
        }
    }

    /// Deliver a batch of edges — a finished tile's local outputs, or the
    /// edges a node's receive pass collected — acquiring each shard's lock
    /// once per batch. Newly ready tiles go to `worker`'s own queue.
    /// Returns how many tiles became ready.
    ///
    /// The batch vector is drained in place and keeps its capacity, so a
    /// worker that presizes it once (from the tiling's dependency count)
    /// never reallocates it again.
    pub fn deliver_batch(&self, worker: usize, batch: &mut Vec<EdgeDelivery<T>>) -> usize {
        if batch.is_empty() {
            return 0;
        }
        // Group by shard so each lock round-trip covers every edge bound
        // for that shard. Batches are tiny (one per dependency template),
        // so an in-place sort beats any bucketing structure.
        batch.sort_unstable_by_key(|e| self.shard_of(&e.tile));
        let mut newly_ready = 0usize;
        let mut it = batch.drain(..).peekable();
        while let Some(first) = it.next() {
            let shard_idx = self.shard_of(&first.tile);
            let mut ready: Vec<(Coord, TileEdges<T>)> = Vec::new();
            {
                let mut shard = self.timed_lock(&self.shards[shard_idx]);
                let mut deliver = |e: EdgeDelivery<T>, shard: &mut HashMap<Coord, Pending<T>>| {
                    if let Some(edges) =
                        self.deliver_into(shard, e.tile, e.delta, e.payload, e.total)
                    {
                        ready.push((e.tile, edges));
                    }
                };
                deliver(first, &mut shard);
                while it
                    .peek()
                    .map(|e| self.shard_of(&e.tile) == shard_idx)
                    .unwrap_or(false)
                {
                    let e = it.next().unwrap();
                    deliver(e, &mut shard);
                }
            }
            // Queue pushes happen after the shard lock is dropped so the
            // scheduler never holds two locks at once.
            newly_ready += ready.len();
            for (tile, edges) in ready {
                self.route_ready(worker, tile, edges);
            }
        }
        newly_ready
    }

    fn pop_from(&self, queue: usize) -> Option<ReadyTile<T>> {
        let q = &self.queues[queue];
        if q.len.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut heap = self.timed_lock(&q.heap);
        let got = heap.pop();
        q.len.store(heap.len(), Ordering::Release);
        got.map(|Reverse(t)| t)
    }

    /// Steal the best tile from the richest other queue (by the racy
    /// length counters). A victim that raced to empty counts as a failed
    /// steal; the caller simply retries its loop.
    fn steal(&self, worker: usize) -> Option<ReadyTile<T>> {
        if self.queues.len() <= 1 {
            return None;
        }
        let mut victim = None;
        let mut best = 0usize;
        for (i, q) in self.queues.iter().enumerate() {
            if i == worker {
                continue;
            }
            let len = q.len.load(Ordering::Acquire);
            if len > best {
                best = len;
                victim = Some(i);
            }
        }
        let v = victim?;
        match self.pop_from(v) {
            Some(t) => {
                self.steals.fetch_add(1, Ordering::Relaxed);
                if let Some(tr) = &self.tracer {
                    tr.record(worker, EventKind::Steal, Some(&t.tile), v as u64);
                }
                Some(t)
            }
            None => {
                self.steal_fails.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Pop the next tile for `worker`: its own queue first, then a steal
    /// from the richest other queue.
    pub fn pop(&self, worker: usize) -> Option<(Coord, TileEdges<T>)> {
        let entry = self.pop_from(worker).or_else(|| self.steal(worker))?;
        for (_, payload) in &entry.edges {
            self.stats.edge_consumed(payload.len());
        }
        Some((entry.tile, entry.edges))
    }

    /// Take a statically pinned tile if its dependency set is complete.
    /// The caller (the worker whose plan sequence names `tile` next) keeps
    /// polling until this succeeds, draining dynamic work in the meantime
    /// under [`crate::Schedule::Mixed`].
    pub fn take_static(&self, tile: &Coord) -> Option<TileEdges<T>> {
        if self.static_len.load(Ordering::Acquire) == 0 {
            return None;
        }
        let got = self
            .timed_lock(&self.static_shards[self.shard_of(tile)])
            .remove(tile);
        let edges = got?;
        self.static_len.fetch_sub(1, Ordering::Release);
        for (_, payload) in &edges {
            self.stats.edge_consumed(payload.len());
        }
        Some(edges)
    }

    /// Whether `tile` is parked in the static-ready table right now (the
    /// idle-wait check for a worker blocked on its plan cursor; racy in the
    /// same bounded way as the queue length counters).
    pub fn static_ready_contains(&self, tile: &Coord) -> bool {
        if self.static_len.load(Ordering::Acquire) == 0 {
            return false;
        }
        self.timed_lock(&self.static_shards[self.shard_of(tile)])
            .contains_key(tile)
    }

    /// Total ready tiles across all queues, including statically parked
    /// ones (approximate under concurrency).
    pub fn ready_len(&self) -> usize {
        self.queues
            .iter()
            .map(|q| q.len.load(Ordering::Acquire))
            .sum::<usize>()
            + self.static_len.load(Ordering::Acquire)
    }

    /// Ready tiles in the dynamic heaps only (excludes static-parked).
    pub fn dynamic_ready_len(&self) -> usize {
        self.queues
            .iter()
            .map(|q| q.len.load(Ordering::Acquire))
            .sum()
    }

    /// Total pending (partially satisfied) tiles across all shards.
    pub fn pending_len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Pending-tile count per shard — the stall watchdog's view of where
    /// unfinished dependency sets are parked.
    pub fn pending_per_shard(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.lock().len()).collect()
    }

    /// Shared memory counters.
    pub fn stats(&self) -> &Arc<MemoryStats> {
        &self.stats
    }

    /// Successful steals so far.
    pub fn steal_count(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Steal attempts that found the victim already empty.
    pub fn steal_fail_count(&self) -> u64 {
        self.steal_fails.load(Ordering::Relaxed)
    }

    /// Summed time workers spent blocked on contended scheduler locks.
    pub fn lock_wait(&self) -> Duration {
        Duration::from_nanos(self.lock_wait_ns.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(priority: TilePriority, workers: usize) -> ShardedScheduler<f64> {
        ShardedScheduler::new(
            priority,
            vec![Direction::Ascending, Direction::Ascending],
            workers,
            Arc::new(MemoryStats::new()),
        )
    }

    fn c(v: &[i64]) -> Coord {
        Coord::from_slice(v)
    }

    /// A one-edge `deliver_batch`; `true` when it made the tile ready.
    fn deliver(
        s: &ShardedScheduler<f64>,
        worker: usize,
        tile: Coord,
        delta: Coord,
        payload: Vec<f64>,
        total: usize,
    ) -> bool {
        let mut batch = vec![EdgeDelivery {
            tile,
            delta,
            payload,
            total,
        }];
        s.deliver_batch(worker, &mut batch) == 1
    }

    #[test]
    fn single_worker_pops_in_priority_order() {
        let s = sched(TilePriority::column_major(2), 1);
        s.mark_initial(c(&[2, 0]));
        s.mark_initial(c(&[0, 1]));
        s.mark_initial(c(&[0, 0]));
        assert_eq!(s.ready_len(), 3);
        assert_eq!(s.pop(0).unwrap().0, c(&[0, 0]));
        assert_eq!(s.pop(0).unwrap().0, c(&[0, 1]));
        assert_eq!(s.pop(0).unwrap().0, c(&[2, 0]));
        assert!(s.pop(0).is_none());
        assert_eq!(s.steal_count(), 0);
    }

    #[test]
    fn fifo_pops_in_arrival_order() {
        let s = sched(TilePriority::Fifo, 1);
        s.mark_initial(c(&[5, 5]));
        s.mark_initial(c(&[0, 0]));
        assert_eq!(s.pop(0).unwrap().0, c(&[5, 5]));
        assert_eq!(s.pop(0).unwrap().0, c(&[0, 0]));
    }

    #[test]
    fn shard_assignment_is_spread() {
        let s = sched(TilePriority::Fifo, 1);
        let mut counts = vec![0usize; s.shard_count()];
        for x in 0..20i64 {
            for y in 0..20 {
                counts[s.shard_of(&c(&[x, y]))] += 1;
            }
        }
        // 400 tiles over 16 shards: no shard starved or swamped.
        for (shard, &n) in counts.iter().enumerate() {
            assert!((10..=50).contains(&n), "shard {shard} got {n} of 400 tiles");
        }
    }

    #[test]
    fn batch_delivery_readies_tiles() {
        let s = sched(TilePriority::Fifo, 2);
        let t = c(&[1, 1]);
        let mut batch = vec![
            EdgeDelivery {
                tile: t,
                delta: c(&[-1, 0]),
                payload: vec![1.0, 2.0],
                total: 2,
            },
            EdgeDelivery {
                tile: t,
                delta: c(&[0, -1]),
                payload: vec![3.0],
                total: 2,
            },
        ];
        let cap = batch.capacity();
        let made_ready = s.deliver_batch(0, &mut batch);
        assert_eq!(made_ready, 1);
        // Drained in place: empty but capacity preserved for reuse.
        assert!(batch.is_empty());
        assert_eq!(batch.capacity(), cap);
        assert_eq!(s.pending_len(), 0);
        let (tile, edges) = s.pop(0).unwrap();
        assert_eq!(tile, t);
        assert_eq!(edges.len(), 2);
        assert_eq!(s.stats().current_edges(), 0);
    }

    #[test]
    fn partial_batch_stays_pending() {
        let s = sched(TilePriority::Fifo, 1);
        let made_ready = s.deliver_batch(
            0,
            &mut vec![EdgeDelivery {
                tile: c(&[1, 1]),
                delta: c(&[-1, 0]),
                payload: vec![],
                total: 2,
            }],
        );
        assert_eq!(made_ready, 0);
        assert_eq!(s.pending_len(), 1);
        assert!(s.pop(0).is_none());
        assert_eq!(s.stats().current_pending_tiles(), 1);
    }

    #[test]
    fn empty_worker_steals_from_richest() {
        let s = sched(TilePriority::Fifo, 2);
        // Deliveries from worker 0 land in worker 0's queue.
        assert!(deliver(&s, 0, c(&[1, 0]), c(&[-1, 0]), vec![1.0], 1));
        assert!(deliver(&s, 0, c(&[2, 0]), c(&[-1, 0]), vec![2.0], 1));
        // Worker 1 has nothing local: both pops are steals.
        assert!(s.pop(1).is_some());
        assert!(s.pop(1).is_some());
        assert_eq!(s.steal_count(), 2);
        assert!(s.pop(1).is_none());
        assert_eq!(s.ready_len(), 0);
    }

    #[test]
    fn memory_stats_follow_edge_lifecycle() {
        let stats = Arc::new(MemoryStats::new());
        let s: ShardedScheduler<f64> = ShardedScheduler::new(
            TilePriority::Fifo,
            vec![Direction::Ascending],
            1,
            stats.clone(),
        );
        deliver(&s, 0, c(&[1]), c(&[-1]), vec![0.0; 5], 1);
        assert_eq!(stats.peak_edge_cells(), 5);
        assert_eq!(stats.current_edges(), 1);
        s.pop(0).unwrap();
        assert_eq!(stats.current_edges(), 0);
        assert_eq!(stats.peak_edge_cells(), 5);
    }

    #[test]
    fn shard_count_scales_with_workers() {
        assert_eq!(sched(TilePriority::Fifo, 1).shard_count(), 16);
        assert_eq!(sched(TilePriority::Fifo, 4).shard_count(), 32);
        assert_eq!(sched(TilePriority::Fifo, 24).shard_count(), 256);
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    #[cfg(debug_assertions)]
    fn duplicate_edge_is_detected() {
        let s = sched(TilePriority::Fifo, 1);
        deliver(&s, 0, c(&[1, 0]), c(&[-1, 0]), vec![], 2);
        deliver(&s, 0, c(&[1, 0]), c(&[-1, 0]), vec![], 2);
    }

    #[test]
    fn plan_members_bypass_the_heaps() {
        use crate::schedule::{Schedule, StaticPlan};
        let pinned = c(&[1, 0]);
        let free = c(&[0, 1]);
        let plan = StaticPlan::from_sequences(vec![vec![pinned]], Schedule::Mixed);
        let s = sched(TilePriority::Fifo, 2).with_plan(Some(Arc::new(plan)));
        // A pinned tile completing its deps parks in the static table …
        assert!(deliver(&s, 0, pinned, c(&[-1, 0]), vec![1.0], 1));
        assert_eq!(s.dynamic_ready_len(), 0);
        assert_eq!(s.ready_len(), 1);
        assert!(s.pop(0).is_none(), "pinned tile must not reach the heaps");
        // … and is only reachable through take_static, with edge accounting.
        assert!(s.take_static(&free).is_none());
        let edges = s.take_static(&pinned).unwrap();
        assert_eq!(edges.len(), 1);
        assert_eq!(s.stats().current_edges(), 0);
        // Non-members still flow through the dynamic path.
        s.mark_initial(free);
        assert_eq!(s.pop(0).unwrap().0, free);
        assert_eq!(s.ready_len(), 0);
    }

    #[test]
    fn concurrent_delivery_and_popping_conserves_tiles() {
        // 4 producers each deliver disjoint single-dep tiles; 4 consumers
        // pop everything. Every tile must surface exactly once.
        let s = Arc::new(sched(TilePriority::LevelSet, 4));
        let popped = Arc::new(AtomicU64::new(0));
        const PER: i64 = 200;
        std::thread::scope(|scope| {
            for w in 0..4usize {
                let s = s.clone();
                scope.spawn(move || {
                    for i in 0..PER {
                        deliver(&s, w, c(&[w as i64, i]), c(&[0, -1]), vec![1.0], 1);
                    }
                });
            }
            for w in 0..4usize {
                let s = s.clone();
                let popped = popped.clone();
                scope.spawn(move || loop {
                    if s.pop(w).is_some() {
                        popped.fetch_add(1, Ordering::Relaxed);
                    } else if popped.load(Ordering::Relaxed) == 4 * PER as u64 {
                        break;
                    } else {
                        std::thread::yield_now();
                    }
                });
            }
        });
        assert_eq!(popped.load(Ordering::Relaxed), 4 * PER as u64);
        assert_eq!(s.ready_len(), 0);
        assert_eq!(s.pending_len(), 0);
        assert_eq!(s.stats().current_edges(), 0);
    }
}
