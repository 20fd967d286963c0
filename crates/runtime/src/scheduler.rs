//! The node-local tile scheduler, keyed by tile index.
//!
//! The paper's scheduler (Section V-B) is a *pending table* holding, for
//! every tile with at least one satisfied dependency, the edges buffered so
//! far, and *ready queues* of tiles whose dependencies are all satisfied.
//! Only pending tiles hold data — while the iteration space has `Θ(n^d)`
//! locations, at most `O(n^{d-1})` tiles can be pending at once, an
//! order-of-magnitude memory saving.
//!
//! Every tile of a run has a dense index in the plan's [`TileGraph`], which
//! also knows how many edges each tile waits for, so the table is an array:
//!
//! 1. **One slot per tile.** A slot is a lock around the `(dependency,
//!    payload)` pairs buffered for that tile and a one-byte state — 40 bytes
//!    a tile, allocated per run; payload storage still exists only for
//!    pending tiles. A delivery names its consumer by index, takes that one
//!    tile's lock and compares the edges arrived with the graph's
//!    `dep_total`: no coordinate is hashed, and two deliveries contend only
//!    when they feed the same tile.
//! 2. **Per-worker ready heaps of two integers.** A ready tile stays in its
//!    slot and its `(key, index)` goes to the heap of the worker that made
//!    it ready (locality: that worker just touched the neighbouring tile's
//!    edges), so an executing worker usually pops from a lock nobody else
//!    wants; an empty worker *steals* from the richest other heap, chosen
//!    by atomic length mirrors. The key is the tile's position in the
//!    priority's total order ([`TilePriority::ordering`], sorted once per
//!    graph and priority and looked up here when the scheduler is built).
//! 3. **A static plan picks the heap and the key, nothing else.** In a run
//!    with a [`StaticPlan`] a ready tile goes to its *home* worker's heap —
//!    the one its pipeline row is dealt to — keyed by its position in the
//!    plan's order. Popping and stealing do not tell the two apart.
//!
//! Which heap a ready tile enters, under which key, and which heap an
//! empty worker robs is one plain value, the [`DispatchRule`]: this
//! scheduler applies it under its locks, and the simulator (`dpgen-des`)
//! applies it to plain heaps of virtual workers, so the model dispatches
//! as the run does.
//!
//! Priority ordering is *best-effort per worker*: each heap pops in true
//! priority order, but a stolen tile may run before a better-priority tile
//! in a busy heap. The paper's priority is itself only a
//! memory/communication heuristic (Section V-B), so results are unchanged —
//! every tile still executes exactly once, after all of its dependencies
//! (see `tests/scheduler_invariants.rs`).
//!
//! Contention is observable: the scheduler counts steals, failed steals
//! (the length counter raced to empty) and the time spent *waiting* for
//! contended locks (a `try_lock` that succeeds costs nothing).

use crate::error::PendingTile;
use crate::memory::MemoryStats;
use crate::priority::TilePriority;
use crate::schedule::StaticPlan;
use crate::trace::{EventKind, Tracer};
use dpgen_tiling::{TileGraph, TileOrdering};
use parking_lot::{Mutex, MutexGuard};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One edge on its way to its consumer, buffered by a worker while it packs
/// the tile it just executed and handed to [`TileScheduler::deliver`]. Also
/// the form a recovery checkpoint retains an edge in.
#[derive(Debug, Clone)]
pub struct Delivery<T> {
    /// The consumer tile's index in the graph.
    pub tile: usize,
    /// Which of the tiling's dependencies this edge satisfies.
    pub dep: usize,
    /// Packed boundary cells.
    pub payload: Vec<T>,
}

/// A tile's buffered incoming edges: `(dependency index, packed payload)`
/// pairs, handed to the kernel when the tile executes.
pub type TileEdges<T> = Vec<(usize, Vec<T>)>;

/// A second edge arrived for one dependency of one tile, or an edge for a
/// tile that already had them all: [`TileScheduler::deliver`]'s error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DuplicateEdge {
    /// The consumer tile's index.
    pub tile: usize,
    /// The dependency delivered twice.
    pub dep: usize,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum State {
    /// Fewer edges than the tile's `dep_total` have arrived.
    Waiting,
    /// Complete and in a ready heap.
    Queued,
    /// Handed to a worker.
    Taken,
}

struct Slot<T> {
    edges: TileEdges<T>,
    state: State,
}

/// A run's dispatch rule over `workers` ready heaps: which heap a ready
/// tile enters, its key there, and which heap an empty worker robs. A
/// plain value, read without locks — [`TileScheduler`] applies it under its
/// heap locks, the simulator to plain per-virtual-worker heaps.
#[derive(Debug, Clone)]
pub struct DispatchRule {
    /// The heaps' keys: the plan's order when there is a plan, else the
    /// priority's.
    ordering: Arc<TileOrdering>,
    /// The run's static plan: when present, a ready tile goes to its home
    /// worker's heap.
    plan: Option<Arc<StaticPlan>>,
    workers: usize,
}

impl DispatchRule {
    /// The rule of a run of `workers` workers over `graph`: keyed by
    /// `priority`, or, when the run has a static `plan` (built on `graph`),
    /// homed and keyed by the plan.
    pub fn new(
        graph: &TileGraph,
        priority: &TilePriority,
        workers: usize,
        plan: Option<Arc<StaticPlan>>,
    ) -> DispatchRule {
        let ordering = match &plan {
            Some(p) => p.ordering().clone(),
            None => priority.ordering(graph),
        };
        DispatchRule {
            ordering,
            plan,
            workers: workers.max(1),
        }
    }

    /// How many heaps the rule deals over (at least one).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The heap tile `tile` enters when `worker` readies it — its home
    /// worker's in a planned run, else `worker`'s own — and its key there.
    pub fn route(&self, worker: usize, tile: usize) -> (usize, u32) {
        let home = (self.plan.as_ref()).and_then(|p| p.home(tile, self.workers));
        (home.unwrap_or(worker), self.key(tile))
    }

    /// The worker that readies the `nth` initial tile (counting from zero):
    /// initial tiles are dealt round-robin from worker 1 (in a planned run
    /// [`DispatchRule::route`] then sends them home).
    pub fn dealt(&self, nth: u32) -> usize {
        (nth as usize + 1) % self.workers
    }

    /// The heap an empty `worker` robs, given every heap's length: the
    /// richest other one, ties to the lowest index; `None` when every other
    /// heap is empty.
    pub fn victim(&self, worker: usize, lens: impl Iterator<Item = usize>) -> Option<usize> {
        let others = lens.enumerate().filter(|&(i, len)| i != worker && len > 0);
        let (victim, _) = others.max_by_key(|&(i, len)| (len, Reverse(i)))?;
        Some(victim)
    }

    /// Tile `tile`'s key: its position in the rule's order.
    pub fn key(&self, tile: usize) -> u32 {
        self.ordering.rank[tile]
    }
}

#[derive(Default)]
struct WorkerQueue {
    heap: Mutex<BinaryHeap<Reverse<(u32, u32)>>>,
    /// Mirror of `heap.len()`, readable without the lock (steal victim
    /// selection and the idle-wait check). Only written while `heap` is
    /// locked, so it equals `heap.len()` whenever the lock is free: a
    /// counter updated after the guard dropped lets two poppers that both
    /// read 1 subtract twice before the matching add lands, wrapping it.
    len: AtomicUsize,
}

/// Index-keyed work-stealing scheduler over one [`TileGraph`]; all methods
/// take `&self`.
pub struct TileScheduler<'g, T> {
    graph: &'g TileGraph,
    /// Which queue a ready tile enters, under which key, and which queue an
    /// empty worker robs.
    rule: DispatchRule,
    slots: Vec<Mutex<Slot<T>>>,
    queues: Vec<WorkerQueue>,
    /// How many initial tiles have been dealt over the queues.
    seq: AtomicU32,
    stats: Arc<MemoryStats>,
    steals: AtomicU64,
    steal_fails: AtomicU64,
    lock_wait_ns: AtomicU64,
    tracer: Option<Arc<Tracer>>,
}

impl<'g, T> TileScheduler<'g, T> {
    /// New scheduler for `workers` threads over `graph`'s tiles, keyed by
    /// `priority` — or, when the run has a static `plan` (built on
    /// `graph`), homed and keyed by the plan.
    pub fn new(
        graph: &'g TileGraph,
        priority: TilePriority,
        workers: usize,
        stats: Arc<MemoryStats>,
        plan: Option<Arc<StaticPlan>>,
    ) -> TileScheduler<'g, T> {
        let slot = || Slot {
            edges: Vec::new(),
            state: State::Waiting,
        };
        let rule = DispatchRule::new(graph, &priority, workers, plan);
        TileScheduler {
            graph,
            slots: (0..graph.len()).map(|_| Mutex::new(slot())).collect(),
            queues: (0..rule.workers())
                .map(|_| WorkerQueue::default())
                .collect(),
            rule,
            seq: AtomicU32::new(0),
            stats,
            steals: AtomicU64::new(0),
            steal_fails: AtomicU64::new(0),
            lock_wait_ns: AtomicU64::new(0),
            tracer: None,
        }
    }

    /// Attach an event tracer: `TileReady` is recorded when a tile's last
    /// edge arrives, `Steal` when a worker takes a tile from a sibling.
    pub fn with_tracer(mut self, tracer: Option<Arc<Tracer>>) -> TileScheduler<'g, T> {
        self.tracer = tracer;
        self
    }

    /// Lock `m`, charging any wait (the lock was contended) to
    /// `lock_wait_ns`.
    #[allow(clippy::disallowed_methods, reason = "a lock's own profile timer")]
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

    /// Push a tile whose slot was just marked `Queued` onto the ready heap
    /// the rule routes it to from `worker` (the one that readied it).
    fn route_ready(&self, worker: usize, tile: usize) {
        if let Some(t) = &self.tracer {
            t.record(worker, EventKind::TileReady, Some(tile), 0);
        }
        let (queue, key) = self.rule.route(worker, tile);
        let q = &self.queues[queue];
        let mut heap = self.timed_lock(&q.heap);
        heap.push(Reverse((key, tile as u32)));
        q.len.store(heap.len(), Ordering::Release);
    }

    /// Enqueue a tile with no dependencies (Section IV-K). Initial tiles
    /// are spread round-robin over the worker queues (in a planned run
    /// they go home).
    pub fn mark_initial(&self, tile: usize) {
        self.timed_lock(&self.slots[tile]).state = State::Queued;
        let nth = self.seq.fetch_add(1, Ordering::Relaxed);
        self.route_ready(self.rule.dealt(nth), tile);
    }

    /// Deliver a batch of edges — a finished tile's local outputs, or the
    /// edges a node's receive pass collected — each under its consumer's
    /// own lock. Newly ready tiles go to `worker`'s queue (or home, in a
    /// planned run). Returns how many tiles became ready, or the first edge
    /// that repeats one already delivered (it is dropped; the rest of the
    /// batch is delivered all the same).
    ///
    /// The batch vector is drained in place and keeps its capacity, so a
    /// worker that presizes it once (from the tiling's dependency count)
    /// never reallocates it again.
    pub fn deliver(
        &self,
        worker: usize,
        batch: &mut Vec<Delivery<T>>,
    ) -> Result<usize, DuplicateEdge> {
        if batch.is_empty() {
            return Ok(0);
        }
        let (mut edges, mut cells, mut started, mut completed) = (0, 0, 0, 0);
        let mut duplicate = None;
        for Delivery { tile, dep, payload } in batch.drain(..) {
            let total = self.graph.dep_total(tile);
            let readied = {
                let mut slot = self.timed_lock(&self.slots[tile]);
                if slot.state != State::Waiting || slot.edges.iter().any(|(d, _)| *d == dep) {
                    duplicate.get_or_insert(DuplicateEdge { tile, dep });
                    continue;
                }
                if slot.edges.is_empty() {
                    started += 1;
                    slot.edges.reserve_exact(total);
                }
                edges += 1;
                cells += payload.len();
                slot.edges.push((dep, payload));
                let readied = slot.edges.len() == total;
                if readied {
                    slot.state = State::Queued;
                }
                readied
            };
            // The heap is pushed after the slot unlocks, so the scheduler
            // never holds two locks at once.
            if readied {
                completed += 1;
                self.route_ready(worker, tile);
            }
        }
        self.stats.edges_buffered(edges, cells);
        self.stats.tiles_pending(started, completed);
        match duplicate {
            Some(dup) => Err(dup),
            None => Ok(completed),
        }
    }

    fn pop_from(&self, queue: usize) -> Option<usize> {
        let q = &self.queues[queue];
        if q.len.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut heap = self.timed_lock(&q.heap);
        let got = heap.pop();
        q.len.store(heap.len(), Ordering::Release);
        got.map(|Reverse((_, tile))| tile as usize)
    }

    /// Steal the best tile from the richest other queue (by the racy
    /// length counters). A victim that raced to empty counts as a failed
    /// steal; the caller simply retries its loop.
    fn steal(&self, worker: usize) -> Option<usize> {
        let lens = self.queues.iter().map(|q| q.len.load(Ordering::Acquire));
        let victim = self.rule.victim(worker, lens)?;
        let Some(tile) = self.pop_from(victim) else {
            self.steal_fails.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        self.steals.fetch_add(1, Ordering::Relaxed);
        if let Some(tr) = &self.tracer {
            tr.record(worker, EventKind::Steal, Some(tile), victim as u64);
        }
        Some(tile)
    }

    /// Pop the next tile for `worker`: its own queue first, then a steal
    /// from the richest other queue.
    pub fn pop(&self, worker: usize) -> Option<(usize, TileEdges<T>)> {
        let tile = self.pop_from(worker).or_else(|| self.steal(worker))?;
        let edges = {
            let mut slot = self.timed_lock(&self.slots[tile]);
            debug_assert!(
                slot.state == State::Queued,
                "a heap holds queued tiles only"
            );
            slot.state = State::Taken;
            std::mem::take(&mut slot.edges)
        };
        let cells = edges.iter().map(|(_, payload)| payload.len()).sum();
        self.stats.edges_consumed(edges.len(), cells);
        Some((tile, edges))
    }

    /// Total ready tiles across all queues (approximate under
    /// concurrency).
    pub fn ready_len(&self) -> usize {
        let lens = self.queues.iter().map(|q| q.len.load(Ordering::Acquire));
        lens.sum()
    }

    /// The pending tiles — at least one edge buffered, not all — as `(tile,
    /// dependencies arrived)`. A scan of every slot: for the stall path and
    /// for tests.
    fn pending(&self) -> Vec<(usize, Vec<usize>)> {
        let mut pending = Vec::new();
        for (tile, slot) in self.slots.iter().enumerate() {
            let slot = slot.lock();
            if slot.state == State::Waiting && !slot.edges.is_empty() {
                pending.push((tile, slot.edges.iter().map(|(dep, _)| *dep).collect()));
            }
        }
        pending
    }

    /// Total pending (partially satisfied) tiles.
    pub fn pending_len(&self) -> usize {
        self.pending().len()
    }

    /// The (up to) `limit` pending tiles that come first in the heaps'
    /// order, each with what it still waits for — the stall watchdog's view
    /// of where the run is stuck.
    pub fn pending_tiles(&self, limit: usize) -> Vec<PendingTile> {
        let mut pending = self.pending();
        pending.sort_unstable_by_key(|(tile, _)| self.rule.key(*tile));
        pending.truncate(limit);
        let deps = self.graph.tiling().deps();
        let describe = |(tile, arrived): (usize, Vec<usize>)| PendingTile {
            tile: self.graph.coord(tile),
            arrived: arrived.len(),
            total: self.graph.dep_total(tile),
            missing: (0..deps.len())
                .filter(|dep| self.graph.source(tile, *dep).is_some() && !arrived.contains(dep))
                .map(|dep| deps[dep].delta)
                .collect(),
        };
        pending.into_iter().map(describe).collect()
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
    use dpgen_polyhedra::{ConstraintSystem, Space};
    use dpgen_tiling::{Coord, Template, TemplateSet, TilingBuilder};

    /// The tile graph of an `(nx + 1) × (ny + 1)` box of unit tiles, each
    /// reading the given offsets (all negative: tiles run from the origin).
    fn grid(nx: i64, ny: i64, offsets: &[[i64; 2]]) -> TileGraph {
        let space = Space::from_names(&["x", "y"], &[]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        sys.add_text(&format!("0 <= x <= {nx}")).unwrap();
        sys.add_text(&format!("0 <= y <= {ny}")).unwrap();
        let templates = offsets
            .iter()
            .enumerate()
            .map(|(k, o)| Template::new(format!("r{k}"), o))
            .collect();
        let templates = TemplateSet::new(2, templates).unwrap();
        let tiling = TilingBuilder::new(sys, templates, vec![1, 1]);
        tiling.build().unwrap().graph(&[])
    }

    /// Up and left: tile `(x, y)` waits for `(x - 1, y)` and `(x, y - 1)`.
    fn square(n: i64) -> TileGraph {
        grid(n, n, &[[-1, 0], [0, -1]])
    }

    fn sched(graph: &TileGraph, priority: TilePriority, workers: usize) -> TileScheduler<'_, f64> {
        TileScheduler::new(graph, priority, workers, Arc::new(MemoryStats::new()), None)
    }

    fn at(graph: &TileGraph, tile: [i64; 2]) -> usize {
        graph.index_of(&Coord::from_slice(&tile)).unwrap()
    }

    /// The edge tile `tile` gets from its neighbour at `delta`.
    fn edge(
        graph: &TileGraph,
        tile: [i64; 2],
        delta: [i64; 2],
        payload: Vec<f64>,
    ) -> Delivery<f64> {
        let dep = graph.tiling().dep_index(&Coord::from_slice(&delta));
        Delivery {
            tile: at(graph, tile),
            dep: dep.unwrap(),
            payload,
        }
    }

    #[test]
    fn single_worker_pops_in_priority_order() {
        let graph = square(2);
        let s = sched(&graph, TilePriority::column_major(2), 1);
        for tile in [[2, 0], [0, 1], [0, 0]] {
            s.mark_initial(at(&graph, tile));
        }
        assert_eq!(s.ready_len(), 3);
        for tile in [[0, 0], [0, 1], [2, 0]] {
            assert_eq!(s.pop(0).unwrap().0, at(&graph, tile));
        }
        assert!(s.pop(0).is_none());
        assert_eq!(s.steal_count(), 0);
    }

    #[test]
    fn batch_delivery_readies_tiles() {
        let graph = square(2);
        let s = sched(&graph, TilePriority::LevelSet, 2);
        let mut batch = vec![
            edge(&graph, [1, 1], [-1, 0], vec![1.0, 2.0]),
            edge(&graph, [1, 1], [0, -1], vec![3.0]),
        ];
        let cap = batch.capacity();
        assert_eq!(s.deliver(0, &mut batch), Ok(1));
        // Drained in place: empty but capacity preserved for reuse.
        assert!(batch.is_empty());
        assert_eq!(batch.capacity(), cap);
        assert_eq!(s.pending_len(), 0);
        let (tile, edges) = s.pop(0).unwrap();
        assert_eq!(tile, at(&graph, [1, 1]));
        assert_eq!(edges.len(), 2);
        assert_eq!(s.stats.current_edges(), 0);
    }

    #[test]
    fn partial_batch_stays_pending() {
        let graph = square(2);
        let s = sched(&graph, TilePriority::LevelSet, 1);
        let made_ready = s.deliver(0, &mut vec![edge(&graph, [1, 1], [-1, 0], vec![])]);
        assert_eq!(made_ready, Ok(0));
        assert_eq!(s.pending_len(), 1);
        assert!(s.pop(0).is_none());
        assert_eq!(s.stats.current_pending_tiles(), 1);
        let waiting = PendingTile {
            tile: Coord::from_slice(&[1, 1]),
            arrived: 1,
            total: 2,
            missing: vec![Coord::from_slice(&[0, -1])],
        };
        assert_eq!(s.pending_tiles(8), [waiting]);
    }

    #[test]
    fn empty_worker_steals_from_richest() {
        let graph = square(2);
        let s = sched(&graph, TilePriority::LevelSet, 2);
        // Deliveries from worker 0 land in worker 0's queue; tiles on the
        // x axis wait for one edge each.
        for x in [1, 2] {
            let made_ready = s.deliver(0, &mut vec![edge(&graph, [x, 0], [-1, 0], vec![1.0])]);
            assert_eq!(made_ready, Ok(1));
        }
        // Worker 1 has nothing local: both pops are steals.
        assert!(s.pop(1).is_some());
        assert!(s.pop(1).is_some());
        assert_eq!(s.steal_count(), 2);
        assert!(s.pop(1).is_none());
        assert_eq!(s.ready_len(), 0);
    }

    #[test]
    fn memory_stats_follow_edge_lifecycle() {
        let graph = square(1);
        let s = sched(&graph, TilePriority::LevelSet, 1);
        let stats = s.stats.clone();
        s.deliver(0, &mut vec![edge(&graph, [1, 0], [-1, 0], vec![0.0; 5])])
            .unwrap();
        assert_eq!(stats.peak_edge_cells(), 5);
        assert_eq!(stats.current_edges(), 1);
        // One edge completes a one-dependency tile: pending inside its
        // batch only.
        assert_eq!(stats.peak_pending_tiles(), 1);
        assert_eq!(stats.current_pending_tiles(), 0);
        s.pop(0).unwrap();
        assert_eq!(stats.current_edges(), 0);
        assert_eq!(stats.peak_edge_cells(), 5);
    }

    #[test]
    fn a_duplicate_edge_is_refused() {
        let graph = square(2);
        let s = sched(&graph, TilePriority::LevelSet, 1);
        let tile = at(&graph, [1, 1]);
        let again = || vec![edge(&graph, [1, 1], [-1, 0], vec![])];
        assert_eq!(s.deliver(0, &mut again()), Ok(0));
        assert_eq!(
            s.deliver(0, &mut again()),
            Err(DuplicateEdge { tile, dep: 0 })
        );
        // One edge buffered, not two: the tile still waits for the other.
        assert_eq!(s.stats.current_edges(), 1);
        assert_eq!(
            s.deliver(0, &mut vec![edge(&graph, [1, 1], [0, -1], vec![])]),
            Ok(1)
        );
        // And an edge for a tile that has gone ready is one too many.
        assert_eq!(
            s.deliver(0, &mut again()),
            Err(DuplicateEdge { tile, dep: 0 })
        );
    }

    #[test]
    fn a_planned_run_sends_ready_tiles_home_in_the_plans_order() {
        let graph = square(3);
        let plan = Arc::new(StaticPlan::build_on(&graph, 0..graph.len()).unwrap());
        let planned = |workers| {
            let stats = Arc::new(MemoryStats::new());
            let p = Some(plan.clone());
            TileScheduler::<f64>::new(&graph, TilePriority::LevelSet, workers, stats, p)
        };
        // The axis tiles wait for one edge each.
        let axis = [[1, 0], [2, 0], [0, 1], [0, 2]];
        let edges = || {
            let delta = |t: [i64; 2]| if t[1] == 0 { [-1, 0] } else { [0, -1] };
            axis.map(|t| edge(&graph, t, delta(t), vec![])).to_vec()
        };
        // One worker pops in the plan's order, not the priority's.
        let one = planned(1);
        assert_eq!(one.deliver(0, &mut edges()), Ok(4));
        let mut want: Vec<usize> = axis.iter().map(|&t| at(&graph, t)).collect();
        want.sort_by_key(|&t| plan.ordering().rank[t]);
        let popped: Vec<usize> = std::iter::from_fn(|| one.pop(0).map(|(t, _)| t)).collect();
        assert_eq!(popped, want);
        let by_level = sched(&graph, TilePriority::LevelSet, 1);
        by_level.deliver(0, &mut edges()).unwrap();
        let by_level: Vec<usize> = std::iter::from_fn(|| by_level.pop(0).map(|(t, _)| t)).collect();
        assert_ne!(popped, by_level, "the plan's order is not the level sets'");
        // Two workers: worker 0 readied every tile, and each waits on the
        // heap of its home worker, where that worker finds it unstolen.
        let two = planned(2);
        assert_eq!(two.deliver(0, &mut edges()), Ok(4));
        for w in 0..2 {
            let homed = popped.iter().filter(|&&t| plan.home(t, 2) == Some(w));
            for _ in homed {
                let (tile, edges) = two.pop(w).unwrap();
                assert_eq!((plan.home(tile, 2), edges.len()), (Some(w), 1));
            }
        }
        assert_eq!((two.steal_count(), two.ready_len()), (0, 0));
        assert_eq!(two.stats.current_edges(), 0);
    }

    #[test]
    fn concurrent_delivery_and_popping_conserves_tiles() {
        // 4 producers each deliver the single-dependency tiles of one row;
        // 4 consumers pop everything. Every tile must surface exactly once.
        const PER: i64 = 200;
        let graph = grid(3, PER, &[[0, -1]]);
        let s = sched(&graph, TilePriority::LevelSet, 4);
        let popped = AtomicU64::new(0);
        let (s, graph, popped) = (&s, &graph, &popped);
        std::thread::scope(|scope| {
            for w in 0..4usize {
                scope.spawn(move || {
                    for y in 1..=PER {
                        let mut batch = vec![edge(graph, [w as i64, y], [0, -1], vec![1.0])];
                        assert_eq!(s.deliver(w, &mut batch), Ok(1));
                    }
                });
            }
            for w in 0..4usize {
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
        assert_eq!(s.stats.current_edges(), 0);
    }
}
