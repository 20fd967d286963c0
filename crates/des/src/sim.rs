//! The event-driven simulator.
//!
//! Set-up reads the static structure off the [`TileGraph`]: tiles,
//! dependency counts, consumers, and the exact lattice counts — cells per
//! tile, cells per edge — which the graph walks once per geometry class, so
//! no polyhedral walk is paid per tile here. A tile's out-edges are read off
//! the graph in place, wherever they are needed; what set-up still does per
//! tile is its own: an owner read and a modelled duration.
//!
//! Dispatch is the runtime's. Every rank has one ready heap per virtual
//! worker, and the runtime's [`DispatchRule`] decides, as it does for the
//! threaded scheduler, which heap a ready tile enters (under `Static` its
//! home in the rank's [`StaticPlan`], else the worker that readied it, with
//! initial tiles dealt round-robin), under which key (the plan's order,
//! else the priority's) and which heap an empty worker robs. The critical
//! path is [`TileGraph::longest_path`], the routine the runtime's
//! `Timeline` reads an executed one with.

use crate::model::SimConfig;
use dpgen_polyhedra::PolyError;
use dpgen_runtime::{DispatchRule, Schedule, StaticPlan, TileOwner};
use dpgen_tiling::{EdgeCells, TileGraph, Tiling};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::Arc;

/// Simulation outcome.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Virtual wall time to complete all tiles.
    pub makespan: f64,
    /// Sum of all tile durations: the virtual time of a 1-worker run
    /// (critical path, communication and idleness excluded).
    pub serial_time: f64,
    /// Busy worker-seconds per rank.
    pub busy: Vec<f64>,
    /// Idle worker-seconds per rank (threads × makespan − busy).
    pub idle: Vec<f64>,
    /// Remote edges sent.
    pub msgs_remote: u64,
    /// Remote edge cells transferred.
    pub cells_remote: u64,
    /// Worker time spent stalled waiting for a free send buffer
    /// (Section VI-C; zero when `send_buffers` is unlimited).
    pub send_stall_time: f64,
    /// Length of the DAG's critical path in virtual time (tile durations
    /// plus cross-rank communication along the path): no worker count can
    /// push the makespan below this.
    pub critical_path: f64,
    /// Number of tiles executed.
    pub tiles: usize,
    /// Total cells computed.
    pub cells: u128,
}

impl SimResult {
    /// The upper bound on speedup imposed by the critical path.
    pub fn speedup_bound(&self) -> f64 {
        if self.critical_path <= 0.0 {
            return 1.0;
        }
        self.serial_time / self.critical_path
    }

    /// Speedup relative to the simulated serial time.
    pub fn speedup(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 1.0;
        }
        self.serial_time / self.makespan
    }

    /// Parallel efficiency over `workers` total workers.
    pub fn efficiency(&self, workers: usize) -> f64 {
        self.speedup() / workers as f64
    }

    /// Aggregate idle fraction.
    pub fn idle_fraction(&self) -> f64 {
        let busy: f64 = self.busy.iter().sum();
        let idle: f64 = self.idle.iter().sum();
        if busy + idle <= 0.0 {
            return 0.0;
        }
        idle / (busy + idle)
    }
}

/// An input [`simulate_on`] cannot simulate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The machine has no rank, or no worker per rank.
    NoWorkers {
        /// The configured rank count.
        ranks: usize,
        /// The configured workers per rank.
        threads_per_rank: usize,
    },
    /// The owner put a tile on a rank the machine does not have.
    OwnerOutOfRange {
        /// The tile's index in the graph.
        tile: usize,
        /// The rank the owner named.
        rank: usize,
        /// The configured rank count.
        ranks: usize,
    },
    /// An edge nest cannot be counted at this binding
    /// ([`TileGraph::edge_cells`]).
    EdgeCells(PolyError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NoWorkers { ranks, .. } if *ranks == 0 => f.write_str("no rank to run on"),
            SimError::NoWorkers { .. } => f.write_str("no worker on a rank to run on"),
            SimError::OwnerOutOfRange { tile, rank, ranks } => {
                write!(f, "tile {tile} is owned by rank {rank} of {ranks}")
            }
            SimError::EdgeCells(e) => write!(f, "edge cells cannot be counted: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<PolyError> for SimError {
    fn from(e: PolyError) -> SimError {
        SimError::EdgeCells(e)
    }
}

#[derive(Debug)]
enum Event {
    /// A tile finishes on worker `worker` of its rank.
    Complete { tile: usize, worker: usize },
    /// A remote edge reaches its consumer.
    Edge { tile: usize },
    /// A worker that was stalled on send buffers becomes free.
    WorkerFree { rank: usize, worker: usize },
}

/// Totally ordered wrapper for event times (f64 with `total_cmp`).
#[derive(Debug, Clone, Copy, PartialEq)]
struct QueueTime(f64);
impl Eq for QueueTime {}
impl Ord for QueueTime {
    fn cmp(&self, other: &QueueTime) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}
impl PartialOrd for QueueTime {
    fn partial_cmp(&self, other: &QueueTime) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Time-ordered event queue entry (min-heap via `Reverse`).
struct QueueEntry {
    time: f64,
    seq: u64,
    event: Event,
}

impl PartialEq for QueueEntry {
    fn eq(&self, other: &QueueEntry) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for QueueEntry {}
impl Ord for QueueEntry {
    fn cmp(&self, other: &QueueEntry) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.seq.cmp(&other.seq))
    }
}
impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &QueueEntry) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// One rank's ready tiles, a heap per virtual worker, as the event loop
/// sees them.
trait ReadyHeaps {
    /// `tile` became ready on `worker`; `None` for an initial tile.
    fn push(&mut self, worker: Option<usize>, tile: usize);
    /// The next tile for `worker`: its own heap's best, else the best of
    /// the heap the rule robs.
    fn pop(&mut self, worker: usize) -> Option<usize>;
}

/// The simulator's ready heaps: plain `(key, tile)` heaps under the
/// runtime's dispatch rule.
struct Heaps {
    rule: DispatchRule,
    heaps: Vec<BinaryHeap<Reverse<(u32, u32)>>>,
    /// Tiles in all the heaps: an empty worker of an empty rank looks no
    /// further.
    queued: usize,
    /// Initial tiles dealt so far.
    dealt: u32,
}

impl Heaps {
    fn new(rule: DispatchRule) -> Heaps {
        Heaps {
            heaps: vec![BinaryHeap::new(); rule.workers()],
            rule,
            queued: 0,
            dealt: 0,
        }
    }
}

impl ReadyHeaps for Heaps {
    fn push(&mut self, worker: Option<usize>, tile: usize) {
        let worker = worker.unwrap_or_else(|| {
            self.dealt += 1;
            self.rule.dealt(self.dealt - 1)
        });
        let (heap, key) = self.rule.route(worker, tile);
        self.heaps[heap].push(Reverse((key, tile as u32)));
        self.queued += 1;
    }

    fn pop(&mut self, worker: usize) -> Option<usize> {
        if self.queued == 0 {
            return None;
        }
        let heap = if self.heaps[worker].is_empty() {
            let lens = self.heaps.iter().map(BinaryHeap::len);
            self.rule.victim(worker, lens)?
        } else {
            worker
        };
        let Reverse((_, tile)) = self.heaps[heap].pop()?;
        self.queued -= 1;
        Some(tile as usize)
    }
}

/// Simulate executing the tiling's full tile graph on the configured
/// virtual machine. `owner` assigns tiles to ranks (use the real
/// load balancer's output). Panics where [`simulate_on`] returns a fault.
pub fn simulate<O: TileOwner + ?Sized>(
    tiling: &Tiling,
    params: &[i64],
    owner: &O,
    config: &SimConfig,
) -> SimResult {
    simulate_on(&tiling.graph(params), owner, config).expect("simulation input")
}

/// [`simulate`] on a tile graph already derived: the DAG the simulator
/// walks — tiles, existing dependencies, consumers, cells per tile and per
/// edge — is the one the runtime executes, so a sweep over machine shapes
/// (or a plan that also runs) derives and counts it once. Fails when the
/// machine has no worker, when `owner` names a rank beyond it, or when an
/// edge nest cannot be counted at this binding ([`TileGraph::edge_cells`]).
pub fn simulate_on<O: TileOwner + ?Sized>(
    graph: &TileGraph,
    owner: &O,
    config: &SimConfig,
) -> Result<SimResult, SimError> {
    let model = Model::new(graph, owner, config)?;
    let (priority, threads) = (&config.priority, config.threads_per_rank);
    let rule = |r| DispatchRule::new(graph, priority, threads, model.plan(r));
    Ok(model.run((0..config.ranks).map(|r| Heaps::new(rule(r))).collect()))
}

/// What the event loop runs on: the graph, every tile's owner and modelled
/// duration, and the machine.
struct Model<'g> {
    graph: &'g TileGraph,
    config: &'g SimConfig,
    edge_cells: EdgeCells<'g>,
    owners: Vec<usize>,
    durations: Vec<f64>,
}

impl<'g> Model<'g> {
    fn new<O: TileOwner + ?Sized>(
        graph: &'g TileGraph,
        owner: &O,
        config: &'g SimConfig,
    ) -> Result<Model<'g>, SimError> {
        let (ranks, threads_per_rank) = (config.ranks, config.threads_per_rank);
        if ranks == 0 || threads_per_rank == 0 {
            return Err(SimError::NoWorkers {
                ranks,
                threads_per_rank,
            });
        }
        let owned = graph.tiles().iter().enumerate().map(|(tile, t)| {
            let rank = owner.owner_at(tile, t);
            if rank < ranks {
                Ok(rank)
            } else {
                Err(SimError::OwnerOutOfRange { tile, rank, ranks })
            }
        });
        let mut model = Model {
            owners: owned.collect::<Result<_, _>>()?,
            edge_cells: graph.edge_cells()?,
            graph,
            config,
            durations: Vec::new(),
        };
        // The cells a tile packs and unpacks are known statically, and so
        // is its duration, worked out once: the event loop and the critical
        // path read it several times per tile.
        let n = graph.len();
        let mut edge_cells: Vec<u64> = vec![0; n];
        for i in 0..n {
            for (c, cells) in model.out_edges(i) {
                edge_cells[i] += cells;
                edge_cells[c] += cells;
            }
        }
        let cost = &config.cost;
        model.durations = (0..n)
            .map(|i| {
                cost.tile_overhead
                    + graph.cells(i) as f64 * cost.cell_cost
                    + edge_cells[i] as f64 * cost.edge_cell_cost
            })
            .collect();
        Ok(model)
    }

    /// The edges tile `i` packs, in dependency order: `(consumer, payload
    /// cells)`.
    fn out_edges(&self, i: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
        let deps = 0..self.graph.tiling().deps().len();
        deps.filter_map(move |dep| {
            Some((self.graph.consumer(i, dep)?, self.edge_cells.get(i, dep)))
        })
    }

    /// Rank `rank`'s static plan over the tiles it owns, under `Static`:
    /// with the priority, what its runtime node's dispatch rule is built
    /// from.
    fn plan(&self, rank: usize) -> Option<Arc<StaticPlan>> {
        if self.config.schedule != Schedule::Static {
            return None;
        }
        let owned = (0..self.graph.len()).filter(|&i| self.owners[i] == rank);
        StaticPlan::build_on(self.graph, owned).map(Arc::new)
    }

    /// Run the event loop with `ready` as every rank's ready heaps.
    fn run<Q: ReadyHeaps>(&self, mut ready: Vec<Q>) -> SimResult {
        let config = self.config;
        let cost = config.cost;
        let (graph, owners) = (self.graph, &self.owners);
        let duration = |i: usize| self.durations[i];
        let n = graph.len();
        let mut pending: Vec<usize> = (0..n).map(|i| graph.dep_total(i)).collect();
        // Per rank, its idle workers, the one that asks first last: a
        // worker that just finished a tile goes straight back to its heap.
        let workers = (0..config.threads_per_rank).rev();
        let mut idle: Vec<Vec<usize>> = vec![workers.collect(); config.ranks];
        let mut busy: Vec<f64> = vec![0.0; config.ranks];
        let mut events: BinaryHeap<Reverse<QueueEntry>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut msgs_remote = 0u64;
        let mut cells_remote = 0u64;
        let mut makespan = 0.0f64;
        let mut completed = 0usize;
        let mut send_stall_time = 0.0f64;
        // In-flight remote messages per directed rank pair `(from, to)`, at
        // `from * ranks + to`: arrival times, bounded by the send-buffer count
        // (kept only when there is a bound).
        let bounded = config.send_buffers != usize::MAX;
        let pairs = config.ranks * config.ranks * usize::from(bounded);
        let mut inflight: Vec<BinaryHeap<Reverse<QueueTime>>> = vec![BinaryHeap::new(); pairs];

        let push_event = |events: &mut BinaryHeap<Reverse<QueueEntry>>,
                          seq: &mut u64,
                          time: f64,
                          event: Event| {
            *seq += 1;
            events.push(Reverse(QueueEntry {
                time,
                seq: *seq,
                event,
            }));
        };

        // Hand ready tiles to a rank's idle workers, most recently idled
        // first, until one finds nothing: its own heap and every heap it
        // could rob are then empty.
        macro_rules! dispatch {
            ($r:expr, $t:expr) => {{
                let r = $r;
                let now: f64 = $t;
                while let Some(&worker) = idle[r].last() {
                    let Some(tile) = ready[r].pop(worker) else {
                        break;
                    };
                    idle[r].pop();
                    let d = duration(tile);
                    busy[r] += d;
                    push_event(
                        &mut events,
                        &mut seq,
                        now + d,
                        Event::Complete { tile, worker },
                    );
                }
            }};
        }

        for i in graph.initial() {
            ready[owners[i]].push(None, i);
        }
        for r in 0..config.ranks {
            dispatch!(r, 0.0);
        }

        while let Some(Reverse(entry)) = events.pop() {
            let now = entry.time;
            makespan = makespan.max(now);
            match entry.event {
                Event::Complete { tile, worker } => {
                    let r = owners[tile];
                    completed += 1;
                    // The worker performs the sends itself; with bounded send
                    // buffers it may stall, releasing later than `now`.
                    let mut tcur = now;
                    for (c, cells) in self.out_edges(tile) {
                        let dest = owners[c];
                        if dest == r {
                            // Local delivery is immediate, by this worker.
                            pending[c] -= 1;
                            if pending[c] == 0 {
                                ready[r].push(Some(worker), c);
                            }
                        } else {
                            msgs_remote += 1;
                            cells_remote += cells;
                            let mut window =
                                bounded.then(|| &mut inflight[r * config.ranks + dest]);
                            if let Some(slots) = &mut window {
                                // Free every buffer whose message has arrived.
                                while let Some(&Reverse(QueueTime(t))) = slots.peek() {
                                    if t <= tcur {
                                        slots.pop();
                                    } else {
                                        break;
                                    }
                                }
                                if slots.len() >= config.send_buffers {
                                    // Stall until the earliest in-flight message
                                    // lands and frees its buffer.
                                    let Reverse(QueueTime(free_at)) =
                                        slots.pop().expect("nonempty at cap");
                                    send_stall_time += free_at - tcur;
                                    tcur = free_at;
                                }
                            }
                            let arrive =
                                tcur + cost.comm_latency + cells as f64 * cost.comm_cell_cost;
                            if let Some(slots) = window {
                                slots.push(Reverse(QueueTime(arrive)));
                            }
                            push_event(&mut events, &mut seq, arrive, Event::Edge { tile: c });
                        }
                    }
                    if tcur > now {
                        // Worker stalled in sends: charge the stall as busy time
                        // and free it later.
                        busy[r] += tcur - now;
                        let free = Event::WorkerFree { rank: r, worker };
                        push_event(&mut events, &mut seq, tcur, free);
                    } else {
                        idle[r].push(worker);
                        // Local deliveries may have readied tiles on this rank;
                        // the freed worker may also take the next queued tile.
                        dispatch!(r, now);
                    }
                }
                Event::Edge { tile } => {
                    pending[tile] -= 1;
                    if pending[tile] == 0 {
                        // An edge off the wire is received by the rank's
                        // most recently idled worker, by worker 0 when all
                        // are busy.
                        let r = owners[tile];
                        let receiver = idle[r].last().copied().unwrap_or(0);
                        ready[r].push(Some(receiver), tile);
                        dispatch!(r, now);
                    }
                }
                Event::WorkerFree { rank, worker } => {
                    idle[rank].push(worker);
                    dispatch!(rank, now);
                }
            }
        }

        assert_eq!(completed, n, "simulation deadlocked: {completed}/{n} tiles");
        let idle_time: Vec<f64> = (0..config.ranks)
            .map(|r| config.threads_per_rank as f64 * makespan - busy[r])
            .collect();
        // Cross-rank edges pay their communication delay along the path.
        let delay = |s: usize, c: usize, dep: usize| {
            if owners[s] == owners[c] {
                0.0
            } else {
                cost.comm_latency + self.edge_cells.get(s, dep) as f64 * cost.comm_cell_cost
            }
        };
        SimResult {
            makespan,
            serial_time: self.durations.iter().sum(),
            busy,
            idle: idle_time,
            msgs_remote,
            cells_remote,
            send_stall_time,
            critical_path: graph.longest_path(duration, delay),
            tiles: n,
            cells: (0..n).map(|i| graph.cells(i)).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{CostModel, SimConfig};
    use dpgen_core::{BalanceMethod, LoadBalance};
    use dpgen_polyhedra::{ConstraintSystem, Space};
    use dpgen_problems::{Bandit2, Lcs};
    use dpgen_runtime::{Delivery, SingleOwner, TilePriority, TileScheduler};
    use dpgen_tiling::{Coord, Template, TemplateSet, TilingBuilder};

    fn chain_1d(n_cells: i64, w: i64) -> Tiling {
        let space = Space::from_names(&["x"], &["N"]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        sys.add_text("0 <= x <= N").unwrap();
        let t = TemplateSet::new(1, vec![Template::new("r", &[1])]).unwrap();
        let _ = n_cells;
        TilingBuilder::new(sys, t, vec![w]).build().unwrap()
    }

    fn grid_2d(w: i64) -> Tiling {
        let space = Space::from_names(&["x", "y"], &["N"]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        sys.add_text("0 <= x <= N").unwrap();
        sys.add_text("0 <= y <= N").unwrap();
        let t = TemplateSet::new(
            2,
            vec![Template::new("r1", &[1, 0]), Template::new("r2", &[0, 1])],
        )
        .unwrap();
        TilingBuilder::new(sys, t, vec![w, w]).build().unwrap()
    }

    fn banded_grid_2d(w: i64, b: i64) -> Tiling {
        // grid_2d restricted to the diagonal band |x - y| <= b.
        let space = Space::from_names(&["x", "y"], &["N"]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        sys.add_text("0 <= x <= N").unwrap();
        sys.add_text("0 <= y <= N").unwrap();
        let t = TemplateSet::new(
            2,
            vec![Template::new("r1", &[1, 0]), Template::new("r2", &[0, 1])],
        )
        .unwrap();
        TilingBuilder::new(sys, t, vec![w, w])
            .band(0, 1, -b, b)
            .build()
            .unwrap()
    }

    struct Owner2(usize);
    impl TileOwner for Owner2 {
        fn owner_at(&self, _idx: usize, tile: &Coord) -> usize {
            (tile[0] as usize) % self.0
        }
    }

    #[test]
    fn chain_has_no_parallelism() {
        // A 1-D chain's makespan is its serial time however many workers.
        let tiling = chain_1d(100, 5);
        let n = 99i64;
        let s1 = simulate(&tiling, &[n], &SingleOwner, &SimConfig::shared(1, 1));
        let s8 = simulate(&tiling, &[n], &SingleOwner, &SimConfig::shared(8, 1));
        assert!((s1.makespan - s1.serial_time).abs() < 1e-12);
        assert!((s8.makespan - s1.makespan).abs() < 1e-12);
        assert!(s8.speedup() <= 1.0 + 1e-9);
        // The whole chain IS the critical path.
        assert!((s8.critical_path - s8.serial_time).abs() < 1e-12);
        assert!((s8.speedup_bound() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn critical_path_bounds_makespan() {
        let tiling = grid_2d(4);
        let n = 79i64;
        for threads in [1usize, 4, 16, 64] {
            let s = simulate(&tiling, &[n], &SingleOwner, &SimConfig::shared(threads, 2));
            assert!(
                s.makespan >= s.critical_path - 1e-12,
                "threads {threads}: makespan {} below critical path {}",
                s.makespan,
                s.critical_path
            );
            assert!(s.speedup() <= s.speedup_bound() + 1e-9);
        }
        // With unlimited workers the makespan approaches the critical path.
        let s = simulate(&tiling, &[n], &SingleOwner, &SimConfig::shared(4096, 2));
        assert!((s.makespan - s.critical_path).abs() / s.critical_path < 0.01);
    }

    #[test]
    fn grid_scales_with_workers() {
        // 20x20 tiles of equal work: plenty of wavefront parallelism.
        let tiling = grid_2d(4);
        let n = 79i64; // 20 tiles per dim
        let s1 = simulate(&tiling, &[n], &SingleOwner, &SimConfig::shared(1, 2));
        let s4 = simulate(&tiling, &[n], &SingleOwner, &SimConfig::shared(4, 2));
        let s8 = simulate(&tiling, &[n], &SingleOwner, &SimConfig::shared(8, 2));
        assert!(s4.speedup() > 3.0, "4 workers: {}", s4.speedup());
        assert!(s8.speedup() > 5.0, "8 workers: {}", s8.speedup());
        assert!(s8.makespan < s4.makespan && s4.makespan < s1.makespan);
        // Conservation: busy + idle = threads * makespan.
        for (b, i) in s8.busy.iter().zip(&s8.idle) {
            assert!((b + i - 8.0 * s8.makespan).abs() < 1e-9);
        }
    }

    #[test]
    fn banded_tiling_simulates_less_work_than_its_dense_twin() {
        // The simulator prices tiles via the graph's exact cell counts and
        // edges via the clipped edge nests, so a banded tiling costs out
        // strictly cheaper than its dense twin — both in computed cells
        // and in shipped edge payloads — without any band-awareness in
        // the simulator itself.
        let n = 79i64; // 80x80 cells, band half-width 6 covers < half
        let config = SimConfig::hybrid(2, 4, 2, &[0]);
        let dense = simulate(&grid_2d(4), &[n], &Owner2(2), &config);
        let banded = simulate(&banded_grid_2d(4, 6), &[n], &Owner2(2), &config);
        let in_band = (0..=n)
            .flat_map(|x| (0..=n).map(move |y| (x, y)))
            .filter(|(x, y)| (x - y).abs() <= 6)
            .count() as u128;
        assert_eq!(dense.cells, ((n + 1) * (n + 1)) as u128);
        assert_eq!(banded.cells, in_band);
        assert!(banded.cells * 2 < dense.cells);
        assert!(banded.serial_time < dense.serial_time / 2.0);
        assert!(banded.makespan < dense.makespan);
        assert!(
            banded.cells_remote < dense.cells_remote,
            "banded {} vs dense {} remote cells: edges not clipped",
            banded.cells_remote,
            dense.cells_remote
        );
        assert!(banded.tiles < dense.tiles, "off-band tiles not excluded");
    }

    #[test]
    fn more_workers_never_slow_down() {
        let tiling = grid_2d(3);
        let n = 29i64;
        let mut last = f64::INFINITY;
        for threads in [1usize, 2, 4, 8, 16] {
            let s = simulate(&tiling, &[n], &SingleOwner, &SimConfig::shared(threads, 2));
            assert!(s.makespan <= last + 1e-12, "threads {threads}");
            last = s.makespan;
        }
    }

    #[test]
    fn remote_edges_cost_latency() {
        let tiling = grid_2d(4);
        let n = 39i64;
        let shared = simulate(&tiling, &[n], &SingleOwner, &SimConfig::shared(2, 2));
        let config = SimConfig {
            ranks: 2,
            threads_per_rank: 1,
            priority: TilePriority::column_major(2),
            cost: CostModel::default(),
            send_buffers: usize::MAX,
            schedule: Schedule::Dynamic,
        };
        let split = simulate(&tiling, &[n], &Owner2(2), &config);
        assert!(split.msgs_remote > 0);
        assert!(split.cells_remote > 0);
        // Same total workers but communication: the split run is slower.
        assert!(split.makespan > shared.makespan);
        assert_eq!(split.tiles, shared.tiles);
        assert_eq!(split.cells, shared.cells);
    }

    #[test]
    fn zero_comm_cost_recovers_shared_performance() {
        let tiling = grid_2d(4);
        let n = 39i64;
        let free_comm = CostModel {
            comm_latency: 0.0,
            comm_cell_cost: 0.0,
            ..CostModel::default()
        };
        let shared = simulate(&tiling, &[n], &SingleOwner, &SimConfig::shared(2, 2));
        let config = SimConfig {
            ranks: 2,
            threads_per_rank: 1,
            priority: TilePriority::column_major(2),
            cost: free_comm,
            send_buffers: usize::MAX,
            schedule: Schedule::Dynamic,
        };
        let split = simulate(&tiling, &[n], &Owner2(2), &config);
        // With free communication the 2x1 split can still lose a little to
        // rank-local scheduling, but not more than a few percent.
        assert!(
            split.makespan <= shared.makespan * 1.25,
            "{} vs {}",
            split.makespan,
            shared.makespan
        );
    }

    #[test]
    fn bounded_send_buffers_stall_and_slow() {
        let tiling = grid_2d(2);
        let n = 39i64; // 20x20 tiles, lots of boundary traffic
        let slow_net = CostModel {
            comm_latency: 1e-3, // exaggerate so buffers clearly bind
            ..CostModel::default()
        };
        let run = |buffers: usize| {
            let config = SimConfig {
                ranks: 2,
                threads_per_rank: 2,
                priority: TilePriority::column_major(2),
                cost: slow_net,
                send_buffers: buffers,
                schedule: Schedule::Dynamic,
            };
            simulate(&tiling, &[n], &Owner2(2), &config)
        };
        let unlimited = run(usize::MAX);
        let one = run(1);
        let four = run(4);
        assert_eq!(unlimited.send_stall_time, 0.0);
        assert!(one.send_stall_time > 0.0, "1 buffer must stall");
        assert!(one.makespan >= four.makespan - 1e-12);
        assert!(four.makespan >= unlimited.makespan - 1e-12);
        assert!(one.makespan > unlimited.makespan, "stalls must cost time");
        // Same work gets done regardless.
        assert_eq!(one.tiles, unlimited.tiles);
        assert_eq!(one.msgs_remote, unlimited.msgs_remote);
    }

    #[test]
    fn static_simulation_is_the_recorded_one() {
        // `grid_2d(4)`, N = 77, default costs. Re-pinned when a static run
        // began to pay `tile_overhead` (2 µs, not the unmeasured 0.5 µs of
        // `static_tile_overhead`) and to route each ready tile to its home
        // worker's heap in the plan's order, as the runtime does, instead
        // of level-set order from one heap per rank: 0.0889 → 0.2457 ms
        // shared and 0.1296 → 0.3160 ms split, of which the overhead is
        // 0.15 and 0.15 ms (400 tiles x 1.5 µs over 4 workers).
        let tiling = grid_2d(4);
        let shared = SimConfig::shared(4, 2).with_schedule(Schedule::Static);
        let s = simulate(&tiling, &[77], &SingleOwner, &shared);
        assert_eq!(s.makespan.to_bits(), 0x3f30_1a7f_5d2d_57a0);
        assert_eq!(s.busy[0].to_bits(), 0x3f4e_fa85_dc67_3893);
        assert_eq!((s.msgs_remote, s.cells_remote, s.tiles), (0, 0, 400));
        let split = SimConfig::hybrid(2, 2, 2, &[0]).with_schedule(Schedule::Static);
        let s = simulate(&tiling, &[77], &Owner2(2), &split);
        assert_eq!(s.makespan.to_bits(), 0x3f34_b532_9619_2050);
        let busy: Vec<u64> = s.busy.iter().map(|b| b.to_bits()).collect();
        assert_eq!(busy, [0x3f3f_173e_d84f_5964, 0x3f3e_ddcc_e07f_1791]);
        assert_eq!((s.msgs_remote, s.cells_remote, s.tiles), (380, 1482, 400));
    }

    #[test]
    fn pipelined_order_feeds_the_downstream_slab_early() {
        // 16 x 16 tiles in four slabs along dim 0. Figure 5 as printed
        // finishes a rank's slab columns before the one its neighbour waits
        // for; the pipelined order hands that column on after one tile.
        struct Slabs4;
        impl TileOwner for Slabs4 {
            fn owner_at(&self, _idx: usize, tile: &Coord) -> usize {
                tile[0] as usize / 4
            }
        }
        let tiling = grid_2d(4);
        let run = |priority: TilePriority| {
            let config = SimConfig {
                ranks: 4,
                threads_per_rank: 1,
                priority,
                cost: CostModel::default(),
                send_buffers: usize::MAX,
                schedule: Schedule::Dynamic,
            };
            simulate(&tiling, &[63], &Slabs4, &config)
        };
        let figure5 = run(TilePriority::paper_default(2, &[0]));
        let pipelined = run(TilePriority::pipelined(2, &[0]));
        assert_eq!(pipelined.tiles, 256);
        assert_eq!(
            (pipelined.msgs_remote, pipelined.cells_remote),
            (figure5.msgs_remote, figure5.cells_remote)
        );
        assert!(
            pipelined.makespan < figure5.makespan,
            "{} vs {}",
            pipelined.makespan,
            figure5.makespan
        );
        assert!(
            pipelined.idle_fraction() < figure5.idle_fraction(),
            "{} vs {}",
            pipelined.idle_fraction(),
            figure5.idle_fraction()
        );
    }

    #[test]
    fn priorities_change_schedule_not_work() {
        let tiling = grid_2d(4);
        let n = 59i64;
        let mut results = Vec::new();
        for priority in [TilePriority::column_major(2), TilePriority::LevelSet] {
            let config = SimConfig {
                ranks: 1,
                threads_per_rank: 4,
                priority,
                cost: CostModel::default(),
                send_buffers: usize::MAX,
                schedule: Schedule::Dynamic,
            };
            results.push(simulate(&tiling, &[n], &SingleOwner, &config));
        }
        let serial = results[0].serial_time;
        for r in &results {
            assert!((r.serial_time - serial).abs() < 1e-9);
            assert!(r.makespan >= serial / 4.0 - 1e-12);
        }
    }

    #[test]
    fn a_machine_without_workers_is_a_typed_fault() {
        let graph = grid_2d(4).graph(&[15]);
        for (ranks, threads_per_rank) in [(0, 4), (2, 0)] {
            let config = SimConfig::hybrid(ranks, threads_per_rank, 2, &[0]);
            let err = simulate_on(&graph, &SingleOwner, &config).unwrap_err();
            let want = SimError::NoWorkers {
                ranks,
                threads_per_rank,
            };
            assert_eq!(err, want);
        }
    }

    #[test]
    fn an_owner_beyond_the_machine_is_a_typed_fault() {
        let graph = grid_2d(4).graph(&[15]);
        let err = simulate_on(&graph, &Owner2(3), &SimConfig::hybrid(2, 2, 2, &[0])).unwrap_err();
        // Column 2 of the 4 x 4 tiles is the first tile `Owner2(3)` puts on
        // rank 2.
        let tile = graph.index_of(&Coord::from_slice(&[2, 0])).unwrap();
        let want = SimError::OwnerOutOfRange {
            tile,
            rank: 2,
            ranks: 2,
        };
        assert_eq!(err, want);
        assert_eq!(
            SimError::from(PolyError::Overflow("edge cells")),
            SimError::EdgeCells(PolyError::Overflow("edge cells"))
        );
    }

    /// The runtime's scheduler as one rank's ready heaps: payload-less
    /// edges delivered when the model readies a tile, `pop` for a free
    /// virtual worker. Far slower than [`Heaps`]; the reference they must
    /// match.
    struct Scheduled<'g> {
        sched: TileScheduler<'g, ()>,
        graph: &'g TileGraph,
    }

    impl ReadyHeaps for Scheduled<'_> {
        fn push(&mut self, worker: Option<usize>, tile: usize) {
            let Some(worker) = worker else {
                return self.sched.mark_initial(tile);
            };
            let deps = 0..self.graph.tiling().deps().len();
            let arrived = deps.filter(|&dep| self.graph.source(tile, dep).is_some());
            let edge = |dep| Delivery {
                tile,
                dep,
                payload: Vec::new(),
            };
            let mut batch: Vec<Delivery<()>> = arrived.map(edge).collect();
            assert_eq!(self.sched.deliver(worker, &mut batch), Ok(1));
        }

        fn pop(&mut self, worker: usize) -> Option<usize> {
            self.sched.pop(worker).map(|(tile, _)| tile)
        }
    }

    #[test]
    fn dispatch_matches_the_runtime_scheduler() {
        let lcs = Lcs::program(2, 48).unwrap().tiling().graph(&[1535, 1535]);
        let banded = banded_grid_2d(4, 10).graph(&[79]);
        let bandit2 = Bandit2::program(8).unwrap().tiling().graph(&[48]);
        for (graph, lb_dims) in [(lcs, vec![0]), (banded, vec![0]), (bandit2, vec![0, 1])] {
            let graph = Arc::new(graph);
            let dims = graph.tiling().dims();
            for ranks in [1, 2, 4] {
                let method = BalanceMethod::Slabs {
                    lb_dims: lb_dims.clone(),
                };
                let owner = LoadBalance::compute_on(&graph, ranks, &method);
                for schedule in [Schedule::Dynamic, Schedule::Static] {
                    for threads in [1, 2, 6, 24] {
                        let config = SimConfig::hybrid(ranks, threads, dims, &lb_dims)
                            .with_schedule(schedule);
                        let plain = simulate_on(&graph, &owner, &config).unwrap();
                        let model = Model::new(&graph, &owner, &config).unwrap();
                        let scheduled = (0..ranks).map(|r| {
                            let (priority, stats) = (config.priority.clone(), Arc::default());
                            let sched =
                                TileScheduler::new(&graph, priority, threads, stats, model.plan(r));
                            Scheduled {
                                sched,
                                graph: &graph,
                            }
                        });
                        let oracle = model.run(scheduled.collect());
                        let bits = |s: &SimResult| {
                            let busy = s.busy.iter().map(|b| b.to_bits());
                            let idle = s.idle.iter().map(|i| i.to_bits());
                            let bits = [s.makespan.to_bits(), s.critical_path.to_bits()];
                            bits.into_iter()
                                .chain(busy)
                                .chain(idle)
                                .collect::<Vec<u64>>()
                        };
                        let case = format!("{graph:?} {ranks} x {threads} {schedule}");
                        assert_eq!(bits(&plain), bits(&oracle), "{case}");
                        assert_eq!(plain.msgs_remote, oracle.msgs_remote, "{case}");
                    }
                }
            }
        }
    }
}
