//! The event-driven simulator.
//!
//! Set-up reads the static structure off the [`TileGraph`]: tiles,
//! dependency counts, consumers, and the exact lattice counts — cells per
//! tile, cells per edge — which the graph walks once per geometry class, so
//! no polyhedral walk is paid per tile here. A tile's out-edges are read off
//! the graph in place, wherever they are needed; what set-up still does per
//! tile is its own: an owner read and the per-tile vectors the event loop
//! runs on. A ready tile is keyed by its position in the priority's order
//! on the graph ([`TilePriority::ordering`]), as in the runtime's
//! scheduler.

use crate::model::SimConfig;
use dpgen_polyhedra::PolyError;
use dpgen_runtime::{Schedule, TileOwner};
use dpgen_tiling::{TileGraph, Tiling};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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

#[derive(Debug)]
enum Event {
    /// A tile finishes on its rank's worker.
    Complete { tile: usize },
    /// A remote edge reaches its consumer.
    Edge { tile: usize },
    /// A worker that was stalled on send buffers becomes free.
    WorkerFree { rank: usize },
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

/// Simulate executing the tiling's full tile graph on the configured
/// virtual machine. `owner` assigns tiles to ranks (use the real
/// load balancer's output). Panics where [`simulate_on`] returns a fault.
pub fn simulate<O: TileOwner + ?Sized>(
    tiling: &Tiling,
    params: &[i64],
    owner: &O,
    config: &SimConfig,
) -> SimResult {
    simulate_on(&tiling.graph(params), owner, config).expect("edge cells count")
}

/// [`simulate`] on a tile graph already derived: the DAG the simulator
/// walks — tiles, existing dependencies, consumers, cells per tile and per
/// edge — is the one the runtime executes, so a sweep over machine shapes
/// (or a plan that also runs) derives and counts it once. Fails when an
/// edge nest cannot be counted at this binding
/// ([`TileGraph::edge_cells`]).
pub fn simulate_on<O: TileOwner + ?Sized>(
    graph: &TileGraph,
    owner: &O,
    config: &SimConfig,
) -> Result<SimResult, PolyError> {
    assert!(config.ranks >= 1 && config.threads_per_rank >= 1);
    let cost = config.cost;
    let tiling = graph.tiling();

    // --- Static structure: tiles, work, owners, edges. -----------------
    let tiles = graph.tiles();
    let n = tiles.len();
    let owners: Vec<usize> = tiles
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let r = owner.owner_at(i, t);
            assert!(r < config.ranks, "owner rank out of range");
            r
        })
        .collect();
    // Outgoing edges, read off the graph in dependency order: (consumer
    // index, payload cells) of every edge tile `i` packs. The cells a tile
    // packs and unpacks are known statically too (needed for durations).
    let deps = tiling.deps().len();
    let edge_cells = graph.edge_cells()?;
    let out_edges = |i: usize| {
        (0..deps).filter_map(move |dep| Some((graph.consumer(i, dep)?, edge_cells.get(i, dep))))
    };
    let mut pending: Vec<usize> = (0..n).map(|i| graph.dep_total(i)).collect();
    let mut out_cells: Vec<u64> = vec![0; n];
    let mut in_total: Vec<u64> = vec![0; n];
    for (i, out) in out_cells.iter_mut().enumerate() {
        for (c, cells) in out_edges(i) {
            *out += cells;
            in_total[c] += cells;
        }
    }
    // A pinned run's tiles (every rank pins all it owns) are charged the
    // modelled static dispatch overhead and keyed in wavefront order.
    let pinned = config.schedule == Schedule::Static;
    let overhead = if pinned {
        cost.static_tile_overhead
    } else {
        cost.tile_overhead
    };
    // Each tile's duration, worked out once: the event loop and the
    // critical path read it several times per tile.
    let durations: Vec<f64> = (0..n)
        .map(|i| {
            overhead
                + graph.cells(i) as f64 * cost.cell_cost
                + (in_total[i] + out_cells[i]) as f64 * cost.edge_cell_cost
        })
        .collect();
    let duration = |i: usize| durations[i];
    let serial_time: f64 = durations.iter().sum();

    // Critical path over the static DAG (Kahn's algorithm), charging the
    // communication delay on cross-rank edges.
    let critical_path = {
        let mut indeg = pending.clone();
        let mut dist: Vec<f64> = (0..n).map(duration).collect();
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut head = 0usize;
        let mut longest = 0.0f64;
        while head < queue.len() {
            let i = queue[head];
            head += 1;
            longest = longest.max(dist[i]);
            for (c, cells) in out_edges(i) {
                let delay = if owners[c] == owners[i] {
                    0.0
                } else {
                    cost.comm_latency + cells as f64 * cost.comm_cell_cost
                };
                let cand = dist[i] + delay + duration(c);
                if cand > dist[c] {
                    dist[c] = cand;
                }
                indeg[c] -= 1;
                if indeg[c] == 0 {
                    queue.push(c);
                }
            }
        }
        assert_eq!(head, n, "dependency cycle in tile DAG");
        longest
    };

    // --- Dynamic state. --------------------------------------------------
    // A ready tile's key is its position in the run's order: the wavefront
    // (level-set) order when pinned, else the configured priority's.
    let order = if pinned {
        graph.ordering(true, &[])
    } else {
        config.priority.ordering(graph)
    };
    type RankQueue = BinaryHeap<Reverse<(u32, usize)>>;
    let mut ready: Vec<RankQueue> = (0..config.ranks).map(|_| BinaryHeap::new()).collect();
    let mut idle: Vec<usize> = vec![config.threads_per_rank; config.ranks];
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

    let push_event =
        |events: &mut BinaryHeap<Reverse<QueueEntry>>, seq: &mut u64, time: f64, event: Event| {
            *seq += 1;
            events.push(Reverse(QueueEntry {
                time,
                seq: *seq,
                event,
            }));
        };

    // A tile becomes ready: queue it on its rank.
    macro_rules! enqueue_ready {
        ($i:expr) => {{
            let i = $i;
            // The model dispatches a pinned run's tiles from the rank's
            // one ready heap in wavefront (level-set) order on any free
            // worker. The runtime does not: (`runtime::schedule`) a ready
            // tile goes to the heap of the worker its pipeline row is dealt
            // to, keyed lexicographically with the pipeline axis first;
            // the model does not know the homes yet.
            ready[owners[i]].push(Reverse((order.rank[i], i)));
        }};
    }
    // Dispatch as many ready tiles as idle workers allow on a rank.
    macro_rules! dispatch {
        ($r:expr, $t:expr) => {{
            let r = $r;
            let now: f64 = $t;
            while idle[r] > 0 {
                let Some(Reverse((_, i))) = ready[r].pop() else {
                    break;
                };
                idle[r] -= 1;
                let d = duration(i);
                busy[r] += d;
                push_event(&mut events, &mut seq, now + d, Event::Complete { tile: i });
            }
        }};
    }

    for i in (0..n).filter(|&i| pending[i] == 0) {
        enqueue_ready!(i);
    }
    for r in 0..config.ranks {
        dispatch!(r, 0.0);
    }

    while let Some(Reverse(entry)) = events.pop() {
        let now = entry.time;
        makespan = makespan.max(now);
        match entry.event {
            Event::Complete { tile } => {
                let r = owners[tile];
                completed += 1;
                // The worker performs the sends itself; with bounded send
                // buffers it may stall, releasing later than `now`.
                let mut tcur = now;
                for (c, cells) in out_edges(tile) {
                    let dest = owners[c];
                    if dest == r {
                        // Local delivery is immediate.
                        pending[c] -= 1;
                        if pending[c] == 0 {
                            enqueue_ready!(c);
                        }
                    } else {
                        msgs_remote += 1;
                        cells_remote += cells;
                        let mut window = bounded.then(|| &mut inflight[r * config.ranks + dest]);
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
                        let arrive = tcur + cost.comm_latency + cells as f64 * cost.comm_cell_cost;
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
                    push_event(&mut events, &mut seq, tcur, Event::WorkerFree { rank: r });
                } else {
                    idle[r] += 1;
                    // Local deliveries may have readied tiles on this rank;
                    // the freed worker may also take the next queued tile.
                    dispatch!(r, now);
                }
            }
            Event::Edge { tile } => {
                pending[tile] -= 1;
                if pending[tile] == 0 {
                    enqueue_ready!(tile);
                    dispatch!(owners[tile], now);
                }
            }
            Event::WorkerFree { rank } => {
                idle[rank] += 1;
                dispatch!(rank, now);
            }
        }
    }

    assert_eq!(completed, n, "simulation deadlocked: {completed}/{n} tiles");
    let idle_time: Vec<f64> = (0..config.ranks)
        .map(|r| config.threads_per_rank as f64 * makespan - busy[r])
        .collect();
    Ok(SimResult {
        makespan,
        serial_time,
        busy,
        idle: idle_time,
        msgs_remote,
        cells_remote,
        send_stall_time,
        critical_path,
        tiles: n,
        cells: (0..n).map(|i| graph.cells(i)).sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{CostModel, SimConfig};
    use dpgen_polyhedra::{ConstraintSystem, Space};
    use dpgen_runtime::{SingleOwner, TilePriority};
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
        fn owner_of(&self, tile: &Coord) -> usize {
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
        // The simulator prices tiles via the Ehrhart cell counts and
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
    fn static_schedule_cuts_dispatch_overhead() {
        // Same grid, same workers: the static schedule charges every
        // tile the modelled static overhead instead of the full dispatch
        // cost, so its serial time and makespan drop while the work stays
        // identical.
        let tiling = grid_2d(4);
        let n = 77i64;
        let dynamic = simulate(&tiling, &[n], &SingleOwner, &SimConfig::shared(4, 2));
        let fixed = simulate(
            &tiling,
            &[n],
            &SingleOwner,
            &SimConfig::shared(4, 2).with_schedule(Schedule::Static),
        );
        assert_eq!(fixed.tiles, dynamic.tiles);
        assert_eq!(fixed.cells, dynamic.cells);
        assert!(fixed.serial_time < dynamic.serial_time);
        assert!(fixed.makespan < dynamic.makespan);
        // Multi-rank static runs stay consistent too.
        let split = SimConfig::hybrid(2, 2, 2, &[0]).with_schedule(Schedule::Static);
        let s = simulate(&tiling, &[n], &Owner2(2), &split);
        assert_eq!(s.tiles, dynamic.tiles);
        assert_eq!(s.cells, dynamic.cells);
    }

    #[test]
    fn static_simulation_is_the_recorded_one() {
        // Bits recorded at the commit before the per-tile membership
        // vector became one flag per run (`grid_2d(4)`, N = 77, default
        // costs): pinning is decided once, and no number may move.
        let tiling = grid_2d(4);
        let shared = SimConfig::shared(4, 2).with_schedule(Schedule::Static);
        let s = simulate(&tiling, &[77], &SingleOwner, &shared);
        assert_eq!(s.makespan.to_bits(), 0x3f17_4ac1_bc9a_c7e9);
        assert_eq!(s.busy[0].to_bits(), 0x3f36_a2b7_5824_0bd3);
        assert_eq!((s.msgs_remote, s.cells_remote, s.tiles), (0, 0, 400));
        let split = SimConfig::hybrid(2, 2, 2, &[0]).with_schedule(Schedule::Static);
        let s = simulate(&tiling, &[77], &Owner2(2), &split);
        assert_eq!(s.makespan.to_bits(), 0x3f20_fb2d_90e5_7397);
        let busy: Vec<u64> = s.busy.iter().map(|b| b.to_bits()).collect();
        assert_eq!(busy, [0x3f26_dc29_4ff4_4dd4, 0x3f26_6945_6053_ca0e]);
        assert_eq!((s.msgs_remote, s.cells_remote, s.tiles), (380, 1482, 400));
    }

    #[test]
    fn pipelined_order_feeds_the_downstream_slab_early() {
        // 16 x 16 tiles in four slabs along dim 0. Figure 5 as printed
        // finishes a rank's slab columns before the one its neighbour waits
        // for; the pipelined order hands that column on after one tile.
        struct Slabs4;
        impl TileOwner for Slabs4 {
            fn owner_of(&self, tile: &Coord) -> usize {
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
}
