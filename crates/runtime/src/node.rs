//! The node runtime: a worker pool executing tiles from the shared
//! scheduler — the Rust rendering of the generated program's OpenMP
//! `parallel` section (Section V-A of the paper).
//!
//! Each worker repeatedly: polls the transport for incoming edges, pops the
//! next available tile, unpacks its buffered edges into a ghost-padded
//! buffer, runs the center-loop kernel over the tile, packs each valid
//! outgoing edge and either updates a neighbouring tile on this node or
//! hands the edge to the transport. Only executing tiles hold full buffers;
//! waiting tiles exist only as packed edges. Worker 0 is the calling thread
//! (a one-worker node starts none), and a worker with nothing to do polls
//! for `IDLE_SPIN` before it first sleeps, so that a run of a few
//! milliseconds waits for no thread start and no timer.
//!
//! The hot path is allocation-free in steady state: each worker keeps a
//! `TileBufferPool` holding one tile value buffer (cleared no further
//! than the next tile could tell: the ghost cells a tile unpacked, and the
//! cells its scan wrote only ahead of a tile of another geometry class) and
//! a recycle list of edge payload vectors (presized from
//! [`EdgeLayout::max_cells`] so pushes never reallocate). No tile walks a
//! loop nest: unpack, scan and pack replay the tile's recorded geometry
//! ([`TileGraph::geometry`], one recording per class of tiles, kept by the
//! plan's graph) —
//! unpack scatters through the source tile's edge indices, the scan feeds
//! the recorded interior blocks whole to [`RunKernel::eval_block`] and the
//! boundary cells to `compute`, pack gathers through the tile's own edge
//! indices. Per-cell execution is the [`PerCell`] adapter, whose default
//! `eval_block` and `eval_run` replay the block through
//! [`Kernel::compute`]. Which tiles exist, how many dependencies each waits
//! for and where its neighbours sit is read from the [`TileGraph`] the job
//! carries — derived once per plan, shared by every rank, recovery epoch
//! and execution — so a run's initial-tile generation is an owner filter
//! over it; what a run keeps per tile (the scheduler's edge slot, the
//! probe mark) are arrays over the graph's tile index,
//! and between popping a tile and delivering its edges a worker names
//! tiles by that index only. A coordinate is resolved to its index once,
//! where it enters: an edge from the transport (a checkpoint retains and
//! replays edges by index). What a worker counts for [`RunStats`] it counts
//! on its own stack and adds to the run's totals when it exits.
//!
//! Failures are typed, not fatal ([`RunError`]): the kernel runs under
//! `catch_unwind` so a panicking tile quarantines its coordinate instead of
//! tearing down the process; malformed incoming edges (unknown offset,
//! wrong payload length) become [`RunError::BadEdge`]; transport failures
//! propagate; and a **stall watchdog** converts a silent hang — no tile
//! executed, no edge delivered for [`NodeConfig::stall_timeout`] — into
//! [`RunError::Stalled`] carrying a [`StallSnapshot`] of the scheduler.
//! When any worker fails, the pool drains out and, if a shared
//! [`NodeConfig::cancel`] flag was provided, sibling ranks are told to stop.
//!
//! [`EdgeLayout::max_cells`]: dpgen_tiling::EdgeLayout::max_cells
//! [`PerCell`]: crate::kernel::PerCell
//! [`Kernel::compute`]: crate::kernel::Kernel::compute

use crate::checkpoint::{NodeRecovery, TileSet};
use crate::error::{EdgeFault, RunError, StallSnapshot};
use crate::kernel::{RunKernel, Value};
use crate::memory::MemoryStats;
use crate::priority::TilePriority;
use crate::reduce::Reduction;
use crate::schedule::{Schedule, StaticPlan};
use crate::scheduler::{Delivery, DuplicateEdge, TileScheduler};
use crate::stats::RunStats;
use crate::trace::{EventKind, Tracer};
use crate::transport::{EdgeMsg, Transport, TransportError};
use dpgen_tiling::tiling::{BlockCtx, CellRef, RunCtx, TileVisitor};
use dpgen_tiling::{Coord, TileGeom, TileGraph, Tiling, MAX_DIMS};
use parking_lot::{Condvar, Mutex};
use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Assigns every tile to the rank that executes it (the load balancer's
/// output; Section IV-J).
pub trait TileOwner: Send + Sync {
    /// The rank that owns (executes) `tile`, which is tile `idx` of the
    /// tile graph the caller runs on: an owner kept as an array over that
    /// graph answers without hashing the coordinate.
    fn owner_at(&self, idx: usize, tile: &Coord) -> usize;
}

/// All tiles belong to rank 0 (single-node runs).
#[derive(Debug, Clone, Copy, Default)]
pub struct SingleOwner;

impl TileOwner for SingleOwner {
    fn owner_at(&self, _idx: usize, _tile: &Coord) -> usize {
        0
    }
}

/// Per-node execution configuration.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Worker threads on this node (the OpenMP thread count).
    pub threads: usize,
    /// Ready-queue ordering policy.
    pub priority: TilePriority,
    /// Tile scheduling mode. Under `Static` the node builds a
    /// [`StaticPlan`] over the tiles it owns before its first tile runs; a
    /// node that owns no tile runs `Dynamic`.
    pub schedule: Schedule,
    /// This node's rank.
    pub rank: usize,
    /// The stall watchdog: when the node makes no progress (no tile
    /// executed, no edge delivered or received) for this long, the run
    /// fails with [`RunError::Stalled`] instead of hanging. `None`
    /// disables the watchdog.
    pub stall_timeout: Option<Duration>,
    /// Cross-rank cancellation flag. A failing rank sets it; ranks observe
    /// it between tiles and bail out with [`RunError::Cancelled`] instead
    /// of waiting out their own watchdog.
    pub cancel: Option<Arc<AtomicBool>>,
    /// External job-scoped cancellation flag. Unlike [`NodeConfig::cancel`]
    /// the runtime only ever *reads* it: the owner of a job (a caller, a
    /// resident engine) raises it to abort this run mid-flight, and workers
    /// bail out with [`RunError::Cancelled`] at the next poll. Kept
    /// separate from the failure flag so a recovery epoch can reset its
    /// internal world flag without erasing a pending user cancellation.
    pub job_cancel: Option<Arc<AtomicBool>>,
    /// Event tracer for this rank (see [`crate::trace`]). `None` disables
    /// tracing; the hot path then pays one pointer test per would-be event.
    /// Must be built with `workers == threads` so worker tracks line up.
    pub tracer: Option<Arc<Tracer>>,
}

/// Default watchdog window: generous enough for any healthy run, small
/// enough that a wedged CI job dies with a diagnosis well before the job
/// timeout.
pub const DEFAULT_STALL_TIMEOUT: Duration = Duration::from_secs(30);

/// Trace events per track included in a [`StallSnapshot`] dump.
pub const STALL_DUMP_EVENTS: usize = 16;

impl NodeConfig {
    /// Single-rank configuration with the given thread count and the
    /// paper's default (column-major) priority.
    pub fn new(threads: usize, dims: usize) -> NodeConfig {
        NodeConfig {
            threads,
            priority: TilePriority::column_major(dims),
            schedule: Schedule::Dynamic,
            rank: 0,
            stall_timeout: Some(DEFAULT_STALL_TIMEOUT),
            cancel: None,
            job_cancel: None,
            tracer: None,
        }
    }

    /// Same configuration with a different schedule mode.
    pub fn with_schedule(mut self, schedule: Schedule) -> NodeConfig {
        self.schedule = schedule;
        self
    }

    /// Same configuration with a different watchdog window.
    pub fn with_stall_timeout(mut self, timeout: Option<Duration>) -> NodeConfig {
        self.stall_timeout = timeout;
        self
    }

    /// Same configuration with an event tracer attached.
    pub fn with_tracer(mut self, tracer: Option<Arc<Tracer>>) -> NodeConfig {
        self.tracer = tracer;
        self
    }
}

/// Global coordinates whose final values should be captured.
///
/// The classic example is `V(0)` for the bandit problems — the optimal
/// expected reward before any pulls.
#[derive(Debug, Clone, Default)]
pub struct Probe {
    coords: Vec<Coord>,
}

impl Probe {
    /// Probe a single location.
    pub fn at(x: &[i64]) -> Probe {
        Probe {
            coords: vec![Coord::from_slice(x)],
        }
    }

    /// Probe several locations.
    pub fn many(xs: &[&[i64]]) -> Probe {
        Probe {
            coords: xs.iter().map(|x| Coord::from_slice(x)).collect(),
        }
    }

    /// The probed coordinates.
    pub fn coords(&self) -> &[Coord] {
        &self.coords
    }

    /// Number of probes.
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// True when nothing is probed.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }
}

/// Resolve every probe inside the iteration space to where a run reads
/// it: `(tile index, probe index, location in the tile's buffer)`, sorted
/// by tile. A coordinate outside the space resolves to nothing (its probe
/// stays `None`).
fn resolve_probes(graph: &TileGraph, probe: &Probe) -> Vec<(usize, usize, usize)> {
    let tiling = graph.tiling();
    let d = tiling.dims();
    let widths = tiling.widths();
    let original = tiling.original();
    let mut opoint = vec![0i128; original.space().dim()];
    for (col, &p) in original.space().param_indices().iter().zip(graph.params()) {
        opoint[*col] = p as i128;
    }
    let mut resolved = Vec::new();
    for (idx, x) in probe.coords().iter().enumerate() {
        for k in 0..d {
            opoint[k] = x[k] as i128;
        }
        if !original.contains(&opoint).unwrap_or(false) {
            continue; // outside the iteration space: probe stays None
        }
        let mut t = Coord::zeros(d);
        let mut local = [0i64; MAX_DIMS];
        for k in 0..d {
            t.set(k, x[k].div_euclid(widths[k]));
            local[k] = x[k].rem_euclid(widths[k]);
        }
        if let Some(tile) = graph.index_of(&t) {
            resolved.push((tile, idx, tiling.layout().loc(&local[..d])));
        }
    }
    resolved.sort_unstable();
    resolved
}

/// Upper bound on recycled payload vectors a worker keeps around. Real
/// tilings have a handful of dependency templates, so the list stays tiny;
/// the cap only guards against pathological dependency counts.
const MAX_RECYCLED_PAYLOADS: usize = 32;

/// Per-worker buffer pool for the tile execution hot path.
///
/// Holds at most one tile value buffer (a worker executes one tile at a
/// time) and a short free list of edge payload vectors. Reusing the tile
/// buffer replaces the per-tile `vec![T::default(); layout.size()]`
/// allocation, and clears as little as the next tile can tell apart from a
/// fresh buffer: the ghost cells a tile unpacked are cleared when it
/// releases the buffer, the cells its kernel wrote only when the next tile
/// is of another geometry class (see [`TileBufferPool::acquire`]). Payload
/// vectors are handed back after unpacking and reused for packing, so
/// steady-state tile execution performs zero heap allocations.
pub(crate) struct TileBufferPool<T> {
    buffer: Option<Vec<T>>,
    /// What `buffer` holds besides defaults: the recording of the tile that
    /// released it, and the `lo..=hi` span of the cells its scan wrote.
    scanned: Option<(Arc<TileGeom>, usize, usize)>,
    payloads: Vec<Vec<T>>,
}

impl<T: Value> TileBufferPool<T> {
    pub(crate) fn new() -> TileBufferPool<T> {
        TileBufferPool {
            buffer: None,
            scanned: None,
            payloads: Vec::new(),
        }
    }

    /// A buffer of `size` cells for a tile recorded as `geom`: the pooled
    /// one when present, otherwise a fresh all-default allocation.
    ///
    /// The pooled buffer still holds what the last tile's scan wrote. When
    /// that tile was of the same class (the same recording), this tile's
    /// scan visits the same cells in the same order and a kernel writes
    /// each before anything reads it (the [`RunKernel`] contract), so the
    /// stale values are never observed and the clear is skipped. Every
    /// other cell — ghost cells, cells outside the scan — is default either
    /// way. A tile of another class gets the scan span cleared first.
    fn acquire(&mut self, size: usize, geom: &Arc<TileGeom>, counts: &mut RunStats) -> Vec<T> {
        if matches!(&self.scanned, Some((last, ..)) if Arc::ptr_eq(last, geom)) {
            self.scanned = None;
        }
        let mut pooled = self.buffer.take();
        if let (Some(buf), Some((_, lo, hi))) = (&mut pooled, self.scanned.take()) {
            buf[lo..=hi].fill(T::default());
        }
        match pooled {
            Some(buf) if buf.len() == size => {
                counts.tile_buffers_reused += 1;
                buf
            }
            _ => {
                counts.tile_buffers_allocated += 1;
                vec![T::default(); size]
            }
        }
    }

    /// Return the buffer of a finished tile recorded as `geom`: the cells
    /// at `ghosts` (everything it unpacked) are cleared now, the `scanned`
    /// span (min..=max location its scan wrote) stays for the next
    /// [`TileBufferPool::acquire`] to judge.
    pub(crate) fn release(
        &mut self,
        mut buf: Vec<T>,
        ghosts: impl IntoIterator<Item = usize>,
        geom: Arc<TileGeom>,
        scanned: Option<(usize, usize)>,
    ) {
        for loc in ghosts {
            buf[loc] = T::default();
        }
        self.scanned = scanned.map(|(lo, hi)| (geom, lo, hi));
        self.buffer = Some(buf);
    }

    /// An empty payload vector with capacity at least `cap`: recycled when
    /// the free list has one big enough, freshly allocated (exact-presized,
    /// so subsequent pushes never reallocate) otherwise.
    fn take_payload(&mut self, cap: usize, counts: &mut RunStats) -> Vec<T> {
        if let Some(idx) = (0..self.payloads.len()).max_by_key(|&i| self.payloads[i].capacity()) {
            if self.payloads[idx].capacity() >= cap {
                counts.edge_payloads_reused += 1;
                return self.payloads.swap_remove(idx);
            }
        }
        counts.edge_payloads_allocated += 1;
        Vec::with_capacity(cap)
    }

    /// Hand a consumed payload vector back for reuse.
    pub(crate) fn recycle_payload(&mut self, mut payload: Vec<T>) {
        if self.payloads.len() < MAX_RECYCLED_PAYLOADS {
            payload.clear();
            self.payloads.push(payload);
        }
    }
}

/// Where the edge a tile recorded as `src_geom` packs for dependency
/// `dep_idx` lands in its consumer's buffer: the ghost cell of every edge
/// cell, in the shared pack/unpack order.
fn ghost_cells<'a>(
    tiling: &Tiling,
    src_geom: &'a TileGeom,
    dep_idx: usize,
) -> impl Iterator<Item = usize> + 'a {
    let shift = tiling.edges()[dep_idx].ghost_shift;
    let locs = src_geom.edge_cells(dep_idx).iter();
    locs.map(move |&loc| (loc as i64 + shift) as usize)
}

/// The recorded geometry of tile `tile` (its class's, off the graph; owned
/// when this call made the recording), or the typed fault of rank `rank`.
pub fn tile_geometry(
    graph: &TileGraph,
    rank: usize,
    tile: usize,
) -> Result<Cow<'_, Arc<TileGeom>>, RunError> {
    graph
        .geometry(tile)
        .map_err(|error| RunError::TileGeometry {
            rank,
            tile: graph.tiles()[tile],
            error,
        })
}

/// Unpack one incoming edge of tile `tile` into its buffer — the node
/// engine's unpack, which the traceback's single-tile recompute shares. The
/// payload must hold exactly the cells the source tile's recording packs
/// for dependency `dep`; they land in that edge's ghost cells. Returns the
/// source tile's recording. A dependency or source tile that does not
/// exist, or a payload of another length, is a [`RunError::BadEdge`] naming
/// the tile, the offset and both lengths.
pub fn unpack_edge<'g, T: Value>(
    graph: &'g TileGraph,
    rank: usize,
    tile: usize,
    dep: usize,
    payload: &[T],
    values: &mut [T],
) -> Result<Cow<'g, Arc<TileGeom>>, RunError> {
    let tiling = graph.tiling();
    let bad_edge = |detail: String| {
        let delta = (tiling.deps().get(dep)).map_or(Coord::zeros(tiling.dims()), |d| d.delta);
        RunError::BadEdge(Box::new(EdgeFault {
            rank,
            tile: graph.tiles()[tile],
            delta,
            detail,
        }))
    };
    let Some(src) = (tiling.deps().get(dep)).and_then(|_| graph.source(tile, dep)) else {
        return Err(bad_edge("no such dependency or source tile".to_string()));
    };
    // The edge was packed from the source tile's recording; scatter
    // through the same indices.
    let src_geom = tile_geometry(graph, rank, src)?;
    let expected = src_geom.edge_cells(dep).len();
    if payload.len() != expected {
        return Err(bad_edge(format!(
            "edge payload carries {} cells, tiling expects {expected}",
            payload.len(),
        )));
    }
    for (loc, &v) in ghost_cells(tiling, &src_geom, dep).zip(payload) {
        values[loc] = v;
    }
    Ok(src_geom)
}

/// The engine's tile visitor: boundary cells go through `Kernel::compute`
/// one at a time (with the optional reduction folded in place), interior
/// blocks go whole to `RunKernel::eval_block` with the reduction folded
/// over the block afterwards, row by row in visit order. Tracks the buffer
/// range the scan wrote, which the pool clears before a tile of another
/// class reuses the buffer.
struct BatchVisitor<'a, T, RK> {
    kernel: &'a RK,
    values: &'a mut [T],
    reduce: Option<(&'a Reduction<T>, T)>,
    written_lo: usize,
    written_hi: usize,
    blocks: u64,
}

impl<T: Value, RK: RunKernel<T>> TileVisitor for BatchVisitor<'_, T, RK> {
    fn cell(&mut self, cell: CellRef<'_>) {
        self.kernel.compute(cell, self.values);
        if let Some((r, acc)) = &mut self.reduce {
            *acc = r.combine(*acc, self.values[cell.loc]);
        }
        self.written_lo = self.written_lo.min(cell.loc);
        self.written_hi = self.written_hi.max(cell.loc);
    }

    fn run(&mut self, run: RunCtx<'_>) {
        self.block(BlockCtx {
            first: run,
            rows: 1,
            row_step: 0,
            outer_dim: run.inner_dim,
            outer_step: 0,
        });
    }

    fn block(&mut self, block: BlockCtx<'_>) {
        self.kernel.eval_block(&block, self.values);
        self.blocks += 1;
        let run = &block.first;
        if let Some((r, acc)) = &mut self.reduce {
            let mut row = run.loc as i64;
            for _ in 0..block.rows {
                let mut loc = row;
                for _ in 0..run.len {
                    *acc = r.combine(*acc, self.values[loc as usize]);
                    loc += run.loc_step;
                }
                row += block.row_step;
            }
        }
        // The block is a parallelogram in buffer indices: its extremes are
        // among its four corners.
        let last_row = run.loc as i64 + (block.rows as i64 - 1) * block.row_step;
        let across = (run.len as i64 - 1) * run.loc_step;
        for corner in [
            run.loc as i64,
            run.loc as i64 + across,
            last_row,
            last_row + across,
        ] {
            self.written_lo = self.written_lo.min(corner as usize);
            self.written_hi = self.written_hi.max(corner as usize);
        }
    }
}

/// How long an idle worker keeps polling before it starts sleeping. Long
/// enough to cover a pipeline fill of a small run (a rank waiting for its
/// first edges, a worker waiting out a wavefront's ramp), so that in a run
/// of a few milliseconds no wake-up hangs on a timer; short enough to be
/// noise in any run long enough to have longer waits.
const IDLE_SPIN: Duration = Duration::from_millis(2);

/// One turn of a polling wait: a burst of `PAUSE`s, during which a
/// hyperthread sibling has the core's execution units to itself, then a
/// yield, which hands a shared CPU to whoever can make progress.
fn poll_pause() {
    for _ in 0..64 {
        std::hint::spin_loop();
    }
    std::thread::yield_now();
}

/// Whether this rank must stop now: a raised world or job cancellation (the
/// job's flag is external and read-only to the runtime), then the
/// transport's health — a dead peer, or this endpoint's own injected death,
/// surfaces here typed instead of as a watchdog stall minutes later.
/// Checked between tiles and while the rank drains the world.
fn liveness<T, Tr: Transport<T> + ?Sized>(
    config: &NodeConfig,
    transport: &Tr,
) -> Result<(), RunError> {
    let raised =
        |flag: &Option<Arc<AtomicBool>>| flag.as_ref().is_some_and(|c| c.load(Ordering::Acquire));
    if raised(&config.cancel) || raised(&config.job_cancel) {
        return Err(RunError::Cancelled { rank: config.rank });
    }
    Ok(transport.health()?)
}

/// Tell the other ranks that this one failed with `e`: raise the world's
/// cancellation flag, so they bail out instead of waiting on silent peers.
/// A halted endpoint is the exception — a simulated node crash stops this
/// rank's workers, but the death stays silent: survivors must discover it
/// through heartbeat silence (and then cancel the world themselves with
/// the sharper `PeerDead`), exactly as real MPI ranks experience a peer's
/// power loss.
fn announce(config: &NodeConfig, e: &RunError) {
    if matches!(e, RunError::Transport(TransportError::Halted { .. })) {
        return;
    }
    if let Some(c) = &config.cancel {
        c.store(true, Ordering::Release);
    }
}

/// The outcome of one node's run.
#[derive(Debug, Clone)]
pub struct NodeResult<T> {
    /// Captured probe values, aligned with the probe's coordinates. `None`
    /// when the location is outside this node's tiles (another rank has it)
    /// or outside the iteration space.
    pub probes: Vec<Option<T>>,
    /// This node's partial reduction value (see
    /// [`crate::reduce::Reduction`]); `None` when no reduction was given.
    pub reduction: Option<T>,
    /// Execution statistics.
    pub stats: RunStats,
}

/// Stringify a caught panic payload (panics carry `&str` or `String` in
/// practice; anything else is reported opaquely).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Everything one rank's run is made of except the kernel: the problem
/// (its tile graph, which carries the tiling and the parameter binding),
/// this rank's place in the world (tile ownership and the transport to the
/// other ranks), what to capture, and how to execute.
pub struct NodeJob<'a, T, O: ?Sized, Tr: ?Sized> {
    /// The problem's tile graph: every rank, recovery epoch and execution
    /// of one plan reads the same one.
    pub graph: &'a TileGraph,
    /// Tile-to-rank assignment; this rank executes the tiles it maps to
    /// `config.rank`.
    pub owner: &'a O,
    /// Edges for foreign tiles leave through it; edges arriving on it are
    /// fed into the local scheduler.
    pub transport: &'a Tr,
    /// Global coordinates whose final values to capture.
    pub probe: &'a Probe,
    /// Threads, priority, schedule, watchdog, cancellation, tracing.
    pub config: &'a NodeConfig,
    /// Whole-space [`Reduction`] folded over every computed cell (e.g. the
    /// global maximum for Smith-Waterman local alignment).
    pub reduce: Option<&'a Reduction<T>>,
    /// Elastic recovery: completed tiles are recorded into
    /// `recovery.sink` as they finish, and a prior epoch's
    /// `recovery.resume` state (completed tiles, replayed edges, probe
    /// seeds) is restored before the wavefront starts. Driven by the
    /// recovery coordinator in `core::driver`; results are bit-identical
    /// to an undisturbed run.
    pub recovery: Option<&'a NodeRecovery<T>>,
}

/// Execute this rank's share of the problem — the one node entry point.
///
/// Blocks until every tile owned by `config.rank` (per `owner`) has been
/// executed. Interior blocks go whole to the kernel's
/// [`RunKernel::eval_block`], boundary cells through its per-cell `compute`;
/// lift a plain `Kernel` with [`crate::kernel::PerCell`]. Fails with a
/// typed [`RunError`] on a panicking kernel, a malformed edge, a transport
/// failure, or a watchdog-detected stall.
pub fn run_node<T, RK, O, Tr>(
    job: &NodeJob<'_, T, O, Tr>,
    kernel: &RK,
) -> Result<NodeResult<T>, RunError>
where
    T: Value,
    RK: RunKernel<T>,
    O: TileOwner + ?Sized,
    Tr: Transport<T> + ?Sized,
{
    let NodeJob {
        graph,
        owner,
        transport,
        probe,
        config,
        reduce,
        recovery,
    } = *job;
    let t_start = Instant::now();
    let tiling = graph.tiling();
    let layout = tiling.layout();
    let tiles = graph.tiles();

    // --- Initial tile generation (Section IV-K): the graph knows which
    // tiles have no dependency that exists; this rank starts from the ones
    // it owns. Executed serially, as in the paper; its wall time is
    // reported separately.
    // Tiles already completed in prior recovery epochs: never re-executed
    // and never delivered to — their results travel as replayed edges.
    // Empty outside a recovery resume, so the hot path pays one read of an
    // empty bitmap (a length check) per filter.
    let no_prior = TileSet::default();
    let resume = recovery.and_then(|r| r.resume.as_ref());
    let completed_prior: &TileSet = resume.map(|rs| &rs.completed).unwrap_or(&no_prior);
    // The owned tiles as a list only when a static plan is built from them
    // below.
    let is_static = config.schedule == Schedule::Static;
    let mut owned_list: Vec<usize> = Vec::new();
    let mut initials: Vec<usize> = Vec::new();
    let mut owned = 0u64;
    let mut resumed = 0u64;
    let mut resumed_cells = 0u64;
    for (i, t) in tiles.iter().enumerate() {
        if owner.owner_at(i, t) != config.rank {
            continue;
        }
        owned += 1;
        if is_static {
            owned_list.push(i);
        }
        if completed_prior.contains(i) {
            resumed += 1;
            // Their cells were computed in a prior epoch; counting them
            // here keeps the final epoch's `cells_computed` covering the
            // whole owned lattice (the interior/boundary split only
            // covers cells executed this epoch).
            resumed_cells += graph.cells(i) as u64;
        } else if graph.dep_total(i) == 0 {
            initials.push(i);
        }
    }
    let threads = config.threads.max(1);
    // The static plan: the pipeline deal and wavefront order of the owned
    // tiles, built serially alongside initial-tile generation and charged
    // to the same `init_time` bucket (`None` when the rank owns no tile).
    // With it every ready tile goes to its home worker's heap under the
    // plan's key; without it to the readying worker's heap under the
    // priority's.
    let plan = if is_static {
        StaticPlan::build_on(graph, owned_list).map(Arc::new)
    } else {
        None
    };
    let schedule = match plan {
        Some(_) => Schedule::Static,
        None => Schedule::Dynamic,
    };
    let init_time = t_start.elapsed();

    let tracer = config.tracer.as_deref();
    if let Some(t) = tracer {
        let pinned = plan.as_ref().map(|p| p.len()).unwrap_or(0) as u64;
        t.record(
            0,
            EventKind::ScheduleMode,
            None,
            schedule.code() | (pinned << 8),
        );
    }
    let mem = Arc::new(MemoryStats::new());
    let sched: TileScheduler<'_, T> =
        TileScheduler::new(graph, config.priority.clone(), threads, mem.clone(), plan)
            .with_tracer(config.tracer.clone());
    for t in initials {
        sched.mark_initial(t);
    }
    // The door for an edge that names its tile by coordinate (one off the
    // transport): resolved to the graph's indices once, here, or refused.
    let resolve = |msg: EdgeMsg<T>| -> Result<Delivery<T>, RunError> {
        let (tile, delta) = (msg.tile, msg.delta);
        let bad_edge = |detail: &str| {
            RunError::BadEdge(Box::new(EdgeFault {
                rank: config.rank,
                tile,
                delta,
                detail: detail.to_string(),
            }))
        };
        let Some(tile) = graph.index_of(&tile) else {
            return Err(bad_edge("consumer tile is outside the tile space"));
        };
        let dep = tiling.dep_index(&delta);
        let Some(dep) = dep.filter(|&dep| graph.source(tile, dep).is_some()) else {
            return Err(bad_edge("unknown dependency offset or source tile"));
        };
        Ok(Delivery {
            tile,
            dep,
            payload: msg.payload,
        })
    };
    // A second edge for one dependency of one tile would send the tile off
    // an edge short: refused by the scheduler, a typed fault here.
    let duplicate = |dup: DuplicateEdge| {
        RunError::BadEdge(Box::new(EdgeFault {
            rank: config.rank,
            tile: tiles[dup.tile],
            delta: tiling.deps()[dup.dep].delta,
            detail: "duplicate edge: the tile already has this dependency or has run".to_string(),
        }))
    };
    // Replay the retained edges of prior epochs' completed producers into
    // the scheduler before any worker starts: every non-completed tile
    // then assembles its full dependency set from replay (completed
    // producers) plus fresh sends (re-executing producers).
    if let Some(rs) = resume {
        sched
            .deliver(0, &mut rs.replay.clone())
            .map_err(duplicate)?;
    }
    let cv = Condvar::new();
    let cv_mutex = Mutex::new(()); // park/wake channel, no data under it
                                   // Resumed tiles count as done from the start: the termination check
                                   // (`executed >= owned`) then fires after only the *new* work finishes.
    let executed = AtomicU64::new(resumed);
    // Each worker counts its own work and adds it here once, on its way out.
    let totals = Mutex::new(RunStats {
        cells_computed: resumed_cells,
        ..RunStats::default()
    });
    let idle_ns = AtomicU64::new(0);
    let tiles_per_worker: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();

    // --- Failure plumbing: the first error wins, everyone else drains out.
    let failed = AtomicBool::new(false);
    let first_error: Mutex<Option<RunError>> = Mutex::new(None);
    // Progress clocks for the stall watchdog, as nanoseconds since
    // `t_start`. Each worker stores its own (monotone: one writer, one
    // clock); the node's last progress is the latest of them, taken by
    // whoever asks.
    let worker_progress: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();
    let last_progress = || {
        let clocks = worker_progress.iter().map(|a| a.load(Ordering::Acquire));
        Duration::from_nanos(clocks.max().unwrap_or(0))
    };

    // Where each probe is read, and the tiles that read one: every other
    // tile skips the search and the results mutex.
    let probes = resolve_probes(graph, probe);
    let mut probed = TileSet::default();
    for &(tile, ..) in &probes {
        probed.insert(tile);
    }
    let probe_results: Mutex<Vec<Option<T>>> = Mutex::new(vec![None; probe.len()]);
    // Probes resolved by tiles that will not re-execute come from the
    // checkpoint.
    if let Some(rs) = resume {
        let mut res = probe_results.lock();
        for (idx, v) in &rs.probes {
            res[*idx] = Some(*v);
        }
    }

    // The watchdog's diagnostic dump: what was the node waiting on?
    let snapshot = |stalled_for: Duration| -> StallSnapshot {
        let now = t_start.elapsed();
        StallSnapshot {
            rank: config.rank,
            stalled_for,
            tiles_executed: executed.load(Ordering::Acquire),
            tiles_owned: owned,
            ready_tiles: sched.ready_len(),
            pending_tiles: sched.pending_len(),
            waiting_on: sched.pending_tiles(8),
            buffered_edges: mem.current_edges().max(0) as usize,
            unacked_frames: transport.in_flight(),
            links: transport.link_diags(),
            worker_last_progress: worker_progress
                .iter()
                .map(|a| now.saturating_sub(Duration::from_nanos(a.load(Ordering::Acquire))))
                .collect(),
            threads,
            recent_events: tracer
                .map(|t| t.recent_all(STALL_DUMP_EVENTS))
                .unwrap_or_default(),
        }
    };

    std::thread::scope(|scope| {
        // One worker's whole life, run by every worker thread.
        let worker = {
            let sched = &sched;
            let cv = &cv;
            let cv_mutex = &cv_mutex;
            let executed = &executed;
            let totals = &totals;
            let probed = &probed;
            let idle_ns = &idle_ns;
            let tiles_per_worker = &tiles_per_worker;
            let mem = &mem;
            let probes = &probes;
            let probe_results = &probe_results;
            let failed = &failed;
            let first_error = &first_error;
            let last_progress = &last_progress;
            let worker_progress = &worker_progress;
            let snapshot = &snapshot;
            let resolve = &resolve;
            let duplicate = &duplicate;
            move |w: usize| {
                let mut pool: TileBufferPool<T> = TileBufferPool::new();
                // Tracks the current idle episode for WorkerIdle/Resume
                // events; only maintained when a tracer is attached.
                let mut idle_since: Option<Instant> = None;
                // End of the polling phase of the current idle episode.
                let mut spin_until: Option<Instant> = None;
                // Presized from the dependency count: one local edge per
                // template plus headroom for polled transport messages, so
                // steady-state delivery never regrows it (`deliver` drains
                // it in place).
                let mut batch: Vec<Delivery<T>> = Vec::with_capacity(tiling.deps().len() + 4);
                // The edges the current tile unpacked, as (source tile's
                // recording, dependency): what to clear out of its ghost
                // cells when the buffer goes back to the pool, and held no
                // longer.
                let mut unpacked: Vec<(Cow<'_, Arc<TileGeom>>, usize)> =
                    Vec::with_capacity(tiling.deps().len());
                let mut counts = RunStats::default();
                let mut tiles_run = 0u64;
                let note_progress = || {
                    let now = t_start.elapsed().as_nanos() as u64;
                    worker_progress[w].store(now, Ordering::Release);
                };
                // One wake per readied tile is enough: any woken worker can
                // pop or steal any ready tile, and the deliverer itself
                // loops straight into selection for the rest.
                let wake = |ready: usize| (0..ready.min(threads)).for_each(|_| cv.notify_one());
                let fail = |e: RunError| {
                    if let Some(t) = tracer {
                        let tile = e.tile().and_then(|c| graph.index_of(&c));
                        t.record(w, EventKind::Fault, tile, e.severity() as u64);
                    }
                    announce(config, &e);
                    let mut slot = first_error.lock();
                    if slot.is_none() {
                        *slot = Some(e);
                    }
                    drop(slot);
                    failed.store(true, Ordering::Release);
                    cv.notify_all();
                };
                loop {
                    if failed.load(Ordering::Acquire) {
                        break;
                    }
                    if let Err(e) = liveness(config, transport) {
                        fail(e);
                        break;
                    }
                    // Step 6 of the paper's loop: poll for incoming edges,
                    // delivered as one batch.
                    let mut bad_edge = None;
                    while let Some(msg) = transport.try_recv() {
                        match resolve(msg) {
                            Ok(delivery) => {
                                if let Some(t) = tracer {
                                    let cells = delivery.payload.len() as u64;
                                    t.record(w, EventKind::EdgeRecv, Some(delivery.tile), cells);
                                }
                                // A producer re-executing after recovery
                                // resends edges its consumer already folded
                                // in a prior epoch: drop them, the consumer
                                // is done.
                                if !completed_prior.contains(delivery.tile) {
                                    batch.push(delivery);
                                }
                            }
                            Err(e) => {
                                bad_edge = Some(e);
                                break;
                            }
                        }
                    }
                    if bad_edge.is_none() && !batch.is_empty() {
                        note_progress();
                        match sched.deliver(w, &mut batch) {
                            Ok(ready) => wake(ready),
                            Err(dup) => bad_edge = Some(duplicate(dup)),
                        }
                    }
                    if let Some(e) = bad_edge {
                        fail(e);
                        break;
                    }
                    // Selection: this worker's heap, else a steal.
                    let Some((tile_idx, edges)) = sched.pop(w) else {
                        if executed.load(Ordering::Acquire) >= owned {
                            break;
                        }
                        // Nothing ready anywhere: wait briefly (re-polling
                        // the transport on timeout), then let the watchdog
                        // judge how long the whole node has been idle.
                        if let Some(t) = tracer {
                            if idle_since.is_none() {
                                t.record(w, EventKind::WorkerIdle, None, 0);
                                idle_since = Some(Instant::now());
                            }
                        }
                        let t0 = Instant::now();
                        // The edge an idle worker waits for is usually less
                        // than a tile of some peer away, and that peer may
                        // itself be blocked on this rank draining its send
                        // window: keep polling for `IDLE_SPIN` before the
                        // first sleep of an idle episode, so neither side's
                        // progress hangs on a timer wake-up.
                        if t0 < *spin_until.get_or_insert(t0 + IDLE_SPIN) {
                            poll_pause();
                            idle_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                            continue;
                        }
                        {
                            // Any ready tile is work this worker could act
                            // on: its own heap's, or a steal.
                            let actionable = sched.ready_len() > 0;
                            let mut guard = cv_mutex.lock();
                            if !actionable
                                && executed.load(Ordering::Acquire) < owned
                                && !failed.load(Ordering::Acquire)
                            {
                                cv.wait_for(&mut guard, Duration::from_micros(200));
                            }
                        }
                        idle_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                        if let Some(limit) = config.stall_timeout {
                            let idle = t_start.elapsed().saturating_sub(last_progress());
                            if idle > limit {
                                if let Some(t) = tracer {
                                    t.record(
                                        w,
                                        EventKind::StallProbe,
                                        None,
                                        idle.as_nanos() as u64,
                                    );
                                }
                                fail(RunError::Stalled(Box::new(snapshot(idle))));
                                break;
                            }
                        }
                        continue;
                    };
                    note_progress();
                    spin_until = None;
                    let tile = tiles[tile_idx];
                    if let Some(t) = tracer {
                        if let Some(since) = idle_since.take() {
                            t.record(
                                w,
                                EventKind::WorkerResume,
                                None,
                                since.elapsed().as_nanos() as u64,
                            );
                        }
                        t.record(w, EventKind::TileStart, Some(tile_idx), edges.len() as u64);
                    }

                    // --- Steps 2-5 under typed-error discipline: any
                    // failure breaks out of the labelled block and fails
                    // the run; the dirty tile buffer is discarded (its
                    // written range is unknown after a mid-scan panic).
                    let geom = match tile_geometry(graph, config.rank, tile_idx) {
                        Ok(geom) => geom,
                        Err(e) => {
                            fail(e);
                            break;
                        }
                    };
                    counts.geom_builds += matches!(geom, Cow::Owned(_)) as u64;
                    mem.tile_allocated();
                    let mut values: Vec<T> = pool.acquire(layout.size(), &geom, &mut counts);
                    // Recovery retention: every outgoing edge this tile
                    // packs (cloned before delivery) and every probe it
                    // resolves, recorded into the checkpoint sink when the
                    // tile completes. Both stay empty (no allocation)
                    // outside recovery.
                    let mut retained: Vec<Delivery<T>> = Vec::new();
                    let mut tile_probes: Vec<(usize, T)> = Vec::new();
                    let outcome: Result<_, RunError> = 'tile: {
                        // --- Steps 2-3: unpack and execute.
                        for (dep_idx, payload) in edges {
                            let unpacked_from = unpack_edge(
                                graph,
                                config.rank,
                                tile_idx,
                                dep_idx,
                                &payload,
                                &mut values,
                            );
                            let src_geom = match unpacked_from {
                                Ok(geom) => geom,
                                Err(e) => break 'tile Err(e),
                            };
                            counts.geom_builds += matches!(src_geom, Cow::Owned(_)) as u64;
                            unpacked.push((src_geom, dep_idx));
                            // The consumed payload feeds the pack-side free
                            // list, closing the allocation loop.
                            pool.recycle_payload(payload);
                        }
                        // The kernel is user code: a panic quarantines this
                        // tile's coordinate instead of killing the process.
                        let caught = catch_unwind(AssertUnwindSafe(|| {
                            let mut visitor = BatchVisitor {
                                kernel,
                                values: &mut values,
                                reduce: reduce.map(|r| (r, r.identity())),
                                written_lo: usize::MAX,
                                written_hi: 0,
                                blocks: 0,
                            };
                            let scan = tiling.replay(&geom, &tile, &mut visitor);
                            let acc = visitor.reduce.map(|(_, acc)| acc);
                            let written = (visitor.written_lo <= visitor.written_hi)
                                .then_some((visitor.written_lo, visitor.written_hi));
                            (scan, visitor.blocks, written, acc)
                        }));
                        let (scan, blocks, written, tile_acc) = match caught {
                            Ok(out) => out,
                            Err(payload) => {
                                break 'tile Err(RunError::KernelPanic {
                                    rank: config.rank,
                                    worker: w,
                                    tile,
                                    message: panic_message(payload),
                                });
                            }
                        };
                        counts.blocks_evaluated += blocks;
                        // Outside recovery the per-tile accumulator merges
                        // into the global reduction right here. Under
                        // recovery it must not: the merge rides the
                        // checkpoint record below, atomically with the
                        // completed-set insert, so a failed epoch can
                        // never double-count a tile's contribution.
                        if recovery.is_none() {
                            if let (Some(r), Some(acc)) = (reduce, tile_acc) {
                                r.merge(acc);
                            }
                        }

                        if probed.contains(tile_idx) {
                            let first = probes.partition_point(|&(t, ..)| t < tile_idx);
                            let ours = probes[first..].iter().take_while(|&&(t, ..)| t == tile_idx);
                            let mut res = probe_results.lock();
                            for &(_, idx, loc) in ours {
                                res[idx] = Some(values[loc]);
                                if recovery.is_some() {
                                    tile_probes.push((idx, values[loc]));
                                }
                            }
                        }

                        // --- Step 4: pack each valid outgoing edge. Local
                        // edges accumulate into one batch delivered below;
                        // remote edges go straight to the transport.
                        for (dep_idx, dep) in tiling.deps().iter().enumerate() {
                            let Some(consumer_idx) = graph.consumer(tile_idx, dep_idx) else {
                                continue; // no such tile: nothing reads this edge
                            };
                            let consumer = tiles[consumer_idx];
                            let max_cells = tiling.edges()[dep_idx].max_cells();
                            let mut payload = pool.take_payload(max_cells, &mut counts);
                            let src_locs = geom.edge_cells(dep_idx);
                            payload.extend(src_locs.iter().map(|&loc| values[loc as usize]));
                            counts.edge_cells_packed += payload.len() as u64;
                            if let Some(t) = tracer {
                                let cells = payload.len() as u64;
                                t.record(w, EventKind::EdgePack, Some(consumer_idx), cells);
                            }
                            // Retain the sender-side copy *before* routing:
                            // the checkpoint must hold every edge a
                            // completed tile produced, including ones whose
                            // consumer is already done (a later death of
                            // that consumer's owner un-completes it).
                            if recovery.is_some() {
                                retained.push(Delivery {
                                    tile: consumer_idx,
                                    dep: dep_idx,
                                    payload: payload.clone(),
                                });
                            }
                            let dest = owner.owner_at(consumer_idx, &consumer);
                            if dest == config.rank {
                                // Local twin of the transport-receive
                                // filter: a re-executing producer must not
                                // deliver to a consumer completed in a
                                // prior epoch.
                                if completed_prior.contains(consumer_idx) {
                                    pool.recycle_payload(payload);
                                    continue;
                                }
                                counts.edges_local += 1;
                                batch.push(Delivery {
                                    tile: consumer_idx,
                                    dep: dep_idx,
                                    payload,
                                });
                            } else {
                                counts.edges_remote += 1;
                                if let Err(e) = transport.send(
                                    dest,
                                    EdgeMsg {
                                        tile: consumer,
                                        delta: dep.delta,
                                        payload,
                                    },
                                ) {
                                    break 'tile Err(e.into());
                                }
                                if let Some(t) = tracer {
                                    t.record(
                                        w,
                                        EventKind::EdgeSend,
                                        Some(consumer_idx),
                                        dest as u64,
                                    );
                                }
                            }
                        }
                        // The completed-tile record lands last, after every
                        // send above succeeded: a tile is in the checkpoint
                        // only when all of its results are out the door.
                        if let Some(rec) = recovery {
                            rec.sink.record(tile_idx, retained, &tile_probes, tile_acc);
                        }
                        Ok((scan, written))
                    };
                    let (scan, written) = match outcome {
                        Ok(out) => out,
                        Err(e) => {
                            // Discard the possibly half-written buffer.
                            mem.tile_released();
                            fail(e);
                            break;
                        }
                    };
                    if let Some(t) = tracer {
                        t.record(w, EventKind::TileDone, Some(tile_idx), scan.total());
                    }
                    counts.cells_computed += scan.total();
                    counts.interior_cells += scan.interior_cells;
                    counts.boundary_cells += scan.boundary_cells;
                    if RK::BATCHED {
                        counts.runs_batched += scan.interior_runs;
                        counts.cells_batched += scan.interior_cells;
                    }
                    match sched.deliver(w, &mut batch) {
                        Ok(ready) => wake(ready),
                        Err(dup) => {
                            mem.tile_released();
                            fail(duplicate(dup));
                            break;
                        }
                    }
                    let ghosts = unpacked
                        .iter()
                        .flat_map(|(src_geom, dep_idx)| ghost_cells(tiling, src_geom, *dep_idx));
                    pool.release(values, ghosts, geom.into_owned(), written);
                    unpacked.clear();
                    mem.tile_released();
                    tiles_run += 1;
                    note_progress();

                    let done = executed.fetch_add(1, Ordering::AcqRel) + 1;
                    if done >= owned {
                        cv.notify_all();
                    }
                }
                tiles_per_worker[w].store(tiles_run, Ordering::Relaxed);
                totals.lock().add_counts(&counts);
            }
        };
        // The calling thread is worker 0: a one-worker node starts no
        // thread, so its run waits neither for a new thread to be placed
        // and woken nor for one to be joined.
        for w in 1..threads {
            scope.spawn(move || worker(w));
        }
        worker(0);
    });

    if let Some(e) = first_error.into_inner() {
        return Err(e);
    }

    // --- Quiesce: this rank is done executing, but its frames may be
    // unacknowledged and peers may still be retransmitting to it. Keep
    // pumping the transport until the whole world has drained; the watchdog
    // keeps a dead world from hanging us here.
    let mut last_change = Instant::now();
    let mut last_in_flight = transport.in_flight();
    while !transport.flush() {
        // A peer dying *after* this rank finished its tiles would strand
        // the world drain forever (a corpse never acks): death detection
        // turns that into a typed escalation instead of a stall.
        if let Err(e) = liveness(config, transport) {
            announce(config, &e);
            return Err(e);
        }
        let now_in_flight = transport.in_flight();
        if now_in_flight != last_in_flight {
            last_in_flight = now_in_flight;
            last_change = Instant::now();
        }
        if let Some(limit) = config.stall_timeout {
            if last_change.elapsed() > limit {
                if let Some(c) = &config.cancel {
                    c.store(true, Ordering::Release);
                }
                return Err(RunError::Stalled(Box::new(snapshot(last_change.elapsed()))));
            }
        }
        poll_pause();
    }

    let stats = RunStats {
        // `executed` was seeded with the resumed count for the termination
        // check; the reported figure is new work only.
        tiles_executed: executed.load(Ordering::Acquire) - resumed,
        schedule,
        shape: tiling.shape(),
        geom_classes: graph.recordings() as u64,
        init_time,
        total_time: t_start.elapsed(),
        idle_time: Duration::from_nanos(idle_ns.load(Ordering::Relaxed)),
        steal_count: sched.steal_count(),
        steal_fail_count: sched.steal_fail_count(),
        lock_wait_time: sched.lock_wait(),
        tiles_per_worker: tiles_per_worker
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect(),
        peak_pending_tiles: mem.peak_pending_tiles(),
        threads,
        peak_edges: mem.peak_edges(),
        peak_edge_cells: mem.peak_edge_cells(),
        peak_live_tiles: mem.peak_live_tiles(),
        // Every tile buffer of the run is one tile layout.
        peak_live_tile_cells: mem.peak_live_tiles() * layout.size() as i64,
        tiles_resumed: resumed,
        checkpoint_bytes: recovery.map(|r| r.sink.bytes()).unwrap_or(0),
        // The work counters, summed over the workers.
        ..totals.into_inner()
    };
    Ok(NodeResult {
        probes: probe_results.into_inner(),
        reduction: reduce.map(|r| r.finish()),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Kernel, PerCell};
    use crate::transport::NullTransport;
    use dpgen_polyhedra::{ConstraintSystem, Space};
    use dpgen_tiling::tiling::CellRef;
    use dpgen_tiling::{Template, TemplateSet, TilingBuilder};
    use std::collections::HashSet;

    /// One tile's life on `pool`, as the worker loop lives it: acquire,
    /// unpack an edge of 7s from every neighbour there is, have the kernel
    /// write 9 over the scan, release. Returns the buffer as acquired.
    fn tile_on_pool(pool: &mut TileBufferPool<u64>, graph: &TileGraph, tile: [i64; 2]) -> Vec<u64> {
        let tiling = graph.tiling();
        let tile = Coord::from_slice(&tile);
        let tile_idx = graph.index_of(&tile).unwrap();
        let geom = graph.geometry(tile_idx).unwrap();
        let mut counts = RunStats::default();
        let mut values = pool.acquire(tiling.layout().size(), &geom, &mut counts);
        let as_acquired = values.clone();
        let mut unpacked = Vec::new();
        for dep_idx in 0..tiling.deps().len() {
            if let Some(src) = graph.source(tile_idx, dep_idx) {
                let src_geom = graph.geometry(src).unwrap();
                for loc in ghost_cells(tiling, &src_geom, dep_idx) {
                    values[loc] = 7;
                }
                unpacked.push((src_geom, dep_idx));
            }
        }
        assert!(!unpacked.is_empty(), "tile {tile} unpacks nothing");
        let nines = |cell: CellRef<'_>, values: &mut [u64]| values[cell.loc] = 9;
        let mut visitor = BatchVisitor {
            kernel: &PerCell(&nines),
            values: &mut values,
            reduce: None,
            written_lo: usize::MAX,
            written_hi: 0,
            blocks: 0,
        };
        tiling.replay(&geom, &tile, &mut visitor);
        let written = Some((visitor.written_lo, visitor.written_hi));
        let ghosts = unpacked
            .iter()
            .flat_map(|(src_geom, dep_idx)| ghost_cells(tiling, src_geom, *dep_idx));
        pool.release(values, ghosts, geom.into_owned(), written);
        as_acquired
    }

    /// A pooled buffer reaches the next tile holding nothing that tile can
    /// tell from a fresh one: after a tile of the same class, stale values
    /// only where its own scan writes first; after a tile of another class,
    /// nothing at all.
    #[test]
    fn a_reused_buffer_holds_only_what_the_next_tile_overwrites() {
        let tiling = triangle(3);
        let graph = tiling.graph(&[12]);
        let mut pool = TileBufferPool::<u64>::new();
        // (0,0) and (1,0) lie under the hypotenuse of N = 12 — one class;
        // (2,1) is cut by it.
        let geom = |t: [i64; 2]| {
            let tile = graph.index_of(&Coord::from_slice(&t)).unwrap();
            graph.geometry(tile).unwrap().into_owned()
        };
        let (full, same, cut) = (geom([0, 0]), geom([1, 0]), geom([2, 1]));
        assert!(Arc::ptr_eq(&full, &same) && !Arc::ptr_eq(&full, &cut));
        let mut scan = vec![false; tiling.layout().size()];
        let mut mark = dpgen_tiling::tiling::EachCell(|cell: CellRef<'_>| scan[cell.loc] = true);
        tiling.replay(&full, &Coord::from_slice(&[0, 0]), &mut mark);

        assert!(tile_on_pool(&mut pool, &graph, [0, 0])
            .iter()
            .all(|&v| v == 0));
        let after_same_class = tile_on_pool(&mut pool, &graph, [1, 0]);
        for (loc, &v) in after_same_class.iter().enumerate() {
            assert_eq!(v, if scan[loc] { 9 } else { 0 }, "loc {loc}");
        }
        let after_full = tile_on_pool(&mut pool, &graph, [2, 1]);
        assert!(
            after_full.iter().all(|&v| v == 0),
            "class change: {after_full:?}"
        );
        let after_cut = tile_on_pool(&mut pool, &graph, [0, 0]);
        assert!(
            after_cut.iter().all(|&v| v == 0),
            "class change: {after_cut:?}"
        );
    }

    /// Single-rank run of a per-cell kernel under `config`.
    fn run_with<T, K>(
        tiling: &Tiling,
        params: &[i64],
        kernel: &K,
        probe: &Probe,
        config: &NodeConfig,
    ) -> Result<NodeResult<T>, RunError>
    where
        T: Value,
        K: Kernel<T>,
    {
        run_node(
            &NodeJob {
                graph: &tiling.graph(params),
                owner: &SingleOwner,
                transport: &NullTransport::default(),
                probe,
                config,
                reduce: None,
                recovery: None,
            },
            &PerCell(kernel),
        )
    }

    fn run_local<T, K>(
        tiling: &Tiling,
        params: &[i64],
        kernel: &K,
        probe: &Probe,
        threads: usize,
        priority: TilePriority,
    ) -> Result<NodeResult<T>, RunError>
    where
        T: Value,
        K: Kernel<T>,
    {
        let config = NodeConfig {
            priority,
            ..NodeConfig::new(threads, tiling.dims())
        };
        run_with(tiling, params, kernel, probe, &config)
    }

    /// Triangle "counting paths" problem: f(x) = f(x+e1) + f(x+e2), base
    /// case f = 1 on the hypotenuse-adjacent invalid reads.
    fn triangle(w: i64) -> Tiling {
        let space = Space::from_names(&["x", "y"], &["N"]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        sys.add_text("x >= 0").unwrap();
        sys.add_text("y >= 0").unwrap();
        sys.add_text("x + y <= N").unwrap();
        let templates = TemplateSet::new(
            2,
            vec![Template::new("r1", &[1, 0]), Template::new("r2", &[0, 1])],
        )
        .unwrap();
        TilingBuilder::new(sys, templates, vec![w, w])
            .build()
            .unwrap()
    }

    fn path_kernel(cell: CellRef<'_>, values: &mut [u64]) {
        let a = if cell.valid[0] {
            values[cell.loc_r(0)]
        } else {
            1
        };
        let b = if cell.valid[1] {
            values[cell.loc_r(1)]
        } else {
            1
        };
        values[cell.loc] = a + b;
    }

    /// Brute-force reference: iterate anti-diagonals from the hypotenuse
    /// inward so dependencies are computed first.
    fn brute(n: i64) -> std::collections::HashMap<(i64, i64), u64> {
        let mut m = std::collections::HashMap::new();
        for sum in (0..=n).rev() {
            for x in 0..=sum {
                let y = sum - x;
                let a = if x + y < n { m[&(x + 1, y)] } else { 1 };
                let b = if x + y < n { m[&(x, y + 1)] } else { 1 };
                m.insert((x, y), a + b);
            }
        }
        m
    }

    #[test]
    fn single_thread_matches_brute_force() {
        for (n, w) in [(6i64, 3i64), (9, 4), (5, 1), (7, 10)] {
            let tiling = triangle(w);
            let expect = brute(n);
            let probe = Probe::many(&[&[0, 0], &[1, 2], &[n, 0]]);
            let res: NodeResult<u64> = run_local(
                &tiling,
                &[n],
                &path_kernel,
                &probe,
                1,
                TilePriority::column_major(2),
            )
            .unwrap();
            assert_eq!(res.probes[0], Some(expect[&(0, 0)]), "N={n} w={w}");
            assert_eq!(res.probes[1], Some(expect[&(1, 2)]));
            assert_eq!(res.probes[2], Some(expect[&(n, 0)]));
            assert_eq!(res.stats.cells_computed, ((n + 1) * (n + 2) / 2) as u64);
            assert_eq!(res.stats.peak_live_tiles, 1);
        }
    }

    #[test]
    fn multi_thread_matches_single_thread() {
        let tiling = triangle(2);
        let n = 20i64;
        let expect = brute(n);
        for threads in [2usize, 4, 8] {
            for priority in [
                TilePriority::column_major(2),
                TilePriority::LevelSet,
                TilePriority::LevelSet,
            ] {
                let res: NodeResult<u64> = run_local(
                    &tiling,
                    &[n],
                    &path_kernel,
                    &Probe::at(&[0, 0]),
                    threads,
                    priority,
                )
                .unwrap();
                assert_eq!(res.probes[0], Some(expect[&(0, 0)]), "threads={threads}");
            }
        }
    }

    #[test]
    fn static_schedule_matches_dynamic() {
        let tiling = triangle(2);
        let n = 20i64;
        let expect = brute(n)[&(0, 0)];
        let exact = |s: &RunStats| {
            [
                s.tiles_executed,
                s.cells_computed,
                s.interior_cells,
                s.boundary_cells,
                s.blocks_evaluated,
                s.edges_local,
                s.edges_remote,
                s.edge_cells_packed,
            ]
        };
        for threads in [1usize, 2, 4] {
            let run = |schedule| {
                let config = NodeConfig::new(threads, 2).with_schedule(schedule);
                run_with(&tiling, &[n], &path_kernel, &Probe::at(&[0, 0]), &config).unwrap()
            };
            let (dynamic, stat): (NodeResult<u64>, NodeResult<u64>) =
                (run(Schedule::Dynamic), run(Schedule::Static));
            assert_eq!(stat.probes[0], Some(expect), "threads={threads}");
            let stats = &stat.stats;
            assert_eq!(stats.schedule, Schedule::Static);
            assert_eq!(
                stats.tiles_per_worker.iter().sum::<u64>(),
                stats.tiles_executed
            );
            assert_eq!(exact(stats), exact(&dynamic.stats), "threads={threads}");
        }
    }

    #[test]
    fn stats_are_plausible() {
        let tiling = triangle(3);
        let n = 12i64;
        let res: NodeResult<u64> = run_local(
            &tiling,
            &[n],
            &path_kernel,
            &Probe::at(&[0, 0]),
            2,
            TilePriority::column_major(2),
        )
        .unwrap();
        assert!(res.stats.tiles_executed > 0);
        assert_eq!(res.stats.cells_computed, ((n + 1) * (n + 2) / 2) as u64);
        assert!(res.stats.edges_local > 0);
        assert_eq!(res.stats.edges_remote, 0);
        assert!(res.stats.total_time >= res.stats.init_time);
        assert_eq!(res.stats.threads, 2);
        // All buffered edges were consumed.
        assert!(res.stats.peak_edges > 0);
    }

    #[test]
    fn pooling_plateaus_and_cell_split_balances() {
        let tiling = triangle(3);
        let n = 30i64;
        for threads in [1usize, 4] {
            let res: NodeResult<u64> = run_local(
                &tiling,
                &[n],
                &path_kernel,
                &Probe::at(&[0, 0]),
                threads,
                TilePriority::column_major(2),
            )
            .unwrap();
            let s = &res.stats;
            // Interior/boundary split covers every computed cell.
            assert_eq!(s.interior_cells + s.boundary_cells, s.cells_computed);
            // Each worker allocates at most one tile buffer, ever; every
            // tile runs on either a fresh or a pooled buffer.
            assert!(
                s.tile_buffers_allocated <= threads as u64,
                "allocated {} buffers with {} threads",
                s.tile_buffers_allocated,
                threads
            );
            assert_eq!(
                s.tile_buffers_allocated + s.tile_buffers_reused,
                s.tiles_executed
            );
            // Every packed edge took a payload from the pool or allocated.
            assert_eq!(
                s.edge_payloads_allocated + s.edge_payloads_reused,
                s.edges_local + s.edges_remote
            );
            if threads == 1 {
                // Single worker: after warm-up all payloads are recycled,
                // so allocations stay bounded by the dependency count plus
                // a short warm-up transient.
                assert!(s.tiles_executed > 20, "problem too small to exercise pool");
                assert!(s.tile_buffers_reused > 0);
                assert!(s.edge_payloads_reused > 0);
            }
        }
    }

    #[test]
    fn probe_outside_space_stays_none() {
        let tiling = triangle(3);
        let res: NodeResult<u64> = run_local(
            &tiling,
            &[5],
            &path_kernel,
            &Probe::at(&[100, 100]),
            1,
            TilePriority::LevelSet,
        )
        .unwrap();
        assert_eq!(res.probes[0], None);
    }

    #[test]
    fn empty_probe_works() {
        let tiling = triangle(3);
        let res: NodeResult<u64> = run_local(
            &tiling,
            &[5],
            &path_kernel,
            &Probe::default(),
            1,
            TilePriority::LevelSet,
        )
        .unwrap();
        assert!(res.probes.is_empty());
        assert!(res.stats.tiles_executed > 0);
    }

    #[test]
    fn panicking_kernel_is_quarantined() {
        let tiling = triangle(3);
        let n = 9i64;
        let bomb = |cell: CellRef<'_>, values: &mut [u64]| {
            // Blow up somewhere mid-problem, after real work has happened.
            if cell.x[0] == 2 && cell.x[1] == 2 {
                panic!("injected kernel fault at (2,2)");
            }
            path_kernel(cell, values);
        };
        let err = run_local::<u64, _>(
            &tiling,
            &[n],
            &bomb,
            &Probe::at(&[0, 0]),
            2,
            TilePriority::column_major(2),
        )
        .unwrap_err();
        match &err {
            RunError::KernelPanic { tile, message, .. } => {
                // (2,2) lives in tile (0,0) with width 3.
                assert_eq!(*tile, Coord::from_slice(&[0, 0]));
                assert!(message.contains("injected kernel fault"), "{message}");
            }
            other => panic!("expected KernelPanic, got {other}"),
        }
    }

    /// Panics inside `eval_block` on the block of tile (1,1).
    struct BlockBomb;

    impl Kernel<u64> for BlockBomb {
        fn compute(&self, cell: CellRef<'_>, values: &mut [u64]) {
            path_kernel(cell, values)
        }
    }

    impl RunKernel<u64> for BlockBomb {
        fn eval_block(&self, block: &BlockCtx<'_>, values: &mut [u64]) {
            if block.first.x.iter().all(|&x| x / 3 == 1) {
                panic!("injected block fault");
            }
            block.for_each_run(|run| self.eval_run(&run, values));
        }
    }

    #[test]
    fn a_panic_inside_eval_block_is_quarantined() {
        let tiling = triangle(3);
        let err = run_node(
            &NodeJob {
                graph: &tiling.graph(&[12]),
                owner: &SingleOwner,
                transport: &NullTransport::default(),
                probe: &Probe::default(),
                config: &NodeConfig::new(1, 2),
                reduce: None,
                recovery: None,
            },
            &BlockBomb,
        )
        .unwrap_err();
        match &err {
            RunError::KernelPanic { tile, message, .. } => {
                assert_eq!(*tile, Coord::from_slice(&[1, 1]));
                assert!(message.contains("injected block fault"), "{message}");
            }
            other => panic!("expected KernelPanic, got {other}"),
        }
    }

    #[test]
    fn panicking_kernel_multi_thread_shuts_down_cleanly() {
        let tiling = triangle(2);
        let bomb = |_: CellRef<'_>, _: &mut [u64]| panic!("every tile fails");
        for threads in [1usize, 4] {
            let err = run_local::<u64, _>(
                &tiling,
                &[15],
                &bomb,
                &Probe::default(),
                threads,
                TilePriority::LevelSet,
            )
            .unwrap_err();
            assert!(
                matches!(err, RunError::KernelPanic { .. }),
                "threads={threads}: {err}"
            );
        }
    }

    /// Rank 1 owns tile (1,0) and nothing else.
    struct OneForeignTile;

    impl TileOwner for OneForeignTile {
        fn owner_at(&self, _idx: usize, tile: &Coord) -> usize {
            (*tile == Coord::from_slice(&[1, 0])) as usize
        }
    }

    /// Stands in for rank 1: swallows what rank 0 sends it and delivers one
    /// forged edge before anything runs.
    struct Forged(Mutex<Option<EdgeMsg<u64>>>);

    impl Transport<u64> for Forged {
        fn send(&self, _: usize, _: EdgeMsg<u64>) -> Result<(), crate::TransportError> {
            Ok(())
        }
        fn try_recv(&self) -> Option<EdgeMsg<u64>> {
            self.0.lock().take()
        }
    }

    fn run_with_forged_edge(msg: EdgeMsg<u64>) -> RunError {
        let tiling = triangle(3);
        run_node(
            &NodeJob {
                graph: &tiling.graph(&[9]),
                owner: &OneForeignTile,
                transport: &Forged(Mutex::new(Some(msg))),
                probe: &Probe::default(),
                config: &NodeConfig::new(1, 2),
                reduce: None,
                recovery: None,
            },
            &PerCell(&path_kernel),
        )
        .unwrap_err()
    }

    /// Worker 0 is the calling thread: a one-worker node starts no thread,
    /// and an n-worker node starts n - 1.
    #[test]
    fn worker_zero_is_the_calling_thread() {
        let tiling = triangle(3);
        for threads in [1usize, 3] {
            let seen = Mutex::new(HashSet::new());
            let kernel = |cell: CellRef<'_>, values: &mut [u64]| {
                seen.lock().insert(std::thread::current().id());
                path_kernel(cell, values);
            };
            let out = run_local(
                &tiling,
                &[40],
                &kernel,
                &Probe::default(),
                threads,
                TilePriority::column_major(2),
            )
            .unwrap();
            assert_eq!(out.stats.tiles_per_worker.len(), threads);
            let seen = seen.into_inner();
            assert!(seen.len() <= threads);
            if threads == 1 {
                assert_eq!(
                    seen.into_iter().collect::<Vec<_>>(),
                    [std::thread::current().id()]
                );
            }
        }
    }

    #[test]
    fn wrong_length_payload_is_a_typed_bad_edge() {
        // Tile (0,0) waits for (0,1)'s edge and for the one rank 1 forges
        // in (1,0)'s name. (1,0) is a full tile, so the tiling expects the
        // 3 cells of one tile row.
        let tile = Coord::from_slice(&[0, 0]);
        let err = run_with_forged_edge(EdgeMsg {
            tile,
            delta: Coord::from_slice(&[1, 0]),
            payload: vec![7; 5],
        });
        match &err {
            RunError::BadEdge(fault) => {
                assert_eq!((fault.rank, fault.tile), (0, tile));
                assert!(
                    fault.detail.contains("carries 5 cells, tiling expects 3"),
                    "{err}"
                );
            }
            other => panic!("expected BadEdge, got {other}"),
        }
    }

    #[test]
    fn edge_with_an_unknown_offset_is_a_typed_bad_edge() {
        let tile = Coord::from_slice(&[0, 0]);
        let err = run_with_forged_edge(EdgeMsg {
            tile,
            delta: Coord::from_slice(&[1, 1]),
            payload: vec![7; 3],
        });
        match &err {
            RunError::BadEdge(fault) => {
                assert_eq!(fault.tile, tile);
                assert!(fault.detail.contains("unknown dependency offset"), "{err}");
            }
            other => panic!("expected BadEdge, got {other}"),
        }
    }

    #[test]
    fn edge_for_a_tile_outside_the_space_is_a_typed_bad_edge() {
        let tile = Coord::from_slice(&[40, 40]);
        let err = run_with_forged_edge(EdgeMsg {
            tile,
            delta: Coord::from_slice(&[1, 0]),
            payload: vec![7; 3],
        });
        match &err {
            RunError::BadEdge(fault) => {
                assert_eq!(fault.tile, tile);
                assert!(fault.detail.contains("outside the tile space"), "{err}");
            }
            other => panic!("expected BadEdge, got {other}"),
        }
    }

    #[test]
    fn watchdog_is_quiet_on_healthy_runs() {
        let tiling = triangle(2);
        let config = NodeConfig::new(2, 2).with_stall_timeout(Some(Duration::from_secs(5)));
        let res =
            run_with::<u64, _>(&tiling, &[12], &path_kernel, &Probe::at(&[0, 0]), &config).unwrap();
        assert_eq!(res.probes[0], Some(brute(12)[&(0, 0)]));
    }

    #[test]
    fn cancel_flag_aborts_the_run() {
        let tiling = triangle(2);
        let cancel = Arc::new(AtomicBool::new(true)); // pre-cancelled
        let config = NodeConfig {
            cancel: Some(cancel),
            ..NodeConfig::new(2, 2)
        };
        let err = run_with::<u64, _>(&tiling, &[20], &path_kernel, &Probe::default(), &config)
            .unwrap_err();
        assert!(matches!(err, RunError::Cancelled { rank: 0 }), "{err}");
    }
}
