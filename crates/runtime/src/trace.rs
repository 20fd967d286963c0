//! Per-worker event tracing: lock-free ring buffers, a post-run
//! [`Timeline`] on the run's tile graph, and Chrome-trace export.
//!
//! Scalar counters ([`crate::stats::RunStats`]) say *how much* happened;
//! they cannot say *when*, *where*, or *in what order* — the questions that
//! actually diagnose a tiled executor (why did worker 3 idle mid-run? how
//! long did an edge sit on the wire? what was every worker doing when the
//! watchdog fired?). This module records timestamped tile-lifecycle events
//! into fixed-capacity per-worker rings and derives everything else after
//! the run.
//!
//! Design constraints, in order:
//!
//! 1. **`Off` costs (almost) nothing.** Tracing is reached through an
//!    `Option<Arc<Tracer>>` that is `None` when disabled, so the hot path
//!    pays one pointer test per would-be event.
//! 2. **No allocation, no locks on the hot path.** A [`TraceRing`] is a
//!    fixed array of three-word atomic slots claimed by `fetch_add` on a
//!    monotone head counter; recording is three relaxed stores. When the
//!    ring wraps, the oldest events are overwritten (**drop-oldest**) —
//!    recent history is what debugging needs — while `recorded`/`dropped`
//!    counts stay exact.
//! 3. **Readable while wedged.** The stall watchdog snapshots the last N
//!    events per worker *mid-run* ([`Tracer::recent_all`]); a concurrently
//!    overwritten slot may decode torn or stale, which is acceptable for a
//!    diagnostic dump. Post-run reads happen after worker threads are
//!    joined and are fully consistent.
//!
//! An event names its tile the way the run does: by the tile's index in the
//! plan's [`TileGraph`]. The [`Timeline`] holds that graph, reads the
//! dependency edges of the critical path off it, and resolves an index to
//! its coordinates only where it renders text.
//!
//! Every rank's [`Tracer`] reads the run's one [`Clock`], so timestamps are
//! comparable across ranks and recovery epochs. Each tracer owns
//! `workers + 1` rings: one per worker plus a **comm track** for
//! transport-level events (retransmits, acks), which may be recorded from
//! any worker thread (the claim is multi-writer safe).

use crate::clock::Clock;
use crate::metrics::{Histogram, MetricsRegistry};
use dpgen_tiling::TileGraph;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How much to record.
///
/// Ordered: each level includes everything below it. `Spans` records the
/// events needed for per-worker busy/idle timelines; `Full` adds per-edge
/// and transport events (several per tile — the most detailed and the most
/// ring-hungry). The [`MetricsRegistry`] of a run is filled at every level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// No ring events.
    Off,
    /// Tile spans and worker state: `TileStart`, `TileDone`, `Steal`,
    /// `WorkerIdle`/`WorkerResume`, `StallProbe`, `Fault`.
    Spans,
    /// Everything: adds `TileReady`, `EdgePack`, `EdgeSend`, `EdgeRecv`,
    /// `Retransmit`, `Ack`.
    Full,
}

/// Events a run's tracer retains per track; older events are overwritten.
/// Each ring is allocated whole, up front, at 24 B an event.
pub const RING_CAPACITY: usize = 4096;

/// What happened. Kinds start at 1 so an unwritten ring slot (kind byte 0)
/// is distinguishable from every real event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// A tile's last dependency arrived; it entered a ready queue.
    /// `aux` = 0.
    TileReady = 1,
    /// A worker popped the tile and began executing it.
    /// `aux` = buffered edges consumed.
    TileStart = 2,
    /// The tile finished. `aux` = cells computed.
    TileDone = 3,
    /// The tile was stolen from another worker's queue. `aux` = victim.
    Steal = 4,
    /// An outgoing edge was packed. `tile` = consumer, `aux` = cells.
    EdgePack = 5,
    /// An edge was handed to the transport. `tile` = consumer,
    /// `aux` = destination rank.
    EdgeSend = 6,
    /// An edge arrived from the transport. `tile` = consumer,
    /// `aux` = cells.
    EdgeRecv = 7,
    /// The reliable layer retransmitted a frame. `aux` = destination rank.
    Retransmit = 8,
    /// A cumulative acknowledgement arrived. `aux` = cumulative sequence.
    Ack = 9,
    /// The stall watchdog inspected the node. `aux` = ns since progress.
    StallProbe = 10,
    /// A worker found no work and began waiting. `aux` = 0.
    WorkerIdle = 11,
    /// A previously idle worker obtained work. `aux` = idle ns.
    WorkerResume = 12,
    /// The worker observed a failure (its own or a sibling's). `tile` =
    /// the offending tile when the error carries one, `aux` = severity.
    Fault = 13,
    /// The rank fixed its schedule mode at run start. `aux` = the
    /// [`crate::Schedule`] code (0 dynamic, 1 static) in the low
    /// 8 bits, statically pinned tile count in the bits above.
    ScheduleMode = 14,
    /// A peer rank was declared dead. `aux` = the dead rank.
    PeerDeath = 15,
    /// The recovery coordinator began rebuilding the world after a death.
    /// `aux` = the dead rank.
    RecoveryStart = 16,
    /// A dead rank's slab was reassigned to a survivor. `aux` = the
    /// adopting rank.
    SlabMigrated = 17,
    /// Recovery finished and the wavefront resumed. `aux` = recovery
    /// latency in nanoseconds.
    RecoveryDone = 18,
}

impl EventKind {
    /// Decode the `repr(u8)` discriminant.
    pub fn from_u8(b: u8) -> Option<EventKind> {
        use EventKind::*;
        Some(match b {
            1 => TileReady,
            2 => TileStart,
            3 => TileDone,
            4 => Steal,
            5 => EdgePack,
            6 => EdgeSend,
            7 => EdgeRecv,
            8 => Retransmit,
            9 => Ack,
            10 => StallProbe,
            11 => WorkerIdle,
            12 => WorkerResume,
            13 => Fault,
            14 => ScheduleMode,
            15 => PeerDeath,
            16 => RecoveryStart,
            17 => SlabMigrated,
            18 => RecoveryDone,
            _ => return None,
        })
    }

    /// The lowest [`TraceLevel`] at which this kind is recorded.
    pub fn min_level(self) -> TraceLevel {
        use EventKind::*;
        match self {
            TileStart | TileDone | Steal | StallProbe | WorkerIdle | WorkerResume | Fault
            | ScheduleMode | PeerDeath | RecoveryStart | SlabMigrated | RecoveryDone => {
                TraceLevel::Spans
            }
            TileReady | EdgePack | EdgeSend | EdgeRecv | Retransmit | Ack => TraceLevel::Full,
        }
    }

    /// Stable display name (also the Chrome-trace event name).
    pub fn name(self) -> &'static str {
        use EventKind::*;
        match self {
            TileReady => "TileReady",
            TileStart => "TileStart",
            TileDone => "TileDone",
            Steal => "Steal",
            EdgePack => "EdgePack",
            EdgeSend => "EdgeSend",
            EdgeRecv => "EdgeRecv",
            Retransmit => "Retransmit",
            Ack => "Ack",
            StallProbe => "StallProbe",
            WorkerIdle => "WorkerIdle",
            WorkerResume => "WorkerResume",
            Fault => "Fault",
            ScheduleMode => "ScheduleMode",
            PeerDeath => "PeerDeath",
            RecoveryStart => "RecoveryStart",
            SlabMigrated => "SlabMigrated",
            RecoveryDone => "RecoveryDone",
        }
    }
}

/// One decoded trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Nanoseconds on the run's clock.
    pub ts: u64,
    /// What happened.
    pub kind: EventKind,
    /// The tile involved, by its index in the run's [`TileGraph`], when
    /// the kind carries one.
    pub tile: Option<usize>,
    /// Kind-specific auxiliary value (see [`EventKind`] docs; 48 bits).
    pub aux: u64,
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}us {}", self.ts / 1_000, self.kind.name())?;
        if let Some(t) = self.tile {
            write!(f, " tile #{t}")?;
        }
        if self.aux != 0 {
            write!(f, " [{}]", self.aux)?;
        }
        Ok(())
    }
}

/// Tile word value meaning "no tile".
const NO_TILE: u64 = u64::MAX;
/// Bits of `aux` preserved in the packed meta word.
const AUX_BITS: u32 = 48;

/// One event: timestamp, packed meta (kind in the low byte, `aux` in the
/// high 48 bits) and tile index.
struct Slot {
    words: [AtomicU64; 3],
}

impl Slot {
    fn new() -> Slot {
        Slot {
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A fixed-capacity, lock-free, drop-oldest event ring.
///
/// Writers claim a monotone index with `fetch_add` and store the event's
/// three words with relaxed ordering; the slot is `index % capacity`, so
/// wrapping silently overwrites the oldest event. `recorded()` and
/// `dropped()` are derived from the head counter and are exact even when
/// events were overwritten. Concurrent mid-run reads may observe a torn slot
/// (a mix of two events); reads after the writing threads are joined are
/// consistent.
pub struct TraceRing {
    slots: Box<[Slot]>,
    head: AtomicU64,
}

impl TraceRing {
    /// A ring retaining the last `capacity` events (minimum 16).
    pub fn new(capacity: usize) -> TraceRing {
        let capacity = capacity.max(16);
        TraceRing {
            slots: (0..capacity).map(|_| Slot::new()).collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Events retained (the ring's fixed capacity).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever recorded.
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Events overwritten by ring wrap-around.
    pub fn dropped(&self) -> u64 {
        self.recorded().saturating_sub(self.capacity() as u64)
    }

    /// Record one event about tile index `tile`. Lock-free and
    /// allocation-free.
    #[inline]
    pub fn record(&self, ts: u64, kind: EventKind, tile: Option<usize>, aux: u64) {
        let idx = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(idx % self.slots.len() as u64) as usize];
        slot.words[0].store(ts, Ordering::Relaxed);
        slot.words[2].store(tile.map_or(NO_TILE, |t| t as u64), Ordering::Relaxed);
        let meta = (kind as u64) | ((aux & ((1u64 << AUX_BITS) - 1)) << (64 - AUX_BITS));
        slot.words[1].store(meta, Ordering::Release);
    }

    fn read_slot(&self, idx: u64) -> Option<TraceEvent> {
        let slot = &self.slots[(idx % self.slots.len() as u64) as usize];
        let meta = slot.words[1].load(Ordering::Acquire);
        let kind = EventKind::from_u8((meta & 0xFF) as u8)?;
        let tile = slot.words[2].load(Ordering::Relaxed);
        Some(TraceEvent {
            ts: slot.words[0].load(Ordering::Relaxed),
            kind,
            tile: (tile != NO_TILE).then_some(tile as usize),
            aux: meta >> (64 - AUX_BITS),
        })
    }

    /// The retained events, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.recent(self.slots.len())
    }

    /// The last `n` retained events, oldest first. Safe (but possibly
    /// torn) to call while writers are active — the watchdog's dump path.
    pub fn recent(&self, n: usize) -> Vec<TraceEvent> {
        let head = self.head.load(Ordering::Acquire);
        let retained = head.min(self.slots.len() as u64).min(n as u64);
        (head - retained..head)
            .filter_map(|i| self.read_slot(i))
            .collect()
    }
}

/// Per-rank trace recorder: one ring per worker plus one comm track.
pub struct Tracer {
    level: TraceLevel,
    rank: usize,
    clock: Clock,
    rings: Vec<TraceRing>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("level", &self.level)
            .field("rank", &self.rank)
            .field("tracks", &self.rings.len())
            .finish_non_exhaustive()
    }
}

impl Tracer {
    /// A tracer for `workers` worker tracks plus a comm track, stamping
    /// events off `clock`: the run's, shared by every rank so timestamps
    /// are comparable. Each track's ring holds [`RING_CAPACITY`] events.
    /// `None` below [`TraceLevel::Spans`] (no ring events to record), so
    /// disabled tracing costs one `Option` test per would-be event.
    pub fn create(
        rank: usize,
        workers: usize,
        level: TraceLevel,
        clock: &Clock,
    ) -> Option<Arc<Tracer>> {
        (level >= TraceLevel::Spans).then(|| {
            Arc::new(Tracer {
                level,
                rank,
                clock: clock.clone(),
                rings: (0..workers.max(1) + 1)
                    .map(|_| TraceRing::new(RING_CAPACITY))
                    .collect(),
            })
        })
    }

    /// The rank this tracer records for.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The comm track's index (the last ring).
    pub fn comm_track(&self) -> usize {
        self.rings.len() - 1
    }

    /// Record an event about tile index `tile` on `track` (a worker index,
    /// or [`Tracer::comm_track`]). A kind above the configured level is a
    /// cheap no-op.
    #[inline]
    pub fn record(&self, track: usize, kind: EventKind, tile: Option<usize>, aux: u64) {
        if kind.min_level() > self.level {
            return;
        }
        self.rings[track].record(self.clock.nanos(), kind, tile, aux);
    }

    /// The last `n` events of every track (workers first, comm last): the
    /// watchdog's dump, which may be torn mid-run (see
    /// [`TraceRing::recent`]).
    pub fn recent_all(&self, n: usize) -> Vec<Vec<TraceEvent>> {
        self.rings.iter().map(|r| r.recent(n)).collect()
    }

    /// Snapshot every ring into an owned [`RankTrace`]. Call after the
    /// run's worker threads have joined for a consistent view.
    pub fn drain(&self) -> RankTrace {
        RankTrace {
            rank: self.rank,
            tracks: self
                .rings
                .iter()
                .map(|r| TrackTrace {
                    events: r.snapshot(),
                    recorded: r.recorded(),
                    dropped: r.dropped(),
                })
                .collect(),
        }
    }
}

/// One track's drained events plus its exact ring counters.
#[derive(Debug, Clone)]
pub struct TrackTrace {
    /// Retained events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Total events ever recorded on this track.
    pub recorded: u64,
    /// Events lost to ring wrap-around.
    pub dropped: u64,
}

/// One rank's drained trace (workers first, comm track last).
#[derive(Debug, Clone)]
pub struct RankTrace {
    /// The rank.
    pub rank: usize,
    /// Per-track events and counters.
    pub tracks: Vec<TrackTrace>,
}

/// One tile's execution interval on a worker.
#[derive(Debug, Clone)]
pub struct TileSpan {
    /// Executing rank.
    pub rank: usize,
    /// Executing worker.
    pub track: usize,
    /// The tile, by its index in the timeline's [`TileGraph`].
    pub tile: usize,
    /// Start timestamp (ns on the run's clock).
    pub start: u64,
    /// End timestamp (ns on the run's clock).
    pub end: u64,
}

impl TileSpan {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Per-track aggregates derived from the drained traces.
#[derive(Debug, Clone)]
pub struct TrackSummary {
    /// Source rank.
    pub rank: usize,
    /// Track index within the rank.
    pub track: usize,
    /// Human label: `worker N` or `comm`.
    pub label: String,
    /// Summed tile-span time on this track.
    pub busy_ns: u64,
    /// Tiles executed (complete start/done pairs).
    pub tiles: usize,
    /// Steal events.
    pub steals: usize,
    /// Total events recorded on this track.
    pub recorded: u64,
    /// Events lost to ring wrap-around.
    pub dropped: u64,
}

/// A run's drained traces on the tile graph it executed, with derived
/// metrics and exporters.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// The tile graph of the run: every tile index in the traces and the
    /// spans names one of its tiles.
    pub graph: Arc<TileGraph>,
    /// The drained per-rank traces, each track's events oldest first.
    pub traces: Vec<RankTrace>,
    /// Tile execution intervals (complete `TileStart`/`TileDone` pairs), in
    /// start order.
    pub spans: Vec<TileSpan>,
    /// Per-track aggregates, ordered by (rank, track).
    pub tracks: Vec<TrackSummary>,
    /// Timestamp of the last event (ns on the run's clock) — the
    /// denominator of busy fractions.
    pub duration_ns: u64,
    /// Total events recorded across all rings (exact, includes dropped).
    pub recorded_events: u64,
    /// Events lost to ring wrap-around across all rings.
    pub dropped_events: u64,
    /// `EdgeSend → EdgeRecv` latency per remote edge, in nanoseconds
    /// (empty below [`TraceLevel::Full`]).
    pub edge_latency_ns: Histogram,
    /// The executed critical path: the longest chain of span durations
    /// along the graph's producer→consumer edges. `None` when no span was
    /// recorded.
    pub critical_path_ns: Option<u64>,
    /// Global ready-queue depth change points `(ts, depth)` (empty below
    /// `Full` — needs `TileReady`).
    pub queue_depth: Vec<(u64, usize)>,
}

/// The events of `kinds` from every track of `traces`, each with its rank
/// and track, in global `(ts, rank, track)` order.
fn merged<'a>(traces: &'a [RankTrace], kinds: &[EventKind]) -> Vec<(usize, usize, &'a TraceEvent)> {
    let mut out: Vec<(usize, usize, &TraceEvent)> = Vec::new();
    for rt in traces {
        for (t, track) in rt.tracks.iter().enumerate() {
            let picked = track.events.iter().filter(|e| kinds.contains(&e.kind));
            out.extend(picked.map(|e| (rt.rank, t, e)));
        }
    }
    out.sort_by_key(|&(rank, track, e)| (e.ts, rank, track));
    out
}

impl Timeline {
    /// Derive spans, per-track summaries, edge latencies, queue depth and
    /// the critical path from the drained per-rank traces of a run on
    /// `graph`. An event whose tile index lies outside the graph is
    /// skipped.
    pub fn build(graph: Arc<TileGraph>, traces: Vec<RankTrace>) -> Timeline {
        let n = graph.len();
        let tile_of = |e: &TraceEvent| e.tile.filter(|&i| i < n);

        // --- Spans, busy time and steals, per track. A tile span opens at
        // TileStart and closes at the matching TileDone; unmatched halves
        // (lost to ring wrap or a failed run) are skipped.
        let mut tracks: Vec<TrackSummary> = Vec::new();
        let mut spans: Vec<TileSpan> = Vec::new();
        let (mut duration_ns, mut recorded_events, mut dropped_events) = (0, 0, 0);
        for rt in &traces {
            let comm = rt.tracks.len().saturating_sub(1);
            for (t, track) in rt.tracks.iter().enumerate() {
                recorded_events += track.recorded;
                dropped_events += track.dropped;
                let mut summary = TrackSummary {
                    rank: rt.rank,
                    track: t,
                    label: if t == comm {
                        "comm".to_string()
                    } else {
                        format!("worker {t}")
                    },
                    busy_ns: 0,
                    tiles: 0,
                    steals: 0,
                    recorded: track.recorded,
                    dropped: track.dropped,
                };
                let mut open: Option<(usize, u64)> = None;
                for e in &track.events {
                    duration_ns = duration_ns.max(e.ts);
                    match (e.kind, tile_of(e)) {
                        (EventKind::TileStart, Some(tile)) => open = Some((tile, e.ts)),
                        (EventKind::TileDone, Some(tile)) => {
                            if let Some((_, start)) = open.filter(|&(o, _)| o == tile) {
                                open = None;
                                let span = TileSpan {
                                    rank: rt.rank,
                                    track: t,
                                    tile,
                                    start,
                                    end: e.ts,
                                };
                                summary.busy_ns += span.duration_ns();
                                summary.tiles += 1;
                                spans.push(span);
                            }
                        }
                        (EventKind::Steal, _) => summary.steals += 1,
                        _ => {}
                    }
                }
                tracks.push(summary);
            }
        }
        spans.sort_by_key(|s| (s.start, s.end, s.rank, s.track));

        // --- Edge latency: match EdgeSend to EdgeRecv FIFO per tile (a
        // tile is consumed by exactly one rank; multiple producers feeding
        // the same tile match in timestamp order, which is the best
        // available pairing without per-edge sequence numbers).
        let mut edge_latency_ns = Histogram::new();
        let edges = merged(&traces, &[EventKind::EdgeSend, EventKind::EdgeRecv]);
        if !edges.is_empty() {
            let mut in_flight: Vec<VecDeque<u64>> = vec![VecDeque::new(); n];
            for (_, _, e) in edges {
                let Some(tile) = tile_of(e) else { continue };
                if e.kind == EventKind::EdgeSend {
                    in_flight[tile].push_back(e.ts);
                } else if let Some(sent) = in_flight[tile].pop_front() {
                    edge_latency_ns.observe(e.ts.saturating_sub(sent));
                }
            }
        }

        // --- Critical path: longest chain of span durations along the
        // graph's producer→consumer edges (a tile executed twice counts
        // its later span; one without a span counts zero).
        let critical_path_ns = (!spans.is_empty()).then(|| {
            let mut duration = vec![0u64; n];
            for s in &spans {
                duration[s.tile] = s.duration_ns();
            }
            graph.longest_path(|tile| duration[tile], |_, _, _| 0)
        });

        // --- Ready-queue depth over time: +1 at TileReady, −1 at
        // TileStart, merged across ranks (needs Full-level events).
        let mut queue_depth: Vec<(u64, usize)> = Vec::new();
        let readiness = merged(&traces, &[EventKind::TileReady, EventKind::TileStart]);
        if readiness
            .iter()
            .any(|(_, _, e)| e.kind == EventKind::TileReady)
        {
            let mut depth = 0i64;
            for (_, _, e) in readiness {
                depth += if e.kind == EventKind::TileReady {
                    1
                } else {
                    -1
                };
                queue_depth.push((e.ts, depth.max(0) as usize));
            }
        }

        Timeline {
            graph,
            traces,
            spans,
            tracks,
            duration_ns,
            recorded_events,
            dropped_events,
            edge_latency_ns,
            critical_path_ns,
            queue_depth,
        }
    }

    /// Busy fraction of a track: summed span time over the run duration.
    pub fn busy_fraction(&self, rank: usize, track: usize) -> f64 {
        if self.duration_ns == 0 {
            return 0.0;
        }
        self.tracks
            .iter()
            .find(|t| t.rank == rank && t.track == track)
            .map(|t| t.busy_ns as f64 / self.duration_ns as f64)
            .unwrap_or(0.0)
    }

    /// Export as Chrome-trace JSON (the `chrome://tracing` / Perfetto
    /// "JSON Array Format"): one process per rank, one thread per track,
    /// `X` complete events named `tile (i, j)` for tile spans, `i` instants
    /// for everything else. Timestamps are microseconds; events are emitted
    /// in nondecreasing `ts` order per track.
    pub fn to_chrome_trace(&self) -> String {
        let us = |ns: u64| ns as f64 / 1000.0;
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let push = |out: &mut String, first: &mut bool, frag: String| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push_str(&frag);
        };
        for t in &self.tracks {
            if t.track == 0 {
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
                         \"args\":{{\"name\":\"rank {}\"}}}}",
                        t.rank, t.rank
                    ),
                );
            }
            push(
                &mut out,
                &mut first,
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    t.rank, t.track, t.label
                ),
            );
        }
        // Per-track merge of spans (at their start ts) and instant events
        // so each (pid, tid) stream is monotone in ts.
        for rt in &self.traces {
            for (t, track) in rt.tracks.iter().enumerate() {
                let mut items: Vec<(u64, String)> = Vec::new();
                for s in self
                    .spans
                    .iter()
                    .filter(|s| s.rank == rt.rank && s.track == t)
                {
                    let name = escape_json(&self.graph.coord(s.tile).to_string());
                    items.push((
                        s.start,
                        format!(
                            "{{\"name\":\"tile {}\",\"cat\":\"tile\",\"ph\":\"X\",\
                             \"ts\":{:.3},\"dur\":{:.3},\"pid\":{},\"tid\":{}}}",
                            name,
                            us(s.start),
                            us(s.duration_ns()),
                            rt.rank,
                            t
                        ),
                    ));
                }
                for e in &track.events {
                    match e.kind {
                        EventKind::TileStart | EventKind::TileDone => continue, // covered by spans
                        _ => {}
                    }
                    let in_graph = |&i: &usize| i < self.graph.len();
                    let args = match e.tile.filter(in_graph).map(|i| self.graph.coord(i)) {
                        Some(tile) => format!(
                            "{{\"tile\":\"{}\",\"aux\":{}}}",
                            escape_json(&tile.to_string()),
                            e.aux
                        ),
                        None => format!("{{\"aux\":{}}}", e.aux),
                    };
                    items.push((
                        e.ts,
                        format!(
                            "{{\"name\":\"{}\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\",\
                             \"ts\":{:.3},\"pid\":{},\"tid\":{},\"args\":{}}}",
                            e.kind.name(),
                            us(e.ts),
                            rt.rank,
                            t,
                            args
                        ),
                    ));
                }
                items.sort_by_key(|(ts, _)| *ts);
                for (_, frag) in items {
                    push(&mut out, &mut first, frag);
                }
            }
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }

    /// Compact flamegraph-style text summary: one busy bar per track.
    pub fn text_summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace: {} events recorded ({} dropped), {} spans, {:.3} ms",
            self.recorded_events,
            self.dropped_events,
            self.spans.len(),
            self.duration_ns as f64 / 1e6
        );
        if let Some(cp) = self.critical_path_ns {
            let _ = writeln!(
                out,
                "critical path {:.3} ms; edge latency {}",
                cp as f64 / 1e6,
                self.edge_latency_ns.render()
            );
        }
        for t in &self.tracks {
            if t.recorded == 0 {
                continue;
            }
            let frac = self.busy_fraction(t.rank, t.track);
            let filled = (frac * 20.0).round() as usize;
            let bar: String = "#".repeat(filled.min(20)) + &" ".repeat(20 - filled.min(20));
            let _ = writeln!(
                out,
                "rank {} {:<9} busy {:5.1}% [{}] {} tiles, {} steals, {} ev",
                t.rank,
                t.label,
                frac * 100.0,
                bar,
                t.tiles,
                t.steals,
                t.recorded
            );
        }
        out
    }

    /// Register the timeline's derived metrics (busy fractions, span
    /// counts, edge latency, critical path and its share of the run's
    /// duration, `trace.schedule_efficiency`) into a [`MetricsRegistry`].
    pub fn register_metrics(&self, reg: &mut MetricsRegistry) {
        reg.add_counter("trace.events_recorded", self.recorded_events);
        reg.add_counter("trace.events_dropped", self.dropped_events);
        reg.add_counter("trace.spans", self.spans.len() as u64);
        reg.set_gauge("trace.duration_s", self.duration_ns as f64 / 1e9);
        if let Some(cp) = self.critical_path_ns {
            reg.set_gauge("trace.critical_path_s", cp as f64 / 1e9);
            if self.duration_ns > 0 {
                let efficiency = cp as f64 / self.duration_ns as f64;
                reg.set_gauge("trace.schedule_efficiency", efficiency);
            }
        }
        if self.edge_latency_ns.count() > 0 {
            reg.set_histogram("trace.edge_latency_ns", self.edge_latency_ns.clone());
        }
        for t in &self.tracks {
            if t.label == "comm" {
                continue;
            }
            reg.set_gauge(
                &format!("rank{}.worker{}.busy_fraction", t.rank, t.track),
                self.busy_fraction(t.rank, t.track),
            );
        }
        if let Some(peak) = self.queue_depth.iter().map(|(_, d)| *d).max() {
            reg.set_gauge("trace.peak_ready_depth", peak as f64);
        }
    }
}

/// Escape a string for embedding in a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpgen_polyhedra::{ConstraintSystem, Space};
    use dpgen_tiling::{Coord, Template, TemplateSet, TilingBuilder};

    /// Two unit tiles in a row, `(1, 0)` reading `(0, 0)`: their indices.
    fn two_tiles() -> (Arc<TileGraph>, usize, usize) {
        let space = Space::from_names(&["x", "y"], &[]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        sys.add_text("0 <= x <= 1").unwrap();
        sys.add_text("0 <= y <= 0").unwrap();
        let templates = TemplateSet::new(2, vec![Template::new("r", &[-1, 0])]).unwrap();
        let tiling = TilingBuilder::new(sys, templates, vec![1, 1])
            .build()
            .unwrap();
        let graph = Arc::new(tiling.graph(&[]));
        let at = |x: i64| graph.index_of(&Coord::from_slice(&[x, 0])).unwrap();
        let (a, b) = (at(0), at(1));
        assert_eq!(graph.source(b, 0), Some(a));
        (graph, a, b)
    }

    fn drained(rank: usize, rings: &[TraceRing]) -> RankTrace {
        RankTrace {
            rank,
            tracks: rings
                .iter()
                .map(|r| TrackTrace {
                    events: r.snapshot(),
                    recorded: r.recorded(),
                    dropped: r.dropped(),
                })
                .collect(),
        }
    }

    #[test]
    fn ring_records_and_decodes() {
        let ring = TraceRing::new(64);
        ring.record(10, EventKind::TileStart, Some(5), 3);
        ring.record(20, EventKind::TileDone, Some(5), 9);
        ring.record(30, EventKind::Ack, None, 42);
        let evs = ring.snapshot();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].kind, EventKind::TileStart);
        assert_eq!(evs[0].tile, Some(5));
        assert_eq!(evs[0].aux, 3);
        assert_eq!(evs[2].tile, None);
        assert_eq!(evs[2].aux, 42);
        assert_eq!(ring.recorded(), 3);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn ring_overflow_drops_oldest_with_exact_counters() {
        let ring = TraceRing::new(16);
        for i in 0..100u64 {
            ring.record(i, EventKind::TileReady, None, i);
        }
        assert_eq!(ring.recorded(), 100);
        assert_eq!(ring.dropped(), 100 - 16);
        let evs = ring.snapshot();
        assert_eq!(evs.len(), 16);
        // The retained window is exactly the newest 16 events, in order.
        for (k, ev) in evs.iter().enumerate() {
            assert_eq!(ev.aux, (100 - 16 + k) as u64);
        }
    }

    #[test]
    fn a_slot_is_three_words() {
        assert_eq!(std::mem::size_of::<Slot>(), 24);
        // Tile 0 and the largest index survive; "no tile" stays distinct.
        let ring = TraceRing::new(16);
        ring.record(1, EventKind::EdgePack, Some(0), 0);
        ring.record(2, EventKind::EdgePack, Some(u32::MAX as usize), 0);
        ring.record(3, EventKind::WorkerIdle, None, 0);
        let tiles: Vec<Option<usize>> = ring.snapshot().iter().map(|e| e.tile).collect();
        assert_eq!(tiles, [Some(0), Some(u32::MAX as usize), None]);
    }

    #[test]
    fn level_gating() {
        assert!(TraceLevel::Off < TraceLevel::Spans);
        assert!(TraceLevel::Spans < TraceLevel::Full);
        let t = Tracer::create(0, 1, TraceLevel::Spans, &Clock::manual()).unwrap();
        t.record(0, EventKind::TileStart, Some(0), 0); // recorded
        t.record(0, EventKind::EdgePack, Some(0), 0); // Full-only: dropped
        let trace = t.drain();
        assert_eq!(trace.tracks[0].events.len(), 1);
        assert_eq!(trace.tracks[0].events[0].kind, EventKind::TileStart);
        // Off never builds a tracer at all.
        assert!(Tracer::create(0, 1, TraceLevel::Off, &Clock::manual()).is_none());
        assert!(Tracer::create(0, 1, TraceLevel::Spans, &Clock::manual()).is_some());
    }

    /// Worker 0 runs tile `a`, then its consumer `b`; the comm track acks.
    /// Spans-level events only: no `EdgePack` names the edge between them.
    fn demo_trace(a: usize, b: usize) -> RankTrace {
        let w0 = TraceRing::new(64);
        w0.record(100, EventKind::TileStart, Some(a), 0);
        w0.record(200, EventKind::TileDone, Some(a), 9);
        w0.record(300, EventKind::TileStart, Some(b), 1);
        w0.record(500, EventKind::TileDone, Some(b), 9);
        let comm = TraceRing::new(64);
        comm.record(400, EventKind::Ack, None, 1);
        drained(0, &[w0, comm])
    }

    #[test]
    fn timeline_builds_spans_and_critical_path() {
        let (graph, a, b) = two_tiles();
        let tl = Timeline::build(graph, vec![demo_trace(a, b)]);
        assert_eq!(tl.spans.len(), 2);
        assert_eq!(tl.spans[0].tile, a);
        assert_eq!(tl.spans[0].duration_ns(), 100);
        assert_eq!(tl.duration_ns, 500);
        // Critical path, off the graph's edge a -> b: 100ns then 200ns.
        assert_eq!(tl.critical_path_ns, Some(300));
        let busy = tl.busy_fraction(0, 0);
        assert!((busy - 300.0 / 500.0).abs() < 1e-9, "{busy}");
        assert_eq!(tl.tracks[0].tiles, 2);
        assert_eq!(tl.recorded_events, 5);
        assert_eq!(tl.dropped_events, 0);
        let mut reg = MetricsRegistry::new();
        tl.register_metrics(&mut reg);
        assert_eq!(reg.gauge("trace.critical_path_s"), Some(300e-9));
        assert_eq!(reg.gauge("trace.schedule_efficiency"), Some(300.0 / 500.0));
    }

    #[test]
    fn timeline_skips_tiles_outside_the_graph() {
        let (graph, a, b) = two_tiles();
        let stray = graph.len() + 5;
        let mut trace = demo_trace(a, b);
        let w1 = TraceRing::new(64);
        w1.record(110, EventKind::TileStart, Some(stray), 0);
        w1.record(120, EventKind::EdgeSend, Some(stray), 1);
        w1.record(130, EventKind::EdgeRecv, Some(stray), 1);
        w1.record(140, EventKind::Steal, Some(stray), 0);
        w1.record(900, EventKind::TileDone, Some(stray), 0);
        trace.tracks.insert(1, drained(0, &[w1]).tracks.remove(0));
        let tl = Timeline::build(graph, vec![trace]);
        assert_eq!(tl.spans.len(), 2, "the stray span is not a span");
        assert_eq!(tl.critical_path_ns, Some(300));
        assert_eq!(tl.edge_latency_ns.count(), 0);
        assert_eq!(tl.tracks[1].steals, 1);
        assert_eq!(tl.duration_ns, 900);
        let json = tl.to_chrome_trace();
        assert!(json.contains("\"name\":\"Steal\""), "{json}");
    }

    #[test]
    fn timeline_edge_latency_matches_send_recv() {
        let (graph, _, b) = two_tiles();
        let w0 = TraceRing::new(64);
        w0.record(100, EventKind::EdgeSend, Some(b), 1);
        let w1 = TraceRing::new(64);
        w1.record(1100, EventKind::EdgeRecv, Some(b), 4);
        let tl = Timeline::build(graph, vec![drained(0, &[w0]), drained(1, &[w1])]);
        assert_eq!(tl.edge_latency_ns.count(), 1);
        assert_eq!(tl.edge_latency_ns.max(), 1000);
        assert_eq!(tl.critical_path_ns, None, "no span, no path");
    }

    #[test]
    fn chrome_trace_is_structured_and_monotone() {
        let (graph, a, b) = two_tiles();
        let tl = Timeline::build(graph, vec![demo_trace(a, b)]);
        let json = tl.to_chrome_trace();
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("process_name"), "{json}");
        assert!(json.contains("\"name\":\"tile (0, 0)\""), "{json}");
        assert!(json.contains("\"name\":\"tile (1, 0)\""), "{json}");
        let summary = tl.text_summary();
        assert!(summary.contains("busy"), "{summary}");
        let mut reg = MetricsRegistry::new();
        tl.register_metrics(&mut reg);
        assert!(reg.gauge("rank0.worker0.busy_fraction").is_some());
        assert_eq!(reg.counter("trace.spans"), Some(2));
    }

    #[test]
    fn event_display_is_compact() {
        let e = TraceEvent {
            ts: 12_345,
            kind: EventKind::TileStart,
            tile: Some(7),
            aux: 3,
        };
        let s = e.to_string();
        assert_eq!(s, "12us TileStart tile #7 [3]");
    }

    #[test]
    fn concurrent_recording_is_safe_and_exact() {
        let ring = Arc::new(TraceRing::new(128));
        std::thread::scope(|s| {
            for w in 0..4u64 {
                let ring = ring.clone();
                s.spawn(move || {
                    for i in 0..1000u64 {
                        ring.record(i, EventKind::Ack, None, w * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(ring.recorded(), 4000);
        assert_eq!(ring.dropped(), 4000 - 128);
        assert_eq!(ring.snapshot().len(), 128);
    }
}
