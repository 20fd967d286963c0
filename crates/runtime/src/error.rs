//! Typed failures of a node run.
//!
//! The paper's generated programs assume a perfectly reliable MPI and a
//! kernel that never faults; any violation hangs or aborts the whole job
//! with no diagnosis. The node runtime instead converts the three ways a
//! run can go wrong into a typed [`RunError`]:
//!
//! * a transport failure ([`TransportError`]) — mis-partitioning, a dead
//!   peer, or a send that timed out on a full window;
//! * a stall — no tile executed, no edge delivered anywhere on the node
//!   for the configured watchdog window; the error carries a
//!   [`StallSnapshot`] of the scheduler so the wedge is debuggable;
//! * a panicking kernel — caught per tile, quarantining the failing tile
//!   coordinate instead of poisoning the worker pool.

use crate::trace::TraceEvent;
use crate::transport::{LinkDiag, TransportError};
use dpgen_polyhedra::PolyError;
use dpgen_tiling::{Coord, TilingError};
use std::cmp::Reverse;
use std::fmt;
use std::time::Duration;

/// Which stage of plan compilation rejected the problem (see
/// [`RunError::CompileError`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompileStage {
    /// The spec failed to parse or validate.
    Spec,
    /// A polyhedral operation failed (projection, emptiness, probing).
    Poly,
    /// The geometric derivation failed (templates, loop nests, layouts).
    Tiling,
    /// The problem was rejected by admission control (unbounded or
    /// oversized iteration space).
    Admission,
    /// The execution options cannot run this plan (a probe of the wrong
    /// arity, a `ColumnMajor` order that is no permutation, slab
    /// dimensions out of range, a multi-rank world with no buffers, rank
    /// recovery without heartbeats); nothing was executed.
    Options,
}

impl fmt::Display for CompileStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileStage::Spec => write!(f, "spec"),
            CompileStage::Poly => write!(f, "polyhedra"),
            CompileStage::Tiling => write!(f, "tiling"),
            CompileStage::Admission => write!(f, "admission"),
            CompileStage::Options => write!(f, "options"),
        }
    }
}

/// A failed plan compilation: which derivation stage rejected the problem
/// and why (see [`RunError::CompileError`]).
#[derive(Debug, Clone)]
pub struct CompileFault {
    /// The compilation stage that failed.
    pub stage: CompileStage,
    /// The stage's own error message.
    pub detail: String,
}

impl CompileFault {
    /// A fault at `stage` with a stringified `detail`.
    pub fn new(stage: CompileStage, detail: impl fmt::Display) -> CompileFault {
        CompileFault {
            stage,
            detail: detail.to_string(),
        }
    }
}

impl fmt::Display for CompileFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "plan compilation failed ({}): {}",
            self.stage, self.detail
        )
    }
}

/// A tile some but not all of whose edges have arrived, as a
/// [`StallSnapshot`] reports it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingTile {
    /// The waiting tile.
    pub tile: Coord,
    /// Edges buffered for it so far.
    pub arrived: usize,
    /// Edges it needs before it may run.
    pub total: usize,
    /// The dependency offsets whose edges have not arrived.
    pub missing: Vec<Coord>,
}

/// Diagnostic state captured when the stall watchdog fires: what the node
/// was waiting on when progress stopped.
#[derive(Debug, Clone)]
pub struct StallSnapshot {
    /// The stalled rank.
    pub rank: usize,
    /// How long the node went without any progress before the watchdog
    /// fired.
    pub stalled_for: Duration,
    /// Tiles executed before the stall.
    pub tiles_executed: u64,
    /// Tiles this rank owns in total.
    pub tiles_owned: u64,
    /// Tiles sitting ready to execute (should be 0 in a true stall).
    pub ready_tiles: usize,
    /// Tiles with at least one but not all dependencies satisfied.
    pub pending_tiles: usize,
    /// The pending tiles that come first in the run's priority order (at
    /// most eight), each with the dependency offsets it still waits for.
    pub waiting_on: Vec<PendingTile>,
    /// Edges buffered on pending tiles, awaiting their siblings.
    pub buffered_edges: usize,
    /// Frames this rank sent that were never acknowledged.
    pub unacked_frames: usize,
    /// Per-link transport diagnostics: unacked/retransmit/ack counters and
    /// peer silence per link, so a wedged link (peer alive, frames stuck)
    /// is distinguishable from a dead peer from the snapshot alone.
    pub links: Vec<LinkDiag>,
    /// Per-worker time since each worker last made progress.
    pub worker_last_progress: Vec<Duration>,
    /// Worker thread count.
    pub threads: usize,
    /// The last few trace events per track (workers first, comm last) —
    /// *what each worker was doing* when progress stopped. Empty when the
    /// run was not traced (see [`crate::trace::TraceLevel`]).
    pub recent_events: Vec<Vec<TraceEvent>>,
}

impl fmt::Display for StallSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rank {} made no progress for {:?}: {}/{} tiles executed, \
             {} ready, {} pending ({} buffered edges), {} unacked frames",
            self.rank,
            self.stalled_for,
            self.tiles_executed,
            self.tiles_owned,
            self.ready_tiles,
            self.pending_tiles,
            self.buffered_edges,
            self.unacked_frames,
        )?;
        for p in &self.waiting_on {
            let missing: Vec<String> = p.missing.iter().map(|d| d.to_string()).collect();
            let (tile, missing) = (p.tile, missing.join(" "));
            write!(
                f,
                "; waiting on tile {tile}: {}/{} edges, missing {missing}",
                p.arrived, p.total
            )?;
        }
        if !self.links.is_empty() {
            let diags: Vec<String> = self.links.iter().map(|l| l.to_string()).collect();
            write!(f, "; links [{}]", diags.join("; "))?;
        }
        for (track, events) in self.recent_events.iter().enumerate() {
            if events.is_empty() {
                continue;
            }
            let label = if track + 1 == self.recent_events.len() && track >= self.threads {
                "comm".to_string()
            } else {
                format!("worker {track}")
            };
            let tail: Vec<String> = events.iter().map(|e| e.to_string()).collect();
            write!(f, "\n  {label} last events: {}", tail.join(" | "))?;
        }
        Ok(())
    }
}

/// Details of a malformed incoming edge (see [`RunError::BadEdge`]).
#[derive(Debug, Clone)]
pub struct EdgeFault {
    /// The rank that received the edge.
    pub rank: usize,
    /// The tile the edge claimed to feed.
    pub tile: Coord,
    /// The claimed dependency offset.
    pub delta: Coord,
    /// What was wrong with it.
    pub detail: String,
}

impl fmt::Display for EdgeFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rank {} received invalid edge for tile {} (offset {}): {}",
            self.rank, self.tile, self.delta, self.detail
        )
    }
}

/// A failed node run.
#[derive(Debug, Clone)]
pub enum RunError {
    /// The transport failed (see [`TransportError`]).
    Transport(TransportError),
    /// The node made no progress for the watchdog window; the run was
    /// terminated instead of hanging forever.
    Stalled(Box<StallSnapshot>),
    /// The kernel panicked while executing a tile. The tile coordinate is
    /// quarantined in the error; the rest of the pool shut down cleanly.
    KernelPanic {
        /// The rank the panic occurred on.
        rank: usize,
        /// The worker thread that caught it.
        worker: usize,
        /// The tile being executed.
        tile: Coord,
        /// The panic payload, stringified.
        message: String,
    },
    /// An incoming edge did not match the tiling — an unknown dependency
    /// offset or a payload of the wrong length. With a checksummed
    /// transport this indicates a peer running a different problem.
    /// (Boxed to keep `Result<_, RunError>` small on the happy path.)
    BadEdge(Box<EdgeFault>),
    /// Deriving a tile's geometry failed: a polyhedral evaluation
    /// overflowed on this tile's indices or the bound parameters.
    TileGeometry {
        /// The rank the tile was being prepared on.
        rank: usize,
        /// The tile whose geometry could not be derived.
        tile: Coord,
        /// The polyhedral failure.
        error: PolyError,
    },
    /// A peer rank was declared dead: heartbeats stopped and every
    /// retransmit went unacknowledged past the death timeout. The typed
    /// escalation of what would otherwise surface as a generic stall —
    /// and the trigger for the driver's recovery coordinator.
    PeerDead {
        /// The dead rank.
        rank: usize,
        /// Highest cumulative sequence the dead rank acknowledged of the
        /// reporting rank's traffic before going silent.
        last_seq: u64,
    },
    /// Another rank failed first; this rank shut down in sympathy — or the
    /// job's external cancellation flag was raised mid-flight.
    Cancelled {
        /// The rank that observed the cancellation.
        rank: usize,
    },
    /// Plan compilation failed before any rank started: the spec, a
    /// polyhedral derivation, the tiling, or admission control rejected
    /// the problem. Typed so `compile`/`execute` callers and the serve
    /// engine can distinguish a bad problem from a failed run. (Boxed to
    /// keep `Result<_, RunError>` small on the happy path.)
    CompileError(Box<CompileFault>),
}

/// [`RunError::BadEdge`]'s severity: the least severe root cause.
const BAD_EDGE_SEVERITY: u8 = 5;

impl RunError {
    /// Ranking for choosing the most diagnostic error out of a multi-rank
    /// failure: root causes beat symptoms beat sympathetic shutdowns.
    /// `PeerDead` sits between `Transport` and `Stalled`: it is a sharper
    /// diagnosis than a generic stall, but a kernel fault or malformed
    /// edge on a survivor still outranks the death report.
    pub fn severity(&self) -> u8 {
        match self {
            // Nothing ran at all: the diagnosis *is* the compilation
            // failure, so it outranks every execution-time error.
            RunError::CompileError(_) => 8,
            RunError::KernelPanic { .. } => 7,
            RunError::TileGeometry { .. } => 6,
            RunError::BadEdge(_) => BAD_EDGE_SEVERITY,
            RunError::Stalled(_) => 4,
            RunError::PeerDead { .. } => 3,
            RunError::Transport(_) => 2,
            RunError::Cancelled { .. } => 1,
        }
    }

    /// Whether re-executing would only repeat this error: a failed
    /// compilation, a panicking kernel, a tile whose geometry overflows or
    /// a corrupt edge — every error at least as severe as
    /// [`RunError::BadEdge`]. The recovery coordinator retries a death only
    /// when the run's most severe error is not one.
    pub fn is_root_cause(&self) -> bool {
        self.severity() >= BAD_EDGE_SEVERITY
    }

    /// The tile coordinate this error implicates, when it carries one — a
    /// panicking kernel's tile, a malformed edge's consumer, or the tile a
    /// routeless transport send was addressed for. Its index in the run's
    /// tile graph rides the `Fault` trace event into the timeline.
    pub fn tile(&self) -> Option<Coord> {
        match self {
            RunError::KernelPanic { tile, .. } | RunError::TileGeometry { tile, .. } => Some(*tile),
            RunError::BadEdge(e) => Some(e.tile),
            RunError::Transport(TransportError::NoRoute { tile, .. }) => Some(*tile),
            _ => None,
        }
    }

    /// The rank the error occurred on, when it carries one. For
    /// [`RunError::PeerDead`] this is the *dead* rank — the subject of the
    /// diagnosis, not the survivor that made it.
    pub fn rank(&self) -> Option<usize> {
        match self {
            RunError::KernelPanic { rank, .. }
            | RunError::TileGeometry { rank, .. }
            | RunError::Cancelled { rank }
            | RunError::PeerDead { rank, .. } => Some(*rank),
            RunError::BadEdge(e) => Some(e.rank),
            RunError::Stalled(s) => Some(s.rank),
            RunError::Transport(
                TransportError::NoRoute { from, .. }
                | TransportError::Disconnected { from, .. }
                | TransportError::SendTimeout { from, .. }
                | TransportError::PeerDead { from, .. },
            ) => Some(*from),
            RunError::Transport(TransportError::Halted { rank }) => Some(*rank),
            RunError::CompileError(_) => None,
        }
    }
}

/// The error a failed run reports out of many — its workers', or its
/// ranks': the most severe by [`RunError::severity`], ties going to the
/// first (the lowest worker or rank). `None` when there is none.
pub fn most_severe<'a>(errors: impl IntoIterator<Item = &'a RunError>) -> Option<&'a RunError> {
    // `min_by_key` keeps the first of equal keys.
    errors.into_iter().min_by_key(|e| Reverse(e.severity()))
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Transport(e) => write!(f, "transport failure: {e}"),
            RunError::Stalled(s) => write!(f, "run stalled: {s}"),
            RunError::KernelPanic {
                rank,
                worker,
                tile,
                message,
            } => write!(
                f,
                "kernel panicked on rank {rank} worker {worker} at tile {tile}: {message}"
            ),
            RunError::BadEdge(e) => write!(f, "{e}"),
            RunError::TileGeometry { rank, tile, error } => {
                write!(
                    f,
                    "rank {rank} could not derive tile {tile}'s geometry: {error}"
                )
            }
            RunError::PeerDead { rank, last_seq } => write!(
                f,
                "rank {rank} is dead (heartbeats stopped, retransmits \
                 unacknowledged; it last acked seq {last_seq})"
            ),
            RunError::Cancelled { rank } => {
                write!(f, "rank {rank} cancelled after a failure elsewhere")
            }
            RunError::CompileError(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Transport(e) => Some(e),
            RunError::TileGeometry { error, .. } => Some(error),
            _ => None,
        }
    }
}

impl From<TransportError> for RunError {
    fn from(e: TransportError) -> RunError {
        match e {
            // A death diagnosis is promoted to the typed run-level error
            // the recovery coordinator keys on; everything else stays a
            // generic transport failure.
            TransportError::PeerDead { dead, last_seq, .. } => RunError::PeerDead {
                rank: dead,
                last_seq,
            },
            other => RunError::Transport(other),
        }
    }
}

impl From<CompileFault> for RunError {
    fn from(e: CompileFault) -> RunError {
        RunError::CompileError(Box::new(e))
    }
}

impl From<TilingError> for RunError {
    fn from(e: TilingError) -> RunError {
        // A tiling failure rooted in a polyhedral operation keeps the
        // sharper stage attribution.
        let stage = match &e {
            TilingError::Poly(_) => CompileStage::Poly,
            _ => CompileStage::Tiling,
        };
        CompileFault::new(stage, e).into()
    }
}

impl From<PolyError> for RunError {
    fn from(e: PolyError) -> RunError {
        CompileFault::new(CompileStage::Poly, e).into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> StallSnapshot {
        StallSnapshot {
            rank: 2,
            stalled_for: Duration::from_millis(500),
            tiles_executed: 7,
            tiles_owned: 12,
            ready_tiles: 0,
            pending_tiles: 3,
            waiting_on: vec![PendingTile {
                tile: Coord::from_slice(&[3, 7]),
                arrived: 1,
                total: 2,
                missing: vec![Coord::from_slice(&[-1, 0])],
            }],
            buffered_edges: 4,
            unacked_frames: 5,
            links: Vec::new(),
            worker_last_progress: vec![Duration::from_millis(510); 2],
            threads: 2,
            recent_events: Vec::new(),
        }
    }

    #[test]
    fn stall_display_names_the_wedge() {
        let msg = RunError::Stalled(Box::new(snapshot())).to_string();
        assert!(msg.contains("7/12 tiles"), "{msg}");
        assert!(
            msg.contains("waiting on tile (3, 7): 1/2 edges, missing (-1, 0)"),
            "{msg}"
        );
        assert!(msg.contains("5 unacked"), "{msg}");
    }

    #[test]
    fn stall_display_dumps_recent_trace_events() {
        use crate::trace::{EventKind, TraceEvent};
        let mut s = snapshot();
        s.recent_events = vec![
            vec![TraceEvent {
                ts: 5_000,
                kind: EventKind::TileStart,
                tile: Some(34),
                aux: 1,
            }],
            Vec::new(),
            vec![TraceEvent {
                ts: 9_000,
                kind: EventKind::Ack,
                tile: None,
                aux: 17,
            }],
        ];
        let msg = RunError::Stalled(Box::new(s)).to_string();
        assert!(msg.contains("worker 0 last events"), "{msg}");
        assert!(msg.contains("TileStart tile #34"), "{msg}");
        assert!(msg.contains("comm last events"), "{msg}");
    }

    #[test]
    fn errors_expose_tile_and_rank_context() {
        let panic = RunError::KernelPanic {
            rank: 3,
            worker: 1,
            tile: Coord::from_slice(&[1, 2]),
            message: "boom".into(),
        };
        assert_eq!(panic.tile(), Some(Coord::from_slice(&[1, 2])));
        assert_eq!(panic.rank(), Some(3));
        let no_route: RunError = TransportError::NoRoute {
            from: 2,
            dest: 5,
            tile: Coord::from_slice(&[7, 8]),
        }
        .into();
        assert_eq!(no_route.tile(), Some(Coord::from_slice(&[7, 8])));
        assert_eq!(no_route.rank(), Some(2));
        assert_eq!(RunError::Cancelled { rank: 4 }.tile(), None);
    }

    #[test]
    fn severity_orders_root_causes_first() {
        let panic = RunError::KernelPanic {
            rank: 0,
            worker: 0,
            tile: Coord::from_slice(&[1, 2]),
            message: "boom".into(),
        };
        let stall = RunError::Stalled(Box::new(snapshot()));
        let cancelled = RunError::Cancelled { rank: 1 };
        assert!(panic.severity() > stall.severity());
        assert!(stall.severity() > cancelled.severity());
    }

    /// Every variant, in `severity` order: the four root causes first.
    #[test]
    fn root_causes_are_the_errors_at_least_as_severe_as_a_bad_edge() {
        let tile = Coord::from_slice(&[1, 2]);
        let table = [
            (
                RunError::from(CompileFault::new(CompileStage::Spec, "x")),
                true,
            ),
            (
                RunError::KernelPanic {
                    rank: 0,
                    worker: 0,
                    tile,
                    message: "boom".into(),
                },
                true,
            ),
            (
                RunError::TileGeometry {
                    rank: 0,
                    tile,
                    error: PolyError::UnknownName("q".into()),
                },
                true,
            ),
            (
                RunError::BadEdge(Box::new(EdgeFault {
                    rank: 0,
                    tile,
                    delta: Coord::from_slice(&[1, 0]),
                    detail: "short".into(),
                })),
                true,
            ),
            (RunError::Stalled(Box::new(snapshot())), false),
            (
                RunError::PeerDead {
                    rank: 1,
                    last_seq: 0,
                },
                false,
            ),
            (TransportError::Halted { rank: 1 }.into(), false),
            (RunError::Cancelled { rank: 0 }, false),
        ];
        for (i, (e, root)) in table.iter().enumerate() {
            assert_eq!(e.is_root_cause(), *root, "{e:?}");
            assert_eq!(e.severity() as usize, table.len() - i, "{e:?}");
        }
    }

    #[test]
    fn most_severe_picks_the_root_cause_and_ties_go_to_the_first() {
        let panic = |rank| RunError::KernelPanic {
            rank,
            worker: 0,
            tile: Coord::from_slice(&[1, 2]),
            message: "boom".into(),
        };
        let errors = [
            RunError::Cancelled { rank: 0 },
            panic(1),
            RunError::Stalled(Box::new(snapshot())),
            panic(3),
        ];
        assert!(matches!(
            most_severe(&errors),
            Some(RunError::KernelPanic { rank: 1, .. })
        ));
        let cancelled = [2, 5].map(|rank| RunError::Cancelled { rank });
        assert!(matches!(
            most_severe(&cancelled),
            Some(RunError::Cancelled { rank: 2 })
        ));
        assert!(most_severe(&[]).is_none());
    }

    #[test]
    fn peer_death_ranks_between_transport_and_stall() {
        let dead = RunError::PeerDead {
            rank: 1,
            last_seq: 42,
        };
        let stall = RunError::Stalled(Box::new(snapshot()));
        let transport: RunError = TransportError::Disconnected { from: 0, dest: 1 }.into();
        assert!(stall.severity() > dead.severity());
        assert!(dead.severity() > transport.severity());
        assert!(dead.severity() > RunError::Cancelled { rank: 0 }.severity());
    }

    #[test]
    fn peer_death_display_and_context() {
        let dead = RunError::PeerDead {
            rank: 3,
            last_seq: 17,
        };
        let msg = dead.to_string();
        assert!(msg.contains("rank 3 is dead"), "{msg}");
        assert!(msg.contains("seq 17"), "{msg}");
        assert_eq!(dead.rank(), Some(3));
        assert_eq!(dead.tile(), None);
    }

    #[test]
    fn transport_peer_death_promotes_to_typed_run_error() {
        let e: RunError = TransportError::PeerDead {
            from: 0,
            dead: 2,
            last_seq: 9,
        }
        .into();
        match &e {
            RunError::PeerDead {
                rank: 2,
                last_seq: 9,
            } => {}
            other => panic!("expected RunError::PeerDead, got {other:?}"),
        }
        // A halted endpoint stays a plain (low-severity) transport error.
        let halted: RunError = TransportError::Halted { rank: 1 }.into();
        assert!(matches!(halted, RunError::Transport(_)));
        assert_eq!(halted.rank(), Some(1));
        assert!(e.severity() > halted.severity());
    }

    #[test]
    fn stall_display_includes_link_diagnostics() {
        use crate::transport::LinkDiag;
        let mut s = snapshot();
        s.links = vec![
            LinkDiag {
                peer: 0,
                unacked: 2,
                retransmits: 31,
                acked_seq: 40,
                silent_for: Duration::from_millis(800),
                dead: true,
            },
            LinkDiag {
                peer: 3,
                unacked: 0,
                retransmits: 0,
                acked_seq: 12,
                silent_for: Duration::from_millis(1),
                dead: false,
            },
        ];
        let msg = RunError::Stalled(Box::new(s)).to_string();
        assert!(msg.contains("peer 0: 2 unacked, 31 retransmits"), "{msg}");
        assert!(msg.contains("[DEAD]"), "{msg}");
        assert!(msg.contains("peer 3: 0 unacked"), "{msg}");
    }

    #[test]
    fn compile_error_outranks_everything_and_names_the_stage() {
        let compile: RunError =
            CompileFault::new(CompileStage::Tiling, "no valid loop order").into();
        let panic = RunError::KernelPanic {
            rank: 0,
            worker: 0,
            tile: Coord::from_slice(&[0, 0]),
            message: "boom".into(),
        };
        assert!(compile.severity() > panic.severity());
        assert_eq!(compile.rank(), None);
        assert_eq!(compile.tile(), None);
        let msg = compile.to_string();
        assert!(msg.contains("plan compilation failed (tiling)"), "{msg}");
        assert!(msg.contains("no valid loop order"), "{msg}");

        let adm: RunError = CompileFault::new(CompileStage::Admission, "unbounded space").into();
        assert!(adm.to_string().contains("(admission)"), "{}", adm);
    }

    #[test]
    fn poly_and_tiling_errors_convert_to_typed_compile_faults() {
        let poly: RunError = PolyError::UnknownName("q".into()).into();
        match &poly {
            RunError::CompileError(f) => assert_eq!(f.stage, CompileStage::Poly),
            other => panic!("expected CompileError, got {other:?}"),
        }
        let tiling: RunError = TilingError::Poly(PolyError::UnknownName("q".into())).into();
        match &tiling {
            // A polyhedral root cause inside the tiling keeps the sharper
            // stage attribution.
            RunError::CompileError(f) => assert_eq!(f.stage, CompileStage::Poly),
            other => panic!("expected CompileError, got {other:?}"),
        }
    }

    #[test]
    fn transport_error_converts() {
        let e: RunError = TransportError::NoRoute {
            from: 0,
            dest: 3,
            tile: Coord::from_slice(&[0, 0]),
        }
        .into();
        assert!(e.to_string().contains("no route"), "{e}");
        assert!(std::error::Error::source(&e).is_some());
    }
}
