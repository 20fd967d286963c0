//! Transport abstraction between nodes.
//!
//! The node runtime is agnostic of how edges travel between nodes: it packs
//! an edge, asks the [`crate::node::TileOwner`] which rank consumes it, and
//! hands foreign edges to a [`Transport`]. The `dpgen-mpisim` crate provides
//! the simulated-MPI implementation (bounded send/receive buffers, polling
//! progress, reliable delivery over a faulty wire); [`NullTransport`] is
//! used for single-node runs, where a remote edge is a logic error — it
//! fails with a typed [`TransportError::NoRoute`] so a mis-partitioned run
//! is diagnosable instead of aborting a worker thread.

use dpgen_tiling::Coord;
use std::fmt;
use std::time::Duration;

/// One edge in flight: the consuming tile, the dependency offset it
/// satisfies, and the packed cell values.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeMsg<T> {
    /// The tile this edge is for (on the receiving rank).
    pub tile: Coord,
    /// The dependency offset `δ` (the producing tile is `tile + δ`).
    pub delta: Coord,
    /// Packed edge cells in the shared pack/unpack order.
    pub payload: Vec<T>,
}

/// A typed transport failure, surfaced through
/// [`crate::error::RunError::Transport`].
#[derive(Debug, Clone, PartialEq)]
pub enum TransportError {
    /// No route exists to `dest` — a self-send, an out-of-range rank, or a
    /// remote edge handed to a single-node transport (a partitioning bug).
    NoRoute {
        /// The sending rank.
        from: usize,
        /// The unreachable destination.
        dest: usize,
        /// The tile whose edge could not be sent.
        tile: Coord,
    },
    /// The peer's endpoint is gone (its rank thread exited abnormally).
    Disconnected {
        /// The sending rank.
        from: usize,
        /// The vanished destination.
        dest: usize,
    },
    /// A send could not complete (no acknowledged progress) within the
    /// configured timeout — the reliable layer's retransmit budget or the
    /// interconnect itself is exhausted.
    SendTimeout {
        /// The sending rank.
        from: usize,
        /// The unresponsive destination.
        dest: usize,
        /// How long the send waited before giving up.
        waited: Duration,
        /// Frames still awaiting acknowledgement to `dest`.
        in_flight: usize,
    },
    /// This endpoint itself died (an injected rank kill): every operation
    /// on it fails fast so its threads exit instead of computing into the
    /// void. Low severity by design — the survivors' diagnosis of the
    /// death ([`TransportError::PeerDead`]) is the story worth reporting.
    Halted {
        /// The rank whose endpoint is dead.
        rank: usize,
    },
    /// Death detection: a peer was silent past the death timeout while
    /// heartbeats were enabled. Transient loss is retransmitted around;
    /// this is the typed diagnosis that the peer itself is gone.
    PeerDead {
        /// The rank making the diagnosis.
        from: usize,
        /// The silent peer declared dead.
        dead: usize,
        /// Highest cumulative sequence the dead peer acknowledged of our
        /// traffic — where its view of us provably reached.
        last_seq: u64,
    },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::NoRoute { from, dest, tile } => write!(
                f,
                "rank {from} has no route to rank {dest} for tile {tile} \
                 (mis-partitioned problem or self-send)"
            ),
            TransportError::Disconnected { from, dest } => {
                write!(f, "rank {dest} disconnected while rank {from} was sending")
            }
            TransportError::SendTimeout {
                from,
                dest,
                waited,
                in_flight,
            } => write!(
                f,
                "rank {from} gave up sending to rank {dest} after {waited:?} \
                 with {in_flight} unacknowledged frames"
            ),
            TransportError::Halted { rank } => {
                write!(f, "rank {rank} halted (injected rank kill)")
            }
            TransportError::PeerDead {
                from,
                dead,
                last_seq,
            } => write!(
                f,
                "rank {from} declared peer rank {dead} dead \
                 (silent past the death timeout; last acked seq {last_seq})"
            ),
        }
    }
}

impl std::error::Error for TransportError {}

/// Per-peer link diagnostics (see [`Transport::link_diags`]): enough to
/// tell a wedged link (frames stuck, retransmits climbing, peer recently
/// heard) from a dead one (silence past the death timeout) straight from a
/// stall snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkDiag {
    /// The peer rank this link talks to.
    pub peer: usize,
    /// Frames sent to the peer, not yet acknowledged.
    pub unacked: usize,
    /// Retransmissions pumped onto this link so far.
    pub retransmits: u64,
    /// Highest cumulative sequence the peer has acknowledged.
    pub acked_seq: u64,
    /// How long since any verified frame arrived from the peer.
    pub silent_for: Duration,
    /// Whether death detection considers the peer dead.
    pub dead: bool,
}

impl fmt::Display for LinkDiag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "peer {}: {} unacked, {} retransmits, acked seq {}, silent {:?}{}",
            self.peer,
            self.unacked,
            self.retransmits,
            self.acked_seq,
            self.silent_for,
            if self.dead { " [DEAD]" } else { "" },
        )
    }
}

/// Rank-to-rank edge transport.
pub trait Transport<T>: Send + Sync {
    /// Send an edge to `dest`. May block when send buffers are exhausted,
    /// but must keep draining incoming traffic while blocked (the MPI
    /// progress rule) so that two mutually sending ranks cannot deadlock.
    fn send(&self, dest: usize, msg: EdgeMsg<T>) -> Result<(), TransportError>;

    /// Poll for one incoming edge.
    fn try_recv(&self) -> Option<EdgeMsg<T>>;

    /// Pump outstanding reliability work (acks, retransmits) after this
    /// rank has executed all of its tiles. Returns `true` once the whole
    /// world has quiesced — every rank's in-flight traffic acknowledged —
    /// so the caller may stop polling without stranding a peer's
    /// retransmits. Transports without in-flight state are always done.
    fn flush(&self) -> bool {
        true
    }

    /// Frames sent by this rank that are not yet acknowledged. While the
    /// rank drains the world, a change in this count is its progress for
    /// the stall watchdog.
    fn in_flight(&self) -> usize {
        0
    }

    /// Liveness check, polled by the rank's workers between tiles and by
    /// its drain of the world after the last one, beside the one stall
    /// watchdog both share.
    /// Fails with [`TransportError::PeerDead`] when death detection has
    /// declared a peer dead, or [`TransportError::Halted`] when this
    /// endpoint itself was killed. Transports without detection are
    /// always healthy.
    fn health(&self) -> Result<(), TransportError> {
        Ok(())
    }

    /// Per-peer link diagnostics for stall snapshots; empty when the
    /// transport has no links.
    fn link_diags(&self) -> Vec<LinkDiag> {
        Vec::new()
    }
}

/// Transport for single-node runs: sending fails with
/// [`TransportError::NoRoute`], receiving yields nothing.
///
/// Carries the rank it serves so an emitted `NoRoute` names the *actual*
/// sending rank (it used to hard-code rank 0, which mislabelled the source
/// of a mis-partitioned multi-rank run using a null transport).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullTransport {
    rank: usize,
}

impl NullTransport {
    /// A null transport reporting `rank` as the sender in its errors.
    pub fn at_rank(rank: usize) -> NullTransport {
        NullTransport { rank }
    }

    /// The rank this transport serves.
    pub fn rank(&self) -> usize {
        self.rank
    }
}

impl<T> Transport<T> for NullTransport {
    fn send(&self, dest: usize, msg: EdgeMsg<T>) -> Result<(), TransportError> {
        Err(TransportError::NoRoute {
            from: self.rank,
            dest,
            tile: msg.tile,
        })
    }

    fn try_recv(&self) -> Option<EdgeMsg<T>> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_transport_receives_nothing() {
        let t = NullTransport::default();
        assert_eq!(Transport::<f64>::try_recv(&t), None);
        assert!(Transport::<f64>::flush(&t));
        assert_eq!(Transport::<f64>::in_flight(&t), 0);
    }

    #[test]
    fn null_transport_send_is_a_typed_no_route() {
        let t = NullTransport::at_rank(3);
        let err = t
            .send(
                1,
                EdgeMsg {
                    tile: Coord::from_slice(&[4, 2]),
                    delta: Coord::from_slice(&[1, 0]),
                    payload: vec![1.0f64],
                },
            )
            .unwrap_err();
        match &err {
            TransportError::NoRoute {
                from: 3,
                dest: 1,
                tile,
            } => {
                // The error names the offending tile, not just the route.
                assert_eq!(*tile, Coord::from_slice(&[4, 2]));
            }
            other => panic!("expected NoRoute from rank 3, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("rank 3"), "{msg}");
        assert!(msg.contains("(4, 2)"), "{msg}");
    }
}
