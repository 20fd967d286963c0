//! The communicator: ranks, bounded send buffers, polling receives, and a
//! reliable-delivery protocol that survives a faulty wire.
//!
//! Every edge packet is framed with a per-destination sequence number and
//! a 64-bit checksum that folds a word (8 bytes) per step, each step a
//! bijection of the running state, so every single-bit flip is caught. The
//! receiver deduplicates by sequence, hands the in-order frame straight to
//! the inbox, buffers out-of-order frames in a reorder window, and delivers
//! strictly in per-source order; cumulative acks travel on a dedicated
//! control channel, and unacknowledged frames are retransmitted after an
//! exponentially backed-off timeout (capped). The result is MPI's
//! guarantee — reliable, ordered, corruption-free delivery — rebuilt on a
//! wire that may drop, duplicate, reorder, delay, or bit-flip packets
//! (see [`crate::fault`]). Faults cost retransmits and dedup drops, all
//! counted in [`CommStats`]; they never cost correctness.

use crate::fault::{FaultPlan, FaultyWire, KillTrigger};
use crate::packet;
use crate::stats::CommStats;
use crate::wire::Wire;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TrySendError};
use dpgen_runtime::{Clock, EdgeMsg, EventKind, LinkDiag, Tracer, Transport, TransportError};
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Tunables of the reliable-delivery protocol. There is no retransmit
/// budget: an unacknowledged frame is retransmitted until it is
/// acknowledged, and a wire that loses every copy surfaces as a send
/// timeout, a stall or a dead peer, not as a lost frame.
#[derive(Debug, Clone, Copy)]
pub struct ReliabilityConfig {
    /// Base ack timeout: a frame unacknowledged for this long is
    /// retransmitted, with the timeout doubling per attempt.
    pub ack_timeout: Duration,
    /// Cap on the exponential backoff between retransmits of one frame.
    pub max_backoff: Duration,
    /// Give up a blocked send (window full, no acks arriving) after this
    /// long, surfacing [`TransportError::SendTimeout`]. Always bounded: a
    /// worker held in a send never reaches the node's stall watchdog.
    pub send_timeout: Duration,
    /// Emit a heartbeat frame to every peer at this interval (riding the
    /// ack channels, pumped by the progress engine). `None` — the default
    /// — disables heartbeats *and* death detection entirely: silence is
    /// then indistinguishable from a wedge and surfaces as a stall or
    /// send timeout, never as [`TransportError::PeerDead`].
    pub heartbeat_interval: Option<Duration>,
    /// With heartbeats enabled, a peer silent (no verified frame of any
    /// kind) for longer than this is declared dead. Must be much larger
    /// than `heartbeat_interval` to tolerate scheduling jitter, and well
    /// below the node's stall watchdog window, so a death surfaces as the
    /// sharper `PeerDead` rather than a generic stall.
    pub death_timeout: Duration,
}

impl Default for ReliabilityConfig {
    fn default() -> ReliabilityConfig {
        ReliabilityConfig {
            ack_timeout: Duration::from_millis(3),
            max_backoff: Duration::from_millis(100),
            send_timeout: Duration::from_secs(30),
            heartbeat_interval: None,
            death_timeout: Duration::from_secs(1),
        }
    }
}

/// Buffer configuration (the Section VI-C tunables) plus the reliability
/// and fault-injection knobs.
#[derive(Debug, Clone, Copy)]
pub struct CommConfig {
    /// Number of send buffers per destination rank: how many packed edges
    /// may be in flight to one rank before the sender stalls. Also the
    /// reliable window — the unacknowledged-frame cap per destination.
    pub send_buffers: usize,
    /// Receive polling batch: at most this many packets are drained from
    /// the wire into the inbox per poll (models the number of posted
    /// receives).
    pub recv_buffers: usize,
    /// Reliable-delivery tunables.
    pub reliability: ReliabilityConfig,
    /// Fault plan injected on every inbound link; `None` leaves the wire
    /// perfect.
    pub faults: Option<FaultPlan>,
}

impl Default for CommConfig {
    fn default() -> CommConfig {
        CommConfig {
            send_buffers: 4,
            recv_buffers: 4,
            reliability: ReliabilityConfig::default(),
            faults: None,
        }
    }
}

const KIND_DATA: u8 = 0;
const KIND_ACK: u8 = 1;
const KIND_HEARTBEAT: u8 = 2;
/// kind + seq + checksum + payload length.
const DATA_HEADER: usize = 1 + 8 + 8 + 4;
/// kind + cumulative ack + checksum.
const ACK_LEN: usize = 1 + 8 + 8;
/// kind + checksum.
const HEARTBEAT_LEN: usize = 1 + 8;

/// Odd multiplier of the checksum step (2^64 over the golden ratio).
const CHECKSUM_K: u64 = 0x9e37_79b9_7f4a_7c15;

/// The frame checksum over a sequence of byte slices (kind, seq or cum,
/// inner). Each part is folded one little-endian `u64` word per step; its
/// tail (the last `len % 8` bytes, zero-padded) and the low byte of its
/// length go in as one last word. A step `h = (h ^ w) * K; h ^= h >> 29`
/// is a bijection of `h` for a fixed word (xor, an odd multiply and a
/// xorshift are each invertible), so two inputs of the same part lengths
/// that differ in one word reach different states at that step and stay
/// different through every later step: any single-bit flip is caught.
fn checksum(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut step = |w: u64| {
        h = (h ^ w).wrapping_mul(CHECKSUM_K);
        h ^= h >> 29;
    };
    for part in parts {
        let words = part.chunks_exact(8);
        let tail = words.remainder();
        for w in words {
            step(u64::from_le_bytes(w.try_into().expect("8-byte word")));
        }
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        last[7] = part.len() as u8;
        step(u64::from_le_bytes(last));
    }
    h
}

fn encode_data(seq: u64, inner: &[u8]) -> Bytes {
    let mut buf = BytesMut::with_capacity(DATA_HEADER + inner.len());
    buf.put_u8(KIND_DATA);
    buf.put_u64_le(seq);
    buf.put_u64_le(checksum(&[&[KIND_DATA], &seq.to_le_bytes(), inner]));
    buf.put_u32_le(inner.len() as u32);
    buf.put_slice(inner);
    buf.freeze()
}

fn encode_ack(cum: u64) -> Bytes {
    let mut buf = BytesMut::with_capacity(ACK_LEN);
    buf.put_u8(KIND_ACK);
    buf.put_u64_le(cum);
    buf.put_u64_le(checksum(&[&[KIND_ACK], &cum.to_le_bytes()]));
    buf.freeze()
}

fn encode_heartbeat() -> Bytes {
    let mut buf = BytesMut::with_capacity(HEARTBEAT_LEN);
    buf.put_u8(KIND_HEARTBEAT);
    buf.put_u64_le(checksum(&[&[KIND_HEARTBEAT]]));
    buf.freeze()
}

/// A parsed, checksum-verified frame.
enum Frame {
    Data {
        seq: u64,
        inner: Bytes,
    },
    Ack {
        cum: u64,
    },
    /// Pure liveness signal: carries nothing, proves the sender breathes.
    Heartbeat,
}

/// Parse and verify; `None` means corrupt (bad framing or checksum).
fn decode_frame(mut pkt: Bytes) -> Option<Frame> {
    if pkt.is_empty() {
        return None;
    }
    match pkt.get_u8() {
        KIND_DATA => {
            if pkt.remaining() < DATA_HEADER - 1 {
                return None;
            }
            let seq = pkt.get_u64_le();
            let want = pkt.get_u64_le();
            let len = pkt.get_u32_le() as usize;
            if pkt.remaining() != len {
                return None;
            }
            if checksum(&[&[KIND_DATA], &seq.to_le_bytes(), pkt.chunk()]) != want {
                return None;
            }
            // The frame itself is the payload, its cursor past the header.
            Some(Frame::Data { seq, inner: pkt })
        }
        KIND_ACK => {
            if pkt.remaining() != ACK_LEN - 1 {
                return None;
            }
            let cum = pkt.get_u64_le();
            let want = pkt.get_u64_le();
            if checksum(&[&[KIND_ACK], &cum.to_le_bytes()]) != want {
                return None;
            }
            Some(Frame::Ack { cum })
        }
        KIND_HEARTBEAT => {
            if pkt.remaining() != HEARTBEAT_LEN - 1 {
                return None;
            }
            if pkt.get_u64_le() != checksum(&[&[KIND_HEARTBEAT]]) {
                return None;
            }
            Some(Frame::Heartbeat)
        }
        _ => None,
    }
}

/// One frame awaiting acknowledgement.
struct InFlight {
    seq: u64,
    frame: Bytes,
    /// When it was last put on the wire, on the world's clock.
    sent_at: Duration,
    attempts: u32,
}

/// Per-destination sender state.
struct TxState {
    next_seq: u64,
    unacked: VecDeque<InFlight>,
}

/// Per-source receiver state.
struct RxState {
    /// Next sequence number to deliver in order.
    next_expected: u64,
    /// Out-of-order frames parked until the gap fills.
    window: BTreeMap<u64, Bytes>,
}

/// The scheduled-death switch of a doomed rank (see
/// [`crate::fault::RankKill`]). Once `dead` flips, every operation on the
/// endpoint behaves like pulled power: sends fail with
/// [`TransportError::Halted`], nothing is received, acked, retransmitted,
/// or heartbeated.
struct KillCtl {
    trigger: KillTrigger,
    /// Completed `send` calls (for [`KillTrigger::AfterSends`]).
    sends: AtomicU64,
    dead: AtomicBool,
}

/// Builds the fully connected communicator and hands one [`RankComm`] to
/// each rank's thread.
pub struct CommWorld;

impl CommWorld {
    /// Create `ranks` connected endpoints on a new real clock.
    pub fn create<T: Wire>(ranks: usize, config: CommConfig) -> Vec<RankComm<T>> {
        Self::create_elastic(ranks, config, &[], Clock::real())
    }

    /// Create `ranks` endpoints with the ranks listed in `retired` left
    /// wireless — used by the recovery coordinator to rebuild the world
    /// after a rank death, keeping rank ids stable while routing nothing
    /// to the corpse. World quiescence counts live ranks only, so a
    /// retired rank (which never drains) cannot wedge `flush`. The world
    /// keeps time on `clock`, the run's, from its creation on.
    pub fn create_elastic<T: Wire>(
        ranks: usize,
        config: CommConfig,
        retired: &[usize],
        clock: Clock,
    ) -> Vec<RankComm<T>> {
        assert!(ranks >= 1, "need at least one rank");
        assert!(config.send_buffers >= 1, "need at least one send buffer");
        assert!(config.recv_buffers >= 1, "need at least one receive buffer");
        let is_retired = |r: usize| retired.contains(&r);
        let live = (0..ranks).filter(|&r| !is_retired(r)).count();
        assert!(live >= 1, "need at least one live rank");
        let stats: Vec<Arc<CommStats>> = (0..ranks).map(|_| Arc::new(CommStats::new())).collect();
        // Per directed pair: a bounded data channel (capacity = send
        // buffers) and an unbounded ack channel. Control traffic must not
        // compete for data buffers, or two mutually full ranks could
        // starve each other of the very acks that would free a buffer.
        fn grid<X>(ranks: usize) -> Vec<Vec<Option<X>>> {
            (0..ranks)
                .map(|_| (0..ranks).map(|_| None).collect())
                .collect()
        }
        let (mut data_tx, mut ack_tx) = (grid::<Sender<Bytes>>(ranks), grid(ranks));
        let (mut data_rx, mut ack_rx) = (grid::<FaultyWire>(ranks), grid(ranks));
        for src in 0..ranks {
            for dst in 0..ranks {
                if src == dst || is_retired(src) || is_retired(dst) {
                    continue;
                }
                let (ds, dr) = bounded(config.send_buffers);
                let (as_, ar) = unbounded();
                data_tx[src][dst] = Some(ds);
                ack_tx[src][dst] = Some(as_);
                // Ack links get a distinct seed stream (src/dst offset by
                // the rank count) so data and control faults decorrelate.
                let wire = |rx, off| {
                    FaultyWire::new(rx, config.faults, src + off, dst + off, stats[dst].clone())
                };
                data_rx[dst][src] = Some(wire(dr, 0));
                ack_rx[dst][src] = Some(wire(ar, ranks));
            }
        }
        let born = clock.nanos();
        let plan_kill = config.faults.and_then(|f| f.kill);
        let mut world = Vec::with_capacity(ranks);
        for rank in 0..ranks {
            let (inbox_tx, inbox) = unbounded();
            // A kill targeting an already-retired rank never re-fires: the
            // corpse has no endpoint worth killing in the next epoch.
            let kill = plan_kill
                .filter(|k| k.rank == rank && !is_retired(rank))
                .map(|k| KillCtl {
                    trigger: k.trigger,
                    sends: AtomicU64::new(0),
                    dead: AtomicBool::new(false),
                });
            world.push(RankComm {
                rank,
                ranks,
                live,
                config,
                clock: clock.clone(),
                kill,
                data_tx: std::mem::take(&mut data_tx[rank]),
                ack_tx: std::mem::take(&mut ack_tx[rank]),
                data_rx: std::mem::take(&mut data_rx[rank]),
                ack_rx: std::mem::take(&mut ack_rx[rank]),
                tx: (0..ranks)
                    .map(|_| {
                        Mutex::new(TxState {
                            next_seq: 0,
                            unacked: VecDeque::new(),
                        })
                    })
                    .collect(),
                rx: (0..ranks)
                    .map(|_| {
                        Mutex::new(RxState {
                            next_expected: 0,
                            window: BTreeMap::new(),
                        })
                    })
                    .collect(),
                inbox_tx,
                inbox,
                unacked: AtomicUsize::new(0),
                poll_cursor: AtomicUsize::new(0),
                last_heard: (0..ranks).map(|_| AtomicU64::new(born)).collect(),
                acked_cum: (0..ranks).map(|_| AtomicU64::new(0)).collect(),
                retransmits_to: (0..ranks).map(|_| AtomicU64::new(0)).collect(),
                hb_sent_at: (0..ranks).map(|_| AtomicU64::new(born)).collect(),
                stats: stats[rank].clone(),
                drained: Arc::new(AtomicUsize::new(0)),
                drain_signalled: AtomicBool::new(false),
                tracer: None,
                _marker: std::marker::PhantomData,
            });
        }
        // All endpoints share one drain counter for world quiescence.
        let drained = world[0].drained.clone();
        for rc in &mut world[1..] {
            rc.drained = drained.clone();
        }
        world
    }
}

/// One rank's endpoint: implements [`Transport`] for the node runtime.
pub struct RankComm<T> {
    rank: usize,
    ranks: usize,
    /// Ranks with wires in this world (total minus retired). The flush
    /// quiescence target: retired ranks never drain.
    live: usize,
    config: CommConfig,
    /// The run's clock: heartbeat ages, backoff, the send timeout and the
    /// [`KillTrigger::AfterDuration`] deadline read it.
    clock: Clock,
    /// Scheduled death of this rank, when the fault plan dooms it.
    kill: Option<KillCtl>,
    data_tx: Vec<Option<Sender<Bytes>>>,
    ack_tx: Vec<Option<Sender<Bytes>>>,
    data_rx: Vec<Option<FaultyWire>>,
    ack_rx: Vec<Option<FaultyWire>>,
    /// Per-destination reliable sender state.
    tx: Vec<Mutex<TxState>>,
    /// Per-source reliable receiver state.
    rx: Vec<Mutex<RxState>>,
    /// Verified, in-order payloads waiting for the scheduler to consume
    /// them. Unbounded so that a stalled sender can always make progress on
    /// its own inbound traffic; a channel, so polling an empty inbox is one
    /// atomic load.
    inbox_tx: Sender<Bytes>,
    inbox: Receiver<Bytes>,
    /// Frames unacknowledged across all destinations: the sum of the
    /// `TxState::unacked` lengths, updated under the same locks, so a poll
    /// with nothing in flight skips the retransmit pump without a lock.
    unacked: AtomicUsize,
    poll_cursor: AtomicUsize,
    /// Nanos on the clock at which the last verified frame (data, ack, or
    /// heartbeat) arrived from each peer. Seeded with the world's creation.
    last_heard: Vec<AtomicU64>,
    /// Highest cumulative ack received from each peer — how much of our
    /// outbound traffic that peer has confirmed (the `last_seq` reported
    /// when it is declared dead).
    acked_cum: Vec<AtomicU64>,
    /// Retransmissions pumped per destination link (for [`LinkDiag`]).
    retransmits_to: Vec<AtomicU64>,
    /// Nanos on the clock of the last heartbeat emitted per destination.
    hb_sent_at: Vec<AtomicU64>,
    stats: Arc<CommStats>,
    /// World-shared count of ranks that have fully drained their unacked
    /// queues after finishing their tiles (see [`Transport::flush`]).
    drained: Arc<AtomicUsize>,
    drain_signalled: AtomicBool,
    /// This rank's tracer; transport-level events (`Retransmit`, `Ack`)
    /// land on its comm track. Attached before the rank thread spawns.
    tracer: Option<Arc<Tracer>>,
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: Wire> RankComm<T> {
    /// This endpoint's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Shared communication counters.
    pub fn stats(&self) -> Arc<CommStats> {
        self.stats.clone()
    }

    /// Attach this rank's event tracer. Must happen before the endpoint is
    /// moved into its rank thread ([`crate::comm::CommConfig`] is `Copy`,
    /// so the tracer cannot travel inside the config).
    pub fn attach_tracer(&mut self, tracer: Arc<Tracer>) {
        self.tracer = Some(tracer);
    }

    /// Record a transport-level event on the comm track.
    #[inline]
    fn trace(&self, kind: EventKind, aux: u64) {
        if let Some(t) = &self.tracer {
            t.record(t.comm_track(), kind, None, aux);
        }
    }

    /// Frames queued to `dest` but not yet acknowledged.
    pub fn unacked_to(&self, dest: usize) -> usize {
        self.tx[dest].lock().unacked.len()
    }

    /// Total unacknowledged frames across all destinations.
    fn total_unacked(&self) -> usize {
        self.unacked.load(Ordering::Acquire)
    }

    /// The exponential-backoff timeout for a frame on its Nth attempt.
    fn backoff(&self, attempts: u32) -> Duration {
        let r = &self.config.reliability;
        let shift = attempts.min(16);
        r.max_backoff.min(r.ack_timeout.saturating_mul(1 << shift))
    }

    /// True once this rank's scheduled death has fired. Duration triggers
    /// are evaluated lazily here, so the first operation past the deadline
    /// pulls the plug.
    fn killed(&self) -> bool {
        let Some(k) = &self.kill else {
            return false;
        };
        if k.dead.load(Ordering::Acquire) {
            return true;
        }
        if let KillTrigger::AfterDuration(d) = k.trigger {
            if self.clock.now() >= d {
                k.dead.store(true, Ordering::Release);
                return true;
            }
        }
        false
    }

    /// Advance the send-count kill trigger after a completed `send`.
    fn note_send_for_kill(&self) {
        if let Some(k) = &self.kill {
            if let KillTrigger::AfterSends(n) = k.trigger {
                if k.sends.fetch_add(1, Ordering::AcqRel) + 1 >= n {
                    k.dead.store(true, Ordering::Release);
                }
            }
        }
    }

    /// How long `peer` has been silent (no verified frame of any kind).
    fn silent_for(&self, peer: usize) -> Duration {
        let heard = Duration::from_nanos(self.last_heard[peer].load(Ordering::Acquire));
        self.clock.now().saturating_sub(heard)
    }

    /// With death detection on, check `peer` for protracted silence.
    fn check_peer(&self, peer: usize) -> Result<(), TransportError> {
        let r = &self.config.reliability;
        if r.heartbeat_interval.is_none() || self.silent_for(peer) <= r.death_timeout {
            return Ok(());
        }
        Err(TransportError::PeerDead {
            from: self.rank,
            dead: peer,
            last_seq: self.acked_cum[peer].load(Ordering::Acquire),
        })
    }

    /// Emit heartbeats to every peer whose interval has elapsed. Rides the
    /// unbounded ack channels so liveness traffic can never be crowded out
    /// by full data buffers. Lossy by design: a dropped heartbeat only
    /// delays detection by one interval.
    fn pump_heartbeats(&self) {
        let Some(interval) = self.config.reliability.heartbeat_interval else {
            return;
        };
        let now = self.clock.nanos();
        let interval = interval.as_nanos() as u64;
        for dst in 0..self.ranks {
            let Some(ack) = &self.ack_tx[dst] else {
                continue;
            };
            let last = self.hb_sent_at[dst].load(Ordering::Relaxed);
            if now.saturating_sub(last) >= interval
                && self.hb_sent_at[dst]
                    .compare_exchange(last, now, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
                let _ = ack.try_send(encode_heartbeat());
                self.stats.note_heartbeat_sent();
            }
        }
    }

    /// Process one verified inbound frame from `src`.
    fn handle_frame(&self, src: usize, frame: Frame) {
        // Any verified frame proves the peer alive.
        self.last_heard[src].fetch_max(self.clock.nanos(), Ordering::AcqRel);
        match frame {
            Frame::Heartbeat => {
                self.stats.note_heartbeat_received();
            }
            Frame::Ack { cum } => {
                self.stats.note_ack_received();
                self.trace(EventKind::Ack, cum);
                self.acked_cum[src].fetch_max(cum, Ordering::AcqRel);
                let mut tx = self.tx[src].lock();
                // Cumulative: everything below `cum` is delivered. Stale
                // (reordered) acks simply pop nothing.
                while tx.unacked.front().map(|f| f.seq < cum).unwrap_or(false) {
                    tx.unacked.pop_front();
                    self.unacked.fetch_sub(1, Ordering::AcqRel);
                }
            }
            Frame::Data { seq, inner } => {
                let mut rx = self.rx[src].lock();
                if seq < rx.next_expected || rx.window.contains_key(&seq) {
                    self.stats.note_dup_drop();
                } else if seq == rx.next_expected {
                    // In order: straight to the inbox, never through the
                    // window, then every parked frame it makes contiguous.
                    rx.next_expected += 1;
                    self.deliver(inner);
                    while let Some(inner) = {
                        let next = rx.next_expected;
                        rx.window.remove(&next)
                    } {
                        rx.next_expected += 1;
                        self.deliver(inner);
                    }
                } else {
                    // Ahead of a gap: park it until the gap fills.
                    rx.window.insert(seq, inner);
                    self.stats.note_reorder_depth(rx.window.len());
                }
                let cum = rx.next_expected;
                drop(rx);
                // Ack every data arrival — duplicates included, because a
                // duplicate usually means our previous ack was lost.
                if let Some(ack) = &self.ack_tx[src] {
                    let _ = ack.try_send(encode_ack(cum));
                    self.stats.note_ack_sent();
                }
            }
        }
    }

    /// Count and hand a verified, in-order payload to the inbox.
    fn deliver(&self, inner: Bytes) {
        self.stats.note_recv(inner.len());
        // Never fails: this endpoint holds the receiver, and it is unbounded.
        let _ = self.inbox_tx.try_send(inner);
    }

    /// Retransmit timed-out unacked frames (best-effort, never blocking).
    /// With nothing unacked it returns at once: no lock, no clock read.
    fn pump_retransmits(&self) {
        if self.total_unacked() == 0 {
            return;
        }
        let now = self.clock.now();
        for dst in 0..self.ranks {
            let Some(sender) = &self.data_tx[dst] else {
                continue;
            };
            // try_lock: a peer worker already sending to `dst` will pump
            // on its own; skipping avoids lock convoys.
            let Some(mut tx) = self.tx[dst].try_lock() else {
                continue;
            };
            for f in tx.unacked.iter_mut() {
                if now.saturating_sub(f.sent_at) < self.backoff(f.attempts) {
                    continue;
                }
                if sender.try_send(f.frame.clone()).is_ok() {
                    self.stats.note_retransmit();
                    self.retransmits_to[dst].fetch_add(1, Ordering::Relaxed);
                    self.trace(EventKind::Retransmit, dst as u64);
                }
                // Count the attempt even when the wire is full: backoff
                // must still advance or a full channel spins the pump.
                f.attempts = f.attempts.saturating_add(1);
                f.sent_at = now;
            }
        }
    }

    /// Drain inbound traffic: all pending acks, then up to `recv_buffers`
    /// data packets round-robin across sources, then retransmits and
    /// heartbeats. A killed rank does nothing at all — its wires are dark.
    fn progress(&self) {
        if self.killed() {
            return;
        }
        // Acks are control traffic: drain fully, they are tiny and free
        // send-window slots that blocked senders are waiting on.
        for src in 0..self.ranks {
            if let Some(wire) = &self.ack_rx[src] {
                while let Some(pkt) = wire.poll() {
                    match decode_frame(pkt) {
                        Some(frame) => self.handle_frame(src, frame),
                        None => self.stats.note_corrupt_drop(),
                    }
                }
            }
        }
        let n = self.data_rx.len();
        let mut drained = 0;
        let start = self.poll_cursor.fetch_add(1, Ordering::Relaxed) % n;
        for k in 0..n {
            let idx = (start + k) % n;
            let Some(wire) = &self.data_rx[idx] else {
                continue;
            };
            while drained < self.config.recv_buffers {
                match wire.poll() {
                    Some(pkt) => {
                        match decode_frame(pkt) {
                            Some(frame) => self.handle_frame(idx, frame),
                            None => self.stats.note_corrupt_drop(),
                        }
                        drained += 1;
                    }
                    None => break,
                }
            }
            if drained >= self.config.recv_buffers {
                break;
            }
        }
        self.pump_retransmits();
        self.pump_heartbeats();
    }
}

impl<T: Wire + Send + Sync + 'static> Transport<T> for RankComm<T> {
    fn send(&self, dest: usize, msg: EdgeMsg<T>) -> Result<(), TransportError> {
        if self.killed() {
            return Err(TransportError::Halted { rank: self.rank });
        }
        let Some(sender) = self.data_tx.get(dest).and_then(Option::as_ref) else {
            return Err(TransportError::NoRoute {
                from: self.rank,
                dest,
                tile: msg.tile,
            });
        };
        let window = self.config.send_buffers.max(1);
        let timeout = self.config.reliability.send_timeout;
        let inner = packet::encode(&msg);
        let mut stalled_at: Option<Duration> = None;

        // Claim a window slot (sequence the frame). Blocks with the progress
        // engine turning while `window` frames are unacked — the reliable
        // rendering of "no free send buffer".
        let frame = loop {
            {
                let mut tx = self.tx[dest].lock();
                if tx.unacked.len() < window {
                    let seq = tx.next_seq;
                    tx.next_seq += 1;
                    let frame = encode_data(seq, inner.chunk());
                    tx.unacked.push_back(InFlight {
                        seq,
                        frame: frame.clone(),
                        sent_at: self.clock.now(),
                        attempts: 0,
                    });
                    self.unacked.fetch_add(1, Ordering::AcqRel);
                    break frame;
                }
            }
            let now = self.clock.now();
            let waited = now - *stalled_at.get_or_insert(now);
            if self.killed() {
                return Err(TransportError::Halted { rank: self.rank });
            }
            // With death detection on, a silent window-blocking peer is
            // diagnosed as dead — no point waiting out the send timeout
            // retransmitting into a void.
            self.check_peer(dest)?;
            if waited > timeout {
                return Err(TransportError::SendTimeout {
                    from: self.rank,
                    dest,
                    waited,
                    in_flight: self.unacked_to(dest),
                });
            }
            // The MPI progress rule: drain inbound while blocked so two
            // mutually sending ranks cannot deadlock.
            self.progress();
            std::thread::yield_now();
        };
        if let Some(t0) = stalled_at {
            self.stats.note_stall(self.clock.now() - t0);
        }
        self.stats.note_send(frame.len());
        // The first transmission. The wire holds as many frames as the
        // window, so it is full only of retransmitted copies; the frame is
        // unacked already, and the retransmit pump resends it after the ack
        // timeout like any lost frame.
        if let Err(TrySendError::Disconnected(_)) = sender.try_send(frame) {
            return Err(TransportError::Disconnected {
                from: self.rank,
                dest,
            });
        }
        self.note_send_for_kill();
        Ok(())
    }

    fn try_recv(&self) -> Option<EdgeMsg<T>> {
        if self.killed() {
            return None;
        }
        if let Ok(pkt) = self.inbox.try_recv() {
            return Some(packet::decode(pkt));
        }
        self.progress();
        self.inbox.try_recv().ok().map(packet::decode)
    }

    fn flush(&self) -> bool {
        if self.killed() {
            // A corpse has nothing to drain; let its thread exit at once.
            return true;
        }
        self.progress();
        if self.total_unacked() == 0 && !self.drain_signalled.swap(true, Ordering::AcqRel) {
            self.drained.fetch_add(1, Ordering::AcqRel);
        }
        // Quiesced only when every live rank has drained: a drained rank
        // keeps acking peers' retransmits until the whole world is done,
        // so no peer is stranded waiting for acks from an exited rank.
        self.drained.load(Ordering::Acquire) >= self.live
    }

    fn in_flight(&self) -> usize {
        self.total_unacked()
    }

    fn health(&self) -> Result<(), TransportError> {
        if self.killed() {
            return Err(TransportError::Halted { rank: self.rank });
        }
        for peer in 0..self.ranks {
            if self.ack_tx[peer].is_none() {
                continue; // self or retired: no link to monitor
            }
            self.check_peer(peer)?;
        }
        Ok(())
    }

    fn link_diags(&self) -> Vec<LinkDiag> {
        let r = &self.config.reliability;
        (0..self.ranks)
            .filter(|&peer| self.ack_tx[peer].is_some())
            .map(|peer| {
                let silent_for = self.silent_for(peer);
                LinkDiag {
                    peer,
                    unacked: self.unacked_to(peer),
                    retransmits: self.retransmits_to[peer].load(Ordering::Relaxed),
                    acked_seq: self.acked_cum[peer].load(Ordering::Acquire),
                    silent_for,
                    dead: r.heartbeat_interval.is_some() && silent_for > r.death_timeout,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpgen_tiling::Coord;

    fn msg(v: f64) -> EdgeMsg<f64> {
        EdgeMsg {
            tile: Coord::from_slice(&[1, 2]),
            delta: Coord::from_slice(&[1, 0]),
            payload: vec![v],
        }
    }

    fn faulty_config(seed: u64, rate: f64) -> CommConfig {
        CommConfig {
            send_buffers: 2,
            recv_buffers: 2,
            reliability: ReliabilityConfig {
                ack_timeout: Duration::from_micros(200),
                max_backoff: Duration::from_millis(5),
                ..ReliabilityConfig::default()
            },
            faults: Some(FaultPlan::uniform(seed, rate)),
        }
    }

    /// A two-rank world on a manual clock.
    fn manual_world(config: CommConfig) -> (Clock, Vec<RankComm<f64>>) {
        let clock = Clock::manual();
        let world = CommWorld::create_elastic(2, config, &[], clock.clone());
        (clock, world)
    }

    const NS: Duration = Duration::from_nanos(1);

    #[test]
    fn two_ranks_exchange_messages() {
        let world = CommWorld::create::<f64>(2, CommConfig::default());
        let (a, b) = (&world[0], &world[1]);
        a.send(1, msg(1.5)).unwrap();
        a.send(1, msg(2.5)).unwrap();
        assert_eq!(b.try_recv().unwrap().payload, vec![1.5]);
        assert_eq!(b.try_recv().unwrap().payload, vec![2.5]);
        assert!(b.try_recv().is_none());
        assert_eq!(a.stats().msgs_sent(), 2);
        assert_eq!(b.stats().msgs_received(), 2);
        assert!(a.stats().bytes_sent() > 0);
        assert_eq!(b.stats().dup_drops(), 0);
        assert_eq!(b.stats().corrupt_drops(), 0);
    }

    /// Every single-bit flip of `raw` must fail verification.
    fn assert_every_bit_flip_detected(raw: &[u8], what: &str) {
        for bit in 0..raw.len() * 8 {
            let mut bad = raw.to_vec();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(
                decode_frame(Bytes::from(bad)).is_none(),
                "{what}: bit {bit} flip went undetected"
            );
        }
    }

    /// A data frame whose inner bytes are a deterministic pattern.
    fn data_frame(seq: u64, len: usize) -> (Bytes, Vec<u8>) {
        let inner: Vec<u8> = (0..len).map(|k| (k * 131 + 7) as u8).collect();
        (encode_data(seq, &inner), inner)
    }

    #[test]
    fn frame_roundtrip_and_corruption_detection() {
        // Inner lengths cover the empty part, a tail only (1, 7), exactly
        // one word (8), a word plus a tail (9) and many words with and
        // without a tail (1850 = 231·8 + 2, 4101 = 512·8 + 5).
        for len in [0usize, 1, 7, 8, 9, 1850, 4101] {
            let (frame, inner) = data_frame(7 + len as u64, len);
            assert_eq!(frame.len(), DATA_HEADER + len);
            match decode_frame(frame.clone()).unwrap() {
                Frame::Data { seq, inner: got } => {
                    assert_eq!(seq, 7 + len as u64);
                    assert_eq!(got.to_vec(), inner);
                }
                _ => panic!("wrong frame kind"),
            }
            assert_every_bit_flip_detected(&frame.to_vec(), &format!("data[{len}]"));
        }
        let ack = encode_ack(42);
        assert_eq!(ack.len(), ACK_LEN);
        match decode_frame(ack.clone()).unwrap() {
            Frame::Ack { cum } => assert_eq!(cum, 42),
            _ => panic!("wrong frame kind"),
        }
        assert_every_bit_flip_detected(&ack.to_vec(), "ack");
        let hb = encode_heartbeat();
        assert_eq!(hb.len(), HEARTBEAT_LEN);
        assert!(matches!(decode_frame(hb.clone()), Some(Frame::Heartbeat)));
        assert_every_bit_flip_detected(&hb.to_vec(), "heartbeat");
    }

    #[test]
    fn random_two_bit_flips_are_detected() {
        // Two flips in different words are not caught by construction, as
        // one flip is; 10^5 seeded samples on an edge-sized frame must
        // still all fail verification.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let (frame, _) = data_frame(3, 1850);
        let raw = frame.to_vec();
        let bits = raw.len() * 8;
        let mut rng = StdRng::seed_from_u64(0x2b17);
        for trial in 0..100_000 {
            let a = rng.gen_range(0..bits);
            let b = (a + rng.gen_range(1..bits)) % bits;
            let mut bad = raw.clone();
            bad[a / 8] ^= 1 << (a % 8);
            bad[b / 8] ^= 1 << (b % 8);
            assert!(
                decode_frame(Bytes::from(bad)).is_none(),
                "trial {trial}: flips at bits {a} and {b} went undetected"
            );
        }
    }

    #[test]
    fn in_order_frames_never_park() {
        // A perfect wire delivers every frame in order: none enters the
        // reorder window, so its depth stays 0.
        let world = CommWorld::create::<f64>(2, CommConfig::default());
        let (a, b) = (&world[0], &world[1]);
        for k in 0..20 {
            a.send(1, msg(k as f64)).unwrap();
            assert_eq!(b.try_recv().unwrap().payload, vec![k as f64]);
        }
        assert_eq!(b.stats().msgs_received(), 20);
        assert_eq!(b.stats().max_reorder_depth(), 0);
    }

    #[test]
    fn a_frame_ahead_of_a_gap_parks_until_the_gap_fills() {
        let world = CommWorld::create::<f64>(2, CommConfig::default());
        let b = &world[1];
        let frame = |seq: u64, v: f64| {
            let inner = packet::encode(&msg(v));
            match decode_frame(encode_data(seq, inner.chunk())).unwrap() {
                f @ Frame::Data { .. } => f,
                _ => unreachable!(),
            }
        };
        b.handle_frame(0, frame(2, 2.0));
        b.handle_frame(0, frame(1, 1.0));
        assert!(
            b.inbox.try_recv().is_err(),
            "nothing deliverable before seq 0"
        );
        assert_eq!(b.stats().max_reorder_depth(), 2);
        b.handle_frame(0, frame(0, 0.0));
        assert_eq!(
            b.stats().max_reorder_depth(),
            2,
            "the in-order frame never parks"
        );
        let got: Vec<f64> = (0..3)
            .map(|_| packet::decode::<f64>(b.inbox.try_recv().unwrap()).payload[0])
            .collect();
        assert_eq!(got, vec![0.0, 1.0, 2.0]);
        b.handle_frame(0, frame(1, 1.0));
        assert_eq!(b.stats().dup_drops(), 1);
        assert_eq!(b.stats().msgs_received(), 3);
    }

    #[test]
    fn sender_stalls_then_completes_when_receiver_drains() {
        let world = CommWorld::create::<f64>(
            2,
            CommConfig {
                send_buffers: 1,
                recv_buffers: 1,
                ..CommConfig::default()
            },
        );
        let a = &world[0];
        let b = &world[1];
        std::thread::scope(|s| {
            s.spawn(|| {
                for k in 0..50 {
                    a.send(1, msg(k as f64)).unwrap();
                }
            });
            s.spawn(|| {
                let mut got = 0;
                while got < 50 {
                    if let Some(m) = b.try_recv() {
                        assert_eq!(m.payload, vec![got as f64]);
                        got += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
            });
        });
        assert_eq!(a.stats().msgs_sent(), 50);
        assert!(a.stats().send_stalls() > 0, "1-buffer sends should stall");
    }

    #[test]
    fn mutual_full_buffers_do_not_deadlock() {
        // Both ranks blast messages at each other with single-slot buffers,
        // only receiving after their own sends complete — the progress
        // engine inside send() keeps both alive through the sending phase,
        // and each side keeps draining until it has everything (a real
        // worker loop never stops polling, Section V-A step 6).
        let world = CommWorld::create::<f64>(
            2,
            CommConfig {
                send_buffers: 1,
                recv_buffers: 1,
                ..CommConfig::default()
            },
        );
        let a = &world[0];
        let b = &world[1];
        let (got_a, got_b) = std::thread::scope(|s| {
            let ha = s.spawn(|| {
                for k in 0..200 {
                    a.send(1, msg(k as f64)).unwrap();
                }
                let mut got = 0;
                while got < 200 {
                    if a.try_recv().is_some() {
                        got += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
                got
            });
            let hb = s.spawn(|| {
                for k in 0..200 {
                    b.send(0, msg(-k as f64)).unwrap();
                }
                let mut got = 0;
                while got < 200 {
                    if b.try_recv().is_some() {
                        got += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
                got
            });
            (ha.join().unwrap(), hb.join().unwrap())
        });
        assert_eq!(got_a, 200);
        assert_eq!(got_b, 200);
    }

    #[test]
    fn mutual_single_buffer_backpressure_survives_faults() {
        // The backpressure regression test again, now with every fault
        // type active on the wire: the MPI progress rule plus the reliable
        // layer must still terminate with every message delivered exactly
        // once, in order.
        let world = CommWorld::create::<f64>(2, faulty_config(0xBEEF, 0.2));
        let a = &world[0];
        let b = &world[1];
        let run = |me: &RankComm<f64>, dst: usize, n: usize| {
            for k in 0..n {
                me.send(dst, msg(k as f64)).unwrap();
            }
            let mut got = Vec::new();
            while got.len() < n {
                if let Some(m) = me.try_recv() {
                    got.push(m.payload[0]);
                } else {
                    std::thread::yield_now();
                }
            }
            while !me.flush() {
                std::thread::yield_now();
            }
            got
        };
        let (got_a, got_b) = std::thread::scope(|s| {
            let ha = s.spawn(|| run(a, 1, 120));
            let hb = s.spawn(|| run(b, 0, 120));
            (ha.join().unwrap(), hb.join().unwrap())
        });
        let want: Vec<f64> = (0..120).map(|k| k as f64).collect();
        assert_eq!(got_a, want, "in-order exactly-once delivery at rank 0");
        assert_eq!(got_b, want, "in-order exactly-once delivery at rank 1");
        let faults = a.stats().faults_dropped() + b.stats().faults_dropped();
        assert!(faults > 0, "seeded plan must actually drop packets");
        assert!(
            a.stats().retransmits() + b.stats().retransmits() > 0,
            "drops must cost retransmits"
        );
    }

    #[test]
    fn lossy_wire_delivers_everything_in_order() {
        for seed in [1u64, 2, 3, 99] {
            let world = CommWorld::create::<f64>(2, faulty_config(seed, 0.3));
            let a = &world[0];
            let b = &world[1];
            std::thread::scope(|s| {
                s.spawn(|| {
                    for k in 0..150 {
                        a.send(1, msg(k as f64)).unwrap();
                    }
                    while !a.flush() {
                        std::thread::yield_now();
                    }
                });
                s.spawn(|| {
                    let mut got = 0;
                    while got < 150 {
                        if let Some(m) = b.try_recv() {
                            assert_eq!(m.payload, vec![got as f64], "seed {seed}");
                            got += 1;
                        } else {
                            std::thread::yield_now();
                        }
                    }
                    while !b.flush() {
                        std::thread::yield_now();
                    }
                });
            });
            assert_eq!(a.stats().msgs_sent(), 150);
            assert_eq!(b.stats().msgs_received(), 150);
            assert_eq!(a.in_flight(), 0, "all frames acknowledged after flush");
        }
    }

    #[test]
    fn three_ranks_route_correctly() {
        let world = CommWorld::create::<f64>(3, CommConfig::default());
        world[0].send(2, msg(7.0)).unwrap();
        world[1].send(2, msg(8.0)).unwrap();
        world[2].send(0, msg(9.0)).unwrap();
        let mut got = Vec::new();
        while let Some(m) = world[2].try_recv() {
            got.push(m.payload[0]);
        }
        got.sort_by(f64::total_cmp);
        assert_eq!(got, vec![7.0, 8.0]);
        assert_eq!(world[0].try_recv().unwrap().payload, vec![9.0]);
        assert!(world[1].try_recv().is_none());
    }

    #[test]
    fn self_send_is_a_typed_no_route() {
        let world = CommWorld::create::<f64>(2, CommConfig::default());
        match world[0].send(0, msg(0.0)) {
            Err(TransportError::NoRoute {
                from: 0, dest: 0, ..
            }) => {}
            other => panic!("expected NoRoute, got {other:?}"),
        }
    }

    /// The wire holds as many frames as the window, so a first
    /// transmission finds it full only of retransmitted copies. The send
    /// then returns at once (on a clock held still, a send that waited for
    /// room would never return), and the retransmit pump puts the frame on
    /// the wire an ack timeout later: it arrives once, in order.
    #[test]
    fn a_send_onto_a_wire_full_of_copies_returns_and_the_pump_delivers_it() {
        let ack = Duration::from_millis(3);
        let (clock, world) = manual_world(CommConfig {
            send_buffers: 2,
            reliability: ReliabilityConfig {
                ack_timeout: ack,
                ..ReliabilityConfig::default()
            },
            ..CommConfig::default()
        });
        let (a, b) = (&world[0], &world[1]);
        a.send(1, msg(0.0)).unwrap();
        clock.advance(ack);
        assert!(a.try_recv().is_none(), "resends frame 0");
        assert_eq!(a.stats().retransmits(), 1, "the wire holds frame 0 twice");
        a.send(1, msg(1.0)).unwrap();
        assert_eq!(a.stats().send_stalls(), 0, "a full wire is not a stall");
        assert_eq!(b.try_recv().unwrap().payload, vec![0.0]);
        assert!(b.try_recv().is_none(), "frame 1 is not on the wire yet");
        clock.advance(ack);
        assert!(a.try_recv().is_none(), "takes the ack, resends frame 1");
        assert_eq!(b.try_recv().unwrap().payload, vec![1.0]);
        assert!(b.try_recv().is_none());
        assert_eq!(b.stats().msgs_received(), 2);
        assert_eq!(b.stats().dup_drops(), 1);
    }

    /// Heartbeat silence on a manual clock: a peer that keeps beating is
    /// never declared dead; one that falls silent is alive for
    /// `death_timeout` and dead a nanosecond later.
    #[test]
    fn a_silent_peer_dies_at_the_death_timeout_and_a_beating_one_never() {
        let (beat, death) = (Duration::from_millis(2), Duration::from_millis(80));
        let (clock, world) = manual_world(CommConfig {
            reliability: ReliabilityConfig {
                heartbeat_interval: Some(beat),
                death_timeout: death,
                ..ReliabilityConfig::default()
            },
            ..CommConfig::default()
        });
        let (a, b) = (&world[0], &world[1]);
        for _ in 0..200 {
            clock.advance(beat);
            assert!(b.try_recv().is_none(), "b beats");
            assert!(a.try_recv().is_none(), "a hears it");
            assert!(a.health().is_ok(), "at {:?}", clock.now());
        }
        assert_eq!(a.stats().heartbeats_received(), 200);
        clock.advance(death);
        assert!(a.health().is_ok());
        clock.advance(NS);
        match a.health() {
            Err(TransportError::PeerDead {
                from: 0, dead: 1, ..
            }) => {}
            other => panic!("expected rank 1 dead, got {other:?}"),
        }
    }

    /// On a wire that loses every frame, a frame is resent an ack timeout
    /// after it was sent, then after twice that, then at the backoff cap
    /// each time.
    #[test]
    fn retransmits_back_off_from_the_ack_timeout_to_the_cap() {
        let ack = Duration::from_millis(1);
        let (clock, world) = manual_world(CommConfig {
            reliability: ReliabilityConfig {
                ack_timeout: ack,
                max_backoff: 3 * ack,
                ..ReliabilityConfig::default()
            },
            faults: Some(FaultPlan::drops(7, 1.0)),
            ..CommConfig::default()
        });
        let (a, b) = (&world[0], &world[1]);
        a.send(1, msg(0.0)).unwrap();
        // One turn of both ranks: b drops what is on the wire, a pumps.
        let turn = || {
            assert!(b.try_recv().is_none());
            assert!(a.try_recv().is_none());
            a.stats().retransmits()
        };
        for (resent, gap) in [1, 2, 3, 3].into_iter().enumerate() {
            clock.advance(gap * ack - NS);
            assert_eq!(turn(), resent as u64, "{:?}", clock.now());
            clock.advance(NS);
            assert_eq!(turn(), resent as u64 + 1, "{:?}", clock.now());
        }
    }

    /// A send blocked on a full window gives up the first time its wait is
    /// past `send_timeout`. The blocked send turns the progress engine once
    /// per look at the clock, so the test knows when it has looked.
    #[test]
    fn a_send_blocked_on_a_full_window_times_out_at_the_send_timeout() {
        let timeout = Duration::from_millis(50);
        let (clock, world) = manual_world(CommConfig {
            send_buffers: 2,
            reliability: ReliabilityConfig {
                send_timeout: timeout,
                ..ReliabilityConfig::default()
            },
            ..CommConfig::default()
        });
        let a = &world[0];
        a.send(1, msg(0.0)).unwrap();
        a.send(1, msg(1.0)).unwrap();
        let turns = || a.poll_cursor.load(Ordering::Relaxed);
        let wait_turns = |n: usize| {
            let until = turns() + n;
            while turns() < until {
                std::thread::yield_now();
            }
        };
        let err = std::thread::scope(|s| {
            let send = s.spawn(|| a.send(1, msg(2.0)));
            wait_turns(1); // blocked since 0
            clock.advance(timeout);
            wait_turns(2); // a look at exactly the timeout
            assert!(!send.is_finished());
            clock.advance(NS);
            send.join().unwrap().unwrap_err()
        });
        match err {
            TransportError::SendTimeout {
                waited, in_flight, ..
            } => assert_eq!((waited, in_flight), (timeout + NS, 2)),
            other => panic!("expected SendTimeout, got {other:?}"),
        }
    }

    #[test]
    fn a_timed_kill_fires_when_the_clock_reaches_it() {
        let d = Duration::from_millis(5);
        let (clock, world) = manual_world(CommConfig {
            faults: Some(FaultPlan::kill_rank_at(0, KillTrigger::AfterDuration(d))),
            ..CommConfig::default()
        });
        clock.advance(d - NS);
        world[0].send(1, msg(0.0)).unwrap();
        assert!(world[0].health().is_ok());
        clock.advance(NS);
        match world[0].send(1, msg(1.0)) {
            Err(TransportError::Halted { rank: 0 }) => {}
            other => panic!("expected rank 0 halted, got {other:?}"),
        }
        assert_eq!(world[1].try_recv().unwrap().payload, vec![0.0]);
        assert!(world[1].try_recv().is_none());
    }

    #[test]
    fn a_dead_wire_strands_frames_until_send_timeout() {
        // 100% drop, retransmits included: the receiver never sees
        // anything, the sender's window stays full, and a bounded
        // send_timeout surfaces the wedge as a typed error instead of
        // hanging.
        let config = CommConfig {
            send_buffers: 2,
            recv_buffers: 2,
            reliability: ReliabilityConfig {
                ack_timeout: Duration::from_micros(100),
                max_backoff: Duration::from_millis(1),
                send_timeout: Duration::from_millis(50),
                ..ReliabilityConfig::default()
            },
            faults: Some(FaultPlan::drops(7, 1.0)),
        };
        let world = CommWorld::create::<f64>(2, config);
        let a = &world[0];
        let mut sent = 0;
        let err = loop {
            match a.send(1, msg(sent as f64)) {
                Ok(()) => sent += 1,
                Err(e) => break e,
            }
            assert!(sent <= 2, "window must cap unacked sends");
        };
        match err {
            TransportError::SendTimeout { in_flight, .. } => assert_eq!(in_flight, 2),
            other => panic!("expected SendTimeout, got {other:?}"),
        }
        assert!(world[1].try_recv().is_none(), "nothing ever arrives");
    }
}
