//! Deterministic fault injection for the simulated interconnect.
//!
//! Real clusters lose, duplicate, reorder, delay and corrupt packets; the
//! paper's generated programs inherit MPI's reliable transport and never
//! see any of it. To test the reliable-delivery protocol layered into
//! [`crate::comm`], a `FaultyWire` decorates the receive side of one
//! directed rank-pair link and injects faults according to a seeded
//! [`FaultPlan`]:
//!
//! * **drop** — the packet is consumed off the wire and discarded;
//! * **duplicate** — a copy is scheduled for redelivery a few polls later;
//! * **reorder** — the packet is parked and released after `1..=max_delay`
//!   subsequent polls, letting younger packets overtake it (this doubles as
//!   latency jitter);
//! * **corrupt** — a single uniformly-chosen bit of a copied payload is
//!   flipped before delivery.
//!
//! All randomness comes from a SplitMix64 stream seeded per directed link
//! (`FaultPlan::seed` mixed with the src/dst ranks), so a run's fault
//! schedule is a pure function of the plan — property tests can replay any
//! failing schedule exactly. Faults are injected *after* the bounded wire
//! channel, so send-buffer backpressure behaves identically with and
//! without a plan: a dropped packet still occupied a send buffer in
//! flight, exactly like a packet lost past the NIC.

use crate::stats::CommStats;
use bytes::Bytes;
use crossbeam::channel::Receiver;
use dpgen_runtime::rng::SplitMix64;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// When a doomed rank dies (see [`RankKill`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KillTrigger {
    /// The rank dies after completing this many `send` calls.
    AfterSends(u64),
    /// The rank dies once the world's clock reads this much: the run's
    /// clock, started when the run began (a world from
    /// [`crate::CommWorld::create`] starts its own).
    AfterDuration(Duration),
}

/// A scheduled rank failure: at the trigger point the rank's wires are
/// hard-dropped — it stops sending, acking, and heartbeating, exactly like
/// a node losing power. Survivors see silence, not an error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankKill {
    /// The rank that dies.
    pub rank: usize,
    /// When it dies.
    pub trigger: KillTrigger,
}

/// Probabilities and seed for one run's injected faults. Rates are
/// per-packet probabilities in `[0, 1]`; independent rolls are made in the
/// order drop → corrupt → duplicate → reorder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for the deterministic fault schedule.
    pub seed: u64,
    /// Probability a packet is silently discarded.
    pub drop: f64,
    /// Probability a packet is delivered twice.
    pub duplicate: f64,
    /// Probability a packet is parked and overtaken by later packets.
    pub reorder: f64,
    /// Probability one bit of the packet is flipped.
    pub corrupt: f64,
    /// Maximum extra polls a reordered/duplicated packet waits before
    /// release (the jitter bound). Clamped to at least 1 when used.
    pub max_delay: u32,
    /// A scheduled rank failure; `None` means every rank survives.
    pub kill: Option<RankKill>,
}

impl FaultPlan {
    /// A plan that injects nothing (the identity decorator).
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            corrupt: 0.0,
            max_delay: 4,
            kill: None,
        }
    }

    /// A uniform plan: every fault type at `rate`, with the given seed.
    pub fn uniform(seed: u64, rate: f64) -> FaultPlan {
        FaultPlan {
            seed,
            drop: rate,
            duplicate: rate,
            reorder: rate,
            corrupt: rate,
            max_delay: 8,
            kill: None,
        }
    }

    /// A plan whose only fault is a scheduled rank death: `rank`'s wires
    /// hard-drop at the trigger point (packet loss stays at zero, so the
    /// recovery path is tested in isolation from transient faults).
    pub fn kill_rank_at(rank: usize, trigger: KillTrigger) -> FaultPlan {
        FaultPlan {
            kill: Some(RankKill { rank, trigger }),
            ..FaultPlan::none()
        }
    }

    /// The same plan with a scheduled rank death added.
    pub fn with_kill(self, rank: usize, trigger: KillTrigger) -> FaultPlan {
        FaultPlan {
            kill: Some(RankKill { rank, trigger }),
            ..self
        }
    }

    /// A plan that only drops packets, at `rate`.
    pub fn drops(seed: u64, rate: f64) -> FaultPlan {
        FaultPlan {
            drop: rate,
            ..FaultPlan::none().with_seed(seed)
        }
    }

    /// The same plan with a different seed.
    pub fn with_seed(self, seed: u64) -> FaultPlan {
        FaultPlan { seed, ..self }
    }

    /// True when at least one fault type can fire.
    pub fn is_active(&self) -> bool {
        self.drop > 0.0 || self.duplicate > 0.0 || self.reorder > 0.0 || self.corrupt > 0.0
    }
}

/// Derive the per-link seed from the plan seed and the directed pair.
/// (The schedule stream is the shared [`SplitMix64`] from `dpgen-runtime`,
/// bit-identical to the private generator this module used to carry.)
fn link_seed(plan_seed: u64, src: usize, dst: usize) -> u64 {
    let mut mix = SplitMix64::new(
        plan_seed ^ (src as u64).wrapping_mul(0x9E37_79B9) ^ (dst as u64).rotate_left(32),
    );
    mix.next_u64()
}

/// A parked packet awaiting its release tick.
struct Parked {
    release_tick: u64,
    pkt: Bytes,
}

struct FaultState {
    rng: SplitMix64,
    /// Poll counter; advances once per [`FaultyWire::poll`], so parked
    /// packets release even when no new traffic arrives.
    tick: u64,
    /// Packets delayed by reorder/duplicate faults, unordered (scanned
    /// linearly — the park set stays tiny under any sane plan).
    parked: Vec<Parked>,
}

/// The receive end of one directed link, with fault injection between the
/// wire channel and the consumer. With an inactive plan it is a
/// zero-allocation passthrough.
pub(crate) struct FaultyWire {
    rx: Receiver<Bytes>,
    plan: FaultPlan,
    active: bool,
    state: Mutex<FaultState>,
    stats: Arc<CommStats>,
}

impl FaultyWire {
    pub(crate) fn new(
        rx: Receiver<Bytes>,
        plan: Option<FaultPlan>,
        src: usize,
        dst: usize,
        stats: Arc<CommStats>,
    ) -> FaultyWire {
        let plan = plan.unwrap_or_else(FaultPlan::none);
        let active = plan.is_active();
        FaultyWire {
            rx,
            active,
            state: Mutex::new(FaultState {
                rng: SplitMix64::new(link_seed(plan.seed, src, dst)),
                tick: 0,
                parked: Vec::new(),
            }),
            plan,
            stats,
        }
    }

    /// Poll one packet off the link, applying the fault plan.
    pub(crate) fn poll(&self) -> Option<Bytes> {
        if !self.active {
            return self.rx.try_recv().ok();
        }
        let mut st = self.state.lock();
        st.tick += 1;
        let tick = st.tick;
        // Release one due parked packet first: it has priority because it
        // is older than anything still on the wire.
        if let Some(i) = st.parked.iter().position(|p| p.release_tick <= tick) {
            return Some(st.parked.swap_remove(i).pkt);
        }
        loop {
            let Ok(pkt) = self.rx.try_recv() else {
                return None;
            };
            if st.rng.next_f64() < self.plan.drop {
                self.stats.note_fault_dropped();
                continue;
            }
            let pkt = if st.rng.next_f64() < self.plan.corrupt {
                self.stats.note_fault_corrupted();
                flip_random_bit(&pkt, &mut st.rng)
            } else {
                pkt
            };
            let max_delay = self.plan.max_delay.max(1) as u64;
            if st.rng.next_f64() < self.plan.duplicate {
                self.stats.note_fault_duplicated();
                let delay = 1 + st.rng.next_below(max_delay);
                st.parked.push(Parked {
                    release_tick: tick + delay,
                    pkt: pkt.clone(),
                });
            }
            if st.rng.next_f64() < self.plan.reorder {
                self.stats.note_fault_reordered();
                let delay = 1 + st.rng.next_below(max_delay);
                st.parked.push(Parked {
                    release_tick: tick + delay,
                    pkt,
                });
                continue; // a younger packet may now overtake it
            }
            return Some(pkt);
        }
    }
}

/// Copy `pkt` with one uniformly-chosen bit flipped.
fn flip_random_bit(pkt: &Bytes, rng: &mut SplitMix64) -> Bytes {
    let mut raw = pkt.to_vec();
    if raw.is_empty() {
        return pkt.clone();
    }
    let bit = rng.next_below(raw.len() as u64 * 8);
    raw[(bit / 8) as usize] ^= 1 << (bit % 8);
    Bytes::from(raw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::bounded;

    fn wire(plan: FaultPlan, cap: usize) -> (crossbeam::channel::Sender<Bytes>, FaultyWire) {
        let (tx, rx) = bounded(cap);
        let w = FaultyWire::new(rx, Some(plan), 0, 1, Arc::new(CommStats::new()));
        (tx, w)
    }

    fn pkt(tag: u8) -> Bytes {
        Bytes::from(vec![tag, 1, 2, 3])
    }

    #[test]
    fn inactive_plan_is_passthrough() {
        let (tx, w) = wire(FaultPlan::none(), 8);
        tx.try_send(pkt(7)).unwrap();
        assert_eq!(w.poll().unwrap().to_vec()[0], 7);
        assert!(w.poll().is_none());
    }

    #[test]
    fn full_drop_discards_everything() {
        let (tx, w) = wire(FaultPlan::drops(1, 1.0), 64);
        for k in 0..50 {
            tx.try_send(pkt(k)).unwrap();
        }
        for _ in 0..100 {
            assert!(w.poll().is_none());
        }
        assert_eq!(w.stats.faults_dropped(), 50);
    }

    #[test]
    fn reordered_packets_are_all_eventually_delivered() {
        let plan = FaultPlan {
            reorder: 0.5,
            ..FaultPlan::none().with_seed(42)
        };
        let (tx, w) = wire(plan, 256);
        for k in 0..100 {
            tx.try_send(pkt(k)).unwrap();
        }
        let mut got = Vec::new();
        let mut dry = 0;
        while dry < 64 {
            match w.poll() {
                Some(p) => {
                    got.push(p.to_vec()[0]);
                    dry = 0;
                }
                None => dry += 1, // ticks advance, parked packets release
            }
        }
        assert_eq!(got.len(), 100, "no loss, only reordering");
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(got, sorted, "seed 42 at 50% must actually reorder");
    }

    #[test]
    fn duplicates_deliver_extra_copies() {
        let plan = FaultPlan {
            duplicate: 1.0,
            ..FaultPlan::none().with_seed(3)
        };
        let (tx, w) = wire(plan, 64);
        for k in 0..10 {
            tx.try_send(pkt(k)).unwrap();
        }
        let mut got = Vec::new();
        let mut dry = 0;
        while dry < 32 {
            match w.poll() {
                Some(p) => {
                    got.push(p.to_vec()[0]);
                    dry = 0;
                }
                None => dry += 1,
            }
        }
        assert_eq!(got.len(), 20, "every packet delivered exactly twice");
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let plan = FaultPlan {
            corrupt: 1.0,
            ..FaultPlan::none().with_seed(9)
        };
        let (tx, w) = wire(plan, 8);
        let original = pkt(0xAA).to_vec();
        tx.try_send(pkt(0xAA)).unwrap();
        let got = w.poll().unwrap().to_vec();
        let differing_bits: u32 = original
            .iter()
            .zip(&got)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(differing_bits, 1);
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        for seed in [1u64, 77, 1234] {
            let run = |seed| {
                let (tx, w) = wire(FaultPlan::uniform(seed, 0.3), 256);
                for k in 0..60 {
                    tx.try_send(pkt(k)).unwrap();
                }
                let mut got = Vec::new();
                let mut dry = 0;
                while dry < 64 {
                    match w.poll() {
                        Some(p) => {
                            got.push(p.to_vec());
                            dry = 0;
                        }
                        None => dry += 1,
                    }
                }
                got
            };
            assert_eq!(run(seed), run(seed), "seed {seed} must replay exactly");
        }
    }

    #[test]
    fn link_seeds_decorrelate_directions() {
        assert_ne!(link_seed(5, 0, 1), link_seed(5, 1, 0));
        assert_ne!(link_seed(5, 0, 1), link_seed(6, 0, 1));
    }

    #[test]
    fn kill_plans_do_not_activate_packet_faults() {
        let plan = FaultPlan::kill_rank_at(1, KillTrigger::AfterSends(3));
        assert!(!plan.is_active(), "a kill is not a packet-level fault");
        assert_eq!(
            plan.kill,
            Some(RankKill {
                rank: 1,
                trigger: KillTrigger::AfterSends(3)
            })
        );
        let combined = FaultPlan::drops(7, 0.1)
            .with_kill(0, KillTrigger::AfterDuration(Duration::from_millis(5)));
        assert!(combined.is_active());
        assert_eq!(combined.kill.unwrap().rank, 0);
    }
}
