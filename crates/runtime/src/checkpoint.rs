//! Slab checkpointing for elastic rank recovery.
//!
//! A recovery-enabled run keeps, per rank, an incremental checkpoint of
//! the wavefront: the set of tiles this rank has *completed* plus every
//! outgoing boundary edge those tiles produced (local and remote alike —
//! the sender-side retained copy is what reconstructs a dead rank's
//! inputs), any probe values resolved inside them, and the rank's partial
//! reduction folded tile by tile. Records are written incrementally as
//! tiles finish, so at any instant the checkpoint describes a consistent
//! prefix of the rank's work: a tile is either fully present (result
//! edges, probes and reduction contribution recorded atomically under one
//! lock) or absent and will simply re-execute in the next epoch.
//!
//! On a rank death the recovery coordinator (see `core::driver`) discards
//! the dead rank's checkpoint wholesale, reassigns its slab to the
//! lowest-loaded survivor, and rebuilds every surviving rank's scheduler
//! state from a [`ResumeState`]: the completed set (skipped, not
//! re-executed), plus a replay list of retained edges whose consumer has
//! not completed yet. Determinism of the kernel makes the resumed run
//! bit-identical to an undisturbed one.
//!
//! Everything here names a tile by its index in the plan's `TileGraph` —
//! the completed set is a bitmap over it, a retained edge is the
//! scheduler's [`Delivery`] — and the checkpoint has a second reader: the
//! retained edges of a finished run are the traceback's edge log
//! (`core::Plan::execute_logged`).

use crate::kernel::Value;
use crate::reduce::Reduction;
use crate::scheduler::Delivery;
use parking_lot::Mutex;
use std::sync::Arc;

/// A set of tiles: a bitmap over the tile graph's index. It grows on
/// insert and an index past its end is absent, so the empty set is free.
#[derive(Debug, Clone, Default)]
pub struct TileSet {
    words: Vec<u64>,
}

impl TileSet {
    /// Whether tile `tile` is in the set.
    pub fn contains(&self, tile: usize) -> bool {
        (self.words.get(tile / 64)).is_some_and(|w| w >> (tile % 64) & 1 == 1)
    }

    /// Add tile `tile`; false when it was already there.
    pub fn insert(&mut self, tile: usize) -> bool {
        if tile / 64 >= self.words.len() {
            self.words.resize(tile / 64 + 1, 0);
        }
        let fresh = !self.contains(tile);
        self.words[tile / 64] |= 1 << (tile % 64);
        fresh
    }

    /// Number of tiles in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no tile is in the set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Add every tile of `other`.
    pub fn union_with(&mut self, other: &TileSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }
}

/// The raw contents of one rank's checkpoint, extracted by the recovery
/// coordinator after an epoch ends (successfully or not).
#[derive(Debug, Clone, Default)]
pub struct CheckpointData<T> {
    /// Tiles fully executed and recorded by this rank.
    pub completed: TileSet,
    /// Every outgoing edge produced by a completed tile, retained on the
    /// sender side: `(consumer tile index, dependency index, payload)`.
    pub edges: Vec<Delivery<T>>,
    /// Probe values resolved inside completed tiles, as
    /// `(probe index, value)`.
    pub probes: Vec<(usize, T)>,
    /// The rank's partial whole-space reduction over completed tiles.
    pub acc: Option<T>,
    /// Approximate serialized size of the retained state: 8 bytes a
    /// completed tile (its index), 16 bytes an edge (consumer and
    /// dependency index) plus its payload, 8 bytes plus the value a probe.
    pub bytes: u64,
}

/// The per-rank incremental checkpoint writer.
///
/// [`CheckpointSink::record`] is the only mutation: one lock acquisition
/// inserts the tile into the completed set, retains its outgoing edges and
/// probe values, and folds its reduction contribution — atomically, so a
/// failing epoch can never observe a tile whose completion and reduction
/// disagree. A run that keeps checkpoints reads its whole-space reduction
/// off the sinks, not off the ranks' own folds: a sink's fold survives a
/// failed epoch and covers exactly the tiles recorded complete.
pub struct CheckpointSink<T> {
    /// A clone of the run's reduction; `None` when the run has none.
    reduce: Option<Reduction<T>>,
    state: Mutex<CheckpointData<T>>,
}

impl<T: Value> CheckpointSink<T> {
    /// An empty sink (a fresh epoch with no prior state).
    pub fn new(reduce: Option<Reduction<T>>) -> CheckpointSink<T> {
        CheckpointSink::seeded(reduce, CheckpointData::default())
    }

    /// A sink seeded with a prior epoch's checkpoint: the surviving rank
    /// keeps everything it already recorded, so a *second* failure still
    /// finds the full history here.
    pub fn seeded(reduce: Option<Reduction<T>>, data: CheckpointData<T>) -> CheckpointSink<T> {
        CheckpointSink {
            reduce,
            state: Mutex::new(data),
        }
    }

    /// Record one completed tile: its outgoing edges (all of them, local
    /// and remote), any probe values it resolved, and its reduction
    /// contribution — atomically. Re-recording a tile is a no-op.
    pub fn record(
        &self,
        tile: usize,
        edges: Vec<Delivery<T>>,
        probes: &[(usize, T)],
        contribution: Option<T>,
    ) {
        let cells: usize = edges.iter().map(|e| e.payload.len()).sum();
        let nb = 8
            + 16 * edges.len()
            + cells * std::mem::size_of::<T>()
            + probes.len() * (8 + std::mem::size_of::<T>());
        let mut st = self.state.lock();
        if !st.completed.insert(tile) {
            return;
        }
        st.edges.extend(edges);
        st.probes.extend_from_slice(probes);
        if let (Some(r), Some(x)) = (&self.reduce, contribution) {
            st.acc = Some(match st.acc {
                Some(a) => r.combine(a, x),
                None => x,
            });
        }
        st.bytes += nb as u64;
    }

    /// Approximate bytes retained so far.
    pub fn bytes(&self) -> u64 {
        self.state.lock().bytes
    }

    /// Extract the checkpoint contents, leaving the sink empty. Called by
    /// the recovery coordinator once the epoch's threads have joined.
    pub fn take(&self) -> CheckpointData<T> {
        std::mem::take(&mut *self.state.lock())
    }
}

/// Scheduler state handed to a rank resuming after a recovery.
#[derive(Debug, Clone, Default)]
pub struct ResumeState<T> {
    /// Tiles (owned by this rank under the *patched* ownership) already
    /// completed in prior epochs: skipped, their results live in replayed
    /// edges.
    pub completed: TileSet,
    /// Retained edges to deliver into this rank's scheduler before the
    /// wavefront restarts: every edge whose consumer this rank now owns
    /// and has not completed.
    pub replay: Vec<Delivery<T>>,
    /// Probe values resolved by tiles in `completed`, re-seeded into the
    /// probe results.
    pub probes: Vec<(usize, T)>,
}

/// Everything the node engine needs to run under recovery: where to write
/// the incremental checkpoint, and (after a failure) what to resume from.
pub struct NodeRecovery<T> {
    /// This epoch's checkpoint writer for this rank.
    pub sink: Arc<CheckpointSink<T>>,
    /// Prior-epoch state to resume from; `None` on the first epoch.
    pub resume: Option<ResumeState<T>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(tile: usize, payload: Vec<i64>) -> Delivery<i64> {
        Delivery {
            tile,
            dep: 0,
            payload,
        }
    }

    #[test]
    fn record_is_atomic_and_idempotent() {
        let sink: CheckpointSink<i64> = CheckpointSink::new(Some(Reduction::max_i64()));
        sink.record(0, vec![edge(1, vec![3, 4])], &[(0, 7)], Some(4));
        sink.record(70, vec![], &[], Some(9));
        // Re-recording the same tile changes nothing — not even the acc.
        sink.record(0, vec![edge(2, vec![5])], &[(1, 8)], Some(100));
        assert!(sink.bytes() > 0);
        let data = sink.take();
        assert_eq!(data.completed.len(), 2);
        assert!(data.completed.contains(0) && data.completed.contains(70));
        assert!(!data.completed.contains(1) && !data.completed.contains(7000));
        assert_eq!(data.edges.len(), 1);
        assert_eq!(data.probes, vec![(0, 7)]);
        assert_eq!(data.acc, Some(9));
        // Taken: the sink is empty again.
        assert!(sink.take().completed.is_empty());
        assert_eq!(sink.bytes(), 0);
    }

    #[test]
    fn seeded_sink_continues_the_fold() {
        let sink: CheckpointSink<i64> = CheckpointSink::new(Some(Reduction::max_i64()));
        sink.record(0, vec![], &[], Some(5));
        let data = sink.take();
        let resumed = CheckpointSink::seeded(Some(Reduction::max_i64()), data);
        resumed.record(1, vec![], &[], Some(3));
        resumed.record(2, vec![], &[], Some(11));
        let out = resumed.take();
        assert_eq!(out.acc, Some(11));
        assert_eq!(out.completed.len(), 3);
    }

    #[test]
    fn no_reduction_means_no_acc() {
        let sink: CheckpointSink<i64> = CheckpointSink::new(None);
        sink.record(0, vec![], &[], None);
        assert_eq!(sink.take().acc, None);
    }

    #[test]
    fn concurrent_records_land_exactly_once() {
        let sink: Arc<CheckpointSink<i64>> =
            Arc::new(CheckpointSink::new(Some(Reduction::sum_i64())));
        std::thread::scope(|s| {
            for w in 0..4usize {
                let sink = sink.clone();
                s.spawn(move || {
                    for k in 0..100usize {
                        sink.record(w * 100 + k, vec![], &[], Some(1));
                    }
                });
            }
        });
        let data = sink.take();
        assert_eq!(data.completed.len(), 400);
        assert_eq!(data.acc, Some(400));
    }
}
