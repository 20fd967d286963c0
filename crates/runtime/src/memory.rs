//! Memory accounting for the Figure 4 peak-memory analysis.
//!
//! The runtime tracks, with atomic counters, how many edge payload *cells*
//! are buffered awaiting consumption, how many tiles are live (fully
//! allocated, i.e. executing), and the corresponding peaks. Different
//! execution priorities change peak edge memory by almost a factor of `d`
//! (Section V-B); the `figures` bench harness reads these counters to
//! regenerate the comparison.
//!
//! The scheduler reports per *batch* — the edges one finished tile
//! delivers, the edges one popped tile consumes — not per edge: a batch
//! only adds, so the level after it is the highest level inside it, and one
//! `fetch_add` and one `fetch_max` per counter see the same peak an update
//! per edge would.
//!
//! Every tile of a run passes through here five times, so an update pays
//! only for the read-modify-writes its result needs: one per counter it
//! moves, a plain read of a counter a batch leaves where it was, and a
//! peak's `fetch_max` only once a read of the peak shows the new level
//! above it. A peak only grows, so a read at or above the new level proves
//! the `fetch_max` would have changed nothing. With one worker the counters
//! pass through exactly the levels and peaks of one `fetch_add` and one
//! `fetch_max` per counter and batch (`tests/memory_peaks.rs` pins one
//! such run); DESIGN.md §15.5.

use std::sync::atomic::{AtomicI64, Ordering};

/// Shared memory counters, updated once per delivered batch and per
/// executed tile.
#[derive(Debug, Default)]
pub struct MemoryStats {
    edges_buffered: AtomicI64,
    edges_buffered_peak: AtomicI64,
    edge_cells_buffered: AtomicI64,
    edge_cells_buffered_peak: AtomicI64,
    live_tiles: AtomicI64,
    live_tiles_peak: AtomicI64,
    pending_tiles: AtomicI64,
    pending_tiles_peak: AtomicI64,
}

/// Add `delta` to `cur` after a rise of `rise` above the old level: the
/// level `cur + rise` was reached before `delta - rise` came off again. A
/// `delta` of 0 reads the level instead of adding nothing to it (or skips
/// it, with no rise either), and the peak is read before it is raised.
fn bump_peak(cur: &AtomicI64, peak: &AtomicI64, rise: i64, delta: i64) {
    let was = match delta {
        0 if rise <= 0 => return,
        0 => cur.load(Ordering::Relaxed),
        _ => cur.fetch_add(delta, Ordering::Relaxed),
    };
    if rise > 0 && peak.load(Ordering::Relaxed) < was + rise {
        peak.fetch_max(was + rise, Ordering::Relaxed);
    }
}

/// Take `n` off `cur`; nothing when `n` is 0.
fn fall(cur: &AtomicI64, n: i64) {
    if n != 0 {
        cur.fetch_sub(n, Ordering::Relaxed);
    }
}

impl MemoryStats {
    /// New zeroed counters.
    pub fn new() -> MemoryStats {
        MemoryStats::default()
    }

    /// `edges` edges carrying `cells` payload cells between them were
    /// buffered in the scheduler.
    pub fn edges_buffered(&self, edges: usize, cells: usize) {
        let (edges, cells) = (edges as i64, cells as i64);
        bump_peak(
            &self.edges_buffered,
            &self.edges_buffered_peak,
            edges,
            edges,
        );
        bump_peak(
            &self.edge_cells_buffered,
            &self.edge_cells_buffered_peak,
            cells,
            cells,
        );
    }

    /// `edges` buffered edges of `cells` cells were consumed (unpacked into
    /// an executing tile).
    pub fn edges_consumed(&self, edges: usize, cells: usize) {
        fall(&self.edges_buffered, edges as i64);
        fall(&self.edge_cells_buffered, cells as i64);
    }

    /// A tile buffer was taken for execution.
    pub fn tile_allocated(&self) {
        bump_peak(&self.live_tiles, &self.live_tiles_peak, 1, 1);
    }

    /// An executing tile's buffer was released.
    pub fn tile_released(&self) {
        fall(&self.live_tiles, 1);
    }

    /// One batch of deliveries gave `started` tiles their first edge and
    /// `completed` tiles their last (a tile waiting for one edge is both).
    /// The high-water mark counts the batch's first edges before its last
    /// ones, whatever order they came in.
    pub fn tiles_pending(&self, started: usize, completed: usize) {
        let (started, completed) = (started as i64, completed as i64);
        bump_peak(
            &self.pending_tiles,
            &self.pending_tiles_peak,
            started,
            started - completed,
        );
    }

    /// Peak number of simultaneously buffered edges.
    pub fn peak_edges(&self) -> i64 {
        self.edges_buffered_peak.load(Ordering::Relaxed)
    }

    /// Peak number of simultaneously buffered edge cells.
    pub fn peak_edge_cells(&self) -> i64 {
        self.edge_cells_buffered_peak.load(Ordering::Relaxed)
    }

    /// Peak number of simultaneously live (executing) tiles. Every tile
    /// buffer of a run has the tile layout's size, so the peak in cells is
    /// this many buffers.
    pub fn peak_live_tiles(&self) -> i64 {
        self.live_tiles_peak.load(Ordering::Relaxed)
    }

    /// Currently buffered edges (should be 0 after a complete run).
    pub fn current_edges(&self) -> i64 {
        self.edges_buffered.load(Ordering::Relaxed)
    }

    /// Peak simultaneously pending tiles — the paper's `O(n^{d-1})` bound.
    pub fn peak_pending_tiles(&self) -> i64 {
        self.pending_tiles_peak.load(Ordering::Relaxed)
    }

    /// Currently pending tiles (should be 0 after a complete run).
    pub fn current_pending_tiles(&self) -> i64 {
        self.pending_tiles.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peaks_track_high_water_mark() {
        let m = MemoryStats::new();
        m.edges_buffered(2, 30);
        assert_eq!(m.peak_edges(), 2);
        assert_eq!(m.peak_edge_cells(), 30);
        m.edges_consumed(1, 10);
        m.edges_buffered(1, 5);
        assert_eq!(m.peak_edges(), 2);
        assert_eq!(m.peak_edge_cells(), 30);
        m.edges_buffered(1, 40);
        assert_eq!(m.peak_edges(), 3);
        assert_eq!(m.peak_edge_cells(), 65);
        assert_eq!(m.current_edges(), 3);
    }

    #[test]
    fn tiles_balance_to_zero() {
        let m = MemoryStats::new();
        m.tile_allocated();
        m.tile_allocated();
        m.tile_released();
        m.tile_allocated();
        m.tile_released();
        m.tile_released();
        assert_eq!(m.peak_live_tiles(), 2);
        // Back at zero: one more tile is a live count of 1, under the peak.
        m.tile_allocated();
        assert_eq!(m.peak_live_tiles(), 2);
    }

    #[test]
    fn pending_tiles_balance_to_zero() {
        let m = MemoryStats::new();
        m.tiles_pending(2, 0);
        m.tiles_pending(0, 1);
        // A batch's first edges count before its last ones: 1 + 1, then - 1.
        m.tiles_pending(1, 1);
        assert_eq!(m.peak_pending_tiles(), 2);
        assert_eq!(m.current_pending_tiles(), 1);
        // A tile that waits for one edge is pending only inside its batch.
        m.tiles_pending(2, 2);
        assert_eq!(m.peak_pending_tiles(), 3);
        m.tiles_pending(0, 1);
        m.tiles_pending(0, 0);
        assert_eq!(m.current_pending_tiles(), 0);
        assert_eq!(m.peak_pending_tiles(), 3);
    }

    #[test]
    fn a_batch_that_moves_no_level_still_reaches_its_peak() {
        let m = MemoryStats::new();
        m.tiles_pending(3, 0);
        // Two tiles start and two complete: the level stays at 3, the batch
        // reached 5 inside.
        m.tiles_pending(2, 2);
        assert_eq!(m.current_pending_tiles(), 3);
        assert_eq!(m.peak_pending_tiles(), 5);
        // Consuming nothing moves nothing.
        m.edges_buffered(1, 4);
        m.edges_consumed(0, 0);
        assert_eq!((m.current_edges(), m.peak_edges()), (1, 1));
    }

    /// Four threads run 10⁴ tile lifecycles each — allocate, buffer `k`
    /// edges of `3k` cells that start `k` pending tiles, one more tile
    /// started and completed inside one batch, consume, complete, release —
    /// with `k` = thread + 1. Every level ends at 0, and every peak lies
    /// between the highest level one thread reaches alone and the sum of
    /// them.
    #[test]
    fn concurrent_lifecycles_end_at_zero_with_peaks_in_bounds() {
        const THREADS: i64 = 4;
        let m = MemoryStats::new();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (m, k) = (&m, t as usize + 1);
                s.spawn(move || {
                    for _ in 0..10_000 {
                        m.tile_allocated();
                        m.edges_buffered(k, 3 * k);
                        m.tiles_pending(k, 0);
                        m.tiles_pending(1, 1);
                        m.edges_consumed(k, 3 * k);
                        m.tiles_pending(0, k);
                        m.tile_released();
                    }
                });
            }
        });
        let levels = [
            &m.edges_buffered,
            &m.edge_cells_buffered,
            &m.live_tiles,
            &m.pending_tiles,
        ];
        for level in levels {
            assert_eq!(level.load(Ordering::Relaxed), 0);
        }
        // Thread `k` (1 to 4) alone reaches `k` edges, `3k` cells, one live
        // tile and `k + 1` pending tiles; each peak lies between thread 4's
        // level and the sum of the four.
        let (top, sum) = (THREADS, THREADS * (THREADS + 1) / 2);
        for (peak, lo, hi) in [
            (m.peak_edges(), top, sum),
            (m.peak_edge_cells(), 3 * top, 3 * sum),
            (m.peak_live_tiles(), 1, THREADS),
            (m.peak_pending_tiles(), top + 1, sum + THREADS),
        ] {
            assert!((lo..=hi).contains(&peak), "peak {peak} outside {lo}..={hi}");
        }
    }
}
