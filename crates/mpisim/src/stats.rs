//! Per-rank communication statistics.

use dpgen_runtime::MetricsRegistry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Counters kept by each [`crate::RankComm`]; read them after a run to
/// report communication volume, send-buffer pressure (the Section VI-C
/// buffer-count experiment), and the reliability protocol's work: how many
/// frames were retransmitted, how many arrivals were deduplicated or
/// rejected as corrupt, and how deep the receive-side reorder window grew.
///
/// The `faults_*` counters record what the fault layer's `FaultyWire`
/// injected; the protocol counters record what the reliable layer did
/// about it. In a correct run, injected faults cost retransmits and
/// dedup drops — never messages.
#[derive(Debug, Default)]
pub struct CommStats {
    msgs_sent: AtomicU64,
    bytes_sent: AtomicU64,
    msgs_received: AtomicU64,
    bytes_received: AtomicU64,
    send_stalls: AtomicU64,
    stall_ns: AtomicU64,
    // Reliable-delivery protocol counters.
    retransmits: AtomicU64,
    dup_drops: AtomicU64,
    corrupt_drops: AtomicU64,
    acks_sent: AtomicU64,
    acks_received: AtomicU64,
    heartbeats_sent: AtomicU64,
    heartbeats_received: AtomicU64,
    max_reorder_depth: AtomicU64,
    // Injected-fault counters (the FaultyWire's side of the ledger).
    faults_dropped: AtomicU64,
    faults_duplicated: AtomicU64,
    faults_reordered: AtomicU64,
    faults_corrupted: AtomicU64,
}

impl CommStats {
    /// Zeroed counters.
    pub fn new() -> CommStats {
        CommStats::default()
    }

    pub(crate) fn note_send(&self, bytes: usize) {
        self.msgs_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn note_recv(&self, bytes: usize) {
        self.msgs_received.fetch_add(1, Ordering::Relaxed);
        self.bytes_received
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn note_stall(&self, waited: Duration) {
        self.send_stalls.fetch_add(1, Ordering::Relaxed);
        self.stall_ns
            .fetch_add(waited.as_nanos() as u64, Ordering::Relaxed);
    }

    pub(crate) fn note_retransmit(&self) {
        self.retransmits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_dup_drop(&self) {
        self.dup_drops.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_corrupt_drop(&self) {
        self.corrupt_drops.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_ack_sent(&self) {
        self.acks_sent.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_ack_received(&self) {
        self.acks_received.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_heartbeat_sent(&self) {
        self.heartbeats_sent.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_heartbeat_received(&self) {
        self.heartbeats_received.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_reorder_depth(&self, depth: usize) {
        self.max_reorder_depth
            .fetch_max(depth as u64, Ordering::Relaxed);
    }

    pub(crate) fn note_fault_dropped(&self) {
        self.faults_dropped.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_fault_duplicated(&self) {
        self.faults_duplicated.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_fault_reordered(&self) {
        self.faults_reordered.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_fault_corrupted(&self) {
        self.faults_corrupted.fetch_add(1, Ordering::Relaxed);
    }

    /// Messages sent by this rank (first transmissions, not retransmits).
    pub fn msgs_sent(&self) -> u64 {
        self.msgs_sent.load(Ordering::Relaxed)
    }

    /// Bytes sent by this rank (first transmissions, not retransmits).
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.load(Ordering::Relaxed)
    }

    /// Messages delivered to this rank (post dedup/reorder).
    pub fn msgs_received(&self) -> u64 {
        self.msgs_received.load(Ordering::Relaxed)
    }

    /// Bytes delivered to this rank (post dedup/reorder).
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received.load(Ordering::Relaxed)
    }

    /// Number of sends that found no free send buffer and had to wait.
    pub fn send_stalls(&self) -> u64 {
        self.send_stalls.load(Ordering::Relaxed)
    }

    /// Total time spent stalled in sends.
    pub fn stall_time(&self) -> Duration {
        Duration::from_nanos(self.stall_ns.load(Ordering::Relaxed))
    }

    /// Data frames retransmitted after an ack timeout.
    pub fn retransmits(&self) -> u64 {
        self.retransmits.load(Ordering::Relaxed)
    }

    /// Arrived data frames discarded as already-delivered duplicates.
    pub fn dup_drops(&self) -> u64 {
        self.dup_drops.load(Ordering::Relaxed)
    }

    /// Arrived frames discarded for checksum or framing failures.
    pub fn corrupt_drops(&self) -> u64 {
        self.corrupt_drops.load(Ordering::Relaxed)
    }

    /// Acks transmitted by this rank.
    pub fn acks_sent(&self) -> u64 {
        self.acks_sent.load(Ordering::Relaxed)
    }

    /// Acks received by this rank.
    pub fn acks_received(&self) -> u64 {
        self.acks_received.load(Ordering::Relaxed)
    }

    /// Heartbeat frames emitted by this rank.
    pub fn heartbeats_sent(&self) -> u64 {
        self.heartbeats_sent.load(Ordering::Relaxed)
    }

    /// Heartbeat frames received (and verified) by this rank.
    pub fn heartbeats_received(&self) -> u64 {
        self.heartbeats_received.load(Ordering::Relaxed)
    }

    /// Deepest the out-of-order receive window ever grew, in frames. Only
    /// frames that arrive ahead of a gap park there (an in-order frame goes
    /// straight to the inbox), so a perfect wire reads 0.
    pub fn max_reorder_depth(&self) -> u64 {
        self.max_reorder_depth.load(Ordering::Relaxed)
    }

    /// Packets discarded by the fault injector on inbound links.
    pub fn faults_dropped(&self) -> u64 {
        self.faults_dropped.load(Ordering::Relaxed)
    }

    /// Packets duplicated by the fault injector on inbound links.
    pub fn faults_duplicated(&self) -> u64 {
        self.faults_duplicated.load(Ordering::Relaxed)
    }

    /// Packets delayed/reordered by the fault injector on inbound links.
    pub fn faults_reordered(&self) -> u64 {
        self.faults_reordered.load(Ordering::Relaxed)
    }

    /// Packets bit-flipped by the fault injector on inbound links.
    pub fn faults_corrupted(&self) -> u64 {
        self.faults_corrupted.load(Ordering::Relaxed)
    }

    /// Register every counter into `reg` under `prefix` (e.g.
    /// `"rank0.comm."`), unifying communication statistics with the run's
    /// [`MetricsRegistry`].
    pub fn register_metrics(&self, reg: &mut MetricsRegistry, prefix: &str) {
        let c = |reg: &mut MetricsRegistry, name: &str, v: u64| {
            reg.add_counter(&format!("{prefix}{name}"), v);
        };
        c(reg, "msgs_sent", self.msgs_sent());
        c(reg, "bytes_sent", self.bytes_sent());
        c(reg, "msgs_received", self.msgs_received());
        c(reg, "bytes_received", self.bytes_received());
        c(reg, "send_stalls", self.send_stalls());
        c(reg, "retransmits", self.retransmits());
        c(reg, "dup_drops", self.dup_drops());
        c(reg, "corrupt_drops", self.corrupt_drops());
        c(reg, "acks_sent", self.acks_sent());
        c(reg, "acks_received", self.acks_received());
        c(reg, "heartbeats_sent", self.heartbeats_sent());
        c(reg, "heartbeats_received", self.heartbeats_received());
        c(reg, "max_reorder_depth", self.max_reorder_depth());
        c(reg, "faults_dropped", self.faults_dropped());
        c(reg, "faults_duplicated", self.faults_duplicated());
        c(reg, "faults_reordered", self.faults_reordered());
        c(reg, "faults_corrupted", self.faults_corrupted());
        reg.set_gauge(
            &format!("{prefix}stall_time_s"),
            self.stall_time().as_secs_f64(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = CommStats::new();
        s.note_send(100);
        s.note_send(50);
        s.note_recv(100);
        s.note_stall(Duration::from_micros(5));
        assert_eq!(s.msgs_sent(), 2);
        assert_eq!(s.bytes_sent(), 150);
        assert_eq!(s.msgs_received(), 1);
        assert_eq!(s.bytes_received(), 100);
        assert_eq!(s.send_stalls(), 1);
        assert!(s.stall_time() >= Duration::from_micros(5));
    }

    #[test]
    fn reliability_counters_accumulate() {
        let s = CommStats::new();
        s.note_retransmit();
        s.note_retransmit();
        s.note_dup_drop();
        s.note_corrupt_drop();
        s.note_ack_sent();
        s.note_ack_received();
        s.note_reorder_depth(3);
        s.note_reorder_depth(7);
        s.note_reorder_depth(2);
        s.note_fault_dropped();
        s.note_fault_duplicated();
        s.note_fault_reordered();
        s.note_fault_corrupted();
        assert_eq!(s.retransmits(), 2);
        assert_eq!(s.dup_drops(), 1);
        assert_eq!(s.corrupt_drops(), 1);
        assert_eq!(s.acks_sent(), 1);
        assert_eq!(s.acks_received(), 1);
        assert_eq!(s.max_reorder_depth(), 7);
        assert_eq!(s.faults_dropped(), 1);
        assert_eq!(s.faults_duplicated(), 1);
        assert_eq!(s.faults_reordered(), 1);
        assert_eq!(s.faults_corrupted(), 1);
    }

    #[test]
    fn registry_export_carries_all_counters() {
        let s = CommStats::new();
        s.note_send(64);
        s.note_retransmit();
        let mut reg = MetricsRegistry::new();
        s.register_metrics(&mut reg, "rank1.comm.");
        assert_eq!(reg.counter("rank1.comm.msgs_sent"), Some(1));
        assert_eq!(reg.counter("rank1.comm.bytes_sent"), Some(64));
        assert_eq!(reg.counter("rank1.comm.retransmits"), Some(1));
        assert!(reg.gauge("rank1.comm.stall_time_s").is_some());
        assert!(reg.names_with_prefix("rank1.comm.").count() >= 16);
    }
}
