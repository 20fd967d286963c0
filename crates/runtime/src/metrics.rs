//! A unified metrics registry: every counter the runtime family reports —
//! [`RunStats`], `CommStats` (dpgen-mpisim), [`crate::memory::MemoryStats`]
//! and the [`crate::trace::Timeline`] derivations — behind one named
//! counter/gauge/histogram interface.
//!
//! Before this module, each subsystem exposed its own struct of ad-hoc
//! fields and every consumer (dpgen-bench tables, examples, CI smoke runs)
//! hand-picked fields with bespoke formatting. A [`MetricsRegistry`] is a
//! flat `name → value` map with stable, sorted iteration, so reports can
//! render *everything* generically and diffing two runs is a line-by-line
//! text diff. Names are dot-separated paths, conventionally
//! `rank{r}.<subsystem>.<metric>` with cross-rank sums under `total.`.

use crate::stats::RunStats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Number of log₂ buckets in a [`Histogram`] — values up to 2³¹ land in
/// distinct buckets, anything larger clamps into the last one.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A fixed-size log-scale histogram of `u64` samples.
///
/// Bucket `k` holds samples whose value `v` satisfies `⌊log₂(max(v,1))⌋ = k`,
/// i.e. `[2^k, 2^(k+1))` (bucket 0 also holds 0). Fixed buckets mean two
/// histograms from different runs merge bucket-by-bucket and render
/// identically — no adaptive boundaries to reconcile.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket a value falls into: `⌊log₂(max(v,1))⌋`, clamped.
    pub fn bucket_of(v: u64) -> usize {
        (63 - (v | 1).leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Inclusive value range covered by bucket `k`.
    pub fn bucket_bounds(k: usize) -> (u64, u64) {
        let lo = if k == 0 { 0 } else { 1u64 << k };
        let hi = if k >= HISTOGRAM_BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << (k + 1)) - 1
        };
        (lo, hi)
    }

    /// Record one sample.
    pub fn observe(&mut self, v: u64) {
        self.buckets[Histogram::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Raw bucket counts.
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Approximate quantile: the upper bound of the bucket containing the
    /// `q`-th sample (`q` in `[0, 1]`). Exact to within one power of two.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (k, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Histogram::bucket_bounds(k).1.min(self.max);
            }
        }
        self.max
    }

    /// Merge another histogram into this one, bucket by bucket.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// One-line render: count, mean, min/p50/p99/max.
    pub fn render(&self) -> String {
        if self.count == 0 {
            return "empty".to_string();
        }
        format!(
            "n={} mean={:.1} min={} p50≤{} p99≤{} max={}",
            self.count,
            self.mean(),
            self.min(),
            self.quantile(0.5),
            self.quantile(0.99),
            self.max()
        )
    }
}

/// One named metric.
#[derive(Debug, Clone)]
pub enum Metric {
    /// A monotone count (tiles executed, bytes sent, …).
    Counter(u64),
    /// A point-in-time or derived value (fractions, rates, peaks).
    Gauge(f64),
    /// A distribution of samples (boxed: a `Histogram` is an order of
    /// magnitude larger than the other variants, and most entries are
    /// counters or gauges).
    Histogram(Box<Histogram>),
}

/// A flat, sorted `name → metric` map unifying every subsystem's counters.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    entries: BTreeMap<String, Metric>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Add to a counter, creating it at zero first if needed. Registering
    /// a counter over an existing gauge/histogram replaces it.
    pub fn add_counter(&mut self, name: &str, delta: u64) {
        match self.entries.get_mut(name) {
            Some(Metric::Counter(c)) => *c += delta,
            _ => {
                self.entries
                    .insert(name.to_string(), Metric::Counter(delta));
            }
        }
    }

    /// Set a gauge (last write wins).
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.entries.insert(name.to_string(), Metric::Gauge(value));
    }

    /// Record one sample into a named histogram, creating it if needed.
    pub fn observe(&mut self, name: &str, value: u64) {
        match self.entries.get_mut(name) {
            Some(Metric::Histogram(h)) => h.observe(value),
            _ => {
                let mut h = Histogram::new();
                h.observe(value);
                self.entries
                    .insert(name.to_string(), Metric::Histogram(Box::new(h)));
            }
        }
    }

    /// Insert a prebuilt histogram (replacing any existing metric).
    pub fn set_histogram(&mut self, name: &str, h: Histogram) {
        self.entries
            .insert(name.to_string(), Metric::Histogram(Box::new(h)));
    }

    /// Look up a metric by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.entries.get(name)
    }

    /// Counter value, or `None` if absent or not a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.entries.get(name) {
            Some(Metric::Counter(c)) => Some(*c),
            _ => None,
        }
    }

    /// Gauge value, or `None` if absent or not a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.entries.get(name) {
            Some(Metric::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// Histogram, or `None` if absent or not a histogram.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        match self.entries.get(name) {
            Some(Metric::Histogram(h)) => Some(h.as_ref()),
            _ => None,
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate in sorted name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Names with a given prefix, in sorted order.
    pub fn names_with_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.entries
            .keys()
            .filter(move |k| k.starts_with(prefix))
            .map(|k| k.as_str())
    }

    /// Merge another registry: counters add, gauges overwrite, histograms
    /// merge bucket-by-bucket.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, m) in other.iter() {
            match m {
                Metric::Counter(c) => self.add_counter(name, *c),
                Metric::Gauge(g) => self.set_gauge(name, *g),
                Metric::Histogram(h) => match self.entries.get_mut(name) {
                    Some(Metric::Histogram(mine)) => mine.merge(h),
                    _ => self.set_histogram(name, (**h).clone()),
                },
            }
        }
    }

    /// Register every [`RunStats`] counter and derived fraction under
    /// `prefix` (e.g. `rank0.`).
    pub fn record_run_stats(&mut self, prefix: &str, s: &RunStats) {
        let c = |reg: &mut MetricsRegistry, name: &str, v: u64| {
            reg.add_counter(&format!("{prefix}{name}"), v);
        };
        c(self, "tiles_executed", s.tiles_executed);
        c(self, "cells_computed", s.cells_computed);
        c(self, "interior_cells", s.interior_cells);
        c(self, "boundary_cells", s.boundary_cells);
        c(self, "tile_buffers_allocated", s.tile_buffers_allocated);
        c(self, "tile_buffers_reused", s.tile_buffers_reused);
        c(self, "edge_payloads_allocated", s.edge_payloads_allocated);
        c(self, "edge_payloads_reused", s.edge_payloads_reused);
        c(self, "edges_local", s.edges_local);
        c(self, "edges_remote", s.edges_remote);
        c(self, "edge_cells_packed", s.edge_cells_packed);
        c(self, "steal_count", s.steal_count);
        c(self, "steal_fail_count", s.steal_fail_count);
        c(self, "runs_batched", s.runs_batched);
        c(self, "cells_batched", s.cells_batched);
        c(self, "blocks_evaluated", s.blocks_evaluated);
        // The recordings belong to the plan's tile graph, not to a rank:
        // exported unprefixed, the builds summed over every rank recorded.
        self.add_counter("runtime.geom_builds", s.geom_builds);
        self.set_gauge("runtime.geom_classes", s.geom_classes as f64);
        let g = |reg: &mut MetricsRegistry, name: &str, v: f64| {
            reg.set_gauge(&format!("{prefix}{name}"), v);
        };
        g(self, "init_time_s", s.init_time.as_secs_f64());
        g(self, "total_time_s", s.total_time.as_secs_f64());
        g(self, "idle_time_s", s.idle_time.as_secs_f64());
        g(self, "lock_wait_time_s", s.lock_wait_time.as_secs_f64());
        g(self, "idle_fraction", s.idle_fraction());
        g(self, "steal_fraction", s.steal_fraction());
        // The schedule mode the rank ran as its stable code (0 dynamic,
        // 1 static).
        g(self, "schedule_mode", s.schedule.code() as f64);
        g(self, "interior_fraction", s.interior_fraction());
        g(self, "mean_run_len", s.mean_run_len());
        g(self, "buffer_reuse_fraction", s.buffer_reuse_fraction());
        g(self, "worker_imbalance", s.worker_imbalance());
        g(self, "cells_per_sec", s.cells_per_sec());
        g(self, "peak_pending_tiles", s.peak_pending_tiles as f64);
        g(self, "peak_edges", s.peak_edges as f64);
        g(self, "peak_edge_cells", s.peak_edge_cells as f64);
        g(self, "peak_live_tiles", s.peak_live_tiles as f64);
        g(self, "peak_live_tile_cells", s.peak_live_tile_cells as f64);
        for (w, &n) in s.tiles_per_worker.iter().enumerate() {
            self.add_counter(&format!("{prefix}worker{w}.tiles"), n);
        }
    }

    /// Render every metric, one aligned `name value` line per entry.
    pub fn render(&self) -> String {
        let width = self.entries.keys().map(|k| k.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (name, m) in &self.entries {
            let _ = match m {
                Metric::Counter(c) => writeln!(out, "{name:width$}  {c}"),
                Metric::Gauge(g) => writeln!(out, "{name:width$}  {g:.6}"),
                Metric::Histogram(h) => writeln!(out, "{name:width$}  {}", h.render()),
            };
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 0);
        assert_eq!(Histogram::bucket_of(2), 1);
        assert_eq!(Histogram::bucket_of(3), 1);
        assert_eq!(Histogram::bucket_of(4), 2);
        assert_eq!(Histogram::bucket_of(1023), 9);
        assert_eq!(Histogram::bucket_of(1024), 10);
        assert_eq!(Histogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
        for k in 0..HISTOGRAM_BUCKETS {
            let (lo, hi) = Histogram::bucket_bounds(k);
            assert_eq!(Histogram::bucket_of(lo), k);
            assert_eq!(Histogram::bucket_of(hi), k);
        }
    }

    #[test]
    fn histogram_stats_and_quantiles() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 100, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1106);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 221.2).abs() < 1e-9);
        // p50 lands in the bucket of 3 ([2,3]).
        assert!(h.quantile(0.5) <= 3);
        assert_eq!(h.quantile(1.0), 1000);
        let empty = Histogram::new();
        assert_eq!(empty.quantile(0.5), 0);
        assert_eq!(empty.min(), 0);
        assert_eq!(empty.render(), "empty");
    }

    #[test]
    fn histogram_merge_adds_buckets() {
        let mut a = Histogram::new();
        a.observe(5);
        let mut b = Histogram::new();
        b.observe(500);
        b.observe(7);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), 5);
        assert_eq!(a.max(), 500);
        assert_eq!(a.buckets()[2], 2); // 5 and 7 share [4,7]
    }

    #[test]
    fn registry_counters_gauges_histograms() {
        let mut r = MetricsRegistry::new();
        r.add_counter("a.tiles", 3);
        r.add_counter("a.tiles", 4);
        r.set_gauge("a.busy", 0.5);
        r.observe("a.latency", 10);
        r.observe("a.latency", 20);
        assert_eq!(r.counter("a.tiles"), Some(7));
        assert_eq!(r.gauge("a.busy"), Some(0.5));
        assert_eq!(r.histogram("a.latency").unwrap().count(), 2);
        assert_eq!(r.counter("a.busy"), None);
        assert_eq!(r.len(), 3);
        let names: Vec<&str> = r.names_with_prefix("a.").collect();
        assert_eq!(names, vec!["a.busy", "a.latency", "a.tiles"]);
        let rendered = r.render();
        assert!(rendered.contains("a.tiles"), "{rendered}");
        assert!(rendered.contains('7'), "{rendered}");
    }

    #[test]
    fn registry_merge() {
        let mut a = MetricsRegistry::new();
        a.add_counter("n", 1);
        a.observe("h", 4);
        let mut b = MetricsRegistry::new();
        b.add_counter("n", 2);
        b.set_gauge("g", 1.5);
        b.observe("h", 8);
        a.merge(&b);
        assert_eq!(a.counter("n"), Some(3));
        assert_eq!(a.gauge("g"), Some(1.5));
        assert_eq!(a.histogram("h").unwrap().count(), 2);
    }

    #[test]
    fn run_stats_register_under_prefix() {
        let s = RunStats {
            tiles_executed: 10,
            cells_computed: 100,
            tiles_per_worker: vec![6, 4],
            threads: 2,
            total_time: std::time::Duration::from_millis(10),
            ..Default::default()
        };
        let mut r = MetricsRegistry::new();
        r.record_run_stats("rank0.", &s);
        assert_eq!(r.counter("rank0.tiles_executed"), Some(10));
        assert_eq!(r.counter("rank0.worker1.tiles"), Some(4));
        assert!(r.gauge("rank0.total_time_s").unwrap() > 0.0);
        // Totals accumulate across ranks.
        r.record_run_stats("total.", &s);
        r.record_run_stats("total.", &s);
        assert_eq!(r.counter("total.cells_computed"), Some(200));
    }
}
