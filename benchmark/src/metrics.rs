//! The metric tables. `BENCHMARK.json` lists the same names and units; a
//! unit test keeps the two in step.

use std::collections::BTreeMap;

/// End-to-end metrics: what a user of the system sees. Same four on every
/// workload, measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_ms", "ms"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, from the traced pass. Recorded, never gated. A metric
/// that does not apply to a workload reads 0 there (the README's table says
/// which workload owns which group).
pub const PER_LAYER: &[(&str, &str)] = &[
    // Compile path: moves compile_paper/op_ms, every setup_s, and the cold
    // jobs of serve_mixed/op_ms.
    ("core.parse_ms", "ms"),
    ("polyhedra.system_ms", "ms"),
    ("tiling.build_ms", "ms"),
    ("core.uniform_ms", "ms"),
    ("core.loadbalance_ms", "ms"),
    ("core.lb_imbalance", "ratio"),
    ("runtime.static_plan_ms", "ms"),
    ("core.warm_ms", "ms"),
    ("codegen.emit_ms", "ms"),
    ("codegen.emit_bytes", "B"),
    ("tiling.tiles", "count"),
    // Shared-memory execution: moves lcs_batched/op_ms (scan, kernel) and
    // lcs_percell_fine/op_ms (dispatch).
    ("tiling.scan_runs_ns_per_cell", "ns"),
    ("tiling.scan_cell_ns_per_cell", "ns"),
    ("runtime.null_exec_ns_per_tile", "ns"),
    ("problems.kernel_ns_per_cell", "ns"),
    ("runtime.sched_ns_per_tile", "ns"),
    ("runtime.idle_frac", "ratio"),
    ("runtime.lock_wait_frac", "ratio"),
    ("runtime.init_frac", "ratio"),
    ("runtime.steal_count", "count"),
    ("runtime.interior_frac", "ratio"),
    ("runtime.mean_run_len", "cells"),
    ("runtime.buffer_reuse_frac", "ratio"),
    ("runtime.thread_scaling", "ratio"),
    ("trace.spans_overhead_frac", "ratio"),
    ("ceiling.roofline_ms", "ms"),
    ("ceiling.roofline_frac", "ratio"),
    // Hybrid execution: moves bandit2_hybrid/op_ms.
    ("mpisim.bytes_sent", "B"),
    ("mpisim.frames", "count"),
    ("mpisim.acks", "count"),
    ("mpisim.retransmits", "count"),
    ("mpisim.pingpong_us", "us"),
    ("runtime.edges_remote", "count"),
    ("runtime.edge_cells_packed", "cells"),
    ("core.hybrid_rank_idle_frac", "ratio"),
    ("core.hybrid_vs_shared", "ratio"),
    // Serve engine: moves serve_mixed/op_ms.
    ("serve.submit_us", "us"),
    ("serve.cache_hit_us", "us"),
    ("serve.cache_miss_us", "us"),
    ("serve.hit_rate", "ratio"),
    ("serve.evictions", "count"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.exec_p50_us", "us"),
    ("serve.job_p99_us", "us"),
    // Discrete-event simulator: moves des_scaling/op_ms.
    ("des.tiles", "count"),
    ("des.tile_enum_ms", "ms"),
    ("des.sim_ms_per_ktile", "ms"),
    ("des.model_error", "ratio"),
    // Every workload: the shape of the timed samples and of the host.
    ("e2e.op_p75_ms", "ms"),
    ("e2e.op_min_ms", "ms"),
    ("e2e.op_iqr_frac", "ratio"),
    ("e2e.setup_first_s", "s"),
    ("host.calib_ms", "ms"),
    ("host.noise_frac", "ratio"),
    ("host.nproc", "count"),
];

/// Named values of one run; every name must be in one of the tables.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        let (known, _) = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the tables"));
        self.0.insert(known, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Accumulate (a workload over several specs reports sums).
    pub fn add(&mut self, name: &str, value: f64) {
        self.set(name, self.get(name).unwrap_or(0.0) + value);
    }

    /// Keep the worst (largest) of several observations.
    pub fn set_max(&mut self, name: &str, value: f64) {
        self.set(name, self.get(name).map_or(value, |v| v.max(value)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_and_units(v: &serde_json::Value, key: &str) -> Vec<(String, String)> {
        v[key]
            .as_array()
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().unwrap().to_string(),
                    m["unit"].as_str().unwrap().to_string(),
                )
            })
            .collect()
    }

    fn table(t: &[(&str, &str)]) -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let v = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let mut e2e = names_and_units(&v, "end_to_end");
        let mut want = table(END_TO_END);
        e2e.sort();
        want.sort();
        assert_eq!(e2e, want);
        assert_eq!(names_and_units(&v, "per_layer"), table(PER_LAYER));
        let workloads: Vec<&str> = v["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w["name"].as_str().unwrap())
            .collect();
        assert_eq!(workloads, crate::GATED);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    #[should_panic(expected = "not in the tables")]
    fn unknown_names_are_rejected() {
        Metrics::default().set("no.such_metric", 1.0);
    }
}
