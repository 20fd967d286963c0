//! The consolidated run entry point: [`RunBuilder`] and [`RunOutput`].
//!
//! One fluent surface over a problem and its [`ExecOpts`],
//! whatever the rank and thread counts:
//!
//! ```
//! use dpgen_core::Program;
//! use dpgen_runtime::{Probe, TraceLevel};
//! use dpgen_tiling::tiling::CellRef;
//!
//! fn step(cell: CellRef<'_>, values: &mut [f64]) {
//!     values[cell.loc] = if cell.valid[0] {
//!         values[cell.loc_r(0)] + 1.0
//!     } else {
//!         0.0
//!     };
//! }
//!
//! let spec = "name chain\nvars x\nparams N\nconstraint x >= 0\n\
//!             constraint x <= N\ntemplate r 1\nwidths 4\n";
//! let program = Program::parse(spec).unwrap();
//! let out = program
//!     .runner(&[30])
//!     .threads(2)
//!     .ranks(2)
//!     .trace(TraceLevel::Spans)
//!     .probe(Probe::at(&[0]))
//!     .run(&step)
//!     .unwrap();
//! assert_eq!(out.probes[0], Some(30.0));
//! assert!(out.timeline.is_some());
//! ```
//!
//! Every mode lands in the same [`RunOutput`], which also carries the
//! run's unified [`MetricsRegistry`] and (when tracing is on) the merged
//! [`Timeline`].

use crate::driver::{RecoveryConfig, RecoveryStats};
use crate::loadbalance::{BalanceMethod, LoadBalance};
use crate::plan::{execute_parts, ExecOpts, PlanMemo};
use dpgen_mpisim::{CommConfig, CommStats, ReliabilityConfig, Wire};
use dpgen_runtime::{
    Kernel, MetricsRegistry, NodeResult, PerCell, Probe, Reduction, ReferenceResult, RunError,
    RunKernel, Schedule, TilePriority, Timeline, TraceConfig, TraceLevel, Value,
};
use dpgen_tiling::Tiling;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

/// Fluent configuration for a one-shot run: a problem (`tiling`, `params`,
/// load-balancing dimensions, optional reduction) plus one [`ExecOpts`].
/// Build one with [`crate::Program::runner`] or [`RunBuilder::on_tiling`],
/// set the knobs you care about, and finish with [`RunBuilder::run`].
///
/// Every execution knob is an [`ExecOpts`] field, documented there; the
/// setters here forward to the `ExecOpts` method of the same name. Mode
/// selection is [`ExecOpts`]'s: [`serial`](RunBuilder::serial) runs the
/// untiled reference executor, everything else the one tiled driver.
pub struct RunBuilder<'a, T> {
    tiling: &'a Tiling,
    params: &'a [i64],
    lb_dims: Vec<usize>,
    reduce: Option<&'a Reduction<T>>,
    opts: ExecOpts,
}

impl<'a, T> RunBuilder<'a, T> {
    /// A builder over a raw [`Tiling`] (the core-level entry point;
    /// [`crate::Program::runner`] also seeds the load-balancing
    /// dimensions from the spec).
    pub fn on_tiling(tiling: &'a Tiling, params: &'a [i64]) -> RunBuilder<'a, T> {
        RunBuilder {
            tiling,
            params,
            lb_dims: Vec::new(),
            reduce: None,
            opts: ExecOpts::new(),
        }
    }

    /// See [`ExecOpts::threads`].
    pub fn threads(mut self, threads: usize) -> Self {
        self.opts = self.opts.threads(threads);
        self
    }

    /// See [`ExecOpts::ranks`].
    pub fn ranks(mut self, ranks: usize) -> Self {
        self.opts = self.opts.ranks(ranks);
        self
    }

    /// See [`ExecOpts::serial`].
    pub fn serial(mut self) -> Self {
        self.opts = self.opts.serial();
        self
    }

    /// See [`ExecOpts::probe`].
    pub fn probe(mut self, probe: Probe) -> Self {
        self.opts = self.opts.probe(probe);
        self
    }

    /// See [`ExecOpts::priority`].
    pub fn priority(mut self, priority: TilePriority) -> Self {
        self.opts = self.opts.priority(priority);
        self
    }

    /// See [`ExecOpts::schedule`].
    pub fn schedule(mut self, schedule: Schedule) -> Self {
        self.opts = self.opts.schedule(schedule);
        self
    }

    /// See [`ExecOpts::balance`].
    pub fn balance(mut self, balance: BalanceMethod) -> Self {
        self.opts = self.opts.balance(balance);
        self
    }

    /// See [`ExecOpts::comm`].
    pub fn comm(mut self, comm: CommConfig) -> Self {
        self.opts = self.opts.comm(comm);
        self
    }

    /// See [`ExecOpts::reliability`].
    pub fn reliability(mut self, reliability: ReliabilityConfig) -> Self {
        self.opts = self.opts.reliability(reliability);
        self
    }

    /// See [`ExecOpts::stall_timeout`].
    pub fn stall_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.opts = self.opts.stall_timeout(timeout);
        self
    }

    /// See [`ExecOpts::recovery`].
    pub fn recovery(mut self, recovery: RecoveryConfig) -> Self {
        self.opts = self.opts.recovery(recovery);
        self
    }

    /// See [`ExecOpts::trace`].
    pub fn trace(mut self, level: TraceLevel) -> Self {
        self.opts = self.opts.trace(level);
        self
    }

    /// See [`ExecOpts::cancel`].
    pub fn cancel(mut self, flag: Arc<AtomicBool>) -> Self {
        self.opts = self.opts.cancel(flag);
        self
    }

    /// Full trace configuration (level plus per-worker ring capacity).
    pub fn trace_config(mut self, trace: TraceConfig) -> Self {
        self.opts.trace = trace;
        self
    }

    /// Load-balancing dimensions used for the default priority and slab
    /// partitioning ([`crate::Program::runner`] seeds this from the spec).
    pub fn lb_dims(mut self, lb_dims: Vec<usize>) -> Self {
        self.lb_dims = lb_dims;
        self
    }

    /// Whole-space reduction folded over every computed cell; the merged
    /// value lands in [`RunOutput::reduction`].
    pub fn reduce(mut self, reduce: &'a Reduction<T>) -> Self {
        self.reduce = Some(reduce);
        self
    }
}

impl<'a, T: Value + Wire> RunBuilder<'a, T> {
    /// Execute the configured run with a per-cell kernel (lifted with
    /// [`PerCell`]: interior runs replay through `Kernel::compute`). Every
    /// mode funnels into the same [`RunOutput`]; failures (kernel panics,
    /// stalls, transport errors) surface as a typed [`RunError`] with
    /// tile/rank context.
    pub fn run<K>(self, kernel: &K) -> Result<RunOutput<T>, RunError>
    where
        K: Kernel<T>,
    {
        self.run_batched(&PerCell(kernel))
    }

    /// Execute with a [`RunKernel`]: every interior run isolated by the
    /// tile scan is handed whole to `RunKernel::eval_run`, so a
    /// hand-batched kernel can evaluate it as one tight counted loop.
    /// Boundary cells always go through the per-cell `Kernel::compute`.
    /// The serial executor has no tiles and therefore no runs: it falls
    /// back to per-cell execution (same results, `runs_batched == 0`).
    pub fn run_batched<RK>(self, kernel: &RK) -> Result<RunOutput<T>, RunError>
    where
        RK: RunKernel<T>,
    {
        // One-shot: a fresh memo used once. A compiled plan reaches the
        // same engine with the memo it keeps.
        execute_parts(
            self.tiling,
            self.params,
            &self.lb_dims,
            &PlanMemo::default(),
            &self.opts,
            kernel,
            self.reduce,
        )
    }
}

/// The uniform outcome of a [`RunBuilder`] run, whatever the mode.
pub struct RunOutput<T> {
    /// Probe values (a probe is `None` only if outside the iteration
    /// space).
    pub probes: Vec<Option<T>>,
    /// The whole-space reduction, when one was supplied.
    pub reduction: Option<T>,
    /// Per-rank node results (empty for serial runs).
    pub per_rank: Vec<NodeResult<T>>,
    /// Per-rank communication statistics (`ranks > 1` only: one rank has
    /// no interconnect).
    pub comm_stats: Vec<Arc<CommStats>>,
    /// The load balance used (`ranks > 1` only).
    pub balance: Option<LoadBalance>,
    /// The dense reference result (serial runs only).
    pub reference: Option<ReferenceResult<T>>,
    /// The merged event timeline, when tracing ran at
    /// [`TraceLevel::Spans`] or above.
    pub timeline: Option<Timeline>,
    /// Unified run/comm/trace metrics, keyed `rank{r}.…`,
    /// `rank{r}.comm.…` and `trace.…`.
    pub metrics: MetricsRegistry,
    /// Wall time of the whole run, from before its schedule artifacts
    /// (static plan, load balance) are derived or looked up.
    pub total_time: Duration,
    /// Time spent obtaining the load balance (`ranks > 1` only): the
    /// balancer itself on a plan's first such execution, a memo lookup
    /// after.
    pub balance_time: Duration,
    /// What the recovery coordinator did (all zeros but `epochs` unless
    /// [`RunBuilder::recovery`] was enabled at `ranks > 1`).
    pub recovery: RecoveryStats,
}

impl<T: std::fmt::Debug> std::fmt::Debug for RunOutput<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunOutput")
            .field("probes", &self.probes)
            .field("reduction", &self.reduction)
            .field("ranks", &self.per_rank.len())
            .field("traced", &self.timeline.is_some())
            .field("total_time", &self.total_time)
            .finish_non_exhaustive()
    }
}

impl<T> RunOutput<T> {
    /// Aggregate cells computed across ranks (or by the reference run).
    pub fn cells_computed(&self) -> u64
    where
        T: Copy,
    {
        if let Some(r) = &self.reference {
            return r.cells_computed();
        }
        self.per_rank.iter().map(|r| r.stats.cells_computed).sum()
    }

    /// Aggregate remote edges sent (nonzero only for multi-rank runs).
    pub fn edges_remote(&self) -> u64 {
        self.per_rank.iter().map(|r| r.stats.edges_remote).sum()
    }

    /// Aggregate bytes sent over the simulated interconnect.
    pub fn bytes_sent(&self) -> u64 {
        self.comm_stats.iter().map(|s| s.bytes_sent()).sum()
    }

    /// Aggregate retransmitted frames (nonzero only under injected
    /// faults).
    pub fn retransmits(&self) -> u64 {
        self.comm_stats.iter().map(|s| s.retransmits()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpgen_polyhedra::{ConstraintSystem, Space};
    use dpgen_tiling::tiling::CellRef;
    use dpgen_tiling::{Template, TemplateSet, TilingBuilder};

    fn triangle(w: i64) -> Tiling {
        let space = Space::from_names(&["x", "y"], &["N"]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        sys.add_text("x >= 0").unwrap();
        sys.add_text("y >= 0").unwrap();
        sys.add_text("x + y <= N").unwrap();
        let templates = TemplateSet::new(
            2,
            vec![Template::new("r1", &[1, 0]), Template::new("r2", &[0, 1])],
        )
        .unwrap();
        TilingBuilder::new(sys, templates, vec![w, w])
            .build()
            .unwrap()
    }

    fn path_kernel(cell: CellRef<'_>, values: &mut [f64]) {
        let a = if cell.valid[0] {
            values[cell.loc_r(0)]
        } else {
            1.0
        };
        let b = if cell.valid[1] {
            values[cell.loc_r(1)]
        } else {
            1.0
        };
        values[cell.loc] = a + b;
    }

    #[test]
    fn all_modes_agree() {
        let n = 16i64;
        let tiling = triangle(3);
        let probe = Probe::many(&[&[0, 0], &[n, 0]]);
        let serial = RunBuilder::<f64>::on_tiling(&tiling, &[n])
            .serial()
            .probe(probe.clone())
            .run(&path_kernel)
            .unwrap();
        let want = serial.probes[0].unwrap();
        assert!(serial.reference.is_some());
        assert!(serial.cells_computed() > 0);

        let shared = RunBuilder::on_tiling(&tiling, &[n])
            .threads(3)
            .probe(probe.clone())
            .run(&path_kernel)
            .unwrap();
        assert_eq!(shared.probes, serial.probes);
        assert_eq!(shared.per_rank.len(), 1);
        assert!(shared.metrics.counter("rank0.cells_computed").is_some());

        let hybrid = RunBuilder::on_tiling(&tiling, &[n])
            .threads(2)
            .ranks(3)
            .probe(probe)
            .run(&path_kernel)
            .unwrap();
        assert_eq!(hybrid.probes[0], Some(want));
        assert!(hybrid.balance.is_some());
        assert!(hybrid.edges_remote() > 0);
        assert!(hybrid.metrics.counter("rank2.comm.msgs_sent").is_some());
    }

    fn grid(w: i64) -> Tiling {
        let space = Space::from_names(&["x", "y"], &["N"]).unwrap();
        let mut sys = ConstraintSystem::new(space);
        sys.add_text("0 <= x <= N").unwrap();
        sys.add_text("0 <= y <= N").unwrap();
        let templates = TemplateSet::new(
            2,
            vec![Template::new("r1", &[1, 0]), Template::new("r2", &[0, 1])],
        )
        .unwrap();
        TilingBuilder::new(sys, templates, vec![w, w])
            .build()
            .unwrap()
    }

    #[test]
    fn schedule_resolution_applies_the_uniform_slab_rule() {
        // A 16x16 grid in 4x4 tiles is slab-uniform: requested Static
        // sticks, nothing is stolen, and results match the dynamic run.
        let n = 15i64;
        let tiling = grid(4);
        let probe = Probe::at(&[0, 0]);
        let dynamic = RunBuilder::<f64>::on_tiling(&tiling, &[n])
            .threads(4)
            .probe(probe.clone())
            .run(&path_kernel)
            .unwrap();
        let stat = RunBuilder::<f64>::on_tiling(&tiling, &[n])
            .threads(4)
            .schedule(Schedule::Static)
            .probe(probe.clone())
            .run(&path_kernel)
            .unwrap();
        assert_eq!(stat.probes, dynamic.probes);
        let s = &stat.per_rank[0].stats;
        assert_eq!(s.schedule, Schedule::Static);
        assert_eq!(s.tiles_static, s.tiles_executed);
        assert_eq!(s.steal_count, 0);
        assert_eq!(
            stat.metrics.gauge("rank0.schedule_mode"),
            Some(Schedule::Static.code() as f64)
        );

        // The triangle's slabs shrink toward the hypotenuse: the same
        // request falls back to Dynamic. Mixed applies regardless.
        let tri = triangle(2);
        let tri_dynamic = RunBuilder::<f64>::on_tiling(&tri, &[n])
            .threads(2)
            .probe(probe.clone())
            .run(&path_kernel)
            .unwrap();
        let fallback = RunBuilder::<f64>::on_tiling(&tri, &[n])
            .threads(2)
            .schedule(Schedule::Static)
            .probe(probe.clone())
            .run(&path_kernel)
            .unwrap();
        assert_eq!(fallback.per_rank[0].stats.schedule, Schedule::Dynamic);
        assert_eq!(fallback.per_rank[0].stats.tiles_static, 0);
        assert_eq!(fallback.probes, tri_dynamic.probes);
        let mixed = RunBuilder::<f64>::on_tiling(&tri, &[n])
            .threads(2)
            .schedule(Schedule::Mixed)
            .probe(probe.clone())
            .run(&path_kernel)
            .unwrap();
        let m = &mixed.per_rank[0].stats;
        assert_eq!(m.schedule, Schedule::Mixed);
        assert!(m.tiles_static > 0 && m.tiles_dynamic > 0);
        assert_eq!(mixed.probes, tri_dynamic.probes);

        // Hybrid: the resolved mode reaches every rank.
        let hybrid = RunBuilder::<f64>::on_tiling(&tiling, &[n])
            .threads(2)
            .ranks(2)
            .schedule(Schedule::Static)
            .probe(probe)
            .run(&path_kernel)
            .unwrap();
        assert_eq!(hybrid.probes, dynamic.probes);
        for r in &hybrid.per_rank {
            assert_eq!(r.stats.schedule, Schedule::Static);
            assert_eq!(r.stats.tiles_static, r.stats.tiles_executed);
            assert_eq!(r.stats.steal_count, 0);
        }
    }

    /// A run kernel that is its own type (so its runs count as batched)
    /// but keeps the default per-cell `eval_run`.
    struct PathRuns;

    impl Kernel<f64> for PathRuns {
        fn compute(&self, cell: CellRef<'_>, values: &mut [f64]) {
            path_kernel(cell, values)
        }
    }

    impl RunKernel<f64> for PathRuns {}

    #[test]
    fn batched_path_is_bit_identical_across_widths() {
        // A run kernel with the default per-cell `eval_run` must replay
        // the scan exactly: same probes, same cell counts, across widths
        // that exercise degenerate single-cell runs (w = 1) up to
        // multi-run tiles, on both the shared and the hybrid executors.
        let n = 17i64;
        for w in 1..=5i64 {
            let tiling = triangle(w);
            let probe = Probe::many(&[&[0, 0], &[n, 0], &[3, 4]]);
            let per_cell = RunBuilder::<f64>::on_tiling(&tiling, &[n])
                .threads(2)
                .probe(probe.clone())
                .run(&path_kernel)
                .unwrap();
            let batched = RunBuilder::<f64>::on_tiling(&tiling, &[n])
                .threads(2)
                .probe(probe.clone())
                .run_batched(&PathRuns)
                .unwrap();
            assert_eq!(batched.probes, per_cell.probes, "w={w}");
            assert_eq!(batched.cells_computed(), per_cell.cells_computed());
            let s = &batched.per_rank[0].stats;
            assert_eq!(s.cells_batched, s.interior_cells, "w={w}");
            assert_eq!(s.runs_batched > 0, s.interior_cells > 0, "w={w}");
            assert_eq!(per_cell.per_rank[0].stats.runs_batched, 0);
            assert!(
                batched.metrics.gauge("rank0.mean_run_len").is_some(),
                "batched runs must surface the mean run length"
            );

            let hybrid = RunBuilder::<f64>::on_tiling(&tiling, &[n])
                .threads(2)
                .ranks(2)
                .probe(probe)
                .run_batched(&PathRuns)
                .unwrap();
            assert_eq!(hybrid.probes, per_cell.probes, "w={w} hybrid");
            let batched_cells: u64 = hybrid.per_rank.iter().map(|r| r.stats.cells_batched).sum();
            let interior: u64 = hybrid.per_rank.iter().map(|r| r.stats.interior_cells).sum();
            assert_eq!(batched_cells, interior, "w={w} hybrid");
        }
    }

    #[test]
    fn builder_reduce_matches_serial_fold() {
        let n = 12i64;
        let tiling = triangle(2);
        let serial_sum = {
            let r = Reduction::new(0.0f64, |a, b| a + b);
            RunBuilder::on_tiling(&tiling, &[n])
                .serial()
                .reduce(&r)
                .run(&path_kernel)
                .unwrap()
                .reduction
                .unwrap()
        };
        for ranks in [1usize, 2] {
            let r = Reduction::new(0.0f64, |a, b| a + b);
            let got = RunBuilder::on_tiling(&tiling, &[n])
                .threads(2)
                .ranks(ranks)
                .reduce(&r)
                .run(&path_kernel)
                .unwrap()
                .reduction
                .unwrap();
            assert!((got - serial_sum).abs() < 1e-9, "ranks={ranks}");
        }
    }

    #[test]
    fn tracing_produces_timeline_and_metrics() {
        let n = 14i64;
        let tiling = triangle(2);
        let out = RunBuilder::<f64>::on_tiling(&tiling, &[n])
            .threads(2)
            .ranks(2)
            .trace(TraceLevel::Full)
            .probe(Probe::at(&[0, 0]))
            .run(&path_kernel)
            .unwrap();
        let tl = out
            .timeline
            .as_ref()
            .expect("Full tracing must yield a timeline");
        assert_eq!(tl.spans.len() as u64, out.cells_computed_tiles());
        assert!(out.metrics.counter("trace.spans").is_some());
        // Off leaves the timeline empty and pays no trace bookkeeping.
        let off = RunBuilder::<f64>::on_tiling(&tiling, &[n])
            .threads(2)
            .run(&path_kernel)
            .unwrap();
        assert!(off.timeline.is_none());
        assert!(off.metrics.counter("trace.spans").is_none());
    }

    impl<T> RunOutput<T> {
        fn cells_computed_tiles(&self) -> u64 {
            self.per_rank.iter().map(|r| r.stats.tiles_executed).sum()
        }
    }
}
