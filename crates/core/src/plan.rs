//! The compile/execute split: [`Plan`], [`ExecOpts`] and the shared
//! execution engine behind [`crate::RunBuilder`].
//!
//! The paper's workflow is two-phase: the generator compiles a problem
//! description into a parallel program once, and the program is then run
//! many times. [`Plan`] is that compiled artifact as an in-process object:
//! an immutable, shareable (`Arc`) bundle of the derived tiling, the
//! parameter binding, the load-balancing dimensions and a spec hash,
//! plus lazily memoized schedule artifacts (uniform-slab verdicts, static
//! wavefront plans, hybrid load balances, a cross-run buffer recycler)
//! that make repeated execution cheaper than one-shot runs.
//!
//! ```
//! use dpgen_core::{ExecOpts, Program};
//! use dpgen_runtime::Probe;
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
//! let plan = Program::parse(spec).unwrap().compile(&[30]);
//! let opts = ExecOpts::new().threads(2).probe(Probe::at(&[0]));
//! for _ in 0..3 {
//!     let out = plan.execute(&step, &opts).unwrap();
//!     assert_eq!(out.probes[0], Some(30.0));
//! }
//! ```
//!
//! [`RunBuilder::run`](crate::RunBuilder::run) is a thin wrapper over the
//! same engine ([`execute_parts`]) with a fresh memo used once, so a
//! one-shot run and the first execution of a compiled `Plan` are the same
//! code path; the `Plan` then reuses every derivation across executions.

use crate::driver::{hybrid_run, RecoveryConfig, RecoveryStats};
use crate::loadbalance::{slabs_uniform, BalanceMethod, LoadBalance};
use crate::program::{Program, ProgramError};
use crate::run::RunOutput;
use crate::spec::ProblemSpec;
use dpgen_mpisim::{CommConfig, ReliabilityConfig, Wire};
use dpgen_polyhedra::probe_box;
use dpgen_runtime::{
    run_reference, BufferRecycler, CompileFault, CompileStage, Kernel, MetricsRegistry, PerCell,
    Probe, Reduction, RunError, RunKernel, Schedule, StaticPlan, TilePriority, TraceConfig,
    TraceLevel, Value,
};
use dpgen_tiling::{Coord, TileShape, Tiling};
use parking_lot::Mutex;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Per-execution options for [`Plan::execute`] and [`crate::RunBuilder`]:
/// everything about a run *except* the problem itself. Owned and cheaply
/// cloneable, so a resident engine can stamp one template per job. Every
/// knob lives here once; the builder's setters forward to these.
///
/// Mode selection: [`serial`](ExecOpts::serial) runs the untiled
/// reference executor; everything else is the one tiled driver, on
/// `ranks` simulated nodes of `threads` workers each.
#[derive(Debug, Clone)]
pub struct ExecOpts {
    /// Worker threads per rank (the OpenMP thread count). Default 1.
    pub threads: usize,
    /// Simulated nodes (MPI ranks). `ranks > 1` partitions the tiles with
    /// a load balance and connects the ranks over the simulated
    /// interconnect; one rank runs on the caller's thread with neither.
    /// Default 1.
    pub ranks: usize,
    /// Run the serial untiled reference executor (dense memory; validation
    /// and baselines). The dense result lands in
    /// [`RunOutput::reference`]. Threads, priority, schedule, tracing, the
    /// watchdog and the cancel flag do not apply to it; combining it with
    /// `ranks(n > 1)` is rejected.
    pub serial: bool,
    /// Global coordinates whose final values to capture.
    pub probe: Probe,
    /// Ready-queue ordering; `None` means the paper's Figure 5 default
    /// (column-major with the load-balancing dimensions first).
    pub priority: Option<TilePriority>,
    /// Requested tile scheduling mode (default [`Schedule::Dynamic`], the
    /// work-stealing heaps). [`Schedule::Static`] pins every owned tile to
    /// a precomputed per-worker wavefront sequence *when the Ehrhart load
    /// model reports uniform slabs* along the first load-balancing
    /// dimension; irregular polytopes silently fall back to `Dynamic` (the
    /// resolved mode is reported in `RunStats::schedule` and the
    /// `schedule_mode` metric). [`Schedule::Mixed`] always applies:
    /// interior tiles run statically, boundary tiles through the dynamic
    /// queue.
    pub schedule: Schedule,
    /// Communication configuration (buffer counts, reliability, fault
    /// plan) at `ranks > 1`; at least one send and one receive buffer.
    /// Ignored at one rank.
    pub comm: CommConfig,
    /// Partitioning method at `ranks > 1`; `None` means slabs over the
    /// load-balancing dimensions. Ignored at one rank.
    pub balance: Option<BalanceMethod>,
    /// Stall watchdog window; `None` disables the watchdog.
    pub stall_timeout: Option<Duration>,
    /// Event tracing: level and per-worker ring capacity
    /// ([`TraceLevel::Off`] by default). At [`TraceLevel::Spans`] and
    /// above, [`RunOutput::timeline`] carries the merged per-worker
    /// timeline.
    pub trace: TraceConfig,
    /// Elastic rank recovery at `ranks > 1`: `Some` turns on heartbeat
    /// death detection, per-rank incremental slab checkpoints, and mid-run
    /// migration of a dead rank's slab to the lowest-loaded survivor
    /// (DESIGN.md §12); the coordinator's actions land in
    /// [`RunOutput::recovery`]. `None` (the default) runs the classic
    /// fail-the-world path. Ignored at one rank.
    pub recovery: Option<RecoveryConfig>,
    /// Job-scoped cancellation flag: raise it from any thread to abort the
    /// run mid-flight with [`RunError::Cancelled`]. The runtime only reads
    /// it (it is distinct from the per-epoch world failure flag, which
    /// recovery resets), so one flag can be shared with a supervisor.
    /// `None` (default) makes the run non-cancellable.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl Default for ExecOpts {
    fn default() -> ExecOpts {
        ExecOpts::new()
    }
}

impl ExecOpts {
    /// The default options: one thread, one rank, dynamic scheduling, no
    /// probes, no tracing, the default stall watchdog.
    pub fn new() -> ExecOpts {
        ExecOpts {
            threads: 1,
            ranks: 1,
            serial: false,
            probe: Probe::default(),
            priority: None,
            schedule: Schedule::Dynamic,
            comm: CommConfig::default(),
            balance: None,
            stall_timeout: Some(dpgen_runtime::DEFAULT_STALL_TIMEOUT),
            trace: TraceConfig::default(),
            recovery: None,
            cancel: None,
        }
    }

    /// Sets [`ExecOpts::threads`] (at least 1).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets [`ExecOpts::ranks`] (at least 1).
    pub fn ranks(mut self, ranks: usize) -> Self {
        self.ranks = ranks.max(1);
        self
    }

    /// Sets [`ExecOpts::serial`].
    pub fn serial(mut self) -> Self {
        self.serial = true;
        self
    }

    /// Sets [`ExecOpts::probe`].
    pub fn probe(mut self, probe: Probe) -> Self {
        self.probe = probe;
        self
    }

    /// Sets [`ExecOpts::priority`].
    pub fn priority(mut self, priority: TilePriority) -> Self {
        self.priority = Some(priority);
        self
    }

    /// Sets [`ExecOpts::schedule`].
    pub fn schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Sets [`ExecOpts::balance`].
    pub fn balance(mut self, balance: BalanceMethod) -> Self {
        self.balance = Some(balance);
        self
    }

    /// Sets [`ExecOpts::comm`].
    pub fn comm(mut self, comm: CommConfig) -> Self {
        self.comm = comm;
        self
    }

    /// Just the reliability tunables, keeping the other comm knobs.
    pub fn reliability(mut self, reliability: ReliabilityConfig) -> Self {
        self.comm.reliability = reliability;
        self
    }

    /// Sets [`ExecOpts::stall_timeout`].
    pub fn stall_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.stall_timeout = timeout;
        self
    }

    /// Just the tracing level of [`ExecOpts::trace`].
    pub fn trace(mut self, level: TraceLevel) -> Self {
        self.trace.level = level;
        self
    }

    /// Sets [`ExecOpts::recovery`].
    pub fn recovery(mut self, recovery: RecoveryConfig) -> Self {
        self.recovery = Some(recovery);
        self
    }

    /// Sets [`ExecOpts::cancel`].
    pub fn cancel(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// A typed options fault for a combination no executor can run —
    /// options arrive from callers (a serve job's `ExecOpts`), so a bad
    /// one must not panic a resident worker.
    fn validate(&self) -> Result<(), RunError> {
        let fault = |detail: String| Err(CompileFault::new(CompileStage::Options, detail).into());
        if self.ranks == 1 {
            return Ok(()); // the multi-rank knobs are ignored
        }
        if self.serial {
            return fault(format!("serial() excludes ranks({})", self.ranks));
        }
        if self.comm.send_buffers == 0 || self.comm.recv_buffers == 0 {
            return fault(format!(
                "ranks({}) needs at least one send and one receive buffer, got {} and {}",
                self.ranks, self.comm.send_buffers, self.comm.recv_buffers
            ));
        }
        Ok(())
    }
}

/// A small linear-scan memo table: key-value pairs in insertion order.
/// The key spaces here (threads, ranks, schedule, balance method) hold a
/// handful of entries at most, so a `Vec` beats a map.
type MemoTable<K, V> = Vec<(K, V)>;

/// Memoized static wavefront plans: `None` records that the tiling was
/// judged non-uniform and the Static request silently fell back to
/// Dynamic, so later executions skip re-deriving that verdict too.
type StaticPlanMemo = MemoTable<(usize, Schedule), Option<Arc<StaticPlan>>>;

/// Lazily memoized schedule artifacts shared by every execution of one
/// compiled [`Plan`]. A one-shot [`crate::RunBuilder`] run is a fresh memo
/// used once.
#[derive(Default)]
pub(crate) struct PlanMemo {
    /// `slabs_uniform` verdicts keyed by load-balancing dimension.
    uniform: Mutex<Vec<(usize, bool)>>,
    /// Admission bounding-box volume (see [`Plan::cell_bound`]).
    cell_bound: OnceLock<u128>,
    /// Load balances keyed by (ranks, method).
    balances: Mutex<MemoTable<(usize, BalanceMethod), Arc<LoadBalance>>>,
    /// Static wavefront plans keyed by (threads, resolved schedule).
    static_plans: Mutex<StaticPlanMemo>,
    /// Cross-run buffer stash handed to every rank's worker pools.
    recycler: Arc<BufferRecycler>,
}

/// What one tiled execution draws from the memo: [`PlanMemo::artifacts`]
/// is the only place that decides it.
pub(crate) struct RunArtifacts {
    /// The requested schedule after the `Static` uniform-slab fallback.
    pub schedule: Schedule,
    /// The whole-space static plan, when one rank owns every tile.
    pub static_plan: Option<Arc<StaticPlan>>,
    /// The tile partition and the method that produced it (`ranks > 1`).
    pub partition: Option<(BalanceMethod, Arc<LoadBalance>)>,
    /// Time spent obtaining the partition: the Ehrhart interpolation on
    /// first use, a memo lookup after.
    pub balance_time: Duration,
    /// The buffer stash every rank's pools seed from and park into.
    pub recycler: Arc<BufferRecycler>,
}

impl PlanMemo {
    /// The artifacts an execution with `opts` runs on, derived on first
    /// use and memoized: every rank shares the recycler (a mutex-guarded
    /// stash); the whole-space static plan fits only a rank that owns
    /// every tile, so with `ranks > 1` (an owned subset per rank, and a
    /// different one per recovery epoch) the runtime plans in-run.
    pub(crate) fn artifacts(
        &self,
        tiling: &Tiling,
        params: &[i64],
        lb_dims: &[usize],
        opts: &ExecOpts,
    ) -> RunArtifacts {
        let schedule = self.resolved_schedule(tiling, params, lb_dims, opts.schedule);
        let static_plan = if opts.ranks == 1 {
            self.static_plan(tiling, params, opts.threads, schedule)
        } else {
            None
        };
        let mut balance_time = Duration::ZERO;
        let partition = (opts.ranks > 1).then(|| {
            let t_balance = Instant::now();
            let method = opts.balance.clone().unwrap_or_else(|| {
                // Slabs need a dimension to cut along: the first, failing
                // a `loadbalance` declaration.
                let slab_dims = if lb_dims.is_empty() { &[0] } else { lb_dims };
                BalanceMethod::Slabs {
                    lb_dims: slab_dims.to_vec(),
                }
            });
            let balance = self.balance(tiling, params, opts.ranks, &method);
            balance_time = t_balance.elapsed();
            (method, balance)
        });
        RunArtifacts {
            schedule,
            static_plan,
            partition,
            balance_time,
            recycler: self.recycler.clone(),
        }
    }

    /// Apply the `Static` uniform-slab fallback: a requested static
    /// schedule only survives when the load model reports equal work in
    /// every slab along the first load-balancing dimension (a memoized
    /// verdict). `Mixed` needs no guarantee and `Dynamic` is always itself.
    fn resolved_schedule(
        &self,
        tiling: &Tiling,
        params: &[i64],
        lb_dims: &[usize],
        requested: Schedule,
    ) -> Schedule {
        if requested != Schedule::Static {
            return requested;
        }
        let lb_dim = lb_dims.first().copied().unwrap_or(0);
        let mut memo = self.uniform.lock();
        let uniform = match memo.iter().find(|(d, _)| *d == lb_dim) {
            Some((_, v)) => *v,
            None => {
                let v = slabs_uniform(tiling, params, lb_dim);
                memo.push((lb_dim, v));
                v
            }
        };
        if uniform {
            Schedule::Static
        } else {
            Schedule::Dynamic
        }
    }

    /// Memoized whole-space static wavefront plan for `(threads,
    /// schedule)`; `None` for dynamic schedules.
    fn static_plan(
        &self,
        tiling: &Tiling,
        params: &[i64],
        threads: usize,
        schedule: Schedule,
    ) -> Option<Arc<StaticPlan>> {
        if schedule == Schedule::Dynamic {
            return None;
        }
        let threads = threads.max(1);
        let mut memo = self.static_plans.lock();
        if let Some((_, p)) = memo
            .iter()
            .find(|((t, s), _)| *t == threads && *s == schedule)
        {
            return p.clone();
        }
        // Same inputs as the runtime's own per-run build for a single
        // owner: every tile, in `for_each_tile` order. Determinism of
        // `StaticPlan::build` is what makes injection bit-identical.
        let mut point = tiling.make_point(params);
        let mut owned: Vec<Coord> = Vec::new();
        tiling.for_each_tile(&mut point, |t| owned.push(t));
        let plan = StaticPlan::build(tiling, &mut point, &owned, threads, schedule).map(Arc::new);
        memo.push(((threads, schedule), plan.clone()));
        plan
    }

    /// Memoized load balance for `(ranks, method)`.
    fn balance(
        &self,
        tiling: &Tiling,
        params: &[i64],
        ranks: usize,
        method: &BalanceMethod,
    ) -> Arc<LoadBalance> {
        let mut memo = self.balances.lock();
        if let Some((_, b)) = memo.iter().find(|((r, m), _)| *r == ranks && m == method) {
            return b.clone();
        }
        let b = Arc::new(LoadBalance::compute(tiling, params, ranks, method));
        memo.push(((ranks, method.clone()), b.clone()));
        b
    }
}

/// FNV-1a hash of a spec and a parameter binding: the cache key of a
/// compiled [`Plan`]. Stable within a process run (it hashes the spec's
/// canonical `Debug` rendering), which is all an in-memory plan cache
/// needs.
pub fn spec_hash(spec: &ProblemSpec, params: &[i64]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(PRIME);
        }
    };
    eat(format!("{spec:?}").as_bytes());
    eat(b"|params|");
    for p in params {
        eat(&p.to_le_bytes());
    }
    h
}

/// An immutable compiled execution plan: the reusable artifact of
/// [`Program::compile`]. See the [module docs](self).
pub struct Plan {
    spec: ProblemSpec,
    tiling: Arc<Tiling>,
    params: Vec<i64>,
    lb_dims: Vec<usize>,
    hash: u64,
    memo: PlanMemo,
}

impl std::fmt::Debug for Plan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Plan")
            .field("name", &self.spec.name)
            .field("params", &self.params)
            .field("dims", &self.tiling.dims())
            .field("hash", &format_args!("{:016x}", self.hash))
            .finish_non_exhaustive()
    }
}

impl Plan {
    /// Compile a program at one parameter binding. Infallible: the
    /// program already carries a validated spec and derived tiling.
    pub(crate) fn compile(program: &Program, params: &[i64]) -> Arc<Plan> {
        let spec = program.spec().clone();
        let hash = spec_hash(&spec, params);
        let lb_dims = spec.load_balance_indices();
        Arc::new(Plan {
            spec,
            tiling: Arc::new(program.tiling().clone()),
            params: params.to_vec(),
            lb_dims,
            hash,
            memo: PlanMemo::default(),
        })
    }

    /// Compile straight from input-file text, surfacing every failure as
    /// a typed [`RunError::CompileError`] naming the stage
    /// (spec parse/validation, polyhedral derivation, tiling).
    pub fn from_spec(text: &str, params: &[i64]) -> Result<Arc<Plan>, RunError> {
        let program = Program::parse(text).map_err(|e| match e {
            ProgramError::Spec(s) => RunError::from(CompileFault::new(CompileStage::Spec, s)),
            ProgramError::Tiling(t) => RunError::from(t),
        })?;
        Ok(Plan::compile(&program, params))
    }

    /// The spec this plan was compiled from.
    pub fn spec(&self) -> &ProblemSpec {
        &self.spec
    }

    /// The derived tiling.
    pub fn tiling(&self) -> &Tiling {
        &self.tiling
    }

    /// The parameter binding the plan was compiled at.
    pub fn params(&self) -> &[i64] {
        &self.params
    }

    /// Load-balancing dimensions seeded from the spec.
    pub fn lb_dims(&self) -> &[usize] {
        &self.lb_dims
    }

    /// The spec-and-params hash (the plan cache key).
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// Cross-run buffer reuse events (tile/payload buffers checked out of
    /// the plan's recycler by later executions).
    pub fn buffers_reused(&self) -> u64 {
        self.memo.recycler.reused()
    }

    /// The cell-level region shape of the derived tiling:
    /// [`TileShape::Banded`] when the spec declares a diagonal band.
    pub fn shape(&self) -> TileShape {
        self.tiling.shape()
    }

    /// Inclusive bounding-box volume of the iteration space at this
    /// plan's parameters, from [`probe_box`]: the admission-control
    /// metric. For banded plans the box is intersected with the band
    /// ([`BoxProbe::banded_volume`]) — a diagonal band never shrinks the
    /// box itself, so the plain box volume would reject banded alignment
    /// shapes whose true lattice is tiny. Memoized. Fails with a typed
    /// `CompileError` (admission stage) when the space is unbounded.
    pub fn cell_bound(&self) -> Result<u128, RunError> {
        if let Some(v) = self.memo.cell_bound.get() {
            return Ok(*v);
        }
        let sys = self.tiling.original();
        let space = sys.space();
        let mut assignment = vec![0i128; space.dim()];
        for (k, &p) in space.param_indices().iter().zip(self.params.iter()) {
            assignment[*k] = p as i128;
        }
        let probe = probe_box(sys, &assignment)?;
        let volume = match (self.tiling.shape(), self.tiling.band_dims()) {
            (TileShape::Banded { lo, hi }, Some((a, b))) => probe.banded_volume(a, b, lo, hi),
            _ => probe.volume(),
        };
        let bound = match volume {
            Some(v) => v,
            None => {
                return Err(CompileFault::new(
                    CompileStage::Admission,
                    "iteration space is unbounded at these parameters",
                )
                .into())
            }
        };
        let _ = self.memo.cell_bound.set(bound);
        Ok(bound)
    }

    /// Admission control: reject the plan when its bounding box holds
    /// more than `max_cells` cells (typed `CompileError`, admission
    /// stage).
    pub fn admit(&self, max_cells: u128) -> Result<(), RunError> {
        let bound = self.cell_bound()?;
        if bound > max_cells {
            return Err(CompileFault::new(
                CompileStage::Admission,
                format!("bounding box holds {bound} cells, over the admission limit {max_cells}"),
            )
            .into());
        }
        Ok(())
    }

    /// Force the memoized artifacts an execution with `opts` would draw
    /// (and the admission bound), so a resident engine pays all
    /// derivations at compile time and cache-hit executions start
    /// immediately.
    pub fn warm(&self, opts: &ExecOpts) {
        let _ = self
            .memo
            .artifacts(&self.tiling, &self.params, &self.lb_dims, opts);
        let _ = self.cell_bound();
    }

    /// Execute the plan with a per-cell kernel. Reentrant: any number of
    /// threads may execute one plan concurrently, each with its own
    /// options. The kernel is lifted with [`PerCell`], so even a
    /// [`RunKernel`] passed here runs cell by cell and `runs_batched`
    /// stays 0.
    pub fn execute<T, K>(&self, kernel: &K, opts: &ExecOpts) -> Result<RunOutput<T>, RunError>
    where
        T: Value + Wire,
        K: Kernel<T>,
    {
        self.execute_batched(&PerCell(kernel), opts)
    }

    /// Execute with a [`RunKernel`]: interior runs are handed whole to
    /// `RunKernel::eval_run` (see [`crate::RunBuilder::run_batched`]).
    pub fn execute_batched<T, RK>(
        &self,
        kernel: &RK,
        opts: &ExecOpts,
    ) -> Result<RunOutput<T>, RunError>
    where
        T: Value + Wire,
        RK: RunKernel<T>,
    {
        self.execute_parts(kernel, opts, None)
    }

    /// Execute with a whole-space reduction; the merged value lands in
    /// [`RunOutput::reduction`].
    pub fn execute_reduce<T, K>(
        &self,
        kernel: &K,
        reduce: &Reduction<T>,
        opts: &ExecOpts,
    ) -> Result<RunOutput<T>, RunError>
    where
        T: Value + Wire,
        K: Kernel<T>,
    {
        self.execute_parts(&PerCell(kernel), opts, Some(reduce))
    }

    fn execute_parts<T, RK>(
        &self,
        kernel: &RK,
        opts: &ExecOpts,
        reduce: Option<&Reduction<T>>,
    ) -> Result<RunOutput<T>, RunError>
    where
        T: Value + Wire,
        RK: RunKernel<T>,
    {
        execute_parts(
            &self.tiling,
            &self.params,
            &self.lb_dims,
            &self.memo,
            opts,
            kernel,
            reduce,
        )
    }
}

/// The one execution engine behind both [`Plan::execute`] and
/// [`crate::RunBuilder::run`]: the untiled reference executor when
/// `opts.serial`, the tiled driver on the memo's artifacts otherwise.
pub(crate) fn execute_parts<T, RK>(
    tiling: &Tiling,
    params: &[i64],
    lb_dims: &[usize],
    memo: &PlanMemo,
    opts: &ExecOpts,
    kernel: &RK,
    reduce: Option<&Reduction<T>>,
) -> Result<RunOutput<T>, RunError>
where
    T: Value + Wire,
    RK: RunKernel<T>,
{
    opts.validate()?;
    if opts.serial {
        run_serial(tiling, params, opts, kernel, reduce)
    } else {
        hybrid_run(tiling, params, lb_dims, memo, opts, kernel, reduce)
    }
}

fn run_serial<T, K>(
    tiling: &Tiling,
    params: &[i64],
    opts: &ExecOpts,
    kernel: &K,
    reduce: Option<&Reduction<T>>,
) -> Result<RunOutput<T>, RunError>
where
    T: Value,
    K: Kernel<T>,
{
    let t_start = Instant::now();
    let reference = run_reference::<T, _>(tiling, params, kernel);
    let probes = opts
        .probe
        .coords()
        .iter()
        .map(|c| reference.get(c.as_slice()))
        .collect();
    let reduction = reduce.map(|r| reference.fold(r.identity(), |a, b| r.combine(a, b)));
    let mut metrics = MetricsRegistry::new();
    metrics.add_counter("serial.cells_computed", reference.cells_computed());
    Ok(RunOutput {
        probes,
        reduction,
        per_rank: Vec::new(),
        comm_stats: Vec::new(),
        balance: None,
        reference: Some(reference),
        timeline: None,
        metrics,
        total_time: t_start.elapsed(),
        balance_time: Duration::ZERO,
        recovery: RecoveryStats::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpgen_tiling::tiling::CellRef;

    const CHAIN2: &str = "name tri\nvars x y\nparams N\nconstraint x >= 0\n\
                          constraint y >= 0\nconstraint x + y <= N\n\
                          template r1 1 0\ntemplate r2 0 1\nloadbalance x\nwidths 3 3\n";

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

    /// The counters a one-shot run and a compiled plan's executions must
    /// agree on, summed over ranks.
    fn counters(out: &RunOutput<f64>) -> [u64; 4] {
        let sum = |f: fn(&dpgen_runtime::RunStats) -> u64| -> u64 {
            out.per_rank.iter().map(|r| f(&r.stats)).sum()
        };
        [
            sum(|s| s.cells_computed),
            sum(|s| s.interior_cells),
            sum(|s| s.boundary_cells),
            sum(|s| s.tiles_executed),
        ]
    }

    #[test]
    fn compiled_plan_matches_builder_across_modes() {
        let n = 14i64;
        let program = Program::parse(CHAIN2).unwrap();
        let plan = program.compile(&[n]);
        let probe = Probe::many(&[&[0, 0], &[n, 0], &[3, 4]]);
        for schedule in [Schedule::Dynamic, Schedule::Static, Schedule::Mixed] {
            for (threads, ranks) in [(1usize, 1usize), (3, 1), (2, 2)] {
                let tag = format!("{schedule:?} threads={threads} ranks={ranks}");
                let sum = Reduction::new(0.0f64, |a, b| a + b);
                let fresh = program
                    .runner(&[n])
                    .threads(threads)
                    .ranks(ranks)
                    .schedule(schedule)
                    .probe(probe.clone())
                    .reduce(&sum)
                    .run(&path_kernel)
                    .unwrap();
                let opts = ExecOpts::new()
                    .threads(threads)
                    .ranks(ranks)
                    .schedule(schedule)
                    .probe(probe.clone());
                // Twice through the plan: the second execution reuses the
                // memoized artifacts and must still be bit-identical.
                for round in 0..2 {
                    let sum = Reduction::new(0.0f64, |a, b| a + b);
                    let out = plan.execute_reduce(&path_kernel, &sum, &opts).unwrap();
                    assert_eq!(out.probes, fresh.probes, "{tag} round={round}");
                    assert_eq!(counters(&out), counters(&fresh), "{tag} round={round}");
                    assert_eq!(out.reduction, fresh.reduction, "{tag} round={round}");
                }
            }
        }
        // The executions above parked their pools into the plan's
        // recycler; later ones must have drawn from it.
        assert!(plan.buffers_reused() > 0);
    }

    #[test]
    fn multi_rank_executions_share_the_plan_recycler() {
        let plan = Plan::from_spec(CHAIN2, &[14]).unwrap();
        let opts = ExecOpts::new().threads(2).ranks(2);
        plan.execute::<f64, _>(&path_kernel, &opts).unwrap();
        let after_first = plan.buffers_reused();
        plan.execute::<f64, _>(&path_kernel, &opts).unwrap();
        assert!(
            plan.buffers_reused() > after_first,
            "the second ranks(2) execution must draw the buffers the first parked"
        );
    }

    #[test]
    fn one_rank_does_no_multi_rank_work() {
        use dpgen_mpisim::{FaultPlan, KillTrigger};
        let plan = Plan::from_spec(CHAIN2, &[14]).unwrap();
        // Every multi-rank knob set, all ignored at one rank: a zero-buffer
        // world is never built, the kill plan never armed, no checkpoint
        // sink created.
        let mut opts = ExecOpts::new()
            .threads(2)
            .balance(BalanceMethod::Hyperplane)
            .recovery(RecoveryConfig::default())
            .probe(Probe::at(&[0, 0]));
        opts.comm.send_buffers = 0;
        opts.comm.faults = Some(FaultPlan::kill_rank_at(0, KillTrigger::AfterSends(1)));
        let out = plan.execute::<f64, _>(&path_kernel, &opts).unwrap();
        assert_eq!(out.probes[0], Some((1u64 << 15) as f64));
        assert_eq!(out.per_rank.len(), 1);
        assert!(out.comm_stats.is_empty());
        assert!(out.balance.is_none());
        assert_eq!(out.balance_time, Duration::ZERO);
        assert!(plan.memo.balances.lock().is_empty());
        assert!(out.metrics.counter("rank0.cells_computed").is_some());
        assert!(out.metrics.counter("rank0.comm.msgs_sent").is_none());
        assert!(out.metrics.counter("recovery.epochs").is_none());
        assert_eq!(out.recovery.epochs, 1);
        assert_eq!(out.recovery.ranks_lost, 0);
        assert_eq!(out.recovery.checkpoint_bytes, 0);
    }

    #[test]
    fn static_schedule_through_a_plan_is_bit_identical_and_memoized() {
        let spec = "name grid\nvars x y\nparams N\nconstraint 0 <= x <= N\n\
                    constraint 0 <= y <= N\ntemplate r1 1 0\ntemplate r2 0 1\n\
                    loadbalance x\nwidths 4 4\n";
        let n = 15i64;
        let program = Program::parse(spec).unwrap();
        let plan = program.compile(&[n]);
        let probe = Probe::at(&[n, n]);
        let opts = ExecOpts::new()
            .threads(4)
            .schedule(Schedule::Static)
            .probe(probe.clone());
        let fresh = program
            .runner(&[n])
            .threads(4)
            .schedule(Schedule::Static)
            .probe(probe)
            .run(&path_kernel)
            .unwrap();
        for _ in 0..2 {
            let out = plan.execute(&path_kernel, &opts).unwrap();
            assert_eq!(out.probes, fresh.probes);
            let s = &out.per_rank[0].stats;
            assert_eq!(s.schedule, Schedule::Static);
            assert_eq!(s.tiles_static, s.tiles_executed);
        }
        assert_eq!(plan.memo.static_plans.lock().len(), 1);
    }

    #[test]
    fn from_spec_names_the_failing_stage() {
        // Parse failure -> spec stage.
        let err = Plan::from_spec("vars x\nwidths 1\n", &[]).unwrap_err();
        match &err {
            RunError::CompileError(f) => assert_eq!(f.stage, CompileStage::Spec),
            other => panic!("expected CompileError, got {other}"),
        }
        // Unbounded space -> tiling derivation.
        let err = Plan::from_spec(
            "name u\nvars x\nconstraint x >= 0\ntemplate r 1\nwidths 4\n",
            &[],
        )
        .unwrap_err();
        match &err {
            RunError::CompileError(f) => assert!(
                f.stage == CompileStage::Tiling || f.stage == CompileStage::Poly,
                "stage {:?}",
                f.stage
            ),
            other => panic!("expected CompileError, got {other}"),
        }
    }

    #[test]
    fn admission_bounds_the_box() {
        let plan = Plan::from_spec(CHAIN2, &[9]).unwrap();
        assert_eq!(plan.cell_bound().unwrap(), 100); // 10 x 10 box
        assert!(plan.admit(100).is_ok());
        let err = plan.admit(99).unwrap_err();
        match err {
            RunError::CompileError(f) => assert_eq!(f.stage, CompileStage::Admission),
            other => panic!("expected admission fault, got {other}"),
        }
    }

    #[test]
    fn banded_admission_counts_the_band_not_the_box() {
        // 100x100 square with a +/-2 band: the box holds 101^2 = 10201
        // cells, the band only 101 + 2*100 + 2*99 = 499. A dense bound
        // would reject the plan at a 1000-cell limit; the banded bound
        // admits it.
        let banded = "name bsw\nvars i j\nparams N\n\
                      constraint 0 <= i <= N\nconstraint 0 <= j <= N\n\
                      band i j -2 2\n\
                      template r1 1 0\ntemplate r2 0 1\ntemplate r3 1 1\n\
                      widths 4 4\n";
        let plan = Plan::from_spec(banded, &[100]).unwrap();
        assert_eq!(plan.shape(), TileShape::Banded { lo: -2, hi: 2 });
        assert_eq!(plan.cell_bound().unwrap(), 499);
        assert!(plan.admit(1000).is_ok());
        assert!(plan.admit(498).is_err());
        // The dense twin of the same square is bounded by the full box.
        let dense = Plan::from_spec(&banded.replace("band i j -2 2\n", ""), &[100]).unwrap();
        assert_eq!(dense.shape(), TileShape::Dense);
        assert_eq!(dense.cell_bound().unwrap(), 101 * 101);
    }

    #[test]
    fn spec_hash_distinguishes_specs_and_params() {
        let a = Program::parse(CHAIN2).unwrap();
        let h1 = spec_hash(a.spec(), &[10]);
        assert_eq!(h1, spec_hash(a.spec(), &[10]));
        assert_ne!(h1, spec_hash(a.spec(), &[11]));
        let b = Program::parse(&CHAIN2.replace("widths 3 3", "widths 4 4")).unwrap();
        assert_ne!(h1, spec_hash(b.spec(), &[10]));
    }

    #[test]
    fn cancellation_pre_set_aborts_plan_execution() {
        let plan = Plan::from_spec(CHAIN2, &[20]).unwrap();
        let flag = Arc::new(AtomicBool::new(true));
        let opts = ExecOpts::new().threads(2).cancel(flag);
        let err = plan.execute::<f64, _>(&path_kernel, &opts).unwrap_err();
        assert!(matches!(err, RunError::Cancelled { .. }), "got {err}");
        // The plan stays healthy: the same options minus the flag succeed
        // and match the serial reference.
        let want = plan
            .execute::<f64, _>(
                &path_kernel,
                &ExecOpts::new().serial().probe(Probe::at(&[0, 0])),
            )
            .unwrap()
            .probes[0];
        let ok = plan
            .execute::<f64, _>(
                &path_kernel,
                &ExecOpts::new().threads(2).probe(Probe::at(&[0, 0])),
            )
            .unwrap();
        assert!(want.is_some());
        assert_eq!(ok.probes[0], want);
    }
}
