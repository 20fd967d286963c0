//! The one way to run: [`Plan`] and [`ExecOpts`].
//!
//! The paper's workflow is two-phase: the generator compiles a problem
//! description into a parallel program once, and the program is then run
//! many times. [`Plan`] is that compiled artifact as an in-process object:
//! an immutable, shareable (`Arc`) bundle of the derived tiling, the
//! parameter binding and the load-balancing dimensions, plus lazily
//! memoized schedule artifacts (the tile graph every rank of every
//! execution reads, load balances) that make a repeated execution cheaper
//! than the first.
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
//! There is no other door: [`Plan::execute`], [`Plan::execute_batched`],
//! [`Plan::execute_reduce`] and [`Plan::execute_logged`] all check their
//! options against the plan ([`ExecOpts`] arrives from outside — a serve
//! job's request) and then enter the one tiled driver. The untiled dense executor tests compare
//! against is [`dpgen_runtime::run_reference`], called directly.

use crate::driver::hybrid_run;
use crate::loadbalance::{BalanceMethod, LoadBalance};
use crate::program::{Program, ProgramError};
use crate::run::RunOutput;
use crate::spec::ProblemSpec;
use crate::traceback::EdgeLog;
use dpgen_mpisim::{CommConfig, ReliabilityConfig, Wire};
use dpgen_polyhedra::probe_box;
use dpgen_runtime::{
    CompileFault, CompileStage, Kernel, PerCell, Probe, Reduction, RunError, RunKernel, Schedule,
    TilePriority, TraceLevel, Value,
};
use dpgen_tiling::{TileGraph, TileShape, Tiling};
use parking_lot::Mutex;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Per-execution options for [`Plan::execute`]: everything about a run
/// *except* the problem itself. Owned and cheaply cloneable, so a resident
/// engine can stamp one template per job. Every knob lives here once.
#[derive(Debug, Clone)]
pub struct ExecOpts {
    /// Worker threads per rank (the OpenMP thread count), at most
    /// [`MAX_THREADS`]. Default 1.
    pub threads: usize,
    /// Simulated nodes (MPI ranks). `ranks > 1` partitions the tiles with
    /// a load balance and connects the ranks over the simulated
    /// interconnect; one rank runs on the caller's thread with neither.
    /// Default 1.
    pub ranks: usize,
    /// Global coordinates whose final values to capture, each with as
    /// many entries as the problem has dimensions.
    pub probe: Probe,
    /// Ready-queue ordering; `None` means the pipelined wavefront
    /// ([`TilePriority::pipelined`]: column-major with the load-balancing
    /// dimensions last, where the paper's Figure 5 as printed puts them
    /// first). A
    /// [`TilePriority::ColumnMajor`] order must be a permutation of the
    /// problem's dimensions.
    pub priority: Option<TilePriority>,
    /// Requested tile scheduling mode (default [`Schedule::Dynamic`], the
    /// work-stealing heaps in priority order). [`Schedule::Static`] homes
    /// every owned tile on the worker its pipeline row is dealt to and
    /// keys it by the wavefront order of a static plan each rank builds
    /// over the tiles it owns, on any polytope. A rank that owns no tile
    /// runs nothing and reports `Dynamic` (the mode is reported in
    /// `RunStats::schedule` and the `schedule_mode` metric).
    pub schedule: Schedule,
    /// Communication configuration (buffer counts, reliability, fault
    /// plan) at `ranks > 1`; at least one send and one receive buffer.
    /// Ignored at one rank.
    pub comm: CommConfig,
    /// Partitioning method at `ranks > 1`; `None` means slabs over the
    /// plan's load-balancing dimensions. Explicit
    /// [`BalanceMethod::Slabs`] dimensions must be distinct, in range and
    /// at least one. Ignored at one rank.
    pub balance: Option<BalanceMethod>,
    /// Stall watchdog window (default
    /// [`DEFAULT_STALL_TIMEOUT`](dpgen_runtime::DEFAULT_STALL_TIMEOUT)).
    pub stall_timeout: Duration,
    /// Event tracing ([`TraceLevel::Off`] by default). At
    /// [`TraceLevel::Spans`] and above, [`RunOutput::timeline`] carries the
    /// per-worker timeline.
    pub trace: TraceLevel,
    /// Elastic rank recovery at `ranks > 1`: how many rank deaths the run
    /// absorbs by per-rank incremental slab checkpoints and mid-run
    /// migration of a dead rank's slab to the lowest-loaded survivor
    /// (DESIGN.md §12) before it surfaces the death; the coordinator's
    /// actions land in [`RunOutput::recovery`]. Deaths are detected by the
    /// heartbeats of `comm.reliability`, which must be on when this is
    /// not 0. 0 (the default) runs the classic fail-the-world path.
    /// Ignored at one rank.
    pub max_recoveries: usize,
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
            probe: Probe::default(),
            priority: None,
            schedule: Schedule::Dynamic,
            comm: CommConfig::default(),
            balance: None,
            stall_timeout: dpgen_runtime::DEFAULT_STALL_TIMEOUT,
            trace: TraceLevel::Off,
            max_recoveries: 0,
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
    pub fn stall_timeout(mut self, timeout: Duration) -> Self {
        self.stall_timeout = timeout;
        self
    }

    /// Sets [`ExecOpts::trace`].
    pub fn trace(mut self, level: TraceLevel) -> Self {
        self.trace = level;
        self
    }

    /// Sets [`ExecOpts::max_recoveries`].
    pub fn max_recoveries(mut self, max_recoveries: usize) -> Self {
        self.max_recoveries = max_recoveries;
        self
    }

    /// Sets [`ExecOpts::cancel`].
    pub fn cancel(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Check these options — and the plan's own parameter binding —
    /// against `plan` before anything runs. Both arrive from outside (a
    /// serve job's request), so a bad one must be a typed fault, never a
    /// panic inside a resident worker: a wrong-arity binding is a
    /// [`CompileStage::Spec`] fault, everything else
    /// [`CompileStage::Options`].
    fn validate(&self, plan: &Plan) -> Result<(), RunError> {
        plan.check_params()?;
        let d = plan.tiling.dims();
        let fault = |detail: String| Err(fault(CompileStage::Options, detail));
        if let Some(c) = self.probe.coords().iter().find(|c| c.dims() != d) {
            return fault(format!(
                "probe {c:?} has {} coordinates, the problem has {d} dimensions",
                c.dims()
            ));
        }
        if let Some(TilePriority::ColumnMajor { dim_order }) = &self.priority {
            if dim_order.len() != d || !distinct_dims(dim_order, d) {
                return fault(format!(
                    "ColumnMajor dim_order {dim_order:?} is not a permutation of 0..{d}"
                ));
            }
        }
        // The builders clamp, the public fields do not.
        if self.threads > MAX_THREADS {
            return fault(format!(
                "threads({}) is beyond MAX_THREADS ({MAX_THREADS})",
                self.threads
            ));
        }
        if self.ranks == 0 {
            return fault("ranks must be at least 1".to_string());
        }
        if self.ranks == 1 {
            return Ok(()); // the multi-rank knobs are ignored
        }
        if self.ranks > 1 << 16 {
            return fault(format!("ranks({}) is beyond 65536", self.ranks));
        }
        if self.comm.send_buffers == 0 || self.comm.recv_buffers == 0 {
            return fault(format!(
                "ranks({}) needs at least one send and one receive buffer, got {} and {}",
                self.ranks, self.comm.send_buffers, self.comm.recv_buffers
            ));
        }
        if let Some(BalanceMethod::Slabs { lb_dims }) = &self.balance {
            if lb_dims.is_empty() || !distinct_dims(lb_dims, d) {
                return fault(format!(
                    "Slabs lb_dims {lb_dims:?} must name at least one distinct dimension below {d}"
                ));
            }
        }
        // A survivor names a dead peer after `death_timeout` of heartbeat
        // silence, and its watchdog fails the run after `stall_timeout`.
        let r = &self.comm.reliability;
        if self.max_recoveries > 0
            && (r.heartbeat_interval.is_none() || r.death_timeout >= self.stall_timeout)
        {
            return fault(format!(
                "max_recoveries({}) cannot fire: a death is named only with heartbeats on \
                 (heartbeat_interval {:?}) and a death_timeout ({:?}) below the stall_timeout ({:?})",
                self.max_recoveries, r.heartbeat_interval, r.death_timeout, self.stall_timeout
            ));
        }
        Ok(())
    }
}

/// The most worker threads per rank an execution accepts: every one costs a
/// ready heap, a trace ring and an OS thread before any tile runs, and a
/// thread the OS refuses to start would take the caller down with it.
pub const MAX_THREADS: usize = 1 << 10;

/// The typed error every rejection in this module is.
fn fault(stage: CompileStage, detail: impl std::fmt::Display) -> RunError {
    CompileFault::new(stage, detail).into()
}

/// Whether `list` names distinct dimensions of a `d`-dimensional problem.
fn distinct_dims(list: &[usize], d: usize) -> bool {
    list.iter()
        .enumerate()
        .all(|(i, &k)| k < d && !list[..i].contains(&k))
}

/// A small linear-scan memo table: key-value pairs in insertion order.
/// The key space here (ranks, balance method) holds a handful of entries
/// at most, so a `Vec` beats a map.
type MemoTable<K, V> = Vec<(K, V)>;

/// What one execution draws from the plan's memo: [`Plan::artifacts`] is
/// the only place that decides it.
pub(crate) struct RunArtifacts {
    /// The plan's tile graph: the one every rank and epoch runs on.
    pub graph: Arc<TileGraph>,
    /// The ready queues' order: the requested one, or the pipelined
    /// wavefront with the partition's dimensions least significant.
    pub priority: TilePriority,
    /// The tile partition (`ranks > 1`).
    pub partition: Option<Arc<LoadBalance>>,
    /// Time spent obtaining the partition: the balance over the graph's
    /// exact per-class cell counts on first use, a memo lookup after.
    pub balance_time: Duration,
}

/// FNV-1a hash of a spec and a parameter binding: the key a plan cache
/// files a compiled [`Plan`] under. Stable within a process run (it hashes
/// the spec's canonical `Debug` rendering), which is all an in-memory
/// cache needs.
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
/// [`Program::compile`], and the only thing that runs. See the
/// [module docs](self).
pub struct Plan {
    /// What `Debug` shows: the spec's `name`, or `"tiling"` for a plan
    /// built by [`Plan::on_tiling`].
    name: String,
    tiling: Arc<Tiling>,
    params: Vec<i64>,
    lb_dims: Vec<usize>,
    /// The tile DAG at this binding (see [`Plan::graph`]); everything
    /// below is derived from it.
    graph: OnceLock<Arc<TileGraph>>,
    /// Admission bounding-box volume (see [`Plan::cell_bound`]).
    cell_bound: OnceLock<u128>,
    /// Load balances keyed by (ranks, method).
    balances: Mutex<MemoTable<(usize, BalanceMethod), Arc<LoadBalance>>>,
}

impl std::fmt::Debug for Plan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Plan")
            .field("name", &self.name)
            .field("params", &self.params)
            .field("dims", &self.tiling.dims())
            .finish_non_exhaustive()
    }
}

impl Plan {
    fn new(name: &str, tiling: Arc<Tiling>, params: &[i64], lb_dims: Vec<usize>) -> Arc<Plan> {
        Arc::new(Plan {
            name: name.to_string(),
            tiling,
            params: params.to_vec(),
            lb_dims,
            graph: OnceLock::new(),
            cell_bound: OnceLock::new(),
            balances: Mutex::default(),
        })
    }

    /// Compile a program at one parameter binding. Infallible: the
    /// program already carries a validated spec and derived tiling (a
    /// binding of the wrong arity is reported by [`Plan::cell_bound`],
    /// [`Plan::admit`], [`Plan::graph`] and every execution). The plan
    /// shares the program's tiling; nothing is copied.
    pub(crate) fn compile(program: &Program, params: &[i64]) -> Arc<Plan> {
        let spec = program.spec();
        Plan::new(
            &spec.name,
            Arc::clone(program.shared_tiling()),
            params,
            spec.load_balance_indices(),
        )
    }

    /// Compile straight from input-file text, surfacing every failure as
    /// a typed [`RunError::CompileError`] naming the stage
    /// (spec parse/validation, polyhedral derivation, tiling).
    pub fn from_spec(text: &str, params: &[i64]) -> Result<Arc<Plan>, RunError> {
        let program = Program::parse(text).map_err(|e| match e {
            ProgramError::Spec(s) => fault(CompileStage::Spec, s),
            ProgramError::Tiling(t) => RunError::from(t),
        })?;
        Ok(Plan::compile(&program, params))
    }

    /// A plan over a hand-built [`Tiling`] (no spec): `lb_dims` is what a
    /// spec's `loadbalance` line would have declared — distinct problem
    /// dimensions, possibly none — and is rejected with a typed
    /// [`CompileStage::Spec`] fault otherwise.
    pub fn on_tiling(
        tiling: Tiling,
        params: &[i64],
        lb_dims: Vec<usize>,
    ) -> Result<Arc<Plan>, RunError> {
        if !distinct_dims(&lb_dims, tiling.dims()) {
            let d = tiling.dims();
            return Err(fault(
                CompileStage::Spec,
                format!("lb_dims {lb_dims:?} must be distinct dimensions below {d}"),
            ));
        }
        Ok(Plan::new("tiling", Arc::new(tiling), params, lb_dims))
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

    /// The cell-level region shape of the derived tiling:
    /// [`TileShape::Banded`] when the spec declares a diagonal band.
    pub fn shape(&self) -> TileShape {
        self.tiling.shape()
    }

    /// The binding must give every parameter of the problem a value: the
    /// tiling's point constructors assert it.
    fn check_params(&self) -> Result<(), RunError> {
        let want = self.tiling.param_cols().len();
        if self.params.len() == want {
            return Ok(());
        }
        let got = self.params.len();
        Err(fault(
            CompileStage::Spec,
            format!("{got} parameter values bound, the problem has {want} parameters"),
        ))
    }

    /// The tile graph of the plan's tiling at its binding: every tile with
    /// its index, existing dependencies, neighbours and (once something
    /// asks) cell count. Derived by the first caller and then shared — by
    /// the slab verdict, the load balances, the static plan, and every
    /// rank, recovery epoch and execution of this plan. Fails with a typed
    /// `CompileError` (spec stage) when the binding has the wrong arity.
    pub fn graph(&self) -> Result<Arc<TileGraph>, RunError> {
        self.check_params()?;
        let derive = || Arc::new(TileGraph::new(self.tiling.clone(), &self.params));
        Ok(self.graph.get_or_init(derive).clone())
    }

    /// Inclusive bounding-box volume of the iteration space at this
    /// plan's parameters, from [`probe_box`]: the admission-control
    /// metric. For banded plans the box is intersected with the band
    /// ([`dpgen_polyhedra::BoxProbe::banded_volume`]) — a diagonal band never shrinks the
    /// box itself, so the plain box volume would reject banded alignment
    /// shapes whose true lattice is tiny. Memoized. Fails with a typed
    /// `CompileError` when the binding has the wrong arity (spec stage)
    /// or the space is unbounded (admission stage).
    pub fn cell_bound(&self) -> Result<u128, RunError> {
        if let Some(v) = self.cell_bound.get() {
            return Ok(*v);
        }
        self.check_params()?;
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
                return Err(fault(
                    CompileStage::Admission,
                    "iteration space is unbounded at these parameters",
                ))
            }
        };
        let _ = self.cell_bound.set(bound);
        Ok(bound)
    }

    /// Admission control: reject the plan when its bounding box holds
    /// more than `max_cells` cells (typed `CompileError`, admission
    /// stage).
    pub fn admit(&self, max_cells: u128) -> Result<(), RunError> {
        let bound = self.cell_bound()?;
        if bound > max_cells {
            return Err(fault(
                CompileStage::Admission,
                format!("bounding box holds {bound} cells, over the admission limit {max_cells}"),
            ));
        }
        Ok(())
    }

    /// Force the memoized artifacts an execution with `opts` would draw
    /// (the tile graph first of all) and the admission bound, so a
    /// resident engine pays all derivations at compile time and cache-hit
    /// executions start immediately. Options no execution would accept
    /// warm nothing; the typed fault surfaces from [`Plan::execute`].
    pub fn warm(&self, opts: &ExecOpts) {
        if opts.validate(self).is_ok() {
            let _ = self.artifacts(opts);
            let _ = self.cell_bound();
        }
    }

    /// Execute the plan with a per-cell kernel. Reentrant: any number of
    /// threads may execute one plan concurrently, each with its own
    /// options. The kernel is lifted with [`PerCell`], so even a
    /// [`RunKernel`] passed here runs cell by cell and `runs_batched`
    /// stays 0. Failures (bad options, kernel panics, stalls, transport
    /// errors) surface as a typed [`RunError`] with tile/rank context.
    pub fn execute<T, K>(&self, kernel: &K, opts: &ExecOpts) -> Result<RunOutput<T>, RunError>
    where
        T: Value + Wire,
        K: Kernel<T>,
    {
        Ok(self.run(&PerCell(kernel), opts, None, false)?.0)
    }

    /// Execute with a [`RunKernel`]: every interior block isolated by the
    /// tile scan — a rectangle of equal runs, a lone run at the least — is
    /// handed whole to `RunKernel::eval_block` (by default, run by run to
    /// `eval_run`), so a hand-batched kernel can evaluate it as one dense
    /// loop nest.
    /// Boundary cells always go through the per-cell `Kernel::compute`.
    pub fn execute_batched<T, RK>(
        &self,
        kernel: &RK,
        opts: &ExecOpts,
    ) -> Result<RunOutput<T>, RunError>
    where
        T: Value + Wire,
        RK: RunKernel<T>,
    {
        Ok(self.run(kernel, opts, None, false)?.0)
    }

    /// Execute with a whole-space reduction folded over every computed
    /// cell; the merged value lands in [`RunOutput::reduction`]. Takes a
    /// [`RunKernel`]: a per-cell kernel `k` goes in as `&PerCell(&k)`.
    pub fn execute_reduce<T, RK>(
        &self,
        kernel: &RK,
        reduce: &Reduction<T>,
        opts: &ExecOpts,
    ) -> Result<RunOutput<T>, RunError>
    where
        T: Value + Wire,
        RK: RunKernel<T>,
    {
        Ok(self.run(kernel, opts, Some(reduce), false)?.0)
    }

    /// Execute and keep every inter-tile edge the run produced: the
    /// forward pass of a [`Traceback`](crate::traceback::Traceback) over
    /// [`Plan::graph`] (the paper's §VII-A). The log is what the run's
    /// recovery checkpoints retain, so any `opts` will do — threads,
    /// ranks, schedule, a fault plan with recovery — and the log comes out
    /// the same. Takes a [`RunKernel`]: a per-cell kernel `k` goes in as
    /// `&PerCell(&k)`.
    pub fn execute_logged<T, RK>(
        &self,
        kernel: &RK,
        opts: &ExecOpts,
    ) -> Result<(RunOutput<T>, EdgeLog<T>), RunError>
    where
        T: Value + Wire,
        RK: RunKernel<T>,
    {
        self.run(kernel, opts, None, true)
    }

    /// The one door every `execute*` goes through: outside input is
    /// checked here, then the tiled driver runs.
    fn run<T, RK>(
        &self,
        kernel: &RK,
        opts: &ExecOpts,
        reduce: Option<&Reduction<T>>,
        logged: bool,
    ) -> Result<(RunOutput<T>, EdgeLog<T>), RunError>
    where
        T: Value + Wire,
        RK: RunKernel<T>,
    {
        opts.validate(self)?;
        hybrid_run(self, opts, kernel, reduce, logged)
    }

    /// The artifacts an execution with `opts` runs on, derived on first
    /// use and memoized. The tiles' positions in the priority's order — the
    /// ready heaps' keys — are sorted here too (kept by the graph), unless
    /// the schedule is `Static`, under which the heaps key on the order of
    /// the static plan each rank builds in-run over the tiles it owns; and
    /// the tiles are sorted into their geometry classes (no cell is counted
    /// for that and no recording made: a plan that is only warmed never
    /// needs either).
    #[allow(clippy::disallowed_methods, reason = "a compile phase's timer")]
    pub(crate) fn artifacts(&self, opts: &ExecOpts) -> Result<RunArtifacts, RunError> {
        let graph = self.graph()?;
        // Every execution reads its tiles' recordings by class; sorting the
        // tiles into classes here puts it in `warm`, not in the first run.
        graph.classes();
        let mut balance_time = Duration::ZERO;
        // Slabs end the default priority with their own dimensions, a
        // hyperplane partition with none.
        let mut trail = self.lb_dims.clone();
        let partition = (opts.ranks > 1).then(|| {
            let t_balance = Instant::now();
            let method = opts.balance.clone().unwrap_or_else(|| {
                // Slabs need a dimension to cut along: the first, failing
                // a `loadbalance` declaration.
                let slab_dims = if self.lb_dims.is_empty() {
                    &[0]
                } else {
                    self.lb_dims.as_slice()
                };
                BalanceMethod::Slabs {
                    lb_dims: slab_dims.to_vec(),
                }
            });
            let balance = self.balance(&graph, opts.ranks, &method);
            balance_time = t_balance.elapsed();
            trail = match method {
                BalanceMethod::Slabs { lb_dims } => lb_dims,
                BalanceMethod::Hyperplane => Vec::new(),
            };
            balance
        });
        let priority = (opts.priority.clone())
            .unwrap_or_else(|| TilePriority::pipelined(self.tiling.dims(), &trail));
        if opts.schedule != Schedule::Static {
            priority.ordering(&graph);
        }
        Ok(RunArtifacts {
            graph,
            priority,
            partition,
            balance_time,
        })
    }

    /// Memoized load balance for `(ranks, method)`.
    fn balance(
        &self,
        graph: &Arc<TileGraph>,
        ranks: usize,
        method: &BalanceMethod,
    ) -> Arc<LoadBalance> {
        let mut memo = self.balances.lock();
        if let Some((_, b)) = memo.iter().find(|((r, m), _)| *r == ranks && m == method) {
            return b.clone();
        }
        let b = Arc::new(LoadBalance::compute_on(graph, ranks, method));
        memo.push(((ranks, method.clone()), b.clone()));
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpgen_runtime::run_reference;
    use dpgen_tiling::tiling::CellRef;

    const CHAIN2: &str = "name tri\nvars x y\nparams N\nconstraint x >= 0\n\
                          constraint y >= 0\nconstraint x + y <= N\n\
                          template r1 1 0\ntemplate r2 0 1\nloadbalance x\nwidths 3 3\n";

    /// The `x + y <= n` triangle in `w x w` tiles.
    fn triangle(w: i64, n: i64) -> Arc<Plan> {
        let spec = CHAIN2.replace("widths 3 3", &format!("widths {w} {w}"));
        Plan::from_spec(&spec, &[n]).unwrap()
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

    /// A run kernel that is its own type (so its runs count as batched)
    /// but keeps the default per-cell `eval_run`.
    struct PathRuns;

    impl Kernel<f64> for PathRuns {
        fn compute(&self, cell: CellRef<'_>, values: &mut [f64]) {
            path_kernel(cell, values)
        }
    }

    impl RunKernel<f64> for PathRuns {}

    /// The counters any two executions of one problem must agree on,
    /// summed over ranks.
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

    fn stage_of(err: &RunError) -> CompileStage {
        match err {
            RunError::CompileError(f) => f.stage,
            other => panic!("expected a CompileError, got {other}"),
        }
    }

    #[test]
    fn all_modes_agree() {
        let n = 16i64;
        let plan = triangle(3, n);
        let dense = run_reference::<f64, _>(plan.tiling(), &[n], &path_kernel);
        let want = vec![dense.get(&[0, 0]), dense.get(&[n, 0])];
        let probe = Probe::many(&[&[0, 0], &[n, 0]]);

        let shared = plan
            .execute(
                &path_kernel,
                &ExecOpts::new().threads(3).probe(probe.clone()),
            )
            .unwrap();
        assert_eq!(shared.probes, want);
        assert_eq!(shared.cells_computed(), dense.cells_computed());
        assert_eq!(shared.per_rank.len(), 1);
        assert!(shared.metrics.counter("rank0.cells_computed").is_some());

        let hybrid = plan
            .execute(
                &path_kernel,
                &ExecOpts::new().threads(2).ranks(3).probe(probe),
            )
            .unwrap();
        assert_eq!(hybrid.probes, want);
        assert!(hybrid.balance.is_some());
        assert!(hybrid.edges_remote() > 0);
        assert!(hybrid.metrics.counter("rank2.comm.msgs_sent").is_some());
    }

    #[test]
    fn fresh_plan_second_execution_and_on_tiling_agree_across_modes() {
        let n = 14i64;
        let program = Program::parse(CHAIN2).unwrap();
        let reused = program.compile(&[n]);
        let probe = Probe::many(&[&[0, 0], &[n, 0], &[3, 4]]);
        let run = |plan: &Plan, opts: &ExecOpts| {
            let sum = Reduction::new(0.0f64, |a, b| a + b);
            plan.execute_reduce(&PerCell(&path_kernel), &sum, opts)
                .unwrap()
        };
        for schedule in [Schedule::Dynamic, Schedule::Static] {
            for (threads, ranks) in [(1usize, 1usize), (3, 1), (2, 2)] {
                let tag = format!("{schedule:?} threads={threads} ranks={ranks}");
                let opts = ExecOpts::new()
                    .threads(threads)
                    .ranks(ranks)
                    .schedule(schedule)
                    .probe(probe.clone());
                // A cold memo, a memo earlier configurations filled (twice
                // through it), and a plan built around the bare tiling.
                let fresh = run(&program.compile(&[n]), &opts);
                let bare = Plan::on_tiling(program.tiling().clone(), &[n], vec![0]).unwrap();
                for (who, out) in [
                    ("first", run(&reused, &opts)),
                    ("second", run(&reused, &opts)),
                    ("on_tiling", run(&bare, &opts)),
                ] {
                    assert_eq!(out.probes, fresh.probes, "{tag} {who}");
                    assert_eq!(counters(&out), counters(&fresh), "{tag} {who}");
                    assert_eq!(out.reduction, fresh.reduction, "{tag} {who}");
                }
            }
        }
    }

    #[test]
    fn a_static_request_runs_static_on_a_ragged_triangle() {
        // The triangle's slabs shrink toward the hypotenuse; `Static` still
        // runs as asked, with the results and exact counters of `Dynamic`.
        let n = 15i64;
        let tri = triangle(2, n);
        let opts = |threads: usize, ranks: usize, schedule: Schedule| {
            ExecOpts::new()
                .threads(threads)
                .ranks(ranks)
                .schedule(schedule)
                .probe(Probe::many(&[&[0, 0], &[n, 0], &[3, 4]]))
        };
        for (threads, ranks) in [(1usize, 1usize), (2, 1), (4, 1), (2, 2)] {
            let tag = format!("threads={threads} ranks={ranks}");
            let exec = |schedule| tri.execute(&path_kernel, &opts(threads, ranks, schedule));
            let dynamic = exec(Schedule::Dynamic).unwrap();
            let stat = exec(Schedule::Static).unwrap();
            assert_eq!(stat.probes, dynamic.probes, "{tag}");
            assert_eq!(counters(&stat), counters(&dynamic), "{tag}");
            for (rank, r) in stat.per_rank.iter().enumerate() {
                let s = &r.stats;
                assert_eq!(s.schedule, Schedule::Static, "{tag} rank {rank}");
                assert_eq!(s.tiles_per_worker.iter().sum::<u64>(), s.tiles_executed);
            }
            assert_eq!(
                stat.metrics.gauge("rank0.schedule_mode"),
                Some(Schedule::Static.code() as f64),
                "{tag}"
            );
        }
    }

    #[test]
    fn default_priority_is_the_pipelined_wavefront() {
        let default_order =
            |plan: &Plan, opts: &ExecOpts| match plan.artifacts(opts).unwrap().priority {
                TilePriority::ColumnMajor { dim_order } => dim_order,
                other => panic!("default priority {other:?} is not column-major"),
            };
        // bandit2's `(s1, f1)` slabs at two ranks: least significant.
        let bandit2 = Plan::from_spec(&crate::spec::bandit2_spec_text(4), &[8]).unwrap();
        let two = ExecOpts::new().ranks(2);
        assert_eq!(default_order(&bandit2, &two), vec![2, 3, 0, 1]);
        // A hyperplane partition has no slab dimensions: plain column-major.
        let hyper = two.balance(BalanceMethod::Hyperplane);
        assert_eq!(default_order(&bandit2, &hyper), vec![0, 1, 2, 3]);
        // LCS's `i1` at one rank: the spec's `loadbalance` dimension last.
        let lcs = "name lcs2\nvars i1 i2\nparams L1 L2\nconstraint 0 <= i1 <= L1\n\
                   constraint 0 <= i2 <= L2\ntemplate skip1 -1 0\ntemplate skip2 0 -1\n\
                   template all -1 -1\nloadbalance i1\nwidths 4 4\n";
        let lcs = Plan::from_spec(lcs, &[15, 15]).unwrap();
        assert_eq!(default_order(&lcs, &ExecOpts::new()), vec![1, 0]);
    }

    #[test]
    fn batched_path_is_bit_identical_across_widths() {
        // A run kernel with the default per-cell `eval_run` must replay
        // the scan exactly: same probes, same cell counts, across widths
        // that exercise degenerate single-cell runs (w = 1) up to
        // multi-run tiles, on one rank and on two.
        let n = 17i64;
        for w in 1..=5i64 {
            let plan = triangle(w, n);
            let opts = ExecOpts::new()
                .threads(2)
                .probe(Probe::many(&[&[0, 0], &[n, 0], &[3, 4]]));
            let per_cell = plan.execute(&path_kernel, &opts).unwrap();
            let batched = plan.execute_batched(&PathRuns, &opts).unwrap();
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

            let hybrid = plan.execute_batched(&PathRuns, &opts.ranks(2)).unwrap();
            assert_eq!(hybrid.probes, per_cell.probes, "w={w} hybrid");
            let batched_cells: u64 = hybrid.per_rank.iter().map(|r| r.stats.cells_batched).sum();
            let interior: u64 = hybrid.per_rank.iter().map(|r| r.stats.interior_cells).sum();
            assert_eq!(batched_cells, interior, "w={w} hybrid");
        }
    }

    #[test]
    fn execute_reduce_matches_the_reference_fold_per_cell_and_batched() {
        let n = 12i64;
        let plan = triangle(2, n);
        let want =
            run_reference::<f64, _>(plan.tiling(), &[n], &path_kernel).fold(0.0, |a, b| a + b);
        for ranks in [1usize, 2] {
            let opts = ExecOpts::new().threads(2).ranks(ranks);
            let sum = || Reduction::new(0.0f64, |a, b| a + b);
            let per_cell = plan
                .execute_reduce(&PerCell(&path_kernel), &sum(), &opts)
                .unwrap();
            let batched = plan.execute_reduce(&PathRuns, &sum(), &opts).unwrap();
            assert!(
                (per_cell.reduction.unwrap() - want).abs() < 1e-9,
                "ranks={ranks}"
            );
            assert!(
                (batched.reduction.unwrap() - want).abs() < 1e-9,
                "ranks={ranks}"
            );
            let runs = |o: &RunOutput<f64>| -> u64 {
                o.per_rank.iter().map(|r| r.stats.runs_batched).sum()
            };
            assert_eq!(runs(&per_cell), 0);
            assert!(
                runs(&batched) > 0,
                "the reduction must not cost the batching"
            );
        }
    }

    #[test]
    fn tracing_produces_timeline_and_metrics() {
        let plan = triangle(2, 14);
        let opts = ExecOpts::new().threads(2).probe(Probe::at(&[0, 0]));
        let out = plan
            .execute::<f64, _>(&path_kernel, &opts.clone().ranks(2).trace(TraceLevel::Full))
            .unwrap();
        let tl = out
            .timeline
            .as_ref()
            .expect("Full tracing must yield a timeline");
        assert_eq!(tl.spans.len() as u64, counters(&out)[3]);
        assert!(out.metrics.counter("trace.spans").is_some());
        // Off leaves the timeline empty and pays no trace bookkeeping.
        let off = plan.execute::<f64, _>(&path_kernel, &opts).unwrap();
        assert!(off.timeline.is_none());
        assert!(off.metrics.counter("trace.spans").is_none());
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
            .max_recoveries(1)
            .reliability(ReliabilityConfig {
                heartbeat_interval: Some(Duration::from_millis(5)),
                death_timeout: Duration::from_millis(250),
                ..ReliabilityConfig::default()
            })
            .probe(Probe::at(&[0, 0]));
        opts.comm.send_buffers = 0;
        opts.comm.faults = Some(FaultPlan::kill_rank_at(0, KillTrigger::AfterSends(1)));
        let out = plan.execute::<f64, _>(&path_kernel, &opts).unwrap();
        assert_eq!(out.probes[0], Some((1u64 << 15) as f64));
        assert_eq!(out.per_rank.len(), 1);
        assert!(out.comm_stats.is_empty());
        assert!(out.balance.is_none());
        assert_eq!(out.balance_time, Duration::ZERO);
        assert!(plan.balances.lock().is_empty());
        assert!(out.metrics.counter("rank0.cells_computed").is_some());
        assert!(out.metrics.counter("rank0.comm.msgs_sent").is_none());
        assert!(out.metrics.counter("recovery.epochs").is_none());
        assert_eq!(out.recovery.epochs, 1);
        assert_eq!(out.recovery.ranks_lost, 0);
        assert_eq!(out.recovery.checkpoint_bytes, 0);
    }

    /// A load balance names its owners by the tile index of the graph it
    /// was computed on. One computed at another binding, put where this
    /// plan's would be, is refused before a tile runs.
    #[test]
    fn a_balance_of_another_binding_is_refused_at_the_door() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let plan = Plan::from_spec(CHAIN2, &[14]).unwrap();
        let other = Plan::from_spec(CHAIN2, &[30]).unwrap();
        let method = BalanceMethod::Slabs { lb_dims: vec![0] };
        let foreign = LoadBalance::compute_on(&other.graph().unwrap(), 2, &method);
        (plan.balances.lock()).push(((2, method), Arc::new(foreign)));
        let cells = AtomicUsize::new(0);
        let counting = |cell: CellRef<'_>, values: &mut [f64]| {
            cells.fetch_add(1, Ordering::Relaxed);
            path_kernel(cell, values)
        };
        let err = plan
            .execute::<f64, _>(&counting, &ExecOpts::new().ranks(2))
            .unwrap_err();
        assert_eq!(stage_of(&err), CompileStage::Options, "{err}");
        assert!(err.to_string().contains("load balance"), "{err}");
        assert_eq!(cells.load(Ordering::Relaxed), 0);
        // The plan's own partition of the same options runs.
        plan.balances.lock().clear();
        plan.execute::<f64, _>(&counting, &ExecOpts::new().ranks(2))
            .unwrap();
        assert_eq!(cells.load(Ordering::Relaxed), 15 * 16 / 2);
    }

    #[test]
    fn malformed_outside_input_is_a_typed_fault_not_a_panic() {
        let plan = Plan::from_spec(CHAIN2, &[14]).unwrap();
        let slabs = |lb_dims: Vec<usize>| BalanceMethod::Slabs { lb_dims };
        let order = |dim_order: Vec<usize>| TilePriority::ColumnMajor { dim_order };
        let bad = [
            ExecOpts::new().probe(Probe::at(&[0])),
            ExecOpts::new().probe(Probe::many(&[&[0, 0], &[1, 2, 3]])),
            ExecOpts::new().priority(order(vec![0, 5])),
            ExecOpts::new().priority(order(vec![0])),
            ExecOpts::new().priority(order(vec![1, 1])),
            ExecOpts::new().ranks(2).balance(slabs(vec![])),
            ExecOpts::new().ranks(2).balance(slabs(vec![7])),
            ExecOpts::new().ranks(2).balance(slabs(vec![0, 0])),
            ExecOpts::new().ranks((1 << 16) + 1),
            ExecOpts {
                ranks: 0,
                ..ExecOpts::new()
            },
            ExecOpts {
                threads: MAX_THREADS + 1,
                ..ExecOpts::new()
            },
        ];
        for opts in &bad {
            // `warm` reaches the same derivations on the submitting
            // thread: it must decline, not panic.
            plan.warm(opts);
            let err = plan.execute::<f64, _>(&path_kernel, opts).unwrap_err();
            assert_eq!(stage_of(&err), CompileStage::Options, "{opts:?}: {err}");
        }
        assert!(plan.balances.lock().is_empty(), "bad options warm nothing");
        // The knobs one rank ignores stay ignored.
        let ignored = ExecOpts::new().balance(slabs(vec![7]));
        plan.execute::<f64, _>(&path_kernel, &ignored).unwrap();

        // A binding of the wrong arity compiles (compile is infallible)
        // but is refused by admission and by execution alike.
        for params in [&[][..], &[14, 14]] {
            let plan = Program::parse(CHAIN2).unwrap().compile(params);
            assert_eq!(
                stage_of(&plan.cell_bound().unwrap_err()),
                CompileStage::Spec
            );
            assert_eq!(
                stage_of(&plan.admit(u128::MAX).unwrap_err()),
                CompileStage::Spec
            );
            assert_eq!(stage_of(&plan.graph().unwrap_err()), CompileStage::Spec);
            plan.warm(&ExecOpts::new().schedule(Schedule::Static));
            let err = plan
                .execute::<f64, _>(&path_kernel, &ExecOpts::new())
                .unwrap_err();
            assert_eq!(stage_of(&err), CompileStage::Spec, "{err}");
        }

        // Hand-built plans are checked where they are built.
        let tiling = plan.tiling().clone();
        for lb_dims in [vec![2], vec![0, 0]] {
            let err = Plan::on_tiling(tiling.clone(), &[14], lb_dims).unwrap_err();
            assert_eq!(stage_of(&err), CompileStage::Spec, "{err}");
        }
        assert!(Plan::on_tiling(tiling, &[14], vec![1, 0]).is_ok());
    }

    /// Rank recovery detects a death by heartbeat silence: asked for at two
    /// ranks with heartbeats off it is refused before anything runs, and at
    /// one rank, where no peer can die, it is ignored like every other
    /// multi-rank knob.
    #[test]
    fn recovery_without_heartbeats_is_an_options_fault() {
        let plan = Plan::from_spec(CHAIN2, &[14]).unwrap();
        let opts = ExecOpts::new().max_recoveries(1).probe(Probe::at(&[0, 0]));
        assert!(opts.comm.reliability.heartbeat_interval.is_none());
        let two_ranks = opts.clone().ranks(2);
        let err = plan
            .execute::<f64, _>(&path_kernel, &two_ranks)
            .unwrap_err();
        assert_eq!(stage_of(&err), CompileStage::Options, "{err}");
        assert!(err.to_string().contains("heartbeat"), "{err}");
        let out = plan.execute::<f64, _>(&path_kernel, &opts).unwrap();
        assert_eq!(out.probes[0], Some((1u64 << 15) as f64));
        assert_eq!(out.recovery.epochs, 1);
    }

    /// A death is named after `death_timeout` of silence, and a survivor's
    /// watchdog fails the run after `stall_timeout`: recovery with a death
    /// timeout not below the stall window could never fire, so it is
    /// refused before anything runs.
    #[test]
    fn recovery_that_the_watchdog_would_preempt_is_an_options_fault() {
        let plan = Plan::from_spec(CHAIN2, &[14]).unwrap();
        let opts = ExecOpts::new()
            .ranks(2)
            .max_recoveries(1)
            .reliability(ReliabilityConfig {
                heartbeat_interval: Some(Duration::from_millis(2)),
                death_timeout: Duration::from_secs(1),
                ..ReliabilityConfig::default()
            })
            .probe(Probe::at(&[0, 0]));
        for stall in [Duration::from_millis(200), Duration::from_secs(1)] {
            let err = plan
                .execute::<f64, _>(&path_kernel, &opts.clone().stall_timeout(stall))
                .unwrap_err();
            assert_eq!(stage_of(&err), CompileStage::Options, "{err}");
            assert!(err.to_string().contains("death_timeout"), "{err}");
        }
        let out = plan
            .execute::<f64, _>(&path_kernel, &opts.stall_timeout(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(out.probes[0], Some((1u64 << 15) as f64));
        assert_eq!(out.recovery.epochs, 1);
    }

    #[test]
    fn every_rank_epoch_and_execution_of_a_plan_reads_one_graph() {
        use dpgen_mpisim::{FaultPlan, KillTrigger};
        let n = 25i64;
        let plan = triangle(3, n);
        let dense = run_reference::<f64, _>(plan.tiling(), &[n], &path_kernel);
        let coords = [[0, 0], [n, 0], [0, n], [3, 4], [7, 7]];
        let probe: Vec<&[i64]> = coords.iter().map(|c| &c[..]).collect();
        let want: Vec<Option<f64>> = coords.iter().map(|c| dense.get(c)).collect();
        let opts = ExecOpts::new().threads(2).probe(Probe::many(&probe));
        // What an execution with `o` runs on, against the reference.
        let run = |o: &ExecOpts| {
            let out = plan.execute(&path_kernel, o).unwrap();
            assert_eq!(out.probes, want, "{o:?}");
            assert_eq!(out.cells_computed(), dense.cells_computed(), "{o:?}");
            (plan.artifacts(o).unwrap().graph, out)
        };

        // Four threads race on the cold plan: one derivation, one `Arc`.
        let start = std::sync::Barrier::new(4);
        let raced: Vec<Arc<TileGraph>> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        run(&opts).0
                    })
                })
                .collect();
            racers.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let graph = plan.graph().unwrap();
        assert!(raced.iter().all(|g| Arc::ptr_eq(g, &graph)));
        assert!(
            !graph.cells_counted(),
            "a one-rank Dynamic execution needs no cell count"
        );

        for ranks in [1usize, 2] {
            for schedule in [Schedule::Dynamic, Schedule::Static] {
                let (ran_on, _) = run(&opts.clone().ranks(ranks).schedule(schedule));
                assert!(Arc::ptr_eq(&ran_on, &graph), "{schedule:?} ranks={ranks}");
            }
        }
        assert!(graph.cells_counted(), "the balance counts");

        // A killed rank: both epochs, the resumed-cell count included, read
        // the same graph.
        let mut killed = opts.clone().ranks(2).max_recoveries(1);
        killed.comm.reliability = ReliabilityConfig {
            heartbeat_interval: Some(Duration::from_millis(2)),
            death_timeout: Duration::from_millis(100),
            ..ReliabilityConfig::default()
        };
        killed.comm.faults = Some(FaultPlan::kill_rank_at(0, KillTrigger::AfterSends(3)));
        let (ran_on, out) = run(&killed);
        assert_eq!(out.recovery.epochs, 2);
        assert!(Arc::ptr_eq(&ran_on, &graph));
        assert!(Arc::ptr_eq(&plan.graph().unwrap(), &graph));
    }

    #[test]
    fn from_spec_names_the_failing_stage() {
        // Parse failure -> spec stage.
        let err = Plan::from_spec("vars x\nwidths 1\n", &[]).unwrap_err();
        assert_eq!(stage_of(&err), CompileStage::Spec);
        // Unbounded space -> tiling derivation.
        let err = Plan::from_spec(
            "name u\nvars x\nconstraint x >= 0\ntemplate r 1\nwidths 4\n",
            &[],
        )
        .unwrap_err();
        let stage = stage_of(&err);
        assert!(
            stage == CompileStage::Tiling || stage == CompileStage::Poly,
            "stage {stage:?}"
        );
    }

    #[test]
    fn admission_bounds_the_box() {
        let plan = Plan::from_spec(CHAIN2, &[9]).unwrap();
        assert_eq!(plan.cell_bound().unwrap(), 100); // 10 x 10 box
        assert!(plan.admit(100).is_ok());
        let err = plan.admit(99).unwrap_err();
        assert_eq!(stage_of(&err), CompileStage::Admission);
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
        // and match the dense reference.
        let want = run_reference::<f64, _>(plan.tiling(), &[20], &path_kernel).get(&[0, 0]);
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
