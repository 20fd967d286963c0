//! The resident job engine: compile-once, execute-many serving.
//!
//! An [`Engine`] owns a [`PlanCache`] and a pool of executor threads.
//! Tenants submit `(spec, params, kernel)` jobs; the engine hashes the
//! spec, reuses or compiles the [`Plan`], applies admission control
//! (rejecting jobs whose bounding box exceeds the configured cell limit,
//! via the polyhedral `probe_box` bounds behind [`Plan::admit`]), and
//! executes admitted jobs concurrently over the shared-memory runtime —
//! each job through the tile scheduler with its own worker threads.
//! Every job gets a cancellation flag ([`JobHandle::cancel`]) the runtime
//! polls between tiles, and per-job plus aggregate latency/throughput
//! metrics flow through the runtime's [`MetricsRegistry`].

use crate::cache::PlanCache;
use dpgen_core::specgen::fuzz_kernel;
use dpgen_core::{spec_hash, ExecOpts, GeneratedSpec, Plan, ProblemSpec, Program, ProgramError};
use dpgen_runtime::{CompileFault, CompileStage, MetricsRegistry, RunError};
use dpgen_tiling::tiling::CellRef;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A tenant-supplied per-cell kernel over the engine's `u64` cell type.
pub type JobKernel = Arc<dyn Fn(CellRef<'_>, &mut [u64]) + Send + Sync>;

/// Engine tunables.
#[derive(Clone)]
pub struct EngineConfig {
    /// Executor threads: how many jobs run concurrently. Each job then
    /// uses its own `opts.threads` runtime workers.
    pub workers: usize,
    /// Compiled-plan LRU capacity.
    pub cache_capacity: usize,
    /// Admission limit: jobs whose iteration-space bounding box exceeds
    /// this many cells are rejected at submission.
    pub max_cells: u128,
    /// Default per-job execution options (a job may override).
    pub opts: ExecOpts,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            workers: 2,
            cache_capacity: 64,
            max_cells: 1 << 32,
            opts: ExecOpts::new(),
        }
    }
}

/// What a finished job reports back.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Probe values, aligned with the submitted options' probe.
    pub probes: Vec<Option<u64>>,
    /// Cells computed by this execution.
    pub cells: u64,
    /// Whether submission reused a cached plan.
    pub cache_hit: bool,
    /// Submission-to-completion wall time (queueing included).
    pub latency: Duration,
    /// Execution wall time alone.
    pub exec_time: Duration,
}

struct JobState {
    slot: Mutex<Option<Result<JobOutcome, RunError>>>,
    cv: Condvar,
}

impl JobState {
    fn complete(&self, result: Result<JobOutcome, RunError>) {
        *self.slot.lock() = Some(result);
        self.cv.notify_all();
    }
}

/// A submitted job: cancel it, then (or instead) wait for its outcome.
pub struct JobHandle {
    cancel: Arc<AtomicBool>,
    state: Arc<JobState>,
    cache_hit: bool,
    plan: Arc<Plan>,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("cache_hit", &self.cache_hit)
            .field("cancelled", &self.cancel.load(Ordering::Relaxed))
            .field("plan", &self.plan)
            .finish()
    }
}

impl JobHandle {
    /// Whether submission hit the plan cache.
    pub fn cache_hit(&self) -> bool {
        self.cache_hit
    }

    /// The compiled plan backing this job.
    pub fn plan(&self) -> &Arc<Plan> {
        &self.plan
    }

    /// Raise the job's cancellation flag. A queued job completes as
    /// [`RunError::Cancelled`] without executing; a mid-flight job aborts
    /// at the runtime's next poll. Idempotent.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Release);
    }

    /// Block until the job completes (successfully, with an error, or
    /// cancelled).
    pub fn wait(self) -> Result<JobOutcome, RunError> {
        let mut slot = self.state.slot.lock();
        while slot.is_none() {
            self.state.cv.wait(&mut slot);
        }
        slot.take().expect("job completed")
    }
}

struct Job {
    plan: Arc<Plan>,
    kernel: JobKernel,
    opts: ExecOpts,
    cancel: Arc<AtomicBool>,
    state: Arc<JobState>,
    cache_hit: bool,
    submitted: Instant,
}

struct Shared {
    cache: PlanCache,
    queue: Mutex<VecDeque<Job>>,
    cv: Condvar,
    shutdown: AtomicBool,
    metrics: Mutex<MetricsRegistry>,
    completed: AtomicU64,
    started: Instant,
}

impl Shared {
    fn count(&self, name: &str) {
        self.metrics.lock().add_counter(name, 1);
    }
}

/// The resident multi-tenant job engine (see the module docs).
pub struct Engine {
    shared: Arc<Shared>,
    config: EngineConfig,
    workers: Vec<JoinHandle<()>>,
}

impl Engine {
    /// Start an engine with `config.workers` executor threads.
    pub fn new(config: EngineConfig) -> Engine {
        let shared = Arc::new(Shared {
            cache: PlanCache::new(config.cache_capacity),
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            metrics: Mutex::new(MetricsRegistry::new()),
            completed: AtomicU64::new(0),
            started: Instant::now(),
        });
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Engine {
            shared,
            config,
            workers,
        }
    }

    /// Submit a job: compile or reuse the plan for `(spec, params)`,
    /// admission-check it, and enqueue execution with `kernel`.
    /// Rejections (invalid spec, a parameter binding of the wrong arity,
    /// unbounded or oversized space) surface here as typed
    /// [`RunError::CompileError`]s; execution failures — unrunnable
    /// options among them — surface from [`JobHandle::wait`].
    pub fn submit(
        &self,
        spec: &ProblemSpec,
        params: &[i64],
        kernel: JobKernel,
        opts: Option<ExecOpts>,
    ) -> Result<JobHandle, RunError> {
        let opts = opts.unwrap_or_else(|| self.config.opts.clone());
        let key = spec_hash(spec, params);
        let max_cells = self.config.max_cells;
        let t_compile = Instant::now();
        let compiled = self.shared.cache.get_or_compile(key, || {
            let program = Program::from_spec(spec.clone()).map_err(|e| match e {
                ProgramError::Spec(s) => RunError::from(CompileFault::new(CompileStage::Spec, s)),
                ProgramError::Tiling(t) => RunError::from(t),
            })?;
            let plan = program.compile(params);
            plan.admit(max_cells)?;
            // Pay every derivation now so cache-hit executions start
            // immediately.
            plan.warm(&opts);
            Ok(plan)
        });
        let (plan, cache_hit) = match compiled {
            Ok(x) => x,
            Err(e) => {
                self.shared.count("serve.jobs_rejected");
                return Err(e);
            }
        };
        {
            let mut m = self.shared.metrics.lock();
            m.add_counter("serve.jobs_submitted", 1);
            if cache_hit {
                m.add_counter("serve.cache_hits", 1);
            } else {
                m.add_counter("serve.cache_misses", 1);
                m.observe("serve.compile_us", t_compile.elapsed().as_micros() as u64);
            }
        }
        let cancel = Arc::new(AtomicBool::new(false));
        let state = Arc::new(JobState {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        });
        let job = Job {
            plan: plan.clone(),
            kernel,
            opts,
            cancel: cancel.clone(),
            state: state.clone(),
            cache_hit,
            submitted: Instant::now(),
        };
        self.shared.queue.lock().push_back(job);
        self.shared.cv.notify_one();
        Ok(JobHandle {
            cancel,
            state,
            cache_hit,
            plan,
        })
    }

    /// Submit a [`GeneratedSpec`] (the `specgen` load-generator path)
    /// with the differential fuzzer's order-insensitive mixing kernel.
    pub fn submit_generated(
        &self,
        gs: &GeneratedSpec,
        opts: Option<ExecOpts>,
    ) -> Result<JobHandle, RunError> {
        let kernel = fuzz_kernel(gs.spec.templates.len());
        self.submit(&gs.spec, &[gs.param], Arc::new(kernel), opts)
    }

    /// The plan cache (hit/miss/eviction counters live here).
    pub fn cache(&self) -> &PlanCache {
        &self.shared.cache
    }

    /// Jobs completed (successfully or not) since the engine started.
    pub fn completed(&self) -> u64 {
        self.shared.completed.load(Ordering::Relaxed)
    }

    /// A point-in-time metrics snapshot: the raw `serve.*` counters and
    /// latency histograms, plus derived percentiles, cache hit rate and
    /// aggregate throughput.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut m = self.shared.metrics.lock().clone();
        if let Some(h) = m.histogram("serve.latency_us").cloned() {
            m.set_gauge("serve.latency_p50_us", h.quantile(0.50) as f64);
            m.set_gauge("serve.latency_p99_us", h.quantile(0.99) as f64);
        }
        if let Some(h) = m.histogram("serve.exec_us").cloned() {
            m.set_gauge("serve.exec_p50_us", h.quantile(0.50) as f64);
            m.set_gauge("serve.exec_p99_us", h.quantile(0.99) as f64);
        }
        m.set_gauge("serve.cache_hit_rate", self.shared.cache.hit_rate());
        let secs = self.shared.started.elapsed().as_secs_f64();
        if secs > 0.0 {
            m.set_gauge(
                "serve.throughput_jobs_per_s",
                self.shared.completed.load(Ordering::Relaxed) as f64 / secs,
            );
        }
        m
    }

    /// Stop accepting work, cancel everything still queued, and join the
    /// executor threads. Called by `Drop`; explicit calls are idempotent.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Queued jobs never execute: complete them as cancelled so
        // waiters unblock.
        let drained: Vec<Job> = self.shared.queue.lock().drain(..).collect();
        for job in drained {
            job.state.complete(Err(RunError::Cancelled { rank: 0 }));
        }
        self.shared.cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock();
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                shared.cv.wait(&mut queue);
            }
        };
        run_job(shared, job);
    }
}

fn run_job(shared: &Shared, job: Job) {
    if job.cancel.load(Ordering::Acquire) {
        shared.count("serve.jobs_cancelled");
        shared.completed.fetch_add(1, Ordering::Relaxed);
        job.state.complete(Err(RunError::Cancelled { rank: 0 }));
        return;
    }
    let opts = job.opts.clone().cancel(job.cancel.clone());
    let kernel = {
        let k = job.kernel.clone();
        move |cell: CellRef<'_>, values: &mut [u64]| k(cell, values)
    };
    let t_exec = Instant::now();
    let result = job.plan.execute::<u64, _>(&kernel, &opts);
    let exec_time = t_exec.elapsed();
    let latency = job.submitted.elapsed();
    let outcome = result.map(|out| JobOutcome {
        probes: out.probes.clone(),
        cells: out.cells_computed(),
        cache_hit: job.cache_hit,
        latency,
        exec_time,
    });
    {
        let mut m = shared.metrics.lock();
        m.observe("serve.latency_us", latency.as_micros() as u64);
        m.observe("serve.exec_us", exec_time.as_micros() as u64);
        match &outcome {
            Ok(out) => {
                m.add_counter("serve.jobs_completed", 1);
                m.add_counter("serve.cells_computed", out.cells);
            }
            Err(RunError::Cancelled { .. }) => m.add_counter("serve.jobs_cancelled", 1),
            Err(_) => m.add_counter("serve.jobs_failed", 1),
        }
    }
    shared.completed.fetch_add(1, Ordering::Relaxed);
    job.state.complete(outcome);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpgen_core::BalanceMethod;
    use dpgen_runtime::{Probe, TilePriority};

    const TRI: &str = "name tri\nvars x y\nparams N\nconstraint x >= 0\n\
                       constraint y >= 0\nconstraint x + y <= N\n\
                       template r1 1 0\ntemplate r2 0 1\nloadbalance x\nwidths 3 3\n";

    fn path(cell: CellRef<'_>, values: &mut [u64]) {
        let a = if cell.valid[0] {
            values[cell.loc_r(0)]
        } else {
            1
        };
        let b = if cell.valid[1] {
            values[cell.loc_r(1)]
        } else {
            1
        };
        values[cell.loc] = a + b;
    }

    fn path_kernel() -> JobKernel {
        Arc::new(path)
    }

    fn tri_spec() -> ProblemSpec {
        ProblemSpec::parse(TRI).unwrap()
    }

    #[test]
    fn repeated_submission_hits_the_cache_and_matches_a_fresh_run() {
        let engine = Engine::new(EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        });
        let spec = tri_spec();
        let opts = ExecOpts::new().threads(2).probe(Probe::at(&[0, 0]));
        let fresh = Program::from_spec(spec.clone())
            .unwrap()
            .compile(&[12])
            .execute(&path, &opts)
            .unwrap();
        let mut hits = 0;
        for round in 0..4 {
            let handle = engine
                .submit(&spec, &[12], path_kernel(), Some(opts.clone()))
                .unwrap();
            hits += handle.cache_hit() as u32;
            let out = handle.wait().unwrap();
            assert_eq!(out.probes, fresh.probes, "round {round}");
            assert_eq!(out.cells, fresh.cells_computed());
        }
        assert_eq!(hits, 3, "all but the first submission must hit");
        assert_eq!(engine.cache().len(), 1);
        let m = engine.metrics();
        assert_eq!(m.counter("serve.jobs_completed"), Some(4));
        assert!(m.gauge("serve.latency_p50_us").is_some());
        assert!(m.gauge("serve.cache_hit_rate").unwrap() > 0.70);
    }

    #[test]
    fn unrunnable_options_fail_the_job_not_the_worker() {
        // One resident worker: if a bad job panicked it, the jobs behind
        // it would never complete.
        let engine = Engine::new(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        });
        let spec = tri_spec();
        let mut no_send = ExecOpts::new().ranks(2);
        no_send.comm.send_buffers = 0;
        let mut no_recv = ExecOpts::new().ranks(2);
        no_recv.comm.recv_buffers = 0;
        let order = |dim_order: Vec<usize>| TilePriority::ColumnMajor { dim_order };
        let slabs = |lb_dims: Vec<usize>| BalanceMethod::Slabs { lb_dims };
        let bad = [
            no_send,
            no_recv,
            ExecOpts::new().probe(Probe::at(&[0])),
            ExecOpts::new().priority(order(vec![0, 5])),
            ExecOpts::new().priority(order(vec![0])),
            ExecOpts::new().ranks(2).balance(slabs(vec![])),
            ExecOpts::new().ranks(2).balance(slabs(vec![7])),
            ExecOpts {
                ranks: 0,
                ..ExecOpts::new()
            },
            // A ready heap, a trace ring and an OS thread each: refused
            // before any is made.
            ExecOpts {
                threads: 1 << 20,
                ..ExecOpts::new()
            },
        ];
        let n_bad = bad.len() as u64;
        // All queued before any is waited on: each bad job has the good
        // one behind it on the same worker.
        let handles: Vec<JobHandle> = bad
            .into_iter()
            .map(|opts| {
                engine
                    .submit(&spec, &[12], path_kernel(), Some(opts))
                    .unwrap()
            })
            .collect();
        let good = ExecOpts::new().threads(2).probe(Probe::at(&[0, 0]));
        let good = engine
            .submit(&spec, &[12], path_kernel(), Some(good.clone()))
            .unwrap();
        for handle in handles {
            let err = handle.wait().unwrap_err();
            match &err {
                RunError::CompileError(f) => assert_eq!(f.stage, CompileStage::Options, "{err}"),
                other => panic!("expected an options fault, got {other}"),
            }
        }
        assert_eq!(good.wait().unwrap().probes, vec![Some(1 << 13)]);
        assert_eq!(engine.metrics().counter("serve.jobs_failed"), Some(n_bad));
    }

    #[test]
    fn wrong_arity_binding_is_rejected_at_submission() {
        let engine = Engine::new(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        });
        let spec = tri_spec();
        for params in [&[][..], &[12, 12]] {
            let err = engine
                .submit(&spec, params, path_kernel(), None)
                .unwrap_err();
            match &err {
                RunError::CompileError(f) => assert_eq!(f.stage, CompileStage::Spec, "{err}"),
                other => panic!("expected a spec fault, got {other}"),
            }
        }
        let m = engine.metrics();
        assert_eq!(m.counter("serve.jobs_rejected"), Some(2));
        assert_eq!(m.counter("serve.jobs_submitted"), None);
        assert_eq!(engine.cache().len(), 0, "rejected plans must not be cached");
        // Nothing was queued, nothing died: the engine keeps serving.
        let opts = ExecOpts::new().probe(Probe::at(&[0, 0]));
        let out = engine
            .submit(&spec, &[12], path_kernel(), Some(opts))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(out.probes, vec![Some(1 << 13)]);
    }

    #[test]
    fn admission_rejects_oversized_jobs() {
        let engine = Engine::new(EngineConfig {
            max_cells: 50, // a 13x13 box is over the limit
            ..EngineConfig::default()
        });
        let err = engine
            .submit(&tri_spec(), &[12], path_kernel(), None)
            .unwrap_err();
        match err {
            RunError::CompileError(f) => assert_eq!(f.stage, CompileStage::Admission),
            other => panic!("expected admission rejection, got {other}"),
        }
        assert_eq!(engine.metrics().counter("serve.jobs_rejected"), Some(1));
        assert_eq!(engine.cache().len(), 0, "rejected plans must not be cached");
    }

    #[test]
    fn banded_jobs_pass_admission_where_the_dense_twin_is_rejected() {
        // A 101x101 square is 10201 cells, but restricted to the
        // |x - y| <= 2 diagonal band only 499 exist — and `Plan::admit`
        // prices the band intersection, not the bounding box, so the
        // banded job clears a budget its dense twin blows through.
        const SQ: &str = "name sq\nvars x y\nparams N\nconstraint x >= 0\n\
                          constraint x <= N\nconstraint y >= 0\nconstraint y <= N\n\
                          template r1 1 0\ntemplate r2 0 1\nloadbalance x\nwidths 8 8\n";
        let dense = ProblemSpec::parse(SQ).unwrap();
        let banded = ProblemSpec::parse(&format!("{SQ}band x y -2 2\n")).unwrap();
        let engine = Engine::new(EngineConfig {
            max_cells: 1000,
            ..EngineConfig::default()
        });
        // Longest-path lengths stay small; path *counts* would overflow
        // u64 over a 101-step band.
        let longest: JobKernel = Arc::new(|cell: CellRef<'_>, values: &mut [u64]| {
            let a = if cell.valid[0] {
                values[cell.loc_r(0)]
            } else {
                0
            };
            let b = if cell.valid[1] {
                values[cell.loc_r(1)]
            } else {
                0
            };
            values[cell.loc] = a.max(b) + 1;
        });
        let err = engine
            .submit(&dense, &[100], longest.clone(), None)
            .unwrap_err();
        match err {
            RunError::CompileError(f) => assert_eq!(f.stage, CompileStage::Admission),
            other => panic!("expected admission rejection, got {other}"),
        }
        let out = engine
            .submit(&banded, &[100], longest, None)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(out.cells, 499, "must compute exactly the in-band cells");
        assert_eq!(engine.metrics().counter("serve.jobs_rejected"), Some(1));
        assert_eq!(engine.metrics().counter("serve.jobs_completed"), Some(1));
    }

    #[test]
    fn midflight_cancel_does_not_poison_the_cached_plan() {
        let engine = Engine::new(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        });
        let spec = tri_spec();
        let probe = Probe::at(&[0, 0]);
        let opts = ExecOpts::new().threads(2).probe(probe.clone());
        // A slow kernel: ~1ms per tile row keeps the job in flight long
        // enough to cancel deterministically.
        let slow: JobKernel = Arc::new(|cell: CellRef<'_>, values: &mut [u64]| {
            std::thread::sleep(Duration::from_micros(300));
            let a = if cell.valid[0] {
                values[cell.loc_r(0)]
            } else {
                1
            };
            let b = if cell.valid[1] {
                values[cell.loc_r(1)]
            } else {
                1
            };
            values[cell.loc] = a + b;
        });
        let n = 20i64; // 231 cells x 300us: ~70ms of kernel time
        let handle = engine
            .submit(&spec, &[n], slow, Some(opts.clone()))
            .unwrap();
        std::thread::sleep(Duration::from_millis(5));
        handle.cancel();
        let err = handle.wait().unwrap_err();
        assert!(matches!(err, RunError::Cancelled { .. }), "got {err}");

        // The same cached plan must now produce a bit-identical result to
        // a fresh one-shot run.
        let want = Program::from_spec(spec.clone())
            .unwrap()
            .compile(&[n])
            .execute(&path, &opts)
            .unwrap();
        let handle = engine
            .submit(&spec, &[n], path_kernel(), Some(opts))
            .unwrap();
        assert!(handle.cache_hit(), "cancellation must not evict the plan");
        let out = handle.wait().unwrap();
        assert_eq!(out.probes, want.probes);
        assert_eq!(engine.metrics().counter("serve.jobs_cancelled"), Some(1));
    }

    #[test]
    fn concurrent_multi_tenant_load_with_generated_specs() {
        let engine = Engine::new(EngineConfig {
            workers: 4,
            cache_capacity: 16,
            ..EngineConfig::default()
        });
        let mut gen = dpgen_core::SpecGen::new(0xD5);
        let specs: Vec<GeneratedSpec> = (0..6).map(|_| gen.next_spec()).collect();
        let opts = ExecOpts::new().threads(2);
        let handles: Vec<JobHandle> = (0..48)
            .map(|i| {
                engine
                    .submit_generated(&specs[i % specs.len()], Some(opts.clone()))
                    .unwrap()
            })
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let out = h.wait().unwrap_or_else(|e| panic!("job {i}: {e}"));
            assert!(out.cells > 0, "job {i} computed nothing");
        }
        let m = engine.metrics();
        assert_eq!(m.counter("serve.jobs_completed"), Some(48));
        assert_eq!(m.counter("serve.jobs_failed"), None);
        assert_eq!(engine.cache().misses(), 6);
        assert_eq!(engine.cache().hits(), 42);
    }
}
