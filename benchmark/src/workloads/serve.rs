//! `serve_mixed`: the resident engine under a mixed job stream. One op is a
//! seeded batch of jobs through one `Engine` (2 workers, 1 thread per job,
//! plan cache of 64), two jobs in flight: 90% drawn from 8 hot specs, 10%
//! cold specs that are never resident when they arrive, so each cold job is
//! a compile miss plus an LRU eviction. Kernels are tiny; the per-job fixed
//! cost (hash, cache, queue, wake, spawn) dominates.

use super::compile_layers;
use crate::harness::{quantile, sorted, EndToEnd, OpOutcome, Workload};
use crate::inputs::Rng;
use crate::metrics::Metrics;
use crate::trace::Recorder;
use dpgen_core::specgen::reference_eval;
use dpgen_core::{ExecOpts, GeneratedSpec, SpecGen};
use dpgen_runtime::Probe;
use dpgen_serve::{Engine, EngineConfig, JobHandle, JobOutcome};
use std::collections::HashSet;
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
const CACHE: usize = 64;
/// Dimensions of the hot specs, slot by slot. The stream's shape is fixed
/// (this mix, and the size bands below) so that every seed offers the same
/// amount of work; the seed chooses which specs fill it.
const HOT_DIMS: [usize; 8] = [1, 1, 1, 2, 2, 2, 3, 3];
/// Cold specs per op, a third of each dimension. A cold spec comes back
/// once per op, after `COLD - 1` other cold specs have been compiled into a
/// cache with `CACHE - 8` slots for them: it is always evicted by then.
const COLD: usize = 60;
const JOBS: usize = 600;
/// Occupied tiles a hot / a cold spec may have.
const HOT_TILES: std::ops::RangeInclusive<usize> = 2..=6;
const COLD_TILES: std::ops::RangeInclusive<usize> = 1..=24;

const _: () = assert!(COLD - 1 > CACHE - HOT_DIMS.len() && COLD * 10 == JOBS);

/// One spec of the stream with what the oracle expects of a job on it.
struct Tenant {
    spec: GeneratedSpec,
    /// The cell probed: the last one in dependency order.
    probe: Vec<i64>,
    /// Its value by the naive reference interpreter
    /// (`specgen::reference_eval`: no tiling, no scheduler, no plan).
    expect: u64,
    cells: u64,
}

pub struct ServeInputs {
    /// The hot specs, then the cold ones.
    tenants: Vec<Tenant>,
    /// One op's job stream, as indices into `tenants`.
    jobs: Vec<usize>,
}

pub struct ServeRun {
    engine: Engine,
    /// Per-tenant job options (one runtime thread, the tenant's probe).
    opts: Vec<ExecOpts>,
}

/// Tiles a spec's lattice occupies, by floor division of every point.
fn occupied_tiles(points: &[Vec<i64>], widths: &[i64]) -> usize {
    let tiles: HashSet<Vec<i64>> = points
        .iter()
        .map(|p| {
            p.iter()
                .zip(widths)
                .map(|(x, w)| x.div_euclid(*w))
                .collect()
        })
        .collect();
    tiles.len()
}

fn job_ok(out: &JobOutcome, tenant: &Tenant) -> bool {
    out.probes.first() == Some(&Some(tenant.expect)) && out.cells == tenant.cells
}

/// What one pass over the job stream saw.
#[derive(Default)]
struct Batch {
    ok: bool,
    /// Per job: how long `submit` took, and whether it hit the cache.
    submits: Vec<(Duration, bool)>,
    outcomes: Vec<JobOutcome>,
}

impl ServeRun {
    /// Submit the stream with two jobs in flight; `keep` retains per-job
    /// observations for the traced pass.
    fn batch(&self, inputs: &ServeInputs, keep: bool) -> Batch {
        let mut batch = Batch {
            ok: true,
            ..Batch::default()
        };
        let mut in_flight: Option<(JobHandle, usize)> = None;
        let finish = |batch: &mut Batch, (handle, tenant): (JobHandle, usize)| match handle.wait() {
            Ok(out) => {
                batch.ok &= job_ok(&out, &inputs.tenants[tenant]);
                if keep {
                    batch.outcomes.push(out);
                }
            }
            Err(e) => {
                eprintln!("serve_mixed: job failed: {e}");
                batch.ok = false;
            }
        };
        for &tenant in &inputs.jobs {
            let t = Instant::now();
            let submitted = self.engine.submit_generated(
                &inputs.tenants[tenant].spec,
                Some(self.opts[tenant].clone()),
            );
            let took = t.elapsed();
            match submitted {
                Ok(handle) => {
                    if keep {
                        batch.submits.push((took, handle.cache_hit()));
                    }
                    if let Some(previous) = in_flight.replace((handle, tenant)) {
                        finish(&mut batch, previous);
                    }
                }
                Err(e) => {
                    eprintln!("serve_mixed: job rejected: {e}");
                    batch.ok = false;
                }
            }
        }
        if let Some(last) = in_flight.take() {
            finish(&mut batch, last);
        }
        batch
    }

    fn cache_counts(&self) -> [u64; 3] {
        let c = self.engine.cache();
        [c.hits(), c.misses(), c.evictions()]
    }
}

impl Workload for ServeRun {
    type Inputs = ServeInputs;

    const NAME: &'static str = "serve_mixed";
    const WORK_UNIT: &'static str = "jobs";

    fn inputs(seed: u64) -> ServeInputs {
        let rng = Rng::new(seed);
        let mut gen = SpecGen::new(rng.fork(1).next_u64());
        let mut hot: Vec<Option<Tenant>> = HOT_DIMS.iter().map(|_| None).collect();
        let mut cold: Vec<Tenant> = Vec::new();
        let mut cold_per_dim = [0usize; 3];
        let mut seen = HashSet::new();
        while hot.iter().any(Option::is_none) || cold.len() < COLD {
            let spec = gen.next_spec();
            if !seen.insert(format!("{:?}|{}", spec.spec, spec.param)) {
                continue;
            }
            let reference =
                reference_eval(&spec.spec, spec.param).expect("generated spec evaluates");
            let Some(probe) = reference.points.last().cloned() else {
                continue;
            };
            let dims = spec.spec.vars.len();
            // 3-D specs with two cross-dimension constraints (8 in all) are
            // left out: about 1 in 500 of them takes 30 ms to 1.4 s in
            // `Program::from_spec`, 100-5000x the median (README,
            // "Findings"), and one such spec would decide a whole run.
            if dims == 3 && spec.spec.constraints.len() > 7 {
                continue;
            }
            let tiles = occupied_tiles(&reference.points, &spec.spec.widths);
            let tenant = Tenant {
                expect: reference.values[&probe],
                cells: reference.points.len() as u64,
                probe,
                spec,
            };
            let free_hot = (0..hot.len()).find(|&k| hot[k].is_none() && HOT_DIMS[k] == dims);
            if let (Some(slot), true) = (free_hot, HOT_TILES.contains(&tiles)) {
                hot[slot] = Some(tenant);
            } else if COLD_TILES.contains(&tiles) && cold_per_dim[dims - 1] < COLD / 3 {
                cold_per_dim[dims - 1] += 1;
                cold.push(tenant);
            }
        }
        let mut tenants: Vec<Tenant> = hot.into_iter().flatten().collect();
        let hot_count = tenants.len();
        tenants.extend(cold);

        // Every cold spec once, at a random place among hot jobs drawn
        // uniformly from the hot set.
        let mut order = rng.fork(2);
        let mut jobs: Vec<usize> = (hot_count..hot_count + COLD).collect();
        jobs.extend((0..JOBS - COLD).map(|_| order.below(hot_count)));
        order.shuffle(&mut jobs);
        ServeInputs { tenants, jobs }
    }

    fn work_per_op(inputs: &ServeInputs) -> f64 {
        inputs.jobs.len() as f64
    }

    fn setup(inputs: &ServeInputs) -> ServeRun {
        let engine = Engine::new(EngineConfig {
            workers: WORKERS,
            cache_capacity: CACHE,
            ..EngineConfig::default()
        });
        let opts = inputs
            .tenants
            .iter()
            .map(|t| ExecOpts::new().threads(1).probe(Probe::at(&t.probe)))
            .collect();
        ServeRun { engine, opts }
    }

    fn op(&mut self, inputs: &ServeInputs) -> OpOutcome {
        let before = self.cache_counts();
        let batch = self.batch(inputs, false);
        let after = self.cache_counts();
        OpOutcome {
            ok: batch.ok,
            counters: vec![
                ("serve.cache_hits", after[0] - before[0]),
                ("serve.cache_misses", after[1] - before[1]),
                ("serve.evictions", after[2] - before[2]),
            ],
        }
    }

    fn layers(
        &mut self,
        inputs: &ServeInputs,
        rec: &mut Recorder,
        m: &mut Metrics,
        _e2e: &EndToEnd,
    ) {
        // The compile path of the hot specs (summed): what a cold job pays
        // inside `submit`.
        let hot = HOT_DIMS.len();
        for (k, tenant) in inputs.tenants[..hot].iter().enumerate() {
            let text = crate::inputs::spec_text(&tenant.spec.spec);
            rec.span("compile_path", |rec| {
                compile_layers(
                    rec,
                    m,
                    &format!("hot{k}"),
                    &text,
                    &[tenant.spec.param],
                    &self.opts[k],
                    1,
                )
            });
        }

        // One more batch, keeping what the public API reports per job.
        let before = self.cache_counts();
        let batch = rec.span("serve.batch", |_| self.batch(inputs, true));
        let after = self.cache_counts();
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        let p50 = |v: Vec<f64>| {
            if v.is_empty() {
                0.0
            } else {
                quantile(&sorted(&v), 0.5)
            }
        };
        let submits = |want: Option<bool>| -> Vec<f64> {
            batch
                .submits
                .iter()
                .filter(|(_, hit)| want.is_none_or(|w| w == *hit))
                .map(|(d, _)| us(*d))
                .collect()
        };
        m.set("serve.submit_us", p50(submits(None)));
        m.set("serve.cache_hit_us", p50(submits(Some(true))));
        m.set("serve.cache_miss_us", p50(submits(Some(false))));
        let (hits, misses) = (after[0] - before[0], after[1] - before[1]);
        m.set(
            "serve.hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        m.set("serve.evictions", (after[2] - before[2]) as f64);
        let outs = &batch.outcomes;
        m.set(
            "serve.queue_wait_p50_us",
            p50(outs
                .iter()
                .map(|o| us(o.latency.saturating_sub(o.exec_time)))
                .collect()),
        );
        m.set(
            "serve.exec_p50_us",
            p50(outs.iter().map(|o| us(o.exec_time)).collect()),
        );
        let latency = sorted(&outs.iter().map(|o| us(o.latency)).collect::<Vec<_>>());
        m.set("serve.job_p99_us", quantile(&latency, 0.99));
        rec.count("serve.jobs_checked", outs.len() as u64);
    }
}
