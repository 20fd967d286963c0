//! `bandit2_hybrid`: the paper's running example on the hybrid path. A
//! non-rectangular 4-D simplex goes through the Ehrhart load balancer, the
//! hybrid driver, the simulated MPI layer (frames, acks) and 4-D edge
//! packing, with a per-cell `f64` kernel. A scratch run shows 2 ranks x 1
//! thread no faster than 1 rank x 1 thread, so the gap has an owner to find
//! (`core.hybrid_vs_shared` tracks it).

use super::{compile_layers, ADMIT_CELLS};
use crate::harness::{EndToEnd, OpOutcome, Workload};
use crate::inputs::{spec_text, Rng};
use crate::metrics::Metrics;
use crate::oracle;
use crate::trace::Recorder;
use dpgen_core::{ExecOpts, Plan, Program};
use dpgen_mpisim::{CommConfig, CommWorld};
use dpgen_problems::bandit2::Bandit2Kernel;
use dpgen_problems::Bandit2;
use dpgen_runtime::{EdgeMsg, Probe, Transport};
use dpgen_tiling::Coord;
use std::sync::Arc;
use std::time::Instant;

/// Horizon: C(N+4, 4) = 270 725 cells.
const HORIZON: i64 = 48;
const WIDTH: i64 = 8;
const RANKS: usize = 2;
const THREADS_PER_RANK: usize = 1;

pub struct BanditInputs {
    text: String,
    problem: Bandit2,
    /// The oracle's `V(0)`.
    expect: f64,
    cells: u64,
}

pub struct BanditRun {
    plan: Arc<Plan>,
    kernel: Bandit2Kernel,
    opts: ExecOpts,
}

impl Workload for BanditRun {
    type Inputs = BanditInputs;

    const NAME: &'static str = "bandit2_hybrid";
    const WORK_UNIT: &'static str = "cells";

    fn inputs(seed: u64) -> BanditInputs {
        // The seed draws the Beta priors (integers 1..=4 per parameter):
        // they change every value computed, never the amount of work.
        let mut rng = Rng::new(seed).fork(1);
        let mut prior = || ((1 + rng.below(4)) as f64, (1 + rng.below(4)) as f64);
        let problem = Bandit2 {
            prior1: prior(),
            prior2: prior(),
        };
        BanditInputs {
            text: spec_text(&Bandit2::spec(WIDTH)),
            expect: oracle::bandit2_value(HORIZON, problem.prior1, problem.prior2),
            problem,
            cells: oracle::simplex_points(4, HORIZON as u64),
        }
    }

    fn work_per_op(inputs: &BanditInputs) -> f64 {
        inputs.cells as f64
    }

    fn setup(inputs: &BanditInputs) -> BanditRun {
        let program = Program::parse(&inputs.text).expect("bandit2 spec generates");
        let plan = program.compile(&[HORIZON]);
        plan.admit(ADMIT_CELLS).expect("bandit2 plan admitted");
        let opts = ExecOpts::new()
            .ranks(RANKS)
            .threads(THREADS_PER_RANK)
            .probe(Probe::at(&[0, 0, 0, 0]));
        plan.warm(&opts);
        BanditRun {
            plan,
            kernel: inputs.problem.kernel(),
            opts,
        }
    }

    fn op(&mut self, inputs: &BanditInputs) -> OpOutcome {
        let out = match self.plan.execute::<f64, _>(&self.kernel, &self.opts) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("bandit2_hybrid: op failed: {e}");
                return OpOutcome {
                    ok: false,
                    counters: Vec::new(),
                };
            }
        };
        let tiles: u64 = out.per_rank.iter().map(|r| r.stats.tiles_executed).sum();
        let packed: u64 = out.per_rank.iter().map(|r| r.stats.edge_cells_packed).sum();
        OpOutcome {
            ok: out.probes[0].is_some_and(|v| oracle::close(v, inputs.expect))
                && out.cells_computed() == inputs.cells,
            // Retransmits depend on timing, so frames and bytes on the wire
            // are not exact; what the runtime hands the transport is.
            counters: vec![
                ("runtime.tiles_executed", tiles),
                ("runtime.cells_computed", out.cells_computed()),
                ("runtime.edges_remote", out.edges_remote()),
                ("runtime.edge_cells_packed", packed),
            ],
        }
    }

    fn layers(
        &mut self,
        inputs: &BanditInputs,
        rec: &mut Recorder,
        m: &mut Metrics,
        e2e: &EndToEnd,
    ) {
        rec.span("compile_path", |rec| {
            compile_layers(rec, m, Self::NAME, &inputs.text, &[HORIZON], &self.opts, 5)
        });

        // One more hybrid op, for the counters its output carries.
        let out = rec.span("hybrid_exec", |_| {
            self.plan
                .execute::<f64, _>(&self.kernel, &self.opts)
                .expect("hybrid execution")
        });
        let comm = |f: fn(&dpgen_mpisim::CommStats) -> u64| -> f64 {
            out.comm_stats.iter().map(|s| f(s)).sum::<u64>() as f64
        };
        m.set("mpisim.bytes_sent", comm(|s| s.bytes_sent()));
        m.set("mpisim.frames", comm(|s| s.msgs_sent()));
        m.set("mpisim.acks", comm(|s| s.acks_sent()));
        m.set("mpisim.retransmits", comm(|s| s.retransmits()));
        m.set("runtime.edges_remote", out.edges_remote() as f64);
        let packed: u64 = out.per_rank.iter().map(|r| r.stats.edge_cells_packed).sum();
        m.set("runtime.edge_cells_packed", packed as f64);
        let idle: f64 = out.per_rank.iter().map(|r| r.stats.idle_fraction()).sum();
        m.set(
            "core.hybrid_rank_idle_frac",
            idle / out.per_rank.len() as f64,
        );
        m.set(
            "runtime.interior_frac",
            out.per_rank[0].stats.interior_fraction(),
        );

        // The same plan, shared-memory: one rank, as many threads as the
        // hybrid run had ranks x threads.
        let shared = ExecOpts::new()
            .threads(RANKS * THREADS_PER_RANK)
            .probe(Probe::at(&[0, 0, 0, 0]));
        let (shared_ms, out) = rec.reps("shared_exec", 20, || {
            self.plan
                .execute::<f64, _>(&self.kernel, &shared)
                .expect("shared execution")
        });
        assert!(out.probes[0].is_some_and(|v| oracle::close(v, inputs.expect)));
        m.set("core.hybrid_vs_shared", shared_ms / e2e.op_stat_ms());

        m.set(
            "mpisim.pingpong_us",
            rec.span("mpisim.pingpong", |_| pingpong_us()),
        );
    }
}

/// Round-trip time of a 4 KB edge between two ranks of a bare `CommWorld`:
/// the transport's fixed cost, with no runtime around it.
fn pingpong_us() -> f64 {
    const ROUNDS: usize = 2000;
    let world = CommWorld::create::<f64>(2, CommConfig::default());
    let (a, b) = (&world[0], &world[1]);
    let edge = || EdgeMsg {
        tile: Coord::zeros(4),
        delta: Coord::zeros(4),
        payload: vec![1.0f64; 512],
    };
    let recv = |rank: &dpgen_mpisim::RankComm<f64>| loop {
        if let Some(msg) = rank.try_recv() {
            break msg;
        }
        std::thread::yield_now();
    };
    std::thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..ROUNDS {
                let msg = recv(b);
                b.send(0, msg).expect("pong");
            }
            while !b.flush() {
                std::thread::yield_now();
            }
        });
        let t = Instant::now();
        for _ in 0..ROUNDS {
            a.send(1, edge()).expect("ping");
            recv(a);
        }
        let us = t.elapsed().as_secs_f64() * 1e6 / ROUNDS as f64;
        while !a.flush() {
            std::thread::yield_now();
        }
        us
    })
}
