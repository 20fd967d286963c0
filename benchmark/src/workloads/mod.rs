//! The six workloads, and the compile-path layer pass they share.

pub mod bandit;
pub mod compile;
pub mod des;
pub mod lcs;
pub mod serve;

use crate::metrics::Metrics;
use crate::trace::Recorder;
use dpgen_core::loadbalance::slabs_uniform;
use dpgen_core::{BalanceMethod, ExecOpts, LoadBalance, ProblemSpec, Program};
use dpgen_polyhedra::probe_box;
use dpgen_runtime::{Schedule, StaticPlan};
use dpgen_tiling::{Coord, Tiling};

/// Plans are admitted against this many cells; every benchmark problem is
/// far below it, so admission always does its work and always passes.
pub const ADMIT_CELLS: u128 = 1 << 40;

/// Every tile of the tile space, in tile-nest order.
pub fn all_tiles(tiling: &Tiling, params: &[i64]) -> Vec<Coord> {
    let mut point = tiling.make_point(params);
    let mut tiles = Vec::new();
    tiling.for_each_tile(&mut point, |t| tiles.push(t));
    tiles
}

/// Time each phase between spec text and a warmed plan by calling the
/// public function that performs it, `reps` times each (the metric is the
/// fastest span), and *add* the results to the compile-path metrics — a
/// workload over several specs calls this once per spec and reports sums.
///
/// The phases overlap what `Program::parse` + `compile` + `warm` do
/// internally (those entry points are spanned too, as `core.warm_ms` and in
/// the workload's own op): `ProblemSpec::parse`, `system` + `probe_box`
/// (admission's Fourier-Motzkin box), `ProblemSpec::tiling`,
/// `slabs_uniform`, `LoadBalance::compute`, `StaticPlan::build`, `emit_c`.
pub fn compile_layers(
    rec: &mut Recorder,
    m: &mut Metrics,
    label: &str,
    text: &str,
    params: &[i64],
    warm: &ExecOpts,
    reps: usize,
) {
    let (parse_ms, spec) = rec.reps("core.parse", reps, || {
        ProblemSpec::parse(text).expect("spec parses")
    });

    let (system_ms, _) = rec.reps("polyhedra.system", reps, || {
        let sys = spec.system().expect("system builds");
        let space = sys.space();
        let mut assignment = vec![0i128; space.dim()];
        for (k, &p) in space.param_indices().iter().zip(params) {
            assignment[*k] = p as i128;
        }
        probe_box(&sys, &assignment).expect("box probe")
    });

    let (build_ms, tiling) = rec.reps("tiling.build", reps, || {
        spec.tiling().expect("tiling builds")
    });
    let lb_dims = spec.load_balance_indices();
    let lb_dim = lb_dims.first().copied().unwrap_or(0);

    let (uniform_ms, _) = rec.reps("core.uniform", reps, || {
        slabs_uniform(&tiling, params, lb_dim)
    });

    let method = BalanceMethod::Slabs {
        lb_dims: if lb_dims.is_empty() { vec![0] } else { lb_dims },
    };
    let ranks = warm.ranks.max(2);
    let (lb_ms, balance) = rec.reps("core.loadbalance", reps, || {
        LoadBalance::compute(&tiling, params, ranks, &method)
    });

    let tiles = all_tiles(&tiling, params);
    // `Static` builds a plan over every tile whatever the slab verdict
    // (Dynamic would build none), so the metric exists on every workload.
    let (plan_ms, _) = rec.reps("runtime.static_plan", reps, || {
        let mut point = tiling.make_point(params);
        StaticPlan::build(&tiling, &mut point, &tiles, warm.threads, Schedule::Static)
    });

    let program = Program::from_spec(spec).expect("program generates");
    let warm_ms = (0..reps)
        .map(|_| {
            // A fresh plan each time: warming is memoized per plan.
            let plan = program.compile(params);
            rec.reps("core.warm", 1, || plan.warm(warm)).0
        })
        .fold(f64::INFINITY, f64::min);

    let (emit_ms, emitted) = rec.reps("codegen.emit", reps, || dpgen_codegen::emit_c(&program));

    m.add("core.parse_ms", parse_ms);
    m.add("polyhedra.system_ms", system_ms);
    m.add("tiling.build_ms", build_ms);
    m.add("core.uniform_ms", uniform_ms);
    m.add("core.loadbalance_ms", lb_ms);
    m.set_max("core.lb_imbalance", balance.imbalance());
    m.add("runtime.static_plan_ms", plan_ms);
    m.add("core.warm_ms", warm_ms);
    m.add("codegen.emit_ms", emit_ms);
    m.add("codegen.emit_bytes", emitted.len() as f64);
    m.add("tiling.tiles", tiles.len() as f64);
    // Exact counts at the same boundaries; they must repeat between runs.
    rec.count(&format!("tiling.tiles.{label}"), tiles.len() as u64);
    rec.count(&format!("codegen.emit_bytes.{label}"), emitted.len() as u64);
    rec.count(
        &format!("codegen.emit_fnv.{label}"),
        crate::oracle::fnv1a(emitted.as_bytes()),
    );
}
