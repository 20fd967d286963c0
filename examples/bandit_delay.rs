//! The 6-dimensional 2-arm bandit with delayed responses (Section VI of
//! the paper) — the problem whose iteration space couples dimensions:
//! results can only be observed for pulls that have already happened
//! (`s_i + f_i <= u_i`).
//!
//! Its two-component templates make single templates cross up to three
//! tiles, exercising the multi-tile dependency derivation of Section IV-F.
//!
//! Run with: `cargo run --release --example bandit_delay [N]`

use dpgen::core::ExecOpts;
use dpgen::problems::BanditDelay;
use dpgen::runtime::Probe;

fn main() {
    let n: i64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(24);
    let problem = BanditDelay::default();
    let program = BanditDelay::program(4).expect("bandit_delay generates");
    let tiling = program.tiling();
    println!(
        "bandit-with-delay: {} dims, {} templates, {} tile dependencies",
        tiling.dims(),
        tiling.templates().len(),
        tiling.deps().len()
    );
    for dep in tiling.deps() {
        println!(
            "  tile dep δ = {} from templates {:?}",
            dep.delta, dep.templates
        );
    }

    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let opts = ExecOpts::new().threads(threads).probe(Probe::at(&[0; 6]));
    let result = program
        .compile(&[n])
        .execute(&problem.kernel(), &opts)
        .expect("run succeeds");
    let v = result.probes[0].expect("origin inside space");
    let stats = &result.per_rank[0].stats;
    println!(
        "V(0) with N = {n}: {v:.5} (uniform priors; fixed play earns {:.1})",
        n as f64 / 2.0
    );
    println!(
        "  {} cells, {} tiles, {:?} on {threads} threads",
        stats.cells_computed, stats.tiles_executed, stats.total_time
    );
}
