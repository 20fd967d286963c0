//! Adaptive clinical trial design via the 2-arm Bernoulli bandit — the
//! motivating application of the paper's introduction.
//!
//! Each treatment is a bandit arm with a Beta prior over its unknown
//! success probability. `V(0)` is the expected number of patient successes
//! over `N` patients under the optimal adaptive allocation; comparing it
//! with the best fixed allocation quantifies how many patients adaptive
//! design saves.
//!
//! Runs hybrid: several simulated "cluster nodes" (ranks), each with a
//! worker pool, exactly like the generated OpenMP + MPI programs.
//!
//! Run with: `cargo run --release --example clinical_trial [N] [ranks] [threads]`

use dpgen::core::ExecOpts;
use dpgen::problems::Bandit2;
use dpgen::runtime::Probe;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: i64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(80);
    let ranks: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(2);
    let threads: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(2);

    // Treatment A has shown promise in earlier studies (Beta(3, 2) prior);
    // treatment B is unknown (uniform prior).
    let problem = Bandit2 {
        prior1: (3.0, 2.0),
        prior2: (1.0, 1.0),
    };
    let program = Bandit2::program(8).expect("bandit2 generates");

    let opts = ExecOpts::new()
        .threads(threads)
        .ranks(ranks)
        .probe(Probe::at(&[0, 0, 0, 0]));
    let result = program
        .compile(&[n])
        .execute(&problem.kernel(), &opts)
        .expect("run succeeds");
    let v = result.probes[0].expect("origin inside space");

    // Best fixed allocation: always the arm with the higher prior mean.
    let mean1 = problem.prior1.0 / (problem.prior1.0 + problem.prior1.1);
    let mean2 = problem.prior2.0 / (problem.prior2.0 + problem.prior2.1);
    let fixed = n as f64 * mean1.max(mean2);

    println!("adaptive trial with N = {n} patients, {ranks} nodes x {threads} threads");
    println!("  optimal adaptive expected successes V(0) = {v:.4}");
    println!("  best fixed allocation expected successes = {fixed:.4}");
    println!(
        "  adaptive advantage = {:.4} successes ({:.2}%)",
        v - fixed,
        100.0 * (v - fixed) / fixed
    );
    println!(
        "  cells computed: {}, remote edges: {}, interconnect bytes: {}",
        result.cells_computed(),
        result.edges_remote(),
        result.bytes_sent()
    );
    let balance = result.balance.as_ref().expect("hybrid runs are balanced");
    println!(
        "  load balance: work per rank {:?} (imbalance {:.3})",
        balance.rank_work,
        balance.imbalance()
    );
    println!("  wall time: {:?}", result.total_time);
}
