//! Longest common subsequence of three DNA strands (Section I cites LCS of
//! multiple strands via Irving & Fraser).
//!
//! Run with: `cargo run --release --example lcs3 [len]`

use dpgen::core::ExecOpts;
use dpgen::problems::{random_sequence, Lcs};
use dpgen::runtime::Probe;

fn main() {
    let len: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(120);
    let a = random_sequence(len, 11);
    let b = random_sequence(len, 22);
    let c = random_sequence(len, 33);
    let problem = Lcs::new(&[&a, &b, &c]);
    let program = Lcs::program(3, 16).expect("lcs3 generates");

    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let opts = ExecOpts::new()
        .threads(threads)
        .probe(Probe::at(&problem.goal()));
    let result = program
        .compile(&problem.params())
        .execute(&problem, &opts)
        .expect("run succeeds");
    let lcs_len = result.probes[0].expect("goal inside space");
    let stats = &result.per_rank[0].stats;
    println!("LCS of three random DNA strands of length {len}: {lcs_len}");
    println!(
        "  {} cells in {:?} on {threads} threads ({} tiles)",
        stats.cells_computed, stats.total_time, stats.tiles_executed
    );
    // Pairwise LCS upper-bounds the 3-way LCS.
    let lab = Lcs::new(&[&a, &b]);
    let pair = program_pair(&lab, threads);
    println!(
        "  pairwise LCS(a, b) = {pair} (upper bound, as expected: {})",
        lcs_len <= pair
    );
}

fn program_pair(problem: &Lcs, threads: usize) -> i64 {
    let program = Lcs::program(2, 64).expect("lcs2 generates");
    let opts = ExecOpts::new()
        .threads(threads)
        .probe(Probe::at(&problem.goal()));
    let res = program
        .compile(&problem.params())
        .execute(problem, &opts)
        .expect("run succeeds");
    res.probes[0].unwrap()
}
