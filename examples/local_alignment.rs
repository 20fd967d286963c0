//! Smith–Waterman local alignment with a whole-space reduction, hybrid.
//!
//! Local alignment's answer is the maximum over *every* cell, not a probed
//! location; each worker folds the tiles it finishes into its own maximum
//! while still discarding tile interiors, and the workers' and the ranks'
//! maxima are folded once at the end. Runs across simulated MPI ranks and
//! checks the score against the dense serial solver.
//!
//! Run with: `cargo run --release --example local_alignment [len] [ranks]`

use dpgen::core::ExecOpts;
use dpgen::problems::{random_sequence, SmithWaterman};
use dpgen::runtime::{PerCell, Reduction};

fn main() {
    let mut args = std::env::args().skip(1);
    let len: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(1200);
    let ranks: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(2);

    // Two related sequences: the second contains a mutated slice of the
    // first, so a strong local alignment exists.
    let a = random_sequence(len, 42);
    let mut b = random_sequence(len, 43);
    let insert = len / 3;
    b[insert..insert + len / 4].copy_from_slice(&a[insert..insert + len / 4]);

    let problem = SmithWaterman::new(&a, &b);
    let program = SmithWaterman::program(64).expect("smith_waterman generates");
    let reduce = Reduction::max_i64();
    let opts = ExecOpts::new().threads(2).ranks(ranks);
    let result = program
        .compile(&problem.params())
        .execute_reduce(&PerCell(&problem), &reduce, &opts)
        .expect("run succeeds");
    let best = result.reduction.expect("reduction requested");
    println!("best local alignment score over {len}x{len}: {best}");
    println!(
        "  (embedded common slice of {} characters would alone score {})",
        len / 4,
        2 * (len / 4)
    );
    println!(
        "  cells: {}, ranks: {ranks}, remote edges: {}, wall: {:?}",
        result.cells_computed(),
        result.edges_remote(),
        result.total_time
    );
    assert!(best >= 2 * (len / 4) as i64, "embedded slice must be found");
    assert_eq!(best, problem.solve_dense(), "tiled and dense scores differ");
}
