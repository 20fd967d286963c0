//! Exact 3-sequence multiple alignment with traceback.
//!
//! Solves sum-of-pairs MSA of three DNA strings exactly (the problem the
//! paper's introduction motivates with the FPGA work of Masuno et al.),
//! then recovers the actual alignment with the Section VII-A traceback:
//! the forward pass (one ordinary four-thread execution) keeps only tile
//! edges, and the traceback recomputes tiles on demand while walking the
//! optimal path.
//!
//! Run with: `cargo run --release --example msa3 [len]`

use dpgen::core::traceback::Traceback;
use dpgen::core::ExecOpts;
use dpgen::problems::{random_sequence, Msa};
use dpgen::runtime::{PerCell, Probe, RunError};

fn main() -> Result<(), RunError> {
    let len: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(40);
    let seqs: Vec<Vec<u8>> = (0..3).map(|k| random_sequence(len, 100 + k)).collect();
    let problem = Msa::new(&[&seqs[0], &seqs[1], &seqs[2]]);
    let program = Msa::program(3, 8).expect("msa3 generates");
    let plan = program.compile(&problem.params());
    let graph = plan.graph()?;

    // Forward pass: the cost at the goal, and the tile edges for the
    // traceback.
    let opts = ExecOpts::new().threads(4).probe(Probe::at(&problem.goal()));
    let (out, log) = plan.execute_logged::<i64, _>(&PerCell(&problem), &opts)?;
    println!(
        "forward pass done; edge log holds {} cells (full space would be {})",
        log.total_cells(),
        (len as u64 + 1).pow(3)
    );

    // Trace the optimal alignment from the goal back to the origin.
    // (Dependencies point backwards, so following them IS the traceback.)
    let mut tb = Traceback::new(&graph, &problem, &log);
    let path = tb.trace(&problem.goal(), &mut |cell, values| {
        problem.decide(cell, values)
    })?;
    println!(
        "alignment path: {} columns, {} tile recomputations",
        path.len() - 1,
        tb.tiles_recomputed
    );

    // Render the alignment from the path (walk goal -> origin, emit
    // columns reversed).
    let mut rows = vec![String::new(); 3];
    for w in path.windows(2) {
        let (from, to) = (w[0], w[1]);
        for k in 0..3 {
            let ch = if to[k] < from[k] {
                seqs[k][to[k] as usize] as char
            } else {
                '-'
            };
            rows[k].insert(0, ch);
        }
    }
    let cost = out.probes[0].expect("the goal is a cell of the problem");
    println!("alignment (sum-of-pairs cost {cost}):");
    for (k, row) in rows.iter().enumerate() {
        println!("  seq{}: {row}", k + 1);
    }
    // Sanity: stripping gaps recovers the inputs.
    for k in 0..3 {
        let stripped: Vec<u8> = rows[k].bytes().filter(|&c| c != b'-').collect();
        assert_eq!(
            stripped, seqs[k],
            "alignment row {k} must spell sequence {k}"
        );
    }
    println!("verified: every row spells its sequence.");
    Ok(())
}
