//! Exact 3-sequence multiple alignment with traceback.
//!
//! Solves sum-of-pairs MSA of three DNA strings exactly (the problem the
//! paper's introduction motivates with the FPGA work of Masuno et al.),
//! then recovers the actual alignment with the Section VII-A traceback:
//! the forward pass keeps only tile edges, and the traceback recomputes
//! tiles on demand while walking the optimal path.
//!
//! Run with: `cargo run --release --example msa3 [len]`

use dpgen::core::traceback::{run_logged, Traceback};
use dpgen::core::ExecOpts;
use dpgen::problems::{random_sequence, Msa};
use dpgen::runtime::RunError;
use dpgen::tiling::tiling::CellRef;

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

    // Forward pass that retains tile edges for the traceback.
    let log = run_logged::<i64, _>(&graph, &problem)?;
    println!(
        "forward pass done; edge log holds {} cells (full space would be {})",
        log.total_cells(),
        (len as u64 + 1).pow(3)
    );

    // Trace the optimal alignment from the goal back to the origin.
    // (Dependencies point backwards, so following them IS the traceback.)
    let problem2 = problem.clone();
    let mut decide = move |cell: CellRef<'_>, values: &[i64]| -> Option<usize> {
        if cell.x.iter().all(|&c| c == 0) {
            return None;
        }
        let d = 3;
        let mut best: Option<(i64, usize)> = None;
        for m in 0..cell.valid.len() {
            if !cell.valid[m] {
                continue;
            }
            let mask = m + 1;
            let delta: Vec<i64> = (0..d)
                .map(|k| if mask & (1 << k) != 0 { -1 } else { 0 })
                .collect();
            let cost = column_cost(&problem2, cell.x, &delta);
            let total = values[cell.loc_r(m)] + cost;
            if total == values[cell.loc] && best.is_none() {
                best = Some((total, m));
            }
        }
        best.map(|(_, m)| m)
    };

    let mut tb = Traceback::new(&graph, &problem, &log);
    let path = tb.trace(&problem.goal(), &mut decide)?;
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
    println!("alignment (sum-of-pairs cost {}):", {
        let opts = ExecOpts::new()
            .threads(4)
            .probe(dpgen::runtime::Probe::at(&problem.goal()));
        plan.execute(&problem, &opts)?.probes[0].unwrap()
    });
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

fn column_cost(msa: &Msa, x: &[i64], delta: &[i64]) -> i64 {
    let d = msa.seqs.len();
    let mut cost = 0;
    for k in 0..d {
        for l in k + 1..d {
            let ck = (delta[k] == -1).then(|| msa.seqs[k][(x[k] - 1) as usize]);
            let cl = (delta[l] == -1).then(|| msa.seqs[l][(x[l] - 1) as usize]);
            cost += match (ck, cl) {
                (Some(a), Some(b)) if a == b => 0,
                (Some(_), Some(_)) => msa.mismatch,
                (None, None) => 0,
                _ => msa.gap,
            };
        }
    }
    cost
}
