//! Quickstart: generate and run a parallel program from a high-level
//! problem description.
//!
//! The problem is classic edit distance between two DNA-like strings. The
//! description below is everything `dpgen` needs — the iteration space as
//! linear inequalities, the template dependence vectors, tile widths — and
//! the "center-loop code" is an ordinary Rust closure over the symbols the
//! paper's programming interface defines (`loc`, `loc_r*`, `is_valid_*`).
//!
//! Run with: `cargo run --release --example quickstart`

use dpgen::core::{ExecOpts, Program};
use dpgen::problems::random_sequence;
use dpgen::runtime::{Probe, TraceLevel};
use dpgen::tiling::tiling::CellRef;

fn main() {
    // Two synthetic DNA strings.
    let a = random_sequence(2000, 1);
    let b = random_sequence(1800, 2);

    // The high-level description (the paper's input file, Section IV-A).
    let program = Program::parse(
        "name editdist\n\
         vars i j\n\
         params LA LB\n\
         constraint 0 <= i <= LA\n\
         constraint 0 <= j <= LB\n\
         template del -1 0\n\
         template ins 0 -1\n\
         template sub -1 -1\n\
         order i j\n\
         loadbalance i\n\
         widths 64 64\n",
    )
    .expect("spec should generate");

    // The center-loop code: compute D(i, j) from its three dependencies.
    let (sa, sb) = (a.clone(), b.clone());
    let kernel = move |cell: CellRef<'_>, values: &mut [i64]| {
        let (i, j) = (cell.x[0], cell.x[1]);
        if i == 0 && j == 0 {
            values[cell.loc] = 0;
            return;
        }
        let mut best = i64::MAX;
        if cell.valid[0] {
            best = best.min(values[cell.loc_r(0)] + 1); // delete
        }
        if cell.valid[1] {
            best = best.min(values[cell.loc_r(1)] + 1); // insert
        }
        if cell.valid[2] {
            let sub = (sa[(i - 1) as usize] != sb[(j - 1) as usize]) as i64;
            best = best.min(values[cell.loc_r(2)] + sub);
        }
        values[cell.loc] = best;
    };

    let params = [a.len() as i64, b.len() as i64];
    let goal = [params[0], params[1]];
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());

    let opts = ExecOpts::new()
        .threads(threads)
        .trace(TraceLevel::Spans)
        .probe(Probe::at(&goal));
    let result = program
        .compile(&params)
        .execute(&kernel, &opts)
        .expect("run succeeds");
    println!(
        "edit distance of {}x{} strings = {}",
        a.len(),
        b.len(),
        result.probes[0].expect("goal inside space")
    );
    let stats = &result.per_rank[0].stats;
    println!(
        "tiles executed: {}, cells computed: {}, wall time: {:?} on {threads} threads",
        stats.tiles_executed, stats.cells_computed, stats.total_time
    );
    println!(
        "peak memory: {} live tile(s), {} buffered edge cells",
        stats.peak_live_tiles, stats.peak_edge_cells
    );
    // `.trace(TraceLevel::Spans)` recorded a per-worker timeline; dump the
    // compact flamegraph-style summary (use `to_chrome_trace()` for a JSON
    // file loadable in chrome://tracing or https://ui.perfetto.dev).
    if let Some(timeline) = &result.timeline {
        println!("\n{}", timeline.text_summary());
    }
}
