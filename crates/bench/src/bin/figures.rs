//! Regenerate the paper's evaluation figures.
//!
//! ```text
//! cargo run --release -p dpgen-bench --bin figures            # everything
//! cargo run --release -p dpgen-bench --bin figures -- e4 e5   # selected
//! cargo run --release -p dpgen-bench --bin figures -- --quick # small sizes
//! ```
//!
//! Results are printed as tables and written as CSV under `results/`. An
//! unknown experiment id or flag exits 2 before anything runs.

use dpgen_bench::experiments;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (quick, runners) = experiments::select(&args).unwrap_or_else(|e| {
        eprintln!("figures: {e}");
        std::process::exit(2);
    });
    let out_dir = PathBuf::from("results");
    for (id, run) in &runners {
        #[allow(clippy::disallowed_methods, reason = "the progress line's wall time")]
        let (table, took) = {
            let start = std::time::Instant::now();
            (run(quick), start.elapsed())
        };
        print!("{}", table.render());
        println!("  [{id} completed in {took:?}]\n");
        if let Err(e) = table.save(&out_dir) {
            eprintln!("warning: could not write results/{id}.csv: {e}");
        }
    }
    let ran = runners.len();
    println!("{ran} experiment(s) written to {}", out_dir.display());
}
