//! Regenerate the paper's evaluation figures.
//!
//! ```text
//! cargo run --release -p dpgen-bench --bin figures            # everything
//! cargo run --release -p dpgen-bench --bin figures -- e4 e5   # selected
//! cargo run --release -p dpgen-bench --bin figures -- --quick # small sizes
//! ```
//!
//! Results are printed as tables and written as CSV under `results/`.

use dpgen_bench::experiments;
use dpgen_bench::report::Table;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let wanted: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();

    type Runner = (&'static str, fn(bool) -> Table);
    let runners: Vec<Runner> = vec![
        ("e1", experiments::e1_bandit_correctness),
        ("e2", experiments::e2_memory_orderings),
        ("e4", experiments::e4_shared_scaling),
        ("e4b", experiments::e4b_contention),
        ("e5", experiments::e5_weak_scaling),
        ("e6", experiments::e6_tile_size),
        ("e7", experiments::e7_buffer_sweep),
        ("e8", experiments::e8_lb_dims),
        ("e9", experiments::e9_init_fraction),
        ("e10", experiments::e10_hyperplane),
        ("e11", experiments::e11_packing_ratio),
        ("e12", experiments::e12_traceback),
        ("e13", experiments::e13_bandit2_ceiling),
        ("e14", experiments::e14_compile_stages),
    ];

    let out_dir = PathBuf::from("results");
    let mut ran = 0;
    for (id, run) in &runners {
        if !wanted.is_empty() && !wanted.iter().any(|w| w.as_str() == *id) {
            continue;
        }
        let start = std::time::Instant::now();
        let table = run(quick);
        print!("{}", table.render());
        println!("  [{id} completed in {:?}]\n", start.elapsed());
        if let Err(e) = table.save(&out_dir) {
            eprintln!("warning: could not write results/{id}.csv: {e}");
        }
        ran += 1;
    }
    if ran == 0 {
        eprintln!("unknown experiment id(s) {wanted:?}; available: e1 e2 e4 e4b e5 e6 e7 e8 e9 e10 e11 e12 e13 e14");
        std::process::exit(2);
    }
    println!("{ran} experiment(s) written to {}", out_dir.display());
}
