//! Traced hybrid smoke run: execute LCS across 2 simulated MPI ranks × 2
//! threads at `TraceLevel::Full`, export the Chrome-trace JSON, and
//! validate its schema. CI runs this to guarantee the export stays
//! loadable in chrome://tracing / https://ui.perfetto.dev.
//!
//! Run with: `cargo run --release --example trace_export [out.json]`
//! Exits nonzero if the exported trace fails validation.

use dpgen::core::ExecOpts;
use dpgen::problems::{random_sequence, Lcs};
use dpgen::runtime::{Probe, TraceLevel};

fn main() {
    let a = random_sequence(400, 17);
    let b = random_sequence(380, 19);
    let problem = Lcs::new(&[&a, &b]);
    let program = Lcs::program(2, 32).expect("LCS spec generates");

    let opts = ExecOpts::new()
        .ranks(2)
        .threads(2)
        .trace(TraceLevel::Full)
        .probe(Probe::at(&problem.goal()));
    let out = program
        .compile(&problem.params())
        .execute::<i64, _>(&problem, &opts)
        .expect("hybrid run succeeds");
    assert_eq!(
        out.probes[0],
        Some(problem.solve_dense()),
        "traced run must still be correct"
    );

    let timeline = out.timeline.as_ref().expect("Full builds a timeline");
    let json = timeline.to_chrome_trace();

    // Schema validation: parseable JSON, a traceEvents array, every entry
    // carrying the required Trace Event Format fields.
    let v = serde_json::from_str(&json).expect("chrome trace is valid JSON");
    let events = v["traceEvents"]
        .as_array()
        .expect("traceEvents is an array");
    assert!(!events.is_empty(), "trace must contain events");
    let mut spans = 0usize;
    for e in events {
        let ph = e["ph"].as_str().expect("event has a phase");
        assert!(e["pid"].as_i64().is_some(), "event has a pid");
        assert!(e["tid"].as_i64().is_some(), "event has a tid");
        assert!(e["name"].as_str().is_some(), "event has a name");
        match ph {
            "M" => {}
            "X" => {
                assert!(e["ts"].as_f64().is_some() && e["dur"].as_f64().is_some());
                spans += 1;
            }
            _ => assert!(e["ts"].as_f64().is_some(), "timed event has ts"),
        }
    }
    let executed: u64 = out.per_rank.iter().map(|r| r.stats.tiles_executed).sum();
    assert_eq!(spans as u64, executed, "one span per executed tile");

    if let Some(path) = std::env::args().nth(1) {
        std::fs::write(&path, &json).expect("write trace file");
        println!("wrote {} ({} bytes)", path, json.len());
    }
    println!(
        "trace OK: {} events, {} tile spans across {} ranks, lcs = {}",
        events.len(),
        spans,
        out.per_rank.len(),
        out.probes[0].unwrap()
    );
    println!("\n{}", timeline.text_summary());
}
