//! Traced hybrid smoke run: execute LCS across 2 simulated MPI ranks × 2
//! threads at `TraceLevel::Full`, export the Chrome-trace JSON, and
//! validate its schema: one `X` span per executed tile, each named by the
//! coordinates of a tile of the plan's graph, and an executed critical path
//! between the longest span and the trace's duration. A second execution
//! at `TraceLevel::Spans` must report that critical path too. Both must
//! report `trace.schedule_efficiency` (critical path / duration) in
//! (0, 1]. CI runs this
//! to guarantee the export stays loadable in chrome://tracing /
//! https://ui.perfetto.dev.
//!
//! Run with: `cargo run --release --example trace_export [out.json]`
//! Exits nonzero if the exported trace fails validation.

use dpgen::core::ExecOpts;
use dpgen::problems::{random_sequence, Lcs};
use dpgen::runtime::{MetricsRegistry, Probe, TraceLevel};
use std::collections::HashSet;

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
    let plan = program.compile(&problem.params());
    let out = plan
        .execute::<i64, _>(&problem, &opts)
        .expect("hybrid run succeeds");
    assert_eq!(
        out.probes[0],
        Some(problem.solve_dense()),
        "traced run must still be correct"
    );

    let timeline = out.timeline.as_ref().expect("Full builds a timeline");
    let json = timeline.to_chrome_trace();
    let graph = plan.graph().expect("the plan's tile graph");
    let tile_names: HashSet<String> = graph.coords().map(|t| format!("tile {t}")).collect();

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
                let name = e["name"].as_str().unwrap_or_default();
                assert!(tile_names.contains(name), "span {name:?} names no tile");
                spans += 1;
            }
            _ => assert!(e["ts"].as_f64().is_some(), "timed event has ts"),
        }
    }
    let executed: u64 = out.per_rank.iter().map(|r| r.stats.tiles_executed).sum();
    assert_eq!(spans as u64, executed, "one span per executed tile");

    // The executed critical path: no shorter than the longest span, no
    // longer than the trace.
    let cp = timeline.critical_path_ns.expect("Full has a critical path");
    let longest = timeline.spans.iter().map(|s| s.duration_ns()).max();
    assert!(
        longest <= Some(cp) && cp <= timeline.duration_ns,
        "critical path {cp} ns"
    );
    assert_eq!(
        out.metrics.gauge("trace.critical_path_s"),
        Some(cp as f64 / 1e9)
    );
    let full_eff = schedule_efficiency(&out.metrics, "Full");

    // Spans records no EdgePack; the critical path is read off the graph.
    let spans_run = plan
        .execute::<i64, _>(&problem, &opts.clone().trace(TraceLevel::Spans))
        .expect("span-traced run succeeds");
    let spans_cp = spans_run.metrics.gauge("trace.critical_path_s");
    assert!(
        spans_cp.is_some_and(|s| s > 0.0),
        "Spans has a critical path"
    );
    let spans_eff = schedule_efficiency(&spans_run.metrics, "Spans");

    if let Some(path) = std::env::args().nth(1) {
        std::fs::write(&path, &json).expect("write trace file");
        println!("wrote {} ({} bytes)", path, json.len());
    }
    println!(
        "trace OK: {} events, {} tile spans across {} ranks, lcs = {}, \
         critical path {:.3} ms (Full) / {:.3} ms (Spans), \
         schedule efficiency {full_eff:.3} (Full) / {spans_eff:.3} (Spans)",
        events.len(),
        spans,
        out.per_rank.len(),
        out.probes[0].unwrap(),
        cp as f64 / 1e6,
        spans_cp.unwrap_or_default() * 1e3
    );
    println!("\n{}", timeline.text_summary());
}

/// The run's `trace.schedule_efficiency` (critical path over duration),
/// which must exist and lie in (0, 1].
fn schedule_efficiency(metrics: &MetricsRegistry, level: &str) -> f64 {
    let eff = metrics.gauge("trace.schedule_efficiency");
    assert!(
        eff.is_some_and(|e| e > 0.0 && e <= 1.0),
        "{level}: schedule efficiency {eff:?} is not in (0, 1]"
    );
    eff.unwrap_or_default()
}
