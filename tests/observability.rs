//! Observability layer end-to-end: trace rings, timelines, Chrome-trace
//! export, unified metrics — and the fresh-plan/reused-plan equivalence
//! the compile/execute split promises.

use dpgen::core::ExecOpts;
use dpgen::problems::{random_sequence, Bandit2, Lcs};
use dpgen::runtime::{EventKind, Probe, TileSpan, Timeline, TraceLevel, TraceRing};
use std::collections::{HashMap, HashSet};

fn lcs_fixture() -> (Lcs, dpgen::core::Program) {
    let a = random_sequence(40, 71);
    let b = random_sequence(44, 72);
    let problem = Lcs::new(&[&a, &b]);
    let program = Lcs::program(2, 8).unwrap();
    (problem, program)
}

/// The ring keeps exactly the newest `capacity` events, counts every
/// record, and reports the overwritten remainder as dropped.
#[test]
fn trace_ring_overflow_drops_oldest_with_exact_counters() {
    let ring = TraceRing::new(16);
    for i in 0..40u64 {
        ring.record(i, EventKind::TileStart, Some(34), i);
    }
    assert_eq!(ring.capacity(), 16);
    assert_eq!(ring.recorded(), 40);
    assert_eq!(ring.dropped(), 24);
    let events = ring.snapshot();
    assert_eq!(events.len(), 16);
    let ts: Vec<u64> = events.iter().map(|e| e.ts).collect();
    assert_eq!(ts, (24..40).collect::<Vec<_>>(), "oldest must be dropped");
    for e in &events {
        assert_eq!(e.kind, EventKind::TileStart);
        assert_eq!(e.tile, Some(34));
        assert_eq!(e.aux, e.ts);
    }
}

/// `TraceLevel::Off` (the default) yields no timeline and registers no
/// trace metrics — the observability layer leaves no footprint.
#[test]
fn trace_off_produces_no_timeline_or_trace_metrics() {
    let (problem, program) = lcs_fixture();
    let opts = ExecOpts::new()
        .threads(4)
        .ranks(2)
        .probe(Probe::at(&problem.goal()));
    let out = program
        .compile(&problem.params())
        .execute::<i64, _>(&problem, &opts)
        .unwrap();
    assert_eq!(out.probes[0], Some(problem.solve_dense()));
    assert!(out.timeline.is_none(), "Off must not build a timeline");
    assert!(out.metrics.counter("trace.events_recorded").is_none());
    assert!(out.metrics.counter("trace.spans").is_none());
    assert!(out.metrics.names_with_prefix("trace.").next().is_none());
}

/// The Chrome-trace export is valid JSON whose per-(pid, tid) event
/// streams are nondecreasing in `ts`, with at least one complete (`X`)
/// tile span.
#[test]
fn chrome_trace_json_parses_with_monotone_ts_per_track() {
    let (problem, program) = lcs_fixture();
    let opts = ExecOpts::new()
        .threads(2)
        .ranks(2)
        .trace(TraceLevel::Full)
        .probe(Probe::at(&problem.goal()));
    let out = program
        .compile(&problem.params())
        .execute::<i64, _>(&problem, &opts)
        .unwrap();
    let timeline = out.timeline.expect("Full must build a timeline");
    let json = timeline.to_chrome_trace();
    let v = serde_json::from_str(&json).expect("chrome trace must be valid JSON");
    assert_eq!(v["displayTimeUnit"].as_str(), Some("ms"));
    let events = v["traceEvents"].as_array().expect("traceEvents array");
    assert!(!events.is_empty());

    let mut last_ts: HashMap<(i64, i64), f64> = HashMap::new();
    let mut complete_spans = 0usize;
    for e in events {
        let ph = e["ph"].as_str().expect("every event has a phase");
        if ph == "M" {
            continue; // metadata records carry no ts
        }
        let pid = e["pid"].as_i64().expect("pid");
        let tid = e["tid"].as_i64().expect("tid");
        let ts = e["ts"].as_f64().expect("ts");
        if let Some(prev) = last_ts.insert((pid, tid), ts) {
            assert!(
                ts >= prev,
                "ts regressed on track (pid {pid}, tid {tid}): {prev} -> {ts}"
            );
        }
        if ph == "X" {
            assert!(e["dur"].as_f64().expect("dur") >= 0.0);
            complete_spans += 1;
        }
    }
    assert!(complete_spans > 0, "no tile spans exported");
}

/// Acceptance: a multi-thread, multi-rank LCS at `Full` records a
/// start/done span for *every* executed tile — the spans' tiles, resolved
/// to coordinates through the run's graph, are distinct — and exposes a
/// busy fraction for every worker.
#[test]
fn full_trace_covers_every_executed_tile_with_busy_fractions() {
    let (problem, program) = lcs_fixture();
    let opts = ExecOpts::new()
        .threads(4)
        .ranks(2)
        .trace(TraceLevel::Full)
        .probe(Probe::at(&problem.goal()));
    let out = program
        .compile(&problem.params())
        .execute::<i64, _>(&problem, &opts)
        .unwrap();
    assert_eq!(out.probes[0], Some(problem.solve_dense()));

    let timeline = out.timeline.as_ref().expect("Full must build a timeline");
    let executed: u64 = out.per_rank.iter().map(|r| r.stats.tiles_executed).sum();
    assert!(executed > 0);
    assert_eq!(
        timeline.spans.len() as u64,
        executed,
        "every executed tile needs exactly one TileStart/TileDone span"
    );
    let coord = |s: &TileSpan| timeline.graph.coord(s.tile);
    let span_tiles: HashSet<_> = timeline.spans.iter().map(coord).collect();
    assert_eq!(
        span_tiles.len() as u64,
        executed,
        "spans must be distinct tiles"
    );
    assert_eq!(
        timeline.dropped_events, 0,
        "default rings must not wrap here"
    );
    assert_eq!(out.metrics.counter("trace.spans"), Some(executed));

    for rank in 0..2 {
        for worker in 0..4 {
            let key = format!("rank{rank}.worker{worker}.busy_fraction");
            let busy = out.metrics.gauge(&key).expect("busy fraction gauge");
            assert!((0.0..=1.0).contains(&busy), "{key} = {busy}");
        }
    }
    // The text summary mentions every rank.
    let summary = timeline.text_summary();
    assert!(summary.contains("rank 0"), "{summary}");
    assert!(summary.contains("rank 1"), "{summary}");
}

/// The critical path as it was estimated before it was read off the graph:
/// a producer→consumer edge for every `EdgePack` recorded while the
/// producer's span was open, the longest chain of span durations along
/// them, spans taken in start order.
fn edge_pack_critical_path(timeline: &Timeline) -> u64 {
    let mut producers: HashMap<usize, Vec<usize>> = HashMap::new();
    for rank in &timeline.traces {
        for track in &rank.tracks {
            let mut open = None;
            for e in &track.events {
                match e.kind {
                    EventKind::TileStart => open = e.tile,
                    EventKind::TileDone => open = None,
                    EventKind::EdgePack => {
                        if let (Some(producer), Some(consumer)) = (open, e.tile) {
                            producers.entry(consumer).or_default().push(producer);
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    let mut finish: HashMap<usize, u64> = HashMap::new();
    let mut best = 0;
    for s in &timeline.spans {
        let from = producers.get(&s.tile).into_iter().flatten();
        let inherited = from.filter_map(|p| finish.get(p)).max().copied();
        let f = inherited.unwrap_or(0) + s.duration_ns();
        best = best.max(f);
        finish.insert(s.tile, f);
    }
    best
}

/// Differential: on a `Full` run whose rings dropped nothing, the critical
/// path read off the graph equals the one inferred from `EdgePack` events,
/// exactly — every executed tile packs one edge per consumer that exists.
/// At `Spans`, where no `EdgePack` is recorded, it is there all the same.
#[test]
fn critical_path_off_the_graph_equals_the_edge_pack_inferred_one() {
    let (problem, program) = lcs_fixture();
    let plan = program.compile(&problem.params());
    let opts = ExecOpts::new()
        .threads(2)
        .ranks(2)
        .trace(TraceLevel::Full)
        .probe(Probe::at(&problem.goal()));
    let out = plan.execute::<i64, _>(&problem, &opts).unwrap();
    let timeline = out.timeline.as_ref().expect("Full must build a timeline");
    assert_eq!(timeline.dropped_events, 0, "the oracle needs every event");
    let inferred = edge_pack_critical_path(timeline);
    assert!(inferred > 0);
    assert_eq!(timeline.critical_path_ns, Some(inferred));

    let spans = plan
        .execute::<i64, _>(&problem, &opts.clone().trace(TraceLevel::Spans))
        .unwrap();
    let timeline = spans
        .timeline
        .as_ref()
        .expect("Spans must build a timeline");
    let mut events = timeline
        .traces
        .iter()
        .flat_map(|r| &r.tracks)
        .flat_map(|t| &t.events);
    assert!(
        events.all(|e| e.kind != EventKind::EdgePack),
        "no EdgePack at Spans"
    );
    let cp = spans.metrics.gauge("trace.critical_path_s");
    let longest = timeline
        .spans
        .iter()
        .map(|s| s.duration_ns())
        .max()
        .unwrap();
    let cp_ns = timeline
        .critical_path_ns
        .expect("Spans has a critical path");
    assert_eq!(cp, Some(cp_ns as f64 / 1e9));
    assert!((longest..=timeline.duration_ns).contains(&cp_ns), "{cp_ns}");
}

/// A [`dpgen::core::Plan`]'s memo changes nothing but time: across a
/// thread matrix, one-rank and multi-rank executions of one reused plan
/// must be *bit*-identical to a fresh compile's first, f64 included.
#[test]
fn fresh_compile_matches_reused_plan_bit_identically() {
    let n = 10i64;
    let problem = Bandit2::default();
    let kernel = problem.kernel();
    let program = Bandit2::program(4).unwrap();
    let plan = program.compile(&[n]);
    let probe = Probe::at(&[0, 0, 0, 0]);
    for threads in [1usize, 2, 4] {
        for ranks in [1usize, 2] {
            let opts = ExecOpts::new()
                .threads(threads)
                .ranks(ranks)
                .probe(probe.clone());
            let compiled = plan.execute::<f64, _>(&kernel, &opts).unwrap();
            let fresh = program
                .compile(&[n])
                .execute::<f64, _>(&kernel, &opts)
                .unwrap();
            assert_eq!(
                compiled.probes[0].unwrap().to_bits(),
                fresh.probes[0].unwrap().to_bits(),
                "{ranks}x{threads}"
            );
        }
    }
}
