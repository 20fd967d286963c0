//! Kill-and-recover smoke run: execute LCS across 2 simulated MPI ranks,
//! hard-drop rank 0's wires mid-run (a node losing power), and let elastic
//! recovery detect the death by heartbeat silence, migrate the dead rank's
//! slabs to the survivor, and finish bit-identically. The recovery
//! timeline (PeerDeath / RecoveryStart / SlabMigrated / RecoveryDone
//! events) is exported as Chrome-trace JSON.
//!
//! Run with: `cargo run --release --example recovery_trace [out.json]`
//! Exits nonzero if the run diverges or the recovery events are missing.

use dpgen::core::ExecOpts;
use dpgen::mpisim::{CommConfig, FaultPlan, KillTrigger, ReliabilityConfig};
use dpgen::problems::{random_sequence, Lcs};
use dpgen::runtime::{Probe, TraceLevel};
use std::time::Duration;

fn main() {
    let a = random_sequence(400, 17);
    let b = random_sequence(380, 19);
    let problem = Lcs::new(&[&a, &b]);
    let program = Lcs::program(2, 32).expect("LCS spec generates");

    // Rank 0 is the upstream sender under slab balancing: its wires are
    // cut right after its second data frame leaves.
    let opts = ExecOpts::new()
        .ranks(2)
        .threads(2)
        .comm(CommConfig {
            faults: Some(FaultPlan::kill_rank_at(0, KillTrigger::AfterSends(2))),
            reliability: ReliabilityConfig {
                heartbeat_interval: Some(Duration::from_millis(2)),
                death_timeout: Duration::from_millis(80),
                ..ReliabilityConfig::default()
            },
            ..CommConfig::default()
        })
        .max_recoveries(1)
        .trace(TraceLevel::Full)
        .probe(Probe::at(&problem.goal()));
    let out = program
        .compile(&problem.params())
        .execute::<i64, _>(&problem, &opts)
        .expect("killed run recovers");

    assert_eq!(
        out.probes[0],
        Some(problem.solve_dense()),
        "recovered run must still be correct"
    );
    assert_eq!(out.recovery.ranks_lost, 1, "rank 0 must have died");
    assert_eq!(out.recovery.slabs_migrated, 1);
    println!(
        "recovered: ranks_lost={} slabs_migrated={} epochs={} \
         checkpoint_bytes={} tiles_resumed={} latency={:?}",
        out.recovery.ranks_lost,
        out.recovery.slabs_migrated,
        out.recovery.epochs,
        out.recovery.checkpoint_bytes,
        out.recovery.tiles_resumed,
        out.recovery.recovery_latency,
    );

    let timeline = out.timeline.as_ref().expect("Full builds a timeline");
    let json = timeline.to_chrome_trace();
    // The recovery protocol must be visible in the exported trace.
    for name in ["PeerDeath", "RecoveryStart", "SlabMigrated", "RecoveryDone"] {
        assert!(
            json.contains(name),
            "timeline is missing the {name} recovery event"
        );
    }
    let _ = serde_json::from_str(&json).expect("chrome trace is valid JSON");

    if let Some(path) = std::env::args().nth(1) {
        std::fs::write(&path, &json).expect("write trace json");
        println!("wrote {path}");
    }
}
