//! The differential spec-fuzzing harness.
//!
//! Each generated spec ([`dpgen_core::specgen`]) is run through the full
//! pipeline — FM bounds → tiling → edge layouts → tiled runtime — across
//! a {1, 2, 4}-thread × {1, 2}-rank matrix, fault-free and under a seeded
//! [`FaultPlan`], and **every cell value** is compared bit-identically
//! against the naive reference interpreter, as is a whole-space wrapping-sum
//! [`Reduction`] (one per spec, shared by every leg and every pass, so a
//! reduction that kept state between runs fails the second run). Any
//! disagreement, run error, or cell-count mismatch is a [`Failure`];
//! failures auto-shrink
//! ([`shrink`]) by dropping constraints/templates, halving widths and the
//! parameter, and clearing the ordering knobs, keeping the smallest spec
//! that still fails. Minimized specs serialize into `tests/corpus/` where
//! `tests/fuzz_regressions.rs` replays them forever after.

use dpgen_core::specgen::{self, GeneratedSpec};
use dpgen_core::{ExecOpts, Plan, Program, RunOutput, SpecBand};
use dpgen_mpisim::{CommConfig, FaultPlan, KillTrigger, ReliabilityConfig};
use dpgen_runtime::{PerCell, Probe, Reduction, RunError, Schedule, SplitMix64, TilePriority};
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// One leg of the differential matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Leg {
    /// Worker threads per rank.
    pub threads: usize,
    /// Simulated MPI ranks.
    pub ranks: usize,
    /// Requested schedule mode ([`Schedule::Dynamic`] is the work-stealing
    /// baseline; `Static` homes and keys every tile by each rank's static
    /// plan, and every rank that runs a tile must report it ran `Static`).
    pub schedule: Schedule,
    /// What the leg does beyond a plain run.
    pub twist: Twist,
}

/// The one thing a [`Leg`] adds to a plain run, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Twist {
    /// A plain run.
    None,
    /// Inject a seeded fault plan on the interconnect.
    Faulted,
    /// Use the seeded pseudo-random tile priority instead of the default
    /// (sweeps legal schedules).
    SeededPriority,
    /// Schedule a rank kill mid-run with elastic recovery enabled: rank 0
    /// is hard-dropped after its first data send and survivors must
    /// detect the death, adopt its slabs, and still match the reference
    /// bit-identically. (On specs where rank 0 never sends, the trigger
    /// never fires and the leg degrades to a clean recovery-enabled run.)
    Kill,
    /// Route the leg through the compile/execute split: compile the spec
    /// into a reusable `Plan` once and execute it twice, requiring both
    /// executions to match the reference (and therefore each other)
    /// bit-identically — the cached-plan path the serve engine relies on.
    PlanReuse,
    /// Force a diagonal band onto the spec (dims >= 2; 1-D specs skip the
    /// leg) and check the band-clipped pipeline against the reference
    /// interpreter re-run on the banded spec — the band joins the
    /// constraint system, so the reference masks out-of-band cells
    /// automatically and the comparison stays bit-identical cell by cell.
    Banded,
}

impl fmt::Display for Leg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "threads={} ranks={}", self.threads, self.ranks)?;
        if self.schedule == Schedule::Static {
            f.write_str(" static")?;
        }
        f.write_str(match self.twist {
            Twist::None => "",
            Twist::Faulted => " faulted",
            Twist::SeededPriority => " seeded-priority",
            Twist::Kill => " kill",
            Twist::PlanReuse => " plan-reuse",
            Twist::Banded => " banded",
        })
    }
}

/// The differential matrix: {1, 2, 4} threads × {1, 2} ranks, two faulted
/// multi-rank legs, a seeded-priority leg, three `Static` legs, a rank-kill
/// recovery leg, a compiled-plan reuse leg (compile once, execute twice —
/// the serve cache-hit path) and a banded leg that forces a diagonal band
/// onto every multi-dimensional spec and checks the band-clipped pipeline
/// against the re-masked reference. Every leg runs the hash kernel through
/// the node engine's one scan (`PerCell` replay of each interior block,
/// run by run), so there is no separate batched axis.
pub fn full_matrix() -> Vec<Leg> {
    use Schedule::{Dynamic, Static};
    let leg = |threads, ranks, schedule, twist| Leg {
        threads,
        ranks,
        schedule,
        twist,
    };
    vec![
        leg(1, 1, Dynamic, Twist::None),
        leg(1, 2, Dynamic, Twist::None),
        leg(2, 1, Dynamic, Twist::None),
        leg(2, 2, Dynamic, Twist::None),
        leg(4, 1, Dynamic, Twist::None),
        leg(4, 2, Dynamic, Twist::None),
        leg(2, 2, Dynamic, Twist::Faulted),
        leg(4, 2, Dynamic, Twist::Faulted),
        leg(2, 1, Dynamic, Twist::SeededPriority),
        leg(2, 1, Static, Twist::None),
        leg(4, 2, Static, Twist::None),
        leg(4, 1, Static, Twist::None),
        leg(2, 2, Dynamic, Twist::Kill),
        leg(2, 2, Static, Twist::PlanReuse),
        leg(2, 2, Dynamic, Twist::Banded),
    ]
}

/// A differential failure: which spec, which leg, what went wrong.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Seed of the (possibly shrunk) failing spec.
    pub seed: u64,
    /// The matrix leg that disagreed (`None` = the spec failed before any
    /// leg ran, e.g. the reference interpreter itself errored).
    pub leg: Option<Leg>,
    /// Human-readable mismatch or error description.
    pub detail: String,
    /// Formatted stall snapshot, when the leg died in the watchdog.
    pub stall: Option<String>,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "spec seed {:016x}", self.seed)?;
        if let Some(leg) = &self.leg {
            write!(f, " [{leg}]")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// Communication config for faulted legs: small buffers and fast
/// retransmits so injected drops resolve quickly (the robustness-test
/// idiom), faults seeded from the spec's own seed.
fn faulty_comm(seed: u64) -> CommConfig {
    CommConfig {
        send_buffers: 2,
        recv_buffers: 2,
        reliability: ReliabilityConfig {
            ack_timeout: Duration::from_millis(1),
            max_backoff: Duration::from_millis(20),
            ..ReliabilityConfig::default()
        },
        faults: Some(FaultPlan::uniform(seed ^ 0xFA17_FA17, 0.1)),
    }
}

/// Run one spec through every leg of the matrix, comparing all cell
/// values bit-identically against the naive reference interpreter.
pub fn check_spec(gs: &GeneratedSpec, legs: &[Leg]) -> Result<(), Failure> {
    let fail = |leg: Option<Leg>, detail: String, stall: Option<String>| Failure {
        seed: gs.seed,
        leg,
        detail,
        stall,
    };
    let reference = specgen::reference_eval(&gs.spec, gs.param)
        .map_err(|e| fail(None, format!("reference interpreter: {e}"), None))?;
    let program = Program::from_spec(gs.spec.clone())
        .map_err(|e| fail(None, format!("program: {e}"), None))?;
    let kernel = specgen::fuzz_kernel(gs.spec.templates.len());
    let params = [gs.param];
    // Every lattice point of a reference, in its order.
    let probe_all = |reference: &specgen::NaiveReference| {
        let coords: Vec<&[i64]> = reference.points.iter().map(|p| p.as_slice()).collect();
        Probe::many(&coords)
    };
    let probe = probe_all(&reference);
    // One reduction for every leg and pass: a `Reduction` is a value no run
    // writes, so each run's fold must equal its reference's sum alone.
    let sum = Reduction::new(0u64, u64::wrapping_add);

    // Execute with `opts` (which probe all of `reference`) and compare the
    // cell count, every cell value and the reduction (`what` prefixes the
    // messages).
    let check = |leg: Leg,
                 what: &str,
                 reference: &specgen::NaiveReference,
                 plan: &Plan,
                 opts: &ExecOpts|
     -> Result<(), Failure> {
        let out: RunOutput<u64> =
            (plan.execute_reduce(&PerCell(&kernel), &sum, opts)).map_err(|e| {
                let stall = match &e {
                    RunError::Stalled(snapshot) => Some(snapshot.to_string()),
                    _ => None,
                };
                fail(Some(leg), format!("{what}run error: {e}"), stall)
            })?;
        if out.cells_computed() as usize != reference.points.len() {
            return Err(fail(
                Some(leg),
                format!(
                    "{what}cells computed {} != {} lattice points",
                    out.cells_computed(),
                    reference.points.len()
                ),
                None,
            ));
        }
        // Interior cells reach a kernel through `eval_block` and no other
        // way, on every leg; a `Static` request runs `Static` on every rank
        // that runs a tile.
        for (r, rank) in out.per_rank.iter().enumerate() {
            let ran = rank.stats.schedule;
            if leg.schedule == Schedule::Static
                && rank.stats.tiles_executed > 0
                && ran != Schedule::Static
            {
                return Err(fail(
                    Some(leg),
                    format!("{what}rank {r} ran {ran}, not the requested static"),
                    None,
                ));
            }
            let (interior, blocks) = (rank.stats.interior_cells, rank.stats.blocks_evaluated);
            if (interior > 0) != (blocks > 0) || blocks > interior {
                return Err(fail(
                    Some(leg),
                    format!("{what}{interior} interior cells in {blocks} blocks"),
                    None,
                ));
            }
        }
        for (p, got) in reference.points.iter().zip(&out.probes) {
            let want = reference.values.get(p).copied();
            if *got != want {
                return Err(fail(
                    Some(leg),
                    format!("{what}cell {p:?}: pipeline {got:?} != reference {want:?}"),
                    None,
                ));
            }
        }
        let want = (reference.values.values()).fold(0u64, |a, &v| a.wrapping_add(v));
        if out.reduction != Some(want) {
            return Err(fail(
                Some(leg),
                format!(
                    "{what}reduction {:?} != reference sum {want}",
                    out.reduction
                ),
                None,
            ));
        }
        Ok(())
    };

    for &leg in legs {
        let mut opts = ExecOpts::new()
            .threads(leg.threads)
            .ranks(leg.ranks)
            .schedule(leg.schedule)
            .probe(probe.clone())
            .stall_timeout(Duration::from_secs(20));
        match leg.twist {
            Twist::Banded => {
                // Band the spec and re-derive the whole pipeline from
                // the banded geometry. The band joins the constraint system,
                // so the reference interpreter masks out-of-band cells on its
                // own — no special-cased comparison. 1-D specs have no
                // variable pair to band and skip the leg; a band that empties
                // the lattice (the spec's space misses the diagonal strip
                // entirely) also skips, since there is nothing to check.
                if gs.spec.vars.len() < 2 {
                    continue;
                }
                let mut banded = gs.spec.clone();
                if banded.band.is_none() {
                    banded.band = Some(SpecBand {
                        a: banded.vars[0].clone(),
                        b: banded.vars[1].clone(),
                        lo: -2,
                        hi: 2,
                    });
                }
                let b_ref = specgen::reference_eval(&banded, gs.param)
                    .map_err(|e| fail(Some(leg), format!("banded reference: {e}"), None))?;
                if b_ref.points.is_empty() {
                    continue;
                }
                let b_program = Program::from_spec(banded)
                    .map_err(|e| fail(Some(leg), format!("banded program: {e}"), None))?;
                let opts = opts.probe(probe_all(&b_ref));
                check(leg, "banded ", &b_ref, &b_program.compile(&params), &opts)?;
                continue;
            }
            Twist::SeededPriority => {
                opts = opts.priority(TilePriority::seeded(program.tiling().dims(), gs.seed));
            }
            Twist::Faulted => opts = opts.comm(faulty_comm(gs.seed)),
            Twist::Kill => {
                // Kill the upstream rank (slab balancing puts the wavefront
                // source on rank 0) after its first data frame and recover
                // onto the survivor; fast heartbeats keep detection quick.
                opts = opts.max_recoveries(1).comm(CommConfig {
                    faults: Some(FaultPlan::kill_rank_at(0, KillTrigger::AfterSends(1))),
                    reliability: ReliabilityConfig {
                        heartbeat_interval: Some(Duration::from_millis(2)),
                        death_timeout: Duration::from_millis(150),
                        ..ReliabilityConfig::default()
                    },
                    ..CommConfig::default()
                });
            }
            Twist::None | Twist::PlanReuse => {}
        }
        // A fresh compile per leg, so every leg starts from a cold memo.
        // The plan-reuse leg executes its plan twice: the second pass runs
        // with every memoized artifact (tile graph and recordings, balance)
        // warm, exactly like a serve cache hit, and must verify against the
        // reference like the first.
        let plan = program.compile(&params);
        for _pass in 0..=usize::from(leg.twist == Twist::PlanReuse) {
            check(leg, "", &reference, &plan, &opts)?;
        }
    }
    Ok(())
}

/// True when a shrink candidate is still a runnable problem (validates,
/// tiles, and has a small nonempty iteration space).
fn runnable(gs: &GeneratedSpec) -> bool {
    gs.spec.validate().is_ok()
        && gs.spec.tiling().is_ok()
        && matches!(
            specgen::lattice_points(&gs.spec, gs.param),
            Ok(points) if !points.is_empty()
        )
}

/// Size metric minimized by [`shrink`].
fn complexity(gs: &GeneratedSpec) -> usize {
    gs.spec.constraints.len()
        + gs.spec.templates.len()
        + gs.spec.order.len()
        + gs.spec.load_balance.len()
        + gs.spec.widths.iter().map(|&w| w as usize).sum::<usize>()
        + gs.param as usize
}

/// All one-step shrink candidates of `gs`: drop one constraint, drop one
/// template, halve one width, halve the parameter, clear the ordering,
/// clear the load-balance dims. Candidates re-attach the fuzz code so the
/// kernel arity tracks the template count.
fn candidates(gs: &GeneratedSpec) -> Vec<GeneratedSpec> {
    let mut out = Vec::new();
    let mut push = |spec: dpgen_core::ProblemSpec, param: i64| {
        let mut spec = spec;
        specgen::attach_fuzz_code(&mut spec);
        out.push(GeneratedSpec {
            spec,
            param,
            seed: gs.seed,
        });
    };
    for i in 0..gs.spec.constraints.len() {
        let mut s = gs.spec.clone();
        s.constraints.remove(i);
        push(s, gs.param);
    }
    for j in 0..gs.spec.templates.len() {
        let mut s = gs.spec.clone();
        s.templates.remove(j);
        push(s, gs.param);
    }
    for k in 0..gs.spec.widths.len() {
        if gs.spec.widths[k] > 1 {
            let mut s = gs.spec.clone();
            s.widths[k] = (s.widths[k] / 2).max(1);
            push(s, gs.param);
        }
    }
    if gs.param > 1 {
        push(gs.spec.clone(), gs.param / 2);
    }
    if !gs.spec.order.is_empty() {
        let mut s = gs.spec.clone();
        s.order.clear();
        push(s, gs.param);
    }
    if !gs.spec.load_balance.is_empty() {
        let mut s = gs.spec.clone();
        s.load_balance.clear();
        push(s, gs.param);
    }
    out
}

/// Greedily minimize a failing spec: repeatedly take any one-step
/// candidate that is still runnable and still fails, until none improves
/// (or an iteration cap is hit). Returns the smallest failing spec found
/// and its failure.
pub fn shrink(gs: &GeneratedSpec, legs: &[Leg], failure: Failure) -> (GeneratedSpec, Failure) {
    let mut best = gs.clone();
    let mut best_failure = failure;
    let mut iterations = 0usize;
    'outer: loop {
        if iterations >= 200 {
            break;
        }
        for cand in candidates(&best) {
            iterations += 1;
            if !runnable(&cand) || complexity(&cand) >= complexity(&best) {
                continue;
            }
            if let Err(f) = check_spec(&cand, legs) {
                best = cand;
                best_failure = f;
                continue 'outer;
            }
        }
        break;
    }
    (best, best_failure)
}

/// Write a spec's JSON into `dir` as `<name>.json`, creating the
/// directory if needed.
pub fn save_spec(dir: &Path, gs: &GeneratedSpec) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.json", gs.spec.name));
    std::fs::write(&path, specgen::to_json(gs))?;
    Ok(path)
}

/// Load every `*.json` spec in `dir`, sorted by file name. Unparsable
/// files are hard errors — a corrupt corpus must fail loudly.
pub fn load_corpus(dir: &Path) -> Result<Vec<(PathBuf, GeneratedSpec)>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            (path.extension().is_some_and(|x| x == "json")).then_some(path)
        })
        .collect();
    paths.sort();
    let mut out = Vec::with_capacity(paths.len());
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let gs = specgen::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        out.push((path, gs));
    }
    Ok(out)
}

/// Derive a fuzzing seed the way the CI job does: `FUZZ_SEED` wins, then
/// `GITHUB_RUN_ID` (so every CI run explores fresh seeds), then a fixed
/// default for local runs.
pub fn seed_from_env() -> u64 {
    if let Ok(s) = std::env::var("FUZZ_SEED") {
        if let Ok(v) = parse_seed(&s) {
            return v;
        }
    }
    if let Ok(s) = std::env::var("GITHUB_RUN_ID") {
        if let Ok(v) = parse_seed(&s) {
            // Decorrelate consecutive run ids into distant streams.
            return SplitMix64::new(v).next_u64();
        }
    }
    0x5EED_D1FF
}

/// Parse a decimal or `0x`-prefixed hex seed.
pub fn parse_seed(s: &str) -> Result<u64, String> {
    let s = s.trim();
    let parsed = if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse::<u64>()
    };
    parsed.map_err(|e| format!("bad seed `{s}`: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpgen_core::SpecGen;

    #[test]
    fn matrix_covers_the_acceptance_grid() {
        let legs = full_matrix();
        assert_eq!(legs.len(), 15);
        let has = |threads, ranks, schedule, twist| {
            legs.contains(&Leg {
                threads,
                ranks,
                schedule,
                twist,
            })
        };
        for threads in [1usize, 2, 4] {
            for ranks in [1usize, 2] {
                assert!(
                    has(threads, ranks, Schedule::Dynamic, Twist::None),
                    "missing plain leg {threads}x{ranks}"
                );
            }
        }
        assert!(legs
            .iter()
            .any(|l| l.twist == Twist::Faulted && l.ranks > 1));
        assert!(legs.iter().any(|l| l.twist == Twist::SeededPriority));
        assert!(
            has(2, 2, Schedule::Dynamic, Twist::Banded),
            "missing the banded leg"
        );
        assert!(
            has(2, 2, Schedule::Static, Twist::PlanReuse),
            "missing the compiled-plan reuse leg"
        );
        assert!(
            has(2, 2, Schedule::Dynamic, Twist::Kill),
            "missing the rank-kill leg"
        );
        for (threads, ranks) in [(2, 1), (4, 1), (4, 2)] {
            assert!(has(threads, ranks, Schedule::Static, Twist::None));
        }
        assert_eq!(legs[13].to_string(), "threads=2 ranks=2 static plan-reuse");
    }

    #[test]
    fn generated_specs_pass_a_reduced_matrix() {
        // A quick in-tree smoke pass; the full budget runs in the CI
        // spec-fuzz job and locally via `cargo run -p dpgen-fuzz`.
        let legs = [
            Leg {
                threads: 2,
                ranks: 1,
                schedule: Schedule::Dynamic,
                twist: Twist::None,
            },
            Leg {
                threads: 2,
                ranks: 2,
                schedule: Schedule::Static,
                twist: Twist::None,
            },
        ];
        let mut gen = SpecGen::new(0xFEED);
        for _ in 0..6 {
            let gs = gen.next_spec();
            if let Err(f) = check_spec(&gs, &legs) {
                panic!("differential failure: {f}");
            }
        }
    }

    #[test]
    fn shrink_reduces_an_artificial_failure() {
        // Use an impossible leg-free failure predicate stand-in: shrink
        // against a matrix where the "failure" is the spec having more
        // than one constraint — here simulated by checking a real spec
        // against real legs, then shrinking a synthetic failure whose
        // check always passes (so shrink must return the original).
        let mut gen = SpecGen::new(77);
        let gs = gen.next_spec();
        let legs = [Leg {
            threads: 1,
            ranks: 1,
            schedule: Schedule::Dynamic,
            twist: Twist::None,
        }];
        let failure = Failure {
            seed: gs.seed,
            leg: None,
            detail: "synthetic".into(),
            stall: None,
        };
        let (shrunk, f) = shrink(&gs, &legs, failure);
        // The spec passes its legs, so no candidate can "still fail":
        // shrink keeps the original and the original failure.
        assert_eq!(shrunk.spec, gs.spec);
        assert_eq!(f.detail, "synthetic");
    }

    #[test]
    fn seeds_parse_decimal_and_hex() {
        assert_eq!(parse_seed("42").unwrap(), 42);
        assert_eq!(parse_seed("0xff").unwrap(), 255);
        assert!(parse_seed("nope").is_err());
    }

    #[test]
    fn corpus_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("dpgen-fuzz-corpus-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut gen = SpecGen::new(5150);
        let a = gen.next_spec();
        let b = gen.next_spec();
        save_spec(&dir, &a).unwrap();
        save_spec(&dir, &b).unwrap();
        let loaded = load_corpus(&dir).unwrap();
        assert_eq!(loaded.len(), 2);
        let mut names: Vec<&str> = loaded.iter().map(|(_, g)| g.spec.name.as_str()).collect();
        names.sort_unstable();
        let mut want = [a.spec.name.as_str(), b.spec.name.as_str()];
        want.sort_unstable();
        assert_eq!(names, want);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
