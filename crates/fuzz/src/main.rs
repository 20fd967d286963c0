//! `dpgen-fuzz` — the budgeted differential fuzzing loop.
//!
//! ```text
//! dpgen-fuzz [--seed <u64|0xhex>] [--seed-from-env] [--budget <n>]
//!            [--legs <all|basic>] [--artifacts <dir>]
//!            [--emit-corpus <dir> <count>] [--replay <u64|0xhex>]
//! ```
//!
//! Generates `--budget` random specs from the seed and checks each one
//! across the differential matrix — all 15 legs by default
//! (thread × rank × fault × schedule × kill × plan-reuse × banded), or the
//! 9-leg dynamic-only `basic` matrix via `--legs basic`. On the first
//! failure the spec is auto-shrunk and written to `<artifacts>/minimized.json` (plus
//! `stall.txt` when a stall snapshot exists), and the process exits 1 —
//! CI uploads the artifacts directory. `--emit-corpus` instead writes the
//! first `<count>` generated specs as corpus JSON and exits (used to seed
//! `tests/corpus/`). `--replay` rebuilds one spec from its *own* seed —
//! the hex suffix of a `fuzz_<seed>.json` corpus name — and checks just
//! that spec.

use dpgen_core::{specgen, SpecGen};
use dpgen_fuzz::{
    basic_matrix, check_spec, full_matrix, parse_seed, save_spec, seed_from_env, shrink, Leg,
};
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    seed: u64,
    budget: usize,
    legs: Vec<Leg>,
    artifacts: PathBuf,
    emit_corpus: Option<(PathBuf, usize)>,
    replay: Option<u64>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        seed: 0x5EED_D1FF,
        budget: 200,
        legs: full_matrix(),
        artifacts: PathBuf::from("fuzz-artifacts"),
        emit_corpus: None,
        replay: None,
    };
    let mut args = std::env::args().skip(1);
    let missing = |flag: &str| format!("`{flag}` needs a value");
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                opts.seed = parse_seed(&args.next().ok_or_else(|| missing("--seed"))?)?;
            }
            "--seed-from-env" => opts.seed = seed_from_env(),
            "--budget" => {
                opts.budget = args
                    .next()
                    .ok_or_else(|| missing("--budget"))?
                    .parse::<usize>()
                    .map_err(|e| format!("bad budget: {e}"))?;
            }
            "--legs" => {
                let which = args.next().ok_or_else(|| missing("--legs"))?;
                opts.legs = match which.as_str() {
                    "all" => full_matrix(),
                    "basic" => basic_matrix(),
                    other => return Err(format!("bad legs `{other}` (want all|basic)")),
                };
            }
            "--artifacts" => {
                opts.artifacts = PathBuf::from(args.next().ok_or_else(|| missing("--artifacts"))?);
            }
            "--emit-corpus" => {
                let dir = PathBuf::from(args.next().ok_or_else(|| missing("--emit-corpus"))?);
                let count = args
                    .next()
                    .ok_or("`--emit-corpus` needs <dir> <count>")?
                    .parse::<usize>()
                    .map_err(|e| format!("bad corpus count: {e}"))?;
                opts.emit_corpus = Some((dir, count));
            }
            "--replay" => {
                opts.replay = Some(parse_seed(
                    &args.next().ok_or_else(|| missing("--replay"))?,
                )?);
            }
            "--help" | "-h" => {
                println!(
                    "dpgen-fuzz [--seed <u64|0xhex>] [--seed-from-env] [--budget <n>]\n\
                     \x20         [--legs <all|basic>] [--artifacts <dir>]\n\
                     \x20         [--emit-corpus <dir> <count>] [--replay <u64|0xhex>]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("dpgen-fuzz: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(spec_seed) = opts.replay {
        let Some(gs) = specgen::try_from_seed(spec_seed) else {
            eprintln!("dpgen-fuzz: seed {spec_seed:#018x} is rejected by the generator");
            return ExitCode::from(2);
        };
        println!("dpgen-fuzz: replaying {} across the matrix", gs.spec.name);
        return match check_spec(&gs, &opts.legs) {
            Ok(()) => {
                println!("dpgen-fuzz: spec agrees on every leg");
                ExitCode::SUCCESS
            }
            Err(failure) => {
                eprintln!("FAILURE: {failure}");
                ExitCode::FAILURE
            }
        };
    }

    let mut gen = SpecGen::new(opts.seed);
    if let Some((dir, count)) = &opts.emit_corpus {
        for _ in 0..*count {
            let gs = gen.next_spec();
            match save_spec(dir, &gs) {
                Ok(path) => println!("wrote {}", path.display()),
                Err(e) => {
                    eprintln!("dpgen-fuzz: writing corpus: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        return ExitCode::SUCCESS;
    }

    let legs = opts.legs;
    println!(
        "dpgen-fuzz: seed {:#018x}, budget {} specs, {} matrix legs",
        opts.seed,
        opts.budget,
        legs.len()
    );
    for i in 0..opts.budget {
        let gs = gen.next_spec();
        if let Err(failure) = check_spec(&gs, &legs) {
            // The run seed goes in the failure line itself so it survives
            // even when only the tail of a CI step log is read.
            eprintln!(
                "FAILURE after {} specs (run seed {:#018x}): {failure}",
                i + 1,
                opts.seed
            );
            eprintln!("shrinking…");
            let (min, min_failure) = shrink(&gs, &legs, failure);
            eprintln!("minimized: {min_failure}");
            match save_spec(&opts.artifacts, &min) {
                Ok(path) => {
                    // Stable artifact name for the CI upload step.
                    let dst = opts.artifacts.join("minimized.json");
                    let _ = std::fs::copy(&path, &dst);
                    eprintln!("minimized spec written to {}", dst.display());
                }
                Err(e) => eprintln!("dpgen-fuzz: writing minimized spec: {e}"),
            }
            if let Some(stall) = &min_failure.stall {
                let path = opts.artifacts.join("stall.txt");
                if std::fs::write(&path, stall).is_ok() {
                    eprintln!("stall snapshot written to {}", path.display());
                }
            }
            eprintln!(
                "reproduce with: cargo run --release -p dpgen-fuzz -- --seed {:#x} --budget {}",
                opts.seed,
                i + 1
            );
            return ExitCode::FAILURE;
        }
        if (i + 1) % 25 == 0 {
            println!("  {} / {} specs ok", i + 1, opts.budget);
        }
    }
    println!(
        "dpgen-fuzz: all {} specs agree across {} legs",
        opts.budget,
        legs.len()
    );
    ExitCode::SUCCESS
}
