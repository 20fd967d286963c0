//! The strongest code-generation test: compile the emitted hybrid C
//! program with a real C compiler (gcc, real OpenMP, single-rank MPI stub)
//! and run it, comparing its whole-space checksum and tile count against
//! the Rust runtime executing the same problem.
//!
//! The emitted program must compile clean under `-Wall -Wextra -Werror`,
//! and run clean under AddressSanitizer.
//!
//! Skipped silently when no `gcc` is available.

use dpgen::codegen::emit_c;
use dpgen::core::spec::bandit2_spec_text;
use dpgen::core::specgen::fuzz_kernel;
use dpgen::core::{ExecOpts, Program, SpecGen};
use dpgen::mpisim::Wire;
use dpgen::problems::{
    random_sequence, BandedSw, Bandit2, Bandit3, BanditDelay, EditDistance, Lcs, Msa, SmithWaterman,
};
use dpgen::runtime::{Kernel, PerCell, Reduction, TilePriority, Value};
use std::ops::Add;
use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::str::FromStr;
use std::time::{Duration, Instant};

fn have_gcc() -> bool {
    Command::new("gcc")
        .arg("--version")
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false)
}

fn stub_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("crates/codegen/tests/stubs")
}

/// Compile the generated program with gcc + stubs — and `support`, a
/// translation unit defining what the program declares `extern`, when not
/// empty — into a binary named `name`; returns its path. Every warning of
/// `-Wall -Wextra` fails the build: the program declares nothing it does
/// not use. AddressSanitizer fails a run that writes past an allocation,
/// such as a pack that overruns its edge's cell bound.
fn compile(name: &str, source: &str, support: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dpgen_codegen_run");
    std::fs::create_dir_all(&dir).unwrap();
    let c_path = dir.join(format!("{name}.c"));
    let support_path = dir.join(format!("{name}_support.c"));
    let bin_path = dir.join(name);
    std::fs::write(&c_path, source).unwrap();
    std::fs::write(&support_path, support).unwrap();
    let out = Command::new("gcc")
        .arg("-O1")
        .args(["-Wall", "-Wextra", "-Werror"])
        .arg("-fsanitize=address")
        .arg("-fopenmp")
        .arg("-I")
        .arg(stub_dir())
        .arg(&c_path)
        .arg(&support_path)
        .arg(stub_dir().join("mpi_stub.c"))
        .arg("-o")
        .arg(&bin_path)
        .arg("-lm")
        .output()
        .expect("gcc invocation failed");
    assert!(
        out.status.success(),
        "generated C failed to compile:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    bin_path
}

/// What one run of a compiled program printed.
struct CRun {
    tiles: u64,
    /// The checksum as printed.
    checksum: String,
    /// Seconds in `dp_startup` and in the worker region.
    startup: f64,
    run: f64,
}

/// How long one run of a compiled program may take. A program whose
/// missing counts never reach zero spins in its worker loop forever; the
/// deadline turns that into a failure that names the run.
const RUN_DEADLINE_S: u32 = 60;

/// Run a compiled program with the given parameter values, on `threads`
/// OpenMP threads when given (the OpenMP default otherwise). The program
/// runs under coreutils `timeout -s KILL`, which kills it past
/// [`RUN_DEADLINE_S`] seconds of wall time; `timeout` is a process of its
/// own, so it still does so if this test process is killed first. Every
/// line [`CRun`] holds must be printed.
fn run(bin_path: &Path, params: &[i64], threads: Option<usize>) -> CRun {
    let mut cmd = Command::new("timeout");
    cmd.args(["-s", "KILL", &RUN_DEADLINE_S.to_string()])
        .arg(bin_path)
        .args(params.iter().map(|p| p.to_string()));
    if let Some(threads) = threads {
        cmd.env("OMP_NUM_THREADS", threads.to_string());
    }
    let run = cmd.output().expect("timeout failed to start");
    let at = format!(
        "{} with parameters {params:?} on {} OpenMP thread(s)",
        bin_path.display(),
        threads.map_or("the default".to_string(), |t| t.to_string())
    );
    // On the deadline `timeout` kills the program and then its own process
    // group, itself included.
    assert!(
        run.status.signal() != Some(9),
        "{at} ran past {RUN_DEADLINE_S}s"
    );
    assert!(
        run.status.success(),
        "{at} failed ({}):\n{}",
        run.status,
        String::from_utf8_lossy(&run.stderr)
    );
    let stdout = String::from_utf8(run.stdout).unwrap();
    let line = |prefix: &str| {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(prefix))
            .unwrap_or_else(|| panic!("no `{prefix}` line in output:\n{stdout}"))
            .trim()
    };
    let seconds = |prefix: &str| line(prefix).parse::<f64>().unwrap();
    CRun {
        tiles: line("tiles done: ").parse().unwrap(),
        checksum: line("checksum: ").to_string(),
        startup: seconds("startup: "),
        run: seconds("run: "),
    }
}

/// [`compile`] then [`run`] on the OpenMP default thread count.
fn compile_and_run(name: &str, source: &str, support: &str, params: &[i64]) -> CRun {
    run(&compile(name, source, support), params, None)
}

/// A checksum as the program prints it: integers exactly, floating types
/// to ten places.
fn parse<T: FromStr>(checksum: &str) -> T {
    checksum
        .parse()
        .unwrap_or_else(|_| panic!("checksum `{checksum}` does not parse"))
}

/// The Rust runtime's tile count and whole-space sum (folded by `add`) for
/// `program` at `params` with `kernel`: what the emitted program's two
/// output lines are held to.
fn rust_tiles_and_sum<T, K>(
    program: &Program,
    params: &[i64],
    kernel: &K,
    add: fn(T, T) -> T,
) -> (u64, T)
where
    T: Value + Wire,
    K: Kernel<T>,
{
    let reduce = Reduction::new(T::default(), add);
    let opts = ExecOpts::new()
        .threads(1)
        .priority(TilePriority::column_major(program.tiling().dims()));
    let res = program
        .compile(params)
        .execute_reduce::<T, _>(&PerCell(kernel), &reduce, &opts)
        .unwrap();
    (res.per_rank[0].stats.tiles_executed, res.reduction.unwrap())
}

/// Hold the C program's tile count and floating checksum to the Rust
/// runtime executing `program` at `params` with `kernel` (same widths,
/// same kernel semantics).
fn floats_agree<K: Kernel<f64>>(
    name: &str,
    program: &Program,
    params: &[i64],
    c: &CRun,
    kernel: &K,
) {
    let (tiles, rust_checksum) = rust_tiles_and_sum(program, params, kernel, f64::add);
    let c_checksum: f64 = parse(&c.checksum);
    assert_eq!(c.tiles, tiles, "{name}: tile counts differ");
    let rel = (c_checksum - rust_checksum).abs() / rust_checksum.abs().max(1.0);
    assert!(
        rel < 1e-6,
        "{name}: checksums differ: C {c_checksum} vs Rust {rust_checksum}"
    );
}

/// Emit `program`'s C, run it at `N = n`, and hold it to the Rust runtime.
fn c_agrees_with_rust<K: Kernel<f64>>(name: &str, program: &Program, n: i64, kernel: &K) {
    let c = compile_and_run(name, &emit_c(program), "", &[n]);
    floats_agree(name, program, &[n], &c, kernel);
}

/// Emit `program`'s C, link the strings `seqs` beside it as `a`, `b` and
/// `c` (the string specs declare them `extern`), run it at `params` and
/// hold its tile count and `long` checksum to the Rust kernel's exactly.
/// Returns the checksum.
fn strings_agree<K: Kernel<i64>>(
    name: &str,
    program: &Program,
    seqs: &[&[u8]],
    params: &[i64],
    kernel: &K,
) -> i64 {
    let support: String = ["a", "b", "c"]
        .iter()
        .zip(seqs)
        .map(|(var, s)| format!("const char *{var} = \"{}\";\n", String::from_utf8_lossy(s)))
        .collect();
    let c = compile_and_run(name, &emit_c(program), &support, params);
    let (tiles, sum) = rust_tiles_and_sum(program, params, kernel, i64::add);
    assert_eq!(c.tiles, tiles, "{name}: tile counts differ");
    assert_eq!(parse::<i64>(&c.checksum), sum, "{name}: checksums differ");
    sum
}

#[test]
fn generated_bandit2_compiles_runs_and_matches_rust() {
    if !have_gcc() {
        eprintln!("gcc not found; skipping compile-and-run test");
        return;
    }
    let program = Program::parse(&bandit2_spec_text(4)).unwrap();
    c_agrees_with_rust("bandit2", &program, 14, &Bandit2::default().kernel());
}

/// Bandit2 at width 4, N = 80: 10 626 tiles. Every step of the emitted
/// scheduler reads the tile table by number, so the run is linear in the
/// tile count; a rescan of the tile space per tile or per edge makes it
/// quadratic, and this bound (on the program's run, not on gcc) catches it.
#[test]
fn generated_bandit2_runs_ten_thousand_tiles_in_bounded_time() {
    if !have_gcc() {
        return;
    }
    let program = Program::parse(&bandit2_spec_text(4)).unwrap();
    let bin = compile("bandit2_n80", &emit_c(&program), "");
    let start = Instant::now();
    let c = run(&bin, &[80], None);
    let elapsed = start.elapsed();
    assert_eq!(c.tiles, 10_626);
    floats_agree(
        "bandit2 at N = 80",
        &program,
        &[80],
        &c,
        &Bandit2::default().kernel(),
    );
    assert!(
        elapsed <= Duration::from_secs(5),
        "10 626 tiles took {elapsed:?}"
    );
    // The program times its own startup and run (E9); no ratio is gated.
    assert!(
        c.startup >= 0.0 && c.run >= 0.0,
        "startup {} run {}",
        c.startup,
        c.run
    );
}

/// The two 6-D bandits: the widest programs gcc runs, whose edge nests
/// clamp the most dimensions and whose horizon cells read no neighbour.
#[test]
fn generated_six_dimensional_bandits_match_rust() {
    if !have_gcc() {
        return;
    }
    let bandit3 = Bandit3::program(3).unwrap();
    c_agrees_with_rust("bandit3", &bandit3, 6, &Bandit3::default().kernel());
    let delay = BanditDelay::program(3).unwrap();
    c_agrees_with_rust("bandit_delay", &delay, 6, &BanditDelay::default().kernel());
}

/// LCS of two DNA strings: the program reads them from a translation unit
/// linked beside it, and its whole-space `long` checksum must equal the
/// Rust kernel's exactly.
#[test]
fn generated_lcs2_matches_rust() {
    if !have_gcc() {
        return;
    }
    let (a, b) = (random_sequence(45, 11), random_sequence(38, 12));
    let problem = Lcs::new(&[&a, &b]);
    let program = Lcs::program(2, 8).unwrap();
    let sum = strings_agree("lcs2", &program, &[&a, &b], &problem.params(), &problem);
    // The goal cell alone would not tell a program computing zeros apart.
    assert!(problem.solve_dense() > 0 && sum > 0);
}

/// Sum-of-pairs alignment of three strings: the emitted kernel takes the
/// cheapest of seven moves with mismatch and gap costs per pair, and its
/// whole-space `long` checksum must equal the Rust kernel's exactly.
#[test]
fn generated_msa3_matches_rust() {
    if !have_gcc() {
        return;
    }
    let seqs = [
        random_sequence(13, 21),
        random_sequence(11, 22),
        random_sequence(12, 23),
    ];
    let seqs: Vec<&[u8]> = seqs.iter().map(Vec::as_slice).collect();
    let problem = Msa::new(&seqs);
    let program = Msa::program(3, 4).unwrap();
    let sum = strings_agree("msa3", &program, &seqs, &problem.params(), &problem);
    assert!(problem.solve_dense() > 0 && sum > 0);
}

/// The remaining string specs of the paper set — LCS of three strings,
/// Smith–Waterman, its banded form and edit distance — each held to its
/// Rust kernel exactly on random DNA.
#[test]
fn generated_string_paper_specs_match_rust() {
    if !have_gcc() {
        return;
    }
    let (a, b) = (random_sequence(45, 11), random_sequence(38, 12));
    let c = random_sequence(20, 13);
    let lcs3 = Lcs::new(&[&a[..24], &b[..22], &c]);
    let sum = strings_agree(
        "lcs3",
        &Lcs::program(3, 4).unwrap(),
        &[&a[..24], &b[..22], &c],
        &lcs3.params(),
        &lcs3,
    );
    assert!(lcs3.solve_dense() > 0 && sum > 0);
    let sw = SmithWaterman::new(&a, &b);
    let sum = strings_agree(
        "smith_waterman",
        &SmithWaterman::program(8).unwrap(),
        &[&a, &b],
        &sw.params(),
        &sw,
    );
    assert!(sw.solve_dense() > 0 && sum > 0);
    let banded = BandedSw::new(&a, &b, 6);
    let sum = strings_agree(
        "banded_sw",
        &BandedSw::program(8, 6).unwrap(),
        &[&a, &b],
        &banded.params(),
        &banded,
    );
    assert!(banded.solve_dense_masked() > 0 && sum > 0);
    // Every cell but the origin is a minimum over its valid moves: a C
    // kernel that zeroes the first row and column reads low here.
    let ed = EditDistance::new(&a, &b);
    let sum = strings_agree(
        "editdist",
        &EditDistance::program(8).unwrap(),
        &[&a, &b],
        &ed.params(),
        &ed,
    );
    assert!(ed.solve_dense() > 0 && sum > 0);
}

/// The first 100 generated specs: each spec's attached center code is the
/// fuzz recurrence in C, so the emitted program's wrapping `unsigned long
/// long` checksum, printed exactly, is the Rust fuzz kernel's wrapping
/// `u64` sum, all 64 bits of it. Each program is compiled once and run on
/// 1 and on 2 OpenMP threads.
#[test]
fn generated_fuzz_spec_matches_rust() {
    if !have_gcc() {
        eprintln!("gcc not found; skipping the generated-spec compile-and-run test");
        return;
    }
    let mut specs = SpecGen::new(1);
    for _ in 0..100 {
        let gs = specs.next_spec();
        let program = Program::from_spec(gs.spec.clone()).unwrap();
        let params = [gs.param];
        let bin = compile("fuzz", &emit_c(&program), "");
        let kernel = fuzz_kernel(gs.spec.templates.len());
        let (tiles, sum) = rust_tiles_and_sum(&program, &params, &kernel, u64::wrapping_add);
        for threads in [1, 2] {
            let c = run(&bin, &params, Some(threads));
            let at = format!(
                "spec {:016x} at N = {} on {threads} thread(s)",
                gs.seed, gs.param
            );
            assert_eq!(c.tiles, tiles, "{at}: tile counts differ");
            assert_eq!(parse::<u64>(&c.checksum), sum, "{at}: checksums differ");
        }
    }
}

#[test]
fn generated_triangle_program_runs_at_several_sizes() {
    if !have_gcc() {
        return;
    }
    // A 2-D triangle with a trivial additive kernel; validates the loop
    // bounds, tile space and scheduler for a second problem shape.
    let program = Program::parse(
        "name tri\nvars x y\nparams N\n\
         constraint x >= 0\nconstraint y >= 0\nconstraint x + y <= N\n\
         template r1 1 0\ntemplate r2 0 1\n\
         order x y\nloadbalance x\nwidths 4 4\n\
         type double\n\
         code {\n\
         double a = is_valid_r1 ? V[loc_r1] : 1;\n\
         double b = is_valid_r2 ? V[loc_r2] : 1;\n\
         V[loc] = a + b;\n\
         }\n",
    )
    .unwrap();
    let source = emit_c(&program);
    for n in [0i64, 5, 17, 30] {
        let c = compile_and_run("triangle", &source, "", &[n]);
        let checksum: f64 = parse(&c.checksum);
        // Expected: sum over cells of 2^(N - x - y + 1).
        let mut expect = 0.0f64;
        for k in 0..=n {
            // N - x - y = k on (k+1)... cells with x+y = N-k: N-k+1 of them.
            expect += (n - k + 1) as f64 * 2f64.powi(k as i32 + 1);
        }
        let mut point = program.tiling().make_point(&[n]);
        let mut tile_count = 0u64;
        program
            .tiling()
            .for_each_tile(&mut point, |_| tile_count += 1);
        assert_eq!(c.tiles, tile_count, "N = {n}");
        let rel = (checksum - expect).abs() / expect.max(1.0);
        assert!(
            rel < 1e-9,
            "N = {n}: checksum {checksum} vs expected {expect}"
        );
    }
}
