//! The strongest code-generation test: compile the emitted hybrid C
//! program with a real C compiler (gcc, real OpenMP, single-rank MPI stub)
//! and run it, comparing its whole-space checksum and tile count against
//! the Rust runtime executing the same problem.
//!
//! Skipped silently when no `gcc` is available.

use dpgen::codegen::emit_c;
use dpgen::core::spec::bandit2_spec_text;
use dpgen::core::specgen::fuzz_kernel;
use dpgen::core::{ExecOpts, Program, SpecGen};
use dpgen::mpisim::Wire;
use dpgen::problems::{random_sequence, Bandit2, Bandit3, BanditDelay, Lcs, Msa};
use dpgen::runtime::{Kernel, PerCell, Reduction, TilePriority, Value};
use std::ops::Add;
use std::path::PathBuf;
use std::process::Command;

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
/// empty — and run it with the given parameter values; returns (tiles
/// done, checksum).
fn compile_and_run(name: &str, source: &str, support: &str, params: &[i64]) -> (u64, f64) {
    let dir = std::env::temp_dir().join("dpgen_codegen_run");
    std::fs::create_dir_all(&dir).unwrap();
    let c_path = dir.join(format!("{name}.c"));
    let support_path = dir.join(format!("{name}_support.c"));
    let bin_path = dir.join(name);
    std::fs::write(&c_path, source).unwrap();
    std::fs::write(&support_path, support).unwrap();
    let out = Command::new("gcc")
        .arg("-O1")
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
    let run = Command::new(&bin_path)
        .args(params.iter().map(|p| p.to_string()))
        .output()
        .expect("generated program failed to start");
    assert!(
        run.status.success(),
        "generated program crashed:\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let stdout = String::from_utf8(run.stdout).unwrap();
    let mut tiles = None;
    let mut checksum = None;
    for line in stdout.lines() {
        if let Some(v) = line.strip_prefix("tiles done: ") {
            tiles = v.trim().parse::<u64>().ok();
        }
        if let Some(v) = line.strip_prefix("checksum: ") {
            checksum = v.trim().parse::<f64>().ok();
        }
    }
    (
        tiles.expect("no tile count in output"),
        checksum.expect("no checksum in output"),
    )
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

/// Emit `program`'s C, run it at `N = n`, and hold its tile count and
/// checksum to the Rust runtime executing the same program with `kernel`
/// (same widths, same kernel semantics).
fn c_agrees_with_rust<K: Kernel<f64>>(name: &str, program: &Program, n: i64, kernel: &K) {
    let source = emit_c(program);
    let (c_tiles, c_checksum) = compile_and_run(name, &source, "", &[n]);
    let (tiles, rust_checksum) = rust_tiles_and_sum(program, &[n], kernel, f64::add);
    assert_eq!(c_tiles, tiles, "{name}: tile counts differ");
    let rel = (c_checksum - rust_checksum).abs() / rust_checksum.abs().max(1.0);
    assert!(
        rel < 1e-6,
        "{name}: checksums differ: C {c_checksum} vs Rust {rust_checksum}"
    );
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
    let support = format!(
        "const char *a = \"{}\";\nconst char *b = \"{}\";\n",
        String::from_utf8_lossy(&a),
        String::from_utf8_lossy(&b)
    );
    let program = Lcs::program(2, 8).unwrap();
    let problem = Lcs::new(&[&a, &b]);
    let params = problem.params();
    let (c_tiles, c_checksum) = compile_and_run("lcs2", &emit_c(&program), &support, &params);
    let (tiles, sum) = rust_tiles_and_sum(&program, &params, &problem, i64::add);
    assert_eq!(c_tiles, tiles, "lcs2: tile counts differ");
    assert_eq!(c_checksum, sum as f64, "lcs2: checksums differ");
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
    let support: String = ["a", "b", "c"]
        .iter()
        .zip(&seqs)
        .map(|(name, s)| format!("const char *{name} = \"{}\";\n", String::from_utf8_lossy(s)))
        .collect();
    let program = Msa::program(3, 4).unwrap();
    let problem = Msa::new(&[&seqs[0], &seqs[1], &seqs[2]]);
    let params = problem.params();
    let (c_tiles, c_checksum) = compile_and_run("msa3", &emit_c(&program), &support, &params);
    let (tiles, sum) = rust_tiles_and_sum(&program, &params, &problem, i64::add);
    assert_eq!(c_tiles, tiles, "msa3: tile counts differ");
    assert_eq!(c_checksum, sum as f64, "msa3: checksums differ");
    assert!(problem.solve_dense() > 0 && sum > 0);
}

/// A generated spec: its attached center code is the fuzz recurrence in
/// C, so the emitted program's wrapping `unsigned long long` checksum,
/// printed through `(double)` as the template prints it, is the Rust fuzz
/// kernel's wrapping `u64` sum through `as f64`.
#[test]
fn generated_fuzz_spec_matches_rust() {
    if !have_gcc() {
        eprintln!("gcc not found; skipping the generated-spec compile-and-run test");
        return;
    }
    let gs = SpecGen::new(1).next_spec();
    let program = Program::from_spec(gs.spec.clone()).unwrap();
    let params = [gs.param];
    let (c_tiles, c_checksum) = compile_and_run("fuzz", &emit_c(&program), "", &params);
    let kernel = fuzz_kernel(gs.spec.templates.len());
    let (tiles, sum) = rust_tiles_and_sum(&program, &params, &kernel, u64::wrapping_add);
    let at = format!("spec {:016x} at N = {}", gs.seed, gs.param);
    assert_eq!(c_tiles, tiles, "{at}: tile counts differ");
    assert_eq!(c_checksum, sum as f64, "{at}: checksums differ");
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
        let (tiles, checksum) = compile_and_run("triangle", &source, "", &[n]);
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
        assert_eq!(tiles, tile_count, "N = {n}");
        let rel = (checksum - expect).abs() / expect.max(1.0);
        assert!(
            rel < 1e-9,
            "N = {n}: checksum {checksum} vs expected {expect}"
        );
    }
}
