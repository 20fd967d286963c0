//! Integration tests for the `dpgen` command-line generator.

use std::process::Command;

fn dpgen() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dpgen"))
}

fn write_spec(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("dpgen_cli_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(
        &path,
        "name tri\nvars x y\nparams N\n\
         constraint x >= 0\nconstraint y >= 0\nconstraint x + y <= N\n\
         template r1 1 0\ntemplate r2 0 1\n\
         order x y\nloadbalance x\nwidths 4 4\n",
    )
    .unwrap();
    path
}

#[test]
fn emit_writes_c_program() {
    let spec = write_spec("emit.dp");
    let out = dpgen().arg("emit").arg(&spec).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let src = String::from_utf8(out.stdout).unwrap();
    assert!(src.contains("#pragma omp parallel"));
    assert!(src.contains("MPI_Init"));
    assert!(src.contains("static dp_value_t execute_tile"));
}

#[test]
fn emit_to_file() {
    let spec = write_spec("emit_file.dp");
    let target = std::env::temp_dir().join("dpgen_cli_tests/out.c");
    let out = dpgen()
        .arg("emit")
        .arg(&spec)
        .arg("-o")
        .arg(&target)
        .output()
        .unwrap();
    assert!(out.status.success());
    let src = std::fs::read_to_string(&target).unwrap();
    assert!(src.contains("int main(int argc, char** argv)"));
}

#[test]
fn info_reports_geometry() {
    let spec = write_spec("info.dp");
    let out = dpgen().arg("info").arg(&spec).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("problem `tri`"), "{text}");
    assert!(text.contains("dimensions : 2 (x, y)"));
    assert!(text.contains("tile deps  : 2"));
    assert!(text.contains("r1 = [1, 0]"));
}

#[test]
fn count_reports_cells_and_tiles() {
    let spec = write_spec("count.dp");
    let out = dpgen().arg("count").arg(&spec).arg("10").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("cells  : 66"), "{text}"); // C(12, 2)
    assert!(text.contains("tiles  : 6"), "{text}"); // triangle of 3x3 4-tiles
    assert!(text.contains("initial: 3"), "{text}"); // anti-diagonal tiles
}

#[test]
fn bad_usage_and_files_fail_cleanly() {
    let out = dpgen().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = dpgen().arg("emit").arg("/nonexistent.dp").output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let out = dpgen().arg("bogus").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    // Wrong parameter arity.
    let spec = write_spec("arity.dp");
    let out = dpgen()
        .arg("count")
        .arg(&spec)
        .arg("5")
        .arg("6")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
}
