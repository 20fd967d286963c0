//! Corpus replay: every minimized spec under `tests/corpus/` must keep
//! passing the full differential matrix, and must keep emitting a
//! structurally complete hybrid C program.
//!
//! The corpus is grown from CI: when the `spec-fuzz` job finds a
//! disagreement it uploads the auto-shrunk spec as `minimized.json`;
//! the fix lands together with that JSON checked in here, so the bug
//! can never silently return. Reproduce any entry from its seed with
//!
//! ```text
//! cargo run --release -p dpgen-fuzz -- --seed 0x<seed> --budget 1
//! ```

use dpgen::codegen::emit_c;
use dpgen::core::Program;
use dpgen::runtime::Schedule;
use dpgen_fuzz::{check_spec, full_matrix, load_corpus, Twist};
use std::path::Path;

fn corpus() -> Vec<(std::path::PathBuf, dpgen::core::GeneratedSpec)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let specs = load_corpus(&dir).expect("corpus must parse");
    assert!(
        specs.len() >= 5,
        "corpus has {} specs, expected at least 5",
        specs.len()
    );
    specs
}

/// Every corpus spec agrees with the naive reference interpreter on
/// every cell, across the whole thread x rank x fault x schedule matrix.
#[test]
fn corpus_specs_pass_the_differential_matrix() {
    let legs = full_matrix();
    // The replay matrix must include the static-schedule, rank-kill,
    // compiled-plan reuse, and banded legs: corpus bugs fixed under a
    // Static schedule, during elastic recovery, through a cached
    // Plan executed twice, or on a band-clipped iteration space stay
    // covered forever. (Every leg goes through the engine's one run scan,
    // so there is no batched leg to require.)
    assert_eq!(legs.len(), 15);
    for twist in [Twist::Kill, Twist::PlanReuse, Twist::Banded] {
        assert!(legs.iter().any(|l| l.twist == twist), "no {twist:?} leg");
    }
    assert!(legs
        .iter()
        .any(|l| l.schedule == Schedule::Static && l.ranks == 1));
    assert!(legs
        .iter()
        .any(|l| l.schedule == Schedule::Static && l.ranks == 2));
    // At least one corpus entry must declare a band, so the banded
    // serialization path and the band-clipped pipeline replay forever.
    let specs = corpus();
    assert!(
        specs.iter().any(|(_, gs)| gs.spec.band.is_some()),
        "corpus has no banded spec"
    );
    for (path, gs) in specs {
        if let Err(failure) = check_spec(&gs, &legs) {
            panic!("{}: {failure}", path.display());
        }
    }
}

/// Every corpus spec round-trips through code generation: the emitted
/// hybrid C program is structurally complete (balanced delimiters, the
/// full function set, one pack/unpack pair per tile dependency).
#[test]
fn corpus_specs_emit_complete_programs() {
    for (path, gs) in corpus() {
        let name = path.display().to_string();
        let program = Program::from_spec(gs.spec.clone())
            .unwrap_or_else(|e| panic!("{name}: spec no longer builds: {e}"));
        let src = emit_c(&program);
        assert_eq!(
            src.matches('{').count(),
            src.matches('}').count(),
            "{name}: unbalanced braces"
        );
        assert_eq!(
            src.matches('(').count(),
            src.matches(')').count(),
            "{name}: unbalanced parens"
        );
        for needle in [
            "#include <mpi.h>",
            "#include <omp.h>",
            "#pragma omp parallel",
            "MPI_Init",
            "MPI_Finalize",
            "static long* dp_consumer;",
            "static dp_value_t execute_tile",
            "static long tile_work",
            "int main(int argc, char** argv)",
        ] {
            assert!(src.contains(needle), "{name}: missing `{needle}`");
        }
        let ndeps = program.tiling().deps().len();
        for e in 0..ndeps {
            assert!(
                src.contains(&format!("pack_edge_{e}")),
                "{name}: missing pack_edge_{e}"
            );
            assert!(
                src.contains(&format!("unpack_edge_{e}")),
                "{name}: missing unpack_edge_{e}"
            );
        }
        assert!(
            src.contains(&format!("#define NDIMS {}", gs.spec.vars.len())),
            "{name}: NDIMS define missing or wrong"
        );
    }
}
