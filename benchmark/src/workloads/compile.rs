//! `compile_paper`: the generator itself. One op is one pass over nine
//! `dpgen-problems` specs from text: parse, generate the program, compile a
//! plan, admit it, warm it for 2 ranks x 2 threads under a static schedule,
//! and emit the hybrid C program. Nothing executes. Scratch timing shows
//! `warm` costing 100-1000x the Fourier-Motzkin / tiling / codegen front
//! end, which the phase metrics expose.

use super::{compile_layers, ADMIT_CELLS};
use crate::harness::{EndToEnd, OpOutcome, Workload};
use crate::inputs::{spec_text, Rng};
use crate::metrics::Metrics;
use crate::oracle;
use crate::trace::Recorder;
use dpgen_core::{ExecOpts, ProblemSpec, Program};
use dpgen_problems::{
    BandedSw, Bandit2, Bandit3, BanditDelay, EditDistance, Lcs, Msa, SmithWaterman,
};
use dpgen_runtime::Schedule;

/// Half-width of the banded Smith-Waterman spec's diagonal band.
const BAND: i64 = 32;

pub struct SpecCase {
    name: &'static str,
    /// Name of the exact counter carrying the FNV hash of the emitted C.
    emit_counter: &'static str,
    text: String,
    params: Vec<i64>,
    /// Closed-form admission bound: the bounding box's volume, or for the
    /// banded spec the number of in-band cells of the box.
    cell_bound: u128,
}

/// The nine specs and the parameters they are compiled at. The parameters
/// are sized so that one pass takes ~33 ms on the reference host and no
/// spec exceeds 30% of it (`warm` scales with the tile count, so the tile
/// counts are what is being balanced).
fn cases() -> Vec<SpecCase> {
    let boxed = |params: &[i64]| params.iter().map(|&p| p as u128 + 1).product::<u128>();
    let case = |name, emit_counter, spec: ProblemSpec, params: &[i64], cell_bound| SpecCase {
        name,
        emit_counter,
        text: spec_text(&spec),
        params: params.to_vec(),
        cell_bound,
    };
    const BANDED_LEN: i64 = 2399;
    let banded: u128 = (0..=BANDED_LEN)
        .map(|i| ((i + BAND).min(BANDED_LEN) - (i - BAND).max(0) + 1) as u128)
        .sum();
    let (seq2, seq3) = ([399, 399], [39, 39, 39]);
    vec![
        case(
            "bandit2",
            "codegen.emit_fnv.bandit2",
            Bandit2::spec(4),
            &[24],
            25u128.pow(4),
        ),
        case(
            "bandit3",
            "codegen.emit_fnv.bandit3",
            Bandit3::spec(3),
            &[8],
            9u128.pow(6),
        ),
        case(
            "bandit_delay",
            "codegen.emit_fnv.bandit_delay",
            BanditDelay::spec(3),
            &[8],
            9u128.pow(6),
        ),
        case(
            "msa3",
            "codegen.emit_fnv.msa3",
            Msa::spec(3, 8),
            &seq3,
            boxed(&seq3),
        ),
        case(
            "lcs2",
            "codegen.emit_fnv.lcs2",
            Lcs::spec(2, 16),
            &seq2,
            boxed(&seq2),
        ),
        case(
            "lcs3",
            "codegen.emit_fnv.lcs3",
            Lcs::spec(3, 8),
            &seq3,
            boxed(&seq3),
        ),
        case(
            "editdist",
            "codegen.emit_fnv.editdist",
            EditDistance::spec(16),
            &seq2,
            boxed(&seq2),
        ),
        case(
            "smith_waterman",
            "codegen.emit_fnv.smith_waterman",
            SmithWaterman::spec(16),
            &seq2,
            boxed(&seq2),
        ),
        case(
            "banded_sw",
            "codegen.emit_fnv.banded_sw",
            BandedSw::spec(16, BAND),
            &[BANDED_LEN; 2],
            banded,
        ),
    ]
}

pub struct CompileInputs {
    /// The nine specs in the seed's order.
    cases: Vec<SpecCase>,
}

pub struct CompileRun {
    warm: ExecOpts,
}

impl Workload for CompileRun {
    type Inputs = CompileInputs;

    const NAME: &'static str = "compile_paper";
    const WORK_UNIT: &'static str = "specs";

    fn inputs(seed: u64) -> CompileInputs {
        // The specs are the paper's; the seed decides the order they
        // arrive in, which is all a compiler's input stream has to vary.
        let mut cases = cases();
        Rng::new(seed).fork(1).shuffle(&mut cases);
        CompileInputs { cases }
    }

    fn work_per_op(inputs: &CompileInputs) -> f64 {
        inputs.cases.len() as f64
    }

    fn setup(_inputs: &CompileInputs) -> CompileRun {
        // The compiler keeps no state between passes: set-up is the first
        // pass itself (time to first result).
        CompileRun {
            warm: ExecOpts::new()
                .ranks(2)
                .threads(2)
                .schedule(Schedule::Static),
        }
    }

    fn op(&mut self, inputs: &CompileInputs) -> OpOutcome {
        let mut ok = true;
        let mut counters = Vec::with_capacity(inputs.cases.len());
        for case in &inputs.cases {
            let spec = ProblemSpec::parse(&case.text).expect("spec parses");
            let program = Program::from_spec(spec).expect("program generates");
            let plan = program.compile(&case.params);
            ok &= plan.admit(ADMIT_CELLS).is_ok();
            plan.warm(&self.warm);
            let source = dpgen_codegen::emit_c(&program);
            ok &= plan.cell_bound().ok() == Some(case.cell_bound)
                && oracle::c_source_plausible(&source, case.name);
            counters.push((case.emit_counter, oracle::fnv1a(source.as_bytes())));
        }
        OpOutcome { ok, counters }
    }

    fn layers(
        &mut self,
        inputs: &CompileInputs,
        rec: &mut Recorder,
        m: &mut Metrics,
        _e2e: &EndToEnd,
    ) {
        for case in &inputs.cases {
            rec.span(case.name, |rec| {
                compile_layers(rec, m, case.name, &case.text, &case.params, &self.warm, 3)
            });
        }
    }
}
