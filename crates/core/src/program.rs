//! The generated program object: the user-facing entry point.
//!
//! A [`Program`] corresponds to the output of the paper's generator: a
//! fully functioning parallel program for a cluster of shared-memory nodes.
//! Here the "program" is an object (spec + derived tiling) that
//! [`Program::compile`] binds to parameters as a runnable [`Plan`];
//! `dpgen-codegen` can also render it to actual hybrid C source text.

use crate::plan::Plan;
use crate::spec::{ProblemSpec, SpecError};
use dpgen_tiling::{Tiling, TilingError};
use std::fmt;
use std::sync::Arc;

/// Errors from program generation.
#[derive(Debug)]
pub enum ProgramError {
    /// The spec failed to parse or validate.
    Spec(SpecError),
    /// The geometric derivation failed.
    Tiling(TilingError),
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::Spec(e) => write!(f, "spec error: {e}"),
            ProgramError::Tiling(e) => write!(f, "tiling error: {e}"),
        }
    }
}

impl std::error::Error for ProgramError {}

impl From<SpecError> for ProgramError {
    fn from(e: SpecError) -> ProgramError {
        ProgramError::Spec(e)
    }
}

impl From<TilingError> for ProgramError {
    fn from(e: TilingError) -> ProgramError {
        ProgramError::Tiling(e)
    }
}

/// A generated program: the spec plus everything derived from it. The
/// tiling is shared: every [`Plan`] compiled from the program holds the
/// same one.
#[derive(Debug, Clone)]
pub struct Program {
    spec: ProblemSpec,
    tiling: Arc<Tiling>,
}

impl Program {
    /// Run the generation pipeline on a spec (Section IV-C, steps 1-4).
    pub fn from_spec(spec: ProblemSpec) -> Result<Program, ProgramError> {
        spec.validate()?;
        let tiling = Arc::new(spec.tiling()?);
        Ok(Program { spec, tiling })
    }

    /// Parse an input file and generate.
    pub fn parse(text: &str) -> Result<Program, ProgramError> {
        Program::from_spec(ProblemSpec::parse(text)?)
    }

    /// The problem specification.
    pub fn spec(&self) -> &ProblemSpec {
        &self.spec
    }

    /// The derived tiling.
    pub fn tiling(&self) -> &Tiling {
        &self.tiling
    }

    /// The derived tiling as the handle plans share.
    pub(crate) fn shared_tiling(&self) -> &Arc<Tiling> {
        &self.tiling
    }

    /// Compile this program at one parameter binding into an immutable,
    /// shareable [`Plan`] — the only thing that runs. Execute it any
    /// number of times — concurrently, with different kernels or options
    /// — via [`Plan::execute`]; repeated executions reuse the plan's
    /// memoized schedule artifacts.
    pub fn compile(&self, params: &[i64]) -> Arc<Plan> {
        Plan::compile(self, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ExecOpts;
    use crate::spec::bandit2_spec_text;
    use dpgen_polyhedra::PolyError;
    use dpgen_runtime::{run_reference, CompileStage, Probe, RunError};
    use dpgen_tiling::tiling::CellRef;

    #[test]
    fn bandit2_program_generates() {
        let program = Program::parse(&bandit2_spec_text(6)).unwrap();
        assert_eq!(program.spec().name, "bandit2");
        assert_eq!(program.tiling().dims(), 4);
    }

    #[test]
    fn a_plan_shares_its_programs_tiling() {
        let program = Program::parse(&bandit2_spec_text(6)).unwrap();
        let plans = [program.compile(&[12]), program.compile(&[7])];
        for plan in &plans {
            assert!(std::ptr::eq(plan.tiling(), program.tiling()));
        }
        // A clone of the program shares it too.
        assert!(std::ptr::eq(program.clone().tiling(), program.tiling()));
    }

    #[test]
    fn an_unrepresentable_loop_bound_is_a_typed_fault_not_a_panic() {
        // x >= 2^127: its lower bound -(i128::MIN) does not exist in i128.
        let text = "name huge\nvars x\n\
                    constraint x - 170141183460469231731687303715884105727 - 1 >= 0\n\
                    constraint x <= 3\ntemplate r 1\nwidths 2\n";
        assert!(matches!(
            Program::parse(text),
            Err(ProgramError::Tiling(TilingError::Poly(
                PolyError::Overflow(_)
            )))
        ));
        let err = Plan::from_spec(text, &[]).unwrap_err();
        assert!(
            matches!(&err, RunError::CompileError(f) if f.stage == CompileStage::Poly),
            "{err}"
        );
    }

    /// A miniature bandit kernel (uniform priors p = 0.5) to validate the
    /// run entry point; the full Bayesian kernel lives in dpgen-problems.
    fn toy_bandit(cell: CellRef<'_>, values: &mut [f64]) {
        let p = 0.5;
        let v1 = if cell.valid[0] && cell.valid[1] {
            p * (1.0 + values[cell.loc_r(0)]) + (1.0 - p) * values[cell.loc_r(1)]
        } else {
            0.0
        };
        let v2 = if cell.valid[2] && cell.valid[3] {
            p * (1.0 + values[cell.loc_r(2)]) + (1.0 - p) * values[cell.loc_r(3)]
        } else {
            0.0
        };
        values[cell.loc] = v1.max(v2);
    }

    #[test]
    fn reference_shared_and_hybrid_agree() {
        let program = Program::parse(&bandit2_spec_text(4)).unwrap();
        let n = 10i64;
        let origin = [0, 0, 0, 0];
        let want = run_reference::<f64, _>(program.tiling(), &[n], &toy_bandit)
            .get(&origin)
            .unwrap();
        // With p = 0.5 both arms are identical; V(0) = N/2 for this toy.
        assert!((want - n as f64 / 2.0).abs() < 1e-9, "got {want}");
        let plan = program.compile(&[n]);
        for (threads, ranks) in [(4, 1), (2, 3)] {
            let opts = ExecOpts::new()
                .threads(threads)
                .ranks(ranks)
                .probe(Probe::at(&origin));
            let out = plan.execute(&toy_bandit, &opts).unwrap();
            assert_eq!(out.probes[0], Some(want), "threads={threads} ranks={ranks}");
        }
    }

    #[test]
    fn bad_specs_surface_errors() {
        assert!(matches!(
            Program::parse("vars x\nwidths 1\n"),
            Err(ProgramError::Spec(_))
        ));
        // Unbounded space -> tiling error.
        assert!(matches!(
            Program::parse("vars x\nconstraint x >= 0\nwidths 4\n"),
            Err(ProgramError::Tiling(_))
        ));
    }
}
