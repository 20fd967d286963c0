//! The `dpgen` program generator core.
//!
//! This crate is the paper's primary contribution: from a high-level
//! [`ProblemSpec`] — the same information the paper's input file carries
//! (Section IV-A: loop variables, parameters, a system of linear
//! inequalities, template vectors, loop ordering, load-balancing dimensions,
//! tile widths, and the center-loop code) — it derives a [`Program`]: a
//! ready-to-run hybrid tiled executable object.
//!
//! Modules:
//!
//! * [`spec`] — the problem description and the text input-file parser,
//! * [`program`] — the generation pipeline (Section IV-C),
//! * [`plan`] — the one way to run: [`Program::compile`] produces an
//!   immutable, reusable [`Plan`], and [`Plan::execute`] runs it under an
//!   [`ExecOpts`]; repeated executions share memoized schedule artifacts,
//! * [`run`] — [`RunOutput`], what every execution returns,
//! * [`loadbalance`] — the slab load balancer driven by work counts
//!   (Section IV-J) and the hyperplane balancer of the future-work
//!   Figure 8,
//! * [`driver`] — the hybrid "OpenMP + MPI" driver: one simulated rank per
//!   node, each with a worker pool,
//! * [`specgen`] — seeded random-spec generation and the naive reference
//!   interpreter behind the differential fuzzer (`dpgen-fuzz`),
//! * [`traceback`] — solution recovery by tile recomputation (the
//!   Section VII-A future-work feature).

pub mod driver;
pub mod loadbalance;
pub mod plan;
pub mod program;
pub mod run;
pub mod spec;
pub mod specgen;
pub mod traceback;

pub use driver::RecoveryStats;
pub use loadbalance::{BalanceMethod, LoadBalance, MapOwner};
pub use plan::{spec_hash, ExecOpts, Plan, MAX_THREADS};
pub use program::{Program, ProgramError};
pub use run::RunOutput;
pub use spec::{ProblemSpec, SpecBand, SpecError};
pub use specgen::{GeneratedSpec, SpecGen};
