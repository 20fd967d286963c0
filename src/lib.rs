//! # dpgen — automatic hybrid "OpenMP + MPI" program generation for dynamic
//! programming problems
//!
//! This is the facade crate of the `dpgen` workspace, a Rust reproduction of
//! VandenBerg & Stout, *Automatic Hybrid OpenMP + MPI Program Generation for
//! Dynamic Programming Problems* (IEEE CLUSTER 2011). It re-exports each
//! subsystem under a short module name; see the individual crates for the
//! full APIs:
//!
//! * [`polyhedra`] — exact polyhedral math: constraint systems,
//!   Fourier–Motzkin elimination, loop-bound synthesis, lattice-point
//!   counting, Ehrhart quasi-polynomials,
//! * [`tiling`] — tile spaces, tile dependencies, validity and mapping
//!   functions, edge (ghost cell) packing layouts,
//! * [`runtime`] — the shared-memory node runtime (the "OpenMP" layer):
//!   pending-tile table, tile priority queue, worker pool, memory accounting,
//! * [`mpisim`] — the simulated message-passing layer (the "MPI" layer):
//!   ranks, bounded send/receive buffers, a polling progress engine,
//! * [`core`] — the generator itself: problem specs, the generation pipeline,
//!   load balancing, initial tile generation, the hybrid cluster driver, and
//!   traceback,
//! * [`codegen`] — emission of the hybrid C (OpenMP + MPI) program text,
//! * [`problems`] — the paper's workloads (bandit problems, multiple sequence
//!   alignment, longest common subsequence) with serial reference solvers.
//!
//! # Example
//!
//! Generate and run a parallel program for a triangular path-counting
//! recurrence from the paper's input-file format:
//!
//! ```
//! use dpgen::core::{ExecOpts, Program};
//! use dpgen::runtime::Probe;
//! use dpgen::tiling::tiling::CellRef;
//!
//! let program = Program::parse(
//!     "name tri\n\
//!      vars x y\n\
//!      params N\n\
//!      constraint x >= 0\n\
//!      constraint y >= 0\n\
//!      constraint x + y <= N\n\
//!      template r1 1 0\n\
//!      template r2 0 1\n\
//!      loadbalance x\n\
//!      widths 4 4\n",
//! ).unwrap();
//!
//! // The center-loop code: f(x) = f(x + r1) + f(x + r2), base case 1.
//! let kernel = |cell: CellRef<'_>, values: &mut [u64]| {
//!     let a = if cell.valid[0] { values[cell.loc_r(0)] } else { 1 };
//!     let b = if cell.valid[1] { values[cell.loc_r(1)] } else { 1 };
//!     values[cell.loc] = a + b;
//! };
//!
//! // Compile once at N = 10; the plan is what runs, any number of times.
//! let plan = program.compile(&[10]);
//!
//! // Shared-memory run (2 workers), probing f(0, 0): 2^(N+1) paths.
//! let opts = ExecOpts::new().threads(2).probe(Probe::at(&[0, 0]));
//! let result = plan.execute(&kernel, &opts).unwrap();
//! assert_eq!(result.probes[0], Some(2048u64));
//!
//! // The same plan across 2 simulated MPI ranks x 2 threads.
//! let hybrid = plan.execute(&kernel, &opts.ranks(2)).unwrap();
//! assert_eq!(hybrid.probes[0], Some(2048u64));
//! ```

pub use dpgen_codegen as codegen;
pub use dpgen_core as core;
pub use dpgen_mpisim as mpisim;
pub use dpgen_polyhedra as polyhedra;
pub use dpgen_problems as problems;
pub use dpgen_runtime as runtime;
pub use dpgen_tiling as tiling;
