//! C source emission: the paper's actual artifact.
//!
//! The paper's generator outputs "a fully functioning program" — hybrid
//! OpenMP + MPI C/C++ — from the high-level description. This crate renders
//! a [`dpgen_core::Program`] to that C source text: the loop nests emitted
//! from the Fourier–Motzkin bounds (with `max`/`min` of ceiling/floor
//! divisions), the mapping and validity functions, the packing/unpacking
//! functions for every tile edge, the load-balancing scaffold, and the
//! OpenMP worker loop with MPI edge exchange.
//!
//! The program is written once, into one buffer: every section and every
//! expression appends to the same `String` (see [`c_expr`]).
//!
//! Tests hold the emitted program in three ways: structurally (balanced
//! braces, the complete function set), byte for byte (the root crate's
//! `codegen_integration` test pins the FNV-1a hash and length of the nine
//! paper specs' programs), and by running it — `compile_and_run` builds
//! the program with gcc, real OpenMP and a single-rank MPI stub
//! (`tests/stubs/`), and holds its tile count and checksum to the Rust
//! runtime.

pub mod c_emit;
pub mod c_expr;

pub use c_emit::emit_c;
pub use c_expr::{c_bound_expr, c_lin_expr};
