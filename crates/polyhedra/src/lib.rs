//! Polyhedral substrate for the `dpgen` program generator.
//!
//! This crate provides the exact-arithmetic geometry layer that the paper's
//! generator is built on (Sections IV-D through IV-H of VandenBerg & Stout,
//! *Automatic Hybrid OpenMP + MPI Program Generation for Dynamic Programming
//! Problems*, CLUSTER 2011):
//!
//! * [`LinExpr`] — affine expressions with `i128` coefficients over a named
//!   [`Space`] of loop variables and input parameters,
//! * [`ConstraintSystem`] — conjunctions of affine inequalities (`expr >= 0`)
//!   describing iteration spaces (parameterised polytopes),
//! * [`fm`] — Fourier–Motzkin elimination with syntactic row pruning after
//!   each step, the paper's chosen projection method (Section IV-D),
//! * [`LoopNest`] — loop-bound synthesis: perfectly nested loops whose bounds
//!   are `max`/`min` of affine ceil/floor divisions (Figure 3 of the paper),
//! * [`count`] — exact lattice-point counting by recursive descent,
//! * [`probe`] — emptiness/boundedness classification and bounding boxes
//!   at concrete parameter values (the spec fuzzer's admission check).
//!
//! The paper builds Ehrhart polynomials with the Barvinok library so that
//! its load balancer can evaluate slab work (Section IV-J); this workspace
//! has no counting polynomial. Work comes from exact lattice counts, walked
//! once per geometry class of tiles by the tiling layer.
//!
//! All arithmetic is exact (`i128` with overflow checks); there is no
//! floating point anywhere in this crate.

pub mod bounds;
pub mod constraint;
pub mod count;
pub mod error;
pub mod expr;
pub mod fm;
pub mod num;
pub mod probe;
pub mod space;
pub mod system;

pub use bounds::{BoundExpr, LoopLevel, LoopNest};
pub use constraint::Constraint;
pub use count::count_points;
pub use error::PolyError;
pub use expr::LinExpr;
pub use probe::{is_empty, probe_box, BoxProbe};
pub use space::{Space, VarKind};
pub use system::ConstraintSystem;
