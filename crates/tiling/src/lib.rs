//! Tiling engine for the `dpgen` program generator.
//!
//! This crate implements Sections IV-E through IV-I of VandenBerg & Stout
//! (CLUSTER 2011): starting from a problem's iteration space (a constraint
//! system over the loop variables `x_k` and parameters), the tile widths
//! `w_k` and the template dependence vectors `r_1..r_m`, it derives
//!
//! * the *extended system* linking `x_k = i_k + w_k * t_k` (local index +
//!   width × tile index),
//! * the *tile space*: which tile indices `t` are valid (Section IV-E),
//! * the *local iteration space*: the loop nest executed inside one tile
//!   (Figure 3),
//! * the *tile dependencies*: which neighbouring tiles each tile depends on
//!   (Section IV-F),
//! * the *validity functions* `is_valid_r` (Section IV-G),
//! * the *mapping functions*: ghost-cell-padded buffer layout with constant
//!   per-template offsets (Section IV-H),
//! * the *edge layouts* used by the packing/unpacking functions
//!   (Section IV-I),
//! * the *tile geometries*: the scan and edge walks of one tile recorded
//!   once per tile class and replayed for every other tile of the class
//!   ([`geom`]),
//! * the *tile graph*: every tile of the tile space at one parameter
//!   binding with its index, its existing dependencies, its neighbours and
//!   its cell count, derived once and shared by the scheduler, the load
//!   balancer and the simulator ([`graph`]).
//!
//! The central type is [`Tiling`]; the runtime and cluster driver crates
//! consume it to execute tiles and move edges.

pub mod coord;
pub mod deps;
pub mod edges;
pub mod geom;
pub mod graph;
pub mod layout;
pub mod template;
pub mod tiling;

pub use coord::{Coord, MAX_DIMS};
pub use deps::TileDep;
pub use edges::EdgeLayout;
pub use geom::TileGeom;
pub use graph::{EdgeCells, TileGraph, TileOrdering};
pub use layout::TileLayout;
pub use template::{Direction, Template, TemplateSet};
pub use tiling::{
    BlockCtx, CellRef, RunCtx, ScanCounts, TileShape, TileVisitor, Tiling, TilingBuilder,
    TilingError,
};
