//! # amgt-sparse — sparse matrix substrate for the AmgT reproduction
//!
//! Storage formats, conversions and matrix sources used throughout the
//! reproduction of "AmgT: Algebraic Multigrid Solver on Tensor Cores"
//! (SC 2024):
//!
//! * [`csr`] — compressed sparse row, the baseline format of HYPRE and the
//!   vendor kernels, with exact reference operations.
//! * [`mbsr`] — the paper's unified mBSR format (4x4 tiles + nonzero
//!   bitmaps) and classic BSR for the conversion-cost comparison.
//! * [`bitmap`] — the `BITMAPMULTIPLY` tile-pattern algebra.
//! * [`mm`] — Matrix Market I/O for users holding the real SuiteSparse
//!   files.
//! * [`gen`] — synthetic generators (stencils, vector-FEM blocks, bands,
//!   cliques, networks).
//! * [`coo`] — triplet assembly format.
//! * [`reorder`] — reverse Cuthill-McKee reordering and symmetric
//!   permutations (denser tiles for the tensor path).
//! * [`stats`] — structural diagnostics (tile-fill histograms, row spread).
//! * [`suite`] — the 16-matrix evaluation suite of Table II, regenerated
//!   synthetically at CI or paper scale.

// Tile-coordinate math deliberately indexes fixed-size 4x4 layouts and
// parallel arrays; iterator rewrites of those loops obscure the lane/slot
// correspondence the paper's algorithms are written in.
#![allow(clippy::needless_range_loop)]
// The split-at-mut plumbing that hands rayon disjoint per-row output slices
// has an inherently wordy type; naming it would not make it clearer.
#![allow(clippy::type_complexity)]

pub mod bitmap;
pub mod coo;
pub mod csr;
pub mod fingerprint;
pub mod gen;
pub mod mbsr;
pub mod mm;
pub mod reorder;
pub mod stats;
pub mod suite;

pub use bitmap::{bitmap_multiply, TENSOR_DENSITY_THRESHOLD, TILE, TILE_AREA};
pub use coo::Coo;
pub use csr::Csr;
pub use fingerprint::Fingerprint;
pub use mbsr::{Bsr, Mbsr};
