//! amgt-dist: domain-decomposed AMG over in-process ranks.
//!
//! The distributed counterpart of the single-device pipeline in `amgt`:
//! the matrix hierarchy is split into contiguous, tile-aligned row blocks
//! ([`partition`]), each rank runs as one thread over a message-passing
//! [`Communicator`] ([`comm`]), and the solve phase — halo-exchange SpMV,
//! distributed smoothing, per-rank Galerkin levels with a gathered
//! redundant coarse region — lives in [`driver`]; [`dist_solve`] is the
//! entry point of the paper's multi-GPU experiment (Section V.E, Figure 9).
//! The driver reuses the single-device solver rather than mirroring it:
//! the gathered region runs [`amgt::solve::vcycle`] and the outer loop is
//! judged by [`amgt::solve::Column`].
//!
//! Headline invariant (tested): the stationary distributed solve is
//! **bitwise rank-count-invariant**, and at one rank bit-identical to
//! [`amgt::solve::solve`]. See `DESIGN.md` §15 for the data model and the
//! argument.

pub mod comm;
pub mod driver;
pub mod partition;

pub use comm::{CommCounters, Communicator, LocalComm};
pub use driver::{dist_pcg, dist_solve, DistReport, RankReport};
pub use partition::{build_halo_plans, dist_spmv_once, owner_of, row_slice, HaloPlan, RankMatrix};
