//! # amgt-kernels — the AmgT compute kernels and vendor baselines
//!
//! Reproduces the kernel layer of "AmgT: Algebraic Multigrid Solver on
//! Tensor Cores" (SC 2024):
//!
//! * [`mod@spgemm_mbsr`] — the tensor-core SpGEMM on the unified mBSR format
//!   (analysis/binning, two-step hash symbolic phase, hybrid tensor/CUDA
//!   numeric phase — Algorithms 3 and 4).
//! * [`mod@spmv_mbsr`] — the adaptive, load-balanced SpMV (Algorithm 5) with
//!   tensor-core and CUDA-core paths.
//! * [`vendor`] — cuSPARSE/rocSPARSE-style CSR SpGEMM and SpMV, the
//!   baselines HYPRE calls.
//! * [`spmm_mbsr`] — the one mBSR SpMV driver, over a block of operand
//!   columns (SpMV is its one-column call); multi-RHS SpMM lets eight
//!   right-hand sides fill the 8x8x4 tensor shape with no wasted lanes
//!   (extension beyond the paper).
//! * [`spmv_bsr`] — classic dense-tile BSR SpMV, the bitmap-less
//!   counterfactual used by the ablation study.
//! * [`convert`] — instrumented CSR/mBSR/BSR conversions (Figure 10).
//! * [`ctx`] — the execution context binding kernels to the simulated
//!   device ledger, and the [`ExecMode`] selecting the execution substrate
//!   (warp emulator vs. the native rayon + SIMD backend of `amgt-exec`;
//!   results and charges are bitwise identical either way).
//! * [`policy`] — the [`KernelPolicy`] dispatch constants (tensor-core
//!   cutoff, SpMV scheduling, SpGEMM binning, mixed-precision boundaries)
//!   shared by every kernel, with the paper's values as
//!   [`KernelPolicy::paper_default`].
//!
//! Every kernel computes exact results on the CPU (with real reduced-
//! precision rounding where requested) and charges its measured operation
//! counts to the simulated-GPU cost model.

// Tile-coordinate math deliberately indexes fixed-size 4x4 layouts and
// parallel arrays; iterator rewrites of those loops obscure the lane/slot
// correspondence the paper's algorithms are written in.
#![allow(clippy::needless_range_loop)]
// The split-at-mut plumbing that hands rayon disjoint per-row output slices
// has an inherently wordy type; naming it would not make it clearer.
#![allow(clippy::type_complexity)]

pub mod convert;
pub mod ctx;
pub mod policy;
pub mod spgemm_mbsr;
pub mod spmm_mbsr;
pub mod spmv_bsr;
pub mod spmv_mbsr;
pub mod vendor;

pub use amgt_exec::{simd_level, SimdLevel};
pub use ctx::{Ctx, ExecBackend, ExecMode};
pub use policy::KernelPolicy;
pub use spgemm_mbsr::{spgemm_mbsr, spgemm_mbsr_with_workspace, SpgemmMbsrStats, SpgemmWorkspace};
pub use spmv_mbsr::{analyze_spmv, spmv_mbsr, spmv_mbsr_into, SpmvPath, SpmvPlan, SpmvScratch};
