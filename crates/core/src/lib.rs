//! # amgt — the AmgT algebraic multigrid solver
//!
//! A from-scratch Rust reproduction of "AmgT: Algebraic Multigrid Solver on
//! Tensor Cores" (SC 2024). The solver runs the paper's exact HYPRE
//! configuration (PMIS coarsening, extended+i interpolation, L1-Jacobi
//! smoothing, <= 7 levels, 50 V-cycles) over pluggable kernel backends —
//! the vendor-style CSR baseline or the paper's mBSR tensor-core kernels —
//! at uniform FP64 or the mixed FP64/FP32/FP16 per-level precision policy.
//!
//! ```
//! use amgt::prelude::*;
//! use amgt_sparse::gen::{laplacian_2d, rhs_of_ones, Stencil2d};
//!
//! let device = Device::new(GpuSpec::a100());
//! let a = laplacian_2d(32, 32, Stencil2d::Five);
//! let b = rhs_of_ones(&a);
//! let mut cfg = AmgConfig::amgt_fp64();
//! cfg.max_iterations = 20;
//! let (x, hierarchy, report) = run_amg(&device, &cfg, a, &b);
//! assert!(report.solve_report.final_relative_residual() < 1e-6);
//! assert!(hierarchy.n_levels() >= 2);
//! assert_eq!(x.len(), 1024);
//! ```

// Tile-coordinate math deliberately indexes fixed-size 4x4 layouts and
// parallel arrays; iterator rewrites of those loops obscure the lane/slot
// correspondence the paper's algorithms are written in.
#![allow(clippy::needless_range_loop)]
// The split-at-mut plumbing that hands rayon disjoint per-row output slices
// has an inherently wordy type; naming it would not make it clearer.
#![allow(clippy::type_complexity)]

pub mod backend;
pub mod bicgstab;
pub mod config;
pub mod diagnostics;
pub mod driver;
pub mod gmres;
pub mod hierarchy;
pub mod hypre_compat;
pub mod interp;
pub mod pcg;
pub mod pmis;
pub mod solve;
pub mod strength;
pub mod vec_ops;

pub use amgt_kernels::{ExecMode, KernelPolicy};
pub use backend::{op_matmul, op_matmul_ws, OpScratch, Operator};
pub use config::{AmgConfig, BackendKind, CycleType, PrecisionPolicy};
pub use diagnostics::{hierarchy_diagnostics, ConvergenceMonitor, HealthThresholds, SolveOutcome};
pub use driver::{geomean, run_amg, run_amg_traced, PhaseBreakdown, RunReport};
pub use hierarchy::{resetup, setup, Hierarchy, Level, SetupStats};
pub use solve::{
    expected_spmv_calls, solve, solve_batched, solve_batched_with_workspace, solve_with_workspace,
    BatchedSolveReport, SolveReport, SolveWorkspace,
};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::bicgstab::bicgstab_solve;
    pub use crate::config::{AmgConfig, BackendKind, PrecisionPolicy};
    pub use crate::diagnostics::SolveOutcome;
    pub use crate::driver::{geomean, run_amg, RunReport};
    pub use crate::gmres::fgmres_solve;
    pub use crate::hierarchy::{setup, Hierarchy};
    pub use crate::pcg::pcg_solve;
    pub use crate::solve::{
        solve, solve_batched, solve_batched_with_workspace, solve_with_workspace,
        BatchedSolveReport, SolveReport, SolveWorkspace,
    };
    pub use amgt_kernels::spmm_mbsr::MultiVector;
    pub use amgt_kernels::{ExecMode, KernelPolicy};
    pub use amgt_sim::{Device, GpuSpec, Precision};
    pub use amgt_sparse::Csr;
}
