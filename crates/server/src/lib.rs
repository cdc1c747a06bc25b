//! # amgt-server — a concurrent multi-tenant AMG solve service
//!
//! An in-process serving layer over the AmgT solver: callers
//! [`SolverService::submit`] systems and right-hand sides, a worker pool
//! (one simulated GPU per worker) drains a bounded job queue, and two
//! amortizations make repeated solves cheap:
//!
//! * **Hierarchy caching** — setups are keyed by the structural
//!   [`fingerprint::Fingerprint`] of the matrix (dims, nnz, hashed CSR
//!   `row_ptr`/`col_idx`), so a repeat solve skips PMIS,
//!   extended+i interpolation and the RAP products entirely, and a
//!   same-pattern/new-values solve downgrades to a values-only `resetup`.
//! * **RHS batching** — up to eight queued right-hand sides against the
//!   same system coalesce into one batched V-cycle whose SpMVs widen into
//!   fused tensor-slab SpMMs (`kernels::spmm_mbsr`), with per-column
//!   convergence and early-exit masking.
//!
//! ```
//! use amgt::prelude::*;
//! use amgt_server::{ServiceConfig, SolveRequest, SolverService};
//! use amgt_sparse::gen::{laplacian_2d, rhs_of_ones, Stencil2d};
//!
//! let service = SolverService::new(ServiceConfig { workers: 1, ..Default::default() });
//! let a = laplacian_2d(16, 16, Stencil2d::Five);
//! let b = rhs_of_ones(&a);
//! let mut cfg = AmgConfig::amgt_fp64();
//! cfg.tolerance = 1e-8;
//! let job = service.submit(SolveRequest::new(a, b, cfg)).unwrap();
//! let outcome = job.wait().unwrap();
//! assert!(outcome.converged);
//! service.shutdown();
//! ```

pub mod cache;
pub mod fingerprint;
pub mod flight;
pub mod http;
pub mod metrics;
pub mod service;

pub use cache::{CacheKey, CacheOutcome, CacheStats, HierarchyCache};
pub use fingerprint::Fingerprint;
pub use flight::{CompletedJob, FlightStore, FlightTraceSummary};
pub use http::IntrospectionServer;
pub use metrics::{ServiceMetrics, ServiceTelemetry, MAX_BATCH};
pub use service::{
    JobError, JobHandle, JobOutcome, ServiceConfig, SolveRequest, SolverService, SubmitError,
};
