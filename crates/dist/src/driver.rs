//! The distributed solve driver: per-rank hierarchies, halo-exchange
//! V/W/F-cycles, and a gathered redundant coarse region.
//!
//! Every rank runs as one thread over a [`LocalComm`] group. The hierarchy
//! is built once on a reference device (the numerics of setup are not
//! distributed — only its cost model is, mirroring HYPRE's per-event
//! scaling); each rank then slices every *fine* level into its contiguous,
//! tile-aligned row block and runs the cycle distributed down to the
//! `gather_threshold`, below which levels are gathered (one all-gather per
//! transit) and solved redundantly on every rank — the standard dodge for
//! coarse grids whose halo would exceed their interior.
//!
//! Determinism: the stationary cycle contains no reductions inside the
//! update path, so the iterate trajectory is **bitwise invariant in the
//! rank count** for the Jacobi-type smoothers. Residual norms are computed
//! from rank-ordered all-reduces — identical bits on every rank of a run,
//! so control flow (tolerance tests, health monitoring) never diverges
//! across ranks — but a sum of per-rank partials rounds differently from
//! the sequential fold, so the *recorded* norms move at the ulp between
//! rank counts while the iterates do not. At `P = 1` the whole run is
//! bit-identical to [`amgt::solve::solve`]. Distributed PCG feeds those
//! dots back into its coefficients, so only `P = 1` is bitwise there;
//! more ranks agree on the converged residual and iterations ±1.

use crate::comm::{CommCounters, Communicator, LocalComm};
use crate::partition::{build_halo_plans, HaloPlan, RankMatrix};
use amgt::chebyshev::{gershgorin_lambda_max, Chebyshev};
use amgt::config::{AmgConfig, CoarseSolver, CycleType, Smoother};
use amgt::diagnostics::{ConvergenceMonitor, HealthThresholds, SolveOutcome};
use amgt::hierarchy::{level_precision, setup, Hierarchy};
use amgt::solve::SolveReport;
use amgt::vec_ops;
use amgt::OpScratch;
use amgt_kernels::Ctx;
use amgt_sim::{
    Algo, Cluster, Device, HealthEvent, Interconnect, KernelCost, KernelKind, Phase, SpanKind,
    SpanLabel,
};
use amgt_sparse::reorder::{partition_contiguous, Partition};
use amgt_sparse::Csr;

/// Smoother used by the distributed cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DistSmoother {
    /// Take the smoother from [`AmgConfig`]. Hybrid Gauss-Seidel falls
    /// back to L1-Jacobi (a sequential sweep is not distributable as-is);
    /// the Jacobi-type smoothers run bit-identically to the single-device
    /// solver.
    FromConfig,
    /// Chebyshev polynomial smoothing of the given degree over the
    /// Gershgorin-bounded spectrum — reduction-free, so it keeps the
    /// stationary cycle bitwise rank-count-invariant.
    Chebyshev { degree: usize },
}

/// Distributed-solve configuration (the rank count comes from the
/// [`Cluster`]).
#[derive(Clone, Copy, Debug)]
pub struct DistConfig {
    /// Levels with `n <= gather_threshold` rows are gathered and solved
    /// redundantly on every rank instead of distributed.
    pub gather_threshold: usize,
    pub smoother: DistSmoother,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            gather_threshold: 128,
            smoother: DistSmoother::FromConfig,
        }
    }
}

/// One rank's share of a distributed run.
#[derive(Clone, Debug)]
pub struct RankReport {
    pub rank: usize,
    /// Owned rows of the finest level.
    pub rows: usize,
    /// Nonzeros of the owned finest-level row block.
    pub nnz: usize,
    /// Device time spent in the rank's solve loop (kernels, excluding
    /// interconnect waits).
    pub compute_seconds: f64,
    /// Modeled interconnect time of this rank's sends and collectives.
    pub comm_seconds: f64,
    /// Precision-scaled halo payload this rank sent.
    pub halo_bytes: f64,
}

/// Report of a distributed solve.
#[derive(Clone, Debug)]
pub struct DistReport {
    pub ranks: usize,
    pub levels: usize,
    /// Trailing levels solved redundantly on every rank.
    pub gathered_levels: usize,
    /// Edge cut of the finest-level partition (nonzeros coupling rows
    /// across rank boundaries).
    pub edge_cut: usize,
    /// `max / mean` nonzeros per rank on the finest level (1.0 = perfect).
    pub imbalance: f64,
    pub setup_seconds: f64,
    /// Wall time of the solve phase: slowest rank's compute + comm.
    pub solve_seconds: f64,
    /// Slowest rank's interconnect share of the solve phase.
    pub comm_seconds: f64,
    /// Total precision-scaled halo traffic across all ranks.
    pub halo_bytes: f64,
    /// Point-to-point messages sent across all ranks.
    pub halo_messages: u64,
    /// Scalar all-reduces issued (counted once per collective).
    pub allreduce_count: u64,
    pub per_rank: Vec<RankReport>,
    pub solve_report: SolveReport,
}

impl DistReport {
    pub fn total_seconds(&self) -> f64 {
        self.setup_seconds + self.solve_seconds
    }
}

/// Outer iteration driven by the distributed cycle.
#[derive(Clone, Copy, Debug)]
enum DistMode {
    Stationary,
    Pcg { tol: f64, max_iters: usize },
}

/// Solve `A x = b` with stationary AMG cycles over the cluster's ranks.
/// Numerically equivalent to [`amgt::solve::solve`] for Jacobi-type
/// smoothers (bitwise at one rank); returns the assembled solution and the
/// distributed report.
pub fn dist_solve(
    cluster: &Cluster,
    cfg: &AmgConfig,
    dcfg: &DistConfig,
    a: Csr,
    b: &[f64],
) -> (Vec<f64>, DistReport) {
    run_dist(cluster, cfg, dcfg, a, b, DistMode::Stationary)
}

/// Solve `A x = b` by AMG-preconditioned CG over the cluster's ranks.
pub fn dist_pcg(
    cluster: &Cluster,
    cfg: &AmgConfig,
    dcfg: &DistConfig,
    a: Csr,
    b: &[f64],
    tol: f64,
    max_iters: usize,
) -> (Vec<f64>, DistReport) {
    run_dist(cluster, cfg, dcfg, a, b, DistMode::Pcg { tol, max_iters })
}

/// Halo plans of one distributed level (index `k < boundary`).
struct LevelPlans {
    /// `A_k`: rows and operand both on partition `k`.
    a: Vec<HaloPlan>,
    /// `R_k`: rows on partition `k+1`, operand on partition `k`.
    r: Vec<HaloPlan>,
    /// `P_k`: rows on partition `k`, operand on partition `k+1`; `None`
    /// when level `k+1` is gathered (the operand is replicated).
    p: Option<Vec<HaloPlan>>,
}

/// Effective smoother after resolving [`DistSmoother::FromConfig`].
#[derive(Clone, Copy)]
enum Eff {
    L1,
    Weighted(f64),
    Cheb(usize),
}

/// One rank's slices of one distributed level.
struct RankLevel {
    a: RankMatrix,
    r: RankMatrix,
    p: RankMatrix,
    /// Owned row range on this level.
    lo: usize,
    hi: usize,
    /// Owned row range on level `k+1` (R's output rows).
    next_lo: usize,
    next_hi: usize,
}

/// Per-level vector pool of one rank. Distributed levels keep `x` (and the
/// residual staging `r_full`) at full length — only the owned plus ghost
/// lanes are meaningful — and everything else owned-sized; gathered levels
/// use full-length vectors throughout.
#[derive(Default)]
struct LevelBufs {
    x: Vec<f64>,
    b: Vec<f64>,
    ax: Vec<f64>,
    /// Owned residual.
    ro: Vec<f64>,
    /// Full-length residual (the operand of R on distributed levels).
    r_full: Vec<f64>,
    /// Interpolated correction / restriction staging.
    e: Vec<f64>,
    /// Weighted-Jacobi scaled diagonal slice.
    scaled: Vec<f64>,
    /// Chebyshev search direction (full length) and residual (owned).
    cp: Vec<f64>,
    cr: Vec<f64>,
    /// Coarse direct-solve staging.
    sol: Vec<f64>,
    sol2: Vec<f64>,
    op: OpScratch,
}

/// Everything one rank's thread owns while solving.
struct RankRun<'a> {
    nranks: usize,
    dev: &'a Device,
    cfg: &'a AmgConfig,
    h: &'a Hierarchy,
    /// First gathered level; levels `0..boundary` run distributed.
    boundary: usize,
    eff: Eff,
    comm: LocalComm,
    levels: Vec<RankLevel>,
    bufs: Vec<LevelBufs>,
    /// Gershgorin `lambda_max` per level (Chebyshev smoothing only).
    lambda: Vec<f64>,
    interconnect: Interconnect,
    /// Monotone exchange tag; identical across ranks because every rank
    /// runs the identical program order.
    tag: u32,
    comm_seconds: f64,
    halo_bytes: f64,
}

fn ctx_at<'a>(rr: &RankRun<'a>, phase: Phase, k: usize) -> Ctx<'a> {
    Ctx::new(rr.dev, phase, k as u32, rr.h.levels[k].precision)
        .with_policy(rr.cfg.policy)
        .with_exec(rr.cfg.exec)
}

/// Overlapped-round message count of a collective over `p` ranks.
fn rounds(p: usize) -> u32 {
    (usize::BITS - p.leading_zeros()).max(1)
}

/// Charge this rank's sent halo payload to its comm ledger.
fn account(rr: &mut RankRun, lanes: u64, msgs: u32, prec: amgt_sim::Precision) {
    if msgs == 0 {
        return;
    }
    let bytes = lanes as f64 * prec.bytes() as f64;
    rr.comm_seconds += rr.interconnect.transfer_seconds(bytes, msgs);
    rr.halo_bytes += bytes;
}

/// Deterministic sum all-reduce plus its modeled latency.
fn allreduce(rr: &mut RankRun, local: f64) -> f64 {
    let v = rr.comm.allreduce_sum(local);
    if rr.nranks > 1 {
        rr.comm_seconds += rr
            .interconnect
            .transfer_seconds(8.0 * rr.nranks as f64, rounds(rr.nranks));
    }
    v
}

/// Charge the receive side of an all-gather (`received` remote lanes).
fn account_gather(rr: &mut RankRun, received: usize) {
    if rr.nranks > 1 {
        rr.comm_seconds += rr
            .interconnect
            .transfer_seconds(8.0 * received as f64, rounds(rr.nranks));
    }
}

/// Which (matrix, operand) pair a halo exchange serves.
enum HaloOp {
    /// `A_k` over `bufs[k].x`.
    AOnX,
    /// `A_k` over the Chebyshev direction `bufs[k].cp`.
    AOnCp,
    /// `R_k` over the full-length residual `bufs[k].r_full`.
    ROnResidual,
    /// `P_k` over the coarse iterate `bufs[k + 1].x`.
    POnCoarseX,
}

fn halo_exchange(rr: &mut RankRun, k: usize, op: HaloOp) {
    let prec = rr.h.levels[k].precision;
    let tag = rr.tag;
    rr.tag += 1;
    let (lanes, msgs) = match op {
        HaloOp::AOnX => rr.levels[k]
            .a
            .exchange(&rr.comm, tag, &mut rr.bufs[k].x, prec),
        HaloOp::AOnCp => rr.levels[k]
            .a
            .exchange(&rr.comm, tag, &mut rr.bufs[k].cp, prec),
        HaloOp::ROnResidual => rr.levels[k]
            .r
            .exchange(&rr.comm, tag, &mut rr.bufs[k].r_full, prec),
        HaloOp::POnCoarseX => {
            let (_, tail) = rr.bufs.split_at_mut(k + 1);
            rr.levels[k].p.exchange(&rr.comm, tag, &mut tail[0].x, prec)
        }
    };
    account(rr, lanes, msgs, prec);
}

/// One distributed smoothing sweep at level `k < boundary`: exchange the
/// iterate's halo, apply the owned row block, update the owned lanes.
fn smooth_dist(rr: &mut RankRun, k: usize) {
    if let Eff::Cheb(degree) = rr.eff {
        chebyshev_dist(rr, k, degree);
        return;
    }
    halo_exchange(rr, k, HaloOp::AOnX);
    let h = rr.h;
    let ctx = ctx_at(rr, Phase::Solve, k);
    let eff = rr.eff;
    let rl = &rr.levels[k];
    let (lo, hi) = (rl.lo, rl.hi);
    let LevelBufs {
        x,
        b,
        ax,
        scaled,
        op,
        ..
    } = &mut rr.bufs[k];
    rl.a.spmv(&ctx, x, op, ax);
    match eff {
        Eff::Weighted(w) => {
            scaled.clear();
            scaled.extend(h.levels[k].diag_inv[lo..hi].iter().map(|&d| d * w));
            vec_ops::jacobi_fused(&ctx, scaled, b, ax, &mut x[lo..hi]);
        }
        _ => vec_ops::jacobi_fused(
            &ctx,
            &h.levels[k].l1_diag_inv[lo..hi],
            b,
            ax,
            &mut x[lo..hi],
        ),
    }
}

/// Distributed Chebyshev sweep: the three-term recurrence of
/// [`Chebyshev::apply`] with the direction vector `cp` kept full-length and
/// halo-exchanged before each `A p` product. Elementwise throughout, so the
/// owned lanes match the replicated recurrence bitwise for any rank count.
fn chebyshev_dist(rr: &mut RankRun, k: usize, degree: usize) {
    let h = rr.h;
    let lam = rr.lambda[k];
    let upper = lam * 1.1;
    let lower = lam / 30.0;
    let theta = 0.5 * (upper + lower);
    let delta = 0.5 * (upper - lower);
    let nk = h.levels[k].n();
    let ctx = ctx_at(rr, Phase::Solve, k);

    halo_exchange(rr, k, HaloOp::AOnX);
    {
        let rl = &rr.levels[k];
        let (lo, hi) = (rl.lo, rl.hi);
        let dinv = &h.levels[k].diag_inv[lo..hi];
        let LevelBufs {
            x,
            b,
            ax,
            cr,
            cp,
            op,
            ..
        } = &mut rr.bufs[k];
        rl.a.spmv(&ctx, x, op, ax);
        // cr = D^{-1} (b - A x) on the owned lanes.
        cr.clear();
        cr.extend(
            b.iter()
                .zip(ax.iter())
                .zip(dinv)
                .map(|((&bi, &ai), &d)| (bi - ai) * d),
        );
        let alpha = 1.0 / theta;
        cp.clear();
        cp.resize(nk, 0.0);
        for (i, &ri) in cr.iter().enumerate() {
            cp[lo + i] = ri * alpha;
        }
        vec_ops::axpy(&ctx, 1.0, &cp[lo..hi], &mut x[lo..hi]);
    }
    let mut rho = delta * (1.0 / theta);
    for _ in 1..degree {
        halo_exchange(rr, k, HaloOp::AOnCp);
        let rl = &rr.levels[k];
        let (lo, hi) = (rl.lo, rl.hi);
        let dinv = &h.levels[k].diag_inv[lo..hi];
        let LevelBufs {
            x, ax, cr, cp, op, ..
        } = &mut rr.bufs[k];
        rl.a.spmv(&ctx, cp, op, ax);
        for ((ri, &api), &d) in cr.iter_mut().zip(ax.iter()).zip(dinv) {
            *ri -= api * d;
        }
        let rho_new = 1.0 / (2.0 * theta / delta - rho);
        let beta = rho * rho_new;
        let alpha = 2.0 * rho_new / delta;
        for (i, &ri) in cr.iter().enumerate() {
            cp[lo + i] = alpha * ri + beta * cp[lo + i];
        }
        vec_ops::axpy(&ctx, 1.0, &cp[lo..hi], &mut x[lo..hi]);
        rho = rho_new;
    }
}

/// One redundant smoothing sweep at a gathered level (full vectors,
/// identical on every rank — mirrors the single-device smoother exactly).
fn smooth_red(rr: &mut RankRun, k: usize) {
    let h = rr.h;
    let ctx = ctx_at(rr, Phase::Solve, k);
    let eff = rr.eff;
    let lvl = &h.levels[k];
    match eff {
        Eff::Cheb(degree) => {
            let ch = Chebyshev::new(degree, rr.lambda[k]);
            let LevelBufs { x, b, .. } = &mut rr.bufs[k];
            ch.apply(&ctx, lvl, b, x);
        }
        Eff::Weighted(w) => {
            let LevelBufs {
                x,
                b,
                ax,
                scaled,
                op,
                ..
            } = &mut rr.bufs[k];
            lvl.a.spmv_into(&ctx, x, op, ax);
            scaled.clear();
            scaled.extend(lvl.diag_inv.iter().map(|&d| d * w));
            vec_ops::jacobi_fused(&ctx, scaled, b, ax, x);
        }
        Eff::L1 => {
            let LevelBufs { x, b, ax, op, .. } = &mut rr.bufs[k];
            lvl.a.spmv_into(&ctx, x, op, ax);
            vec_ops::jacobi_fused(&ctx, &lvl.l1_diag_inv, b, ax, x);
        }
    }
}

/// Redundant coarsest-level solve — the exact mirror of the single-device
/// coarse solve, including its kernel charges.
fn coarse_red(rr: &mut RankRun) {
    let h = rr.h;
    let k = h.n_levels() - 1;
    let ctx = ctx_at(rr, Phase::Solve, k);
    match rr.cfg.coarse_solver {
        CoarseSolver::DirectLu => {
            let timer = ctx.timer();
            let lu = h.coarse_lu.as_ref().expect("LU prepared in setup");
            let LevelBufs { x, b, sol, .. } = &mut rr.bufs[k];
            lu.solve_into(b, sol);
            x.copy_from_slice(sol);
            let n = h.levels[k].n() as f64;
            ctx.charge_timed(
                KernelKind::CoarseSolve,
                Algo::Shared,
                &KernelCost {
                    cuda_flops: 2.0 * n * n,
                    bytes: n * n * 8.0,
                    launches: 2,
                    ..Default::default()
                },
                timer,
            );
        }
        CoarseSolver::SparseLdl { .. } => {
            let timer = ctx.timer();
            let f = h.coarse_ldl.as_ref().expect("LDL^T prepared in setup");
            let LevelBufs {
                x, b, sol, sol2, ..
            } = &mut rr.bufs[k];
            f.solve_into(b, sol2, sol);
            x.copy_from_slice(sol);
            ctx.charge_timed(
                KernelKind::CoarseSolve,
                Algo::Shared,
                &KernelCost {
                    cuda_flops: 4.0 * f.l_nnz() as f64 + 2.0 * h.levels[k].n() as f64,
                    bytes: (f.l_nnz() * 12 + h.levels[k].n() * 16) as f64,
                    launches: 2,
                    ..Default::default()
                },
                timer,
            );
        }
        CoarseSolver::Jacobi(sweeps) => {
            for _ in 0..sweeps {
                smooth_red(rr, k);
            }
        }
    }
}

/// Cycle dispatch: distributed above the boundary, redundant below.
fn cycle_at(rr: &mut RankRun, k: usize, cycle: CycleType) {
    if k >= rr.boundary {
        cycle_red(rr, k, cycle);
    } else {
        cycle_dist(rr, k, cycle);
    }
}

/// Redundant cycle over a gathered level: full vectors, every rank runs
/// the identical single-device arithmetic.
fn cycle_red(rr: &mut RankRun, k: usize, cycle: CycleType) {
    let dev = rr.dev;
    let h = rr.h;
    let _span = dev.span(SpanKind::Level, SpanLabel::with("level", k as u64));
    if k + 1 == h.n_levels() {
        coarse_red(rr);
        return;
    }
    let ctx = ctx_at(rr, Phase::Solve, k);
    let sweeps = rr.cfg.num_sweeps;
    for _ in 0..sweeps {
        smooth_red(rr, k);
    }
    {
        let lvl = &h.levels[k];
        let (head, tail) = rr.bufs.split_at_mut(k + 1);
        let cur = &mut head[k];
        let next = &mut tail[0];
        lvl.a.spmv_into(&ctx, &cur.x, &mut cur.op, &mut cur.ax);
        vec_ops::sub_into(&ctx, &cur.b, &cur.ax, &mut cur.ro);
        let restriction = lvl.r.as_ref().expect("non-coarsest level has R");
        restriction.spmv_into(&ctx, &cur.ro, &mut cur.op, &mut next.b);
        next.x.clear();
        next.x.resize(next.b.len(), 0.0);
    }
    let visits = match cycle {
        CycleType::V => 1,
        CycleType::W | CycleType::F => 2,
    };
    for visit in 0..visits {
        let sub = if cycle == CycleType::F && visit == 1 {
            CycleType::V
        } else {
            cycle
        };
        cycle_red(rr, k + 1, sub);
    }
    {
        let lvl = &h.levels[k];
        let (head, tail) = rr.bufs.split_at_mut(k + 1);
        let cur = &mut head[k];
        let next = &tail[0];
        let p = lvl.p.as_ref().expect("non-coarsest level has P");
        p.spmv_into(&ctx, &next.x, &mut cur.op, &mut cur.e);
        vec_ops::axpy(&ctx, 1.0, &cur.e, &mut cur.x);
    }
    for _ in 0..sweeps {
        smooth_red(rr, k);
    }
}

/// Distributed cycle at level `k < boundary`: halo-exchange SpMV for the
/// smoother, residual, restriction and interpolation; the transit into the
/// gathered region all-gathers the restricted right-hand side.
fn cycle_dist(rr: &mut RankRun, k: usize, cycle: CycleType) {
    let dev = rr.dev;
    let h = rr.h;
    let _span = dev.span(SpanKind::Level, SpanLabel::with("level", k as u64));
    let ctx = ctx_at(rr, Phase::Solve, k);
    let nk = h.levels[k].n();
    let n_next = h.levels[k + 1].n();
    let sweeps = rr.cfg.num_sweeps;

    for _ in 0..sweeps {
        smooth_dist(rr, k);
    }

    // Owned residual, staged into a full-length vector for R's operand.
    halo_exchange(rr, k, HaloOp::AOnX);
    {
        let rl = &rr.levels[k];
        let LevelBufs {
            x,
            b,
            ax,
            ro,
            r_full,
            op,
            ..
        } = &mut rr.bufs[k];
        rl.a.spmv(&ctx, x, op, ax);
        vec_ops::sub_into(&ctx, b, ax, ro);
        r_full.clear();
        r_full.resize(nk, 0.0);
        r_full[rl.lo..rl.hi].copy_from_slice(ro);
    }

    // Restriction. Into the gathered region the owned coarse rows are
    // all-gathered (rank-ordered concatenation = exact assembly); between
    // distributed levels the owned block is the coarse right-hand side.
    halo_exchange(rr, k, HaloOp::ROnResidual);
    let gather_next = k + 1 == rr.boundary;
    {
        let rl = &rr.levels[k];
        let (head, tail) = rr.bufs.split_at_mut(k + 1);
        let cur = &mut head[k];
        let next = &mut tail[0];
        rl.r.spmv(&ctx, &cur.r_full, &mut cur.op, &mut cur.e);
        next.b.clear();
        if gather_next {
            let full = rr.comm.allgather(&cur.e);
            next.b.extend_from_slice(&full);
        } else {
            next.b.extend_from_slice(&cur.e);
        }
        next.x.clear();
        next.x.resize(n_next, 0.0);
    }
    if gather_next {
        let owned = rr.levels[k].next_hi - rr.levels[k].next_lo;
        account_gather(rr, n_next - owned);
    }

    let visits = match cycle {
        CycleType::V => 1,
        CycleType::W | CycleType::F => 2,
    };
    for visit in 0..visits {
        let sub = if cycle == CycleType::F && visit == 1 {
            CycleType::V
        } else {
            cycle
        };
        cycle_at(rr, k + 1, sub);
    }

    // Interpolation and correction on the owned lanes. A gathered coarse
    // iterate is replicated, so P needs no exchange there.
    if !gather_next {
        halo_exchange(rr, k, HaloOp::POnCoarseX);
    }
    {
        let rl = &rr.levels[k];
        let (head, tail) = rr.bufs.split_at_mut(k + 1);
        let cur = &mut head[k];
        let next = &tail[0];
        rl.p.spmv(&ctx, &next.x, &mut cur.op, &mut cur.e);
        vec_ops::axpy(&ctx, 1.0, &cur.e, &mut cur.x[rl.lo..rl.hi]);
    }

    for _ in 0..sweeps {
        smooth_dist(rr, k);
    }
}

/// Distributed residual norm at the finest level: owned partial dot,
/// rank-ordered all-reduce, square root. At one rank the single partial
/// covers the whole vector, so this reproduces `norm2`'s fixed-topology
/// reduction tree bitwise (the tree's shape depends only on length and
/// grain, never on pool width or rank count).
fn residual_norm_dist(rr: &mut RankRun) -> f64 {
    halo_exchange(rr, 0, HaloOp::AOnX);
    let ctx = ctx_at(rr, Phase::Solve, 0);
    let local = {
        let rl = &rr.levels[0];
        let LevelBufs {
            x, b, ax, ro, op, ..
        } = &mut rr.bufs[0];
        rl.a.spmv(&ctx, x, op, ax);
        vec_ops::sub_into(&ctx, b, ax, ro);
        vec_ops::dot(&ctx, ro, ro)
    };
    allreduce(rr, local).sqrt()
}

/// Attach flight/trace plumbing (and, for the stationary loop, finest-level
/// attribution) to a health event, mirroring the single-device loops.
fn emit_health(rr: &RankRun, mut ev: HealthEvent, attribute: bool, sink: &mut Vec<HealthEvent>) {
    if attribute && ev.level.is_none() {
        ev.level = Some(0);
        ev.precision = Some(level_precision(rr.dev, rr.cfg, 0).label());
    }
    ev.trace_id = rr.dev.flight_id().map_or(0, |id| id.get());
    if let Some(rec) = rr.dev.recorder() {
        rec.record_health(ev.clone());
    }
    rr.dev.flight_health(&ev);
    sink.push(ev);
}

/// The stationary outer loop (the distributed mirror of
/// [`amgt::solve::solve_with_workspace`]). `bufs[0].b` holds the owned
/// right-hand side and `bufs[0].x` the zeroed full-length iterate.
fn run_stationary(rr: &mut RankRun) -> SolveReport {
    let dev = rr.dev;
    let cfg = rr.cfg;
    let ctx0 = ctx_at(rr, Phase::Solve, 0);
    let b_norm = {
        let local = vec_ops::dot(&ctx0, &rr.bufs[0].b, &rr.bufs[0].b);
        let nb = allreduce(rr, local).sqrt();
        if nb == 0.0 {
            1.0
        } else {
            nb
        }
    };
    let initial = {
        let _span = dev.span(SpanKind::Region, SpanLabel::named("initial residual"));
        residual_norm_dist(rr)
    };

    let initial_rel = initial / b_norm;
    let mut monitor = ConvergenceMonitor::new(HealthThresholds::default(), initial_rel);
    let mut health_events: Vec<HealthEvent> = Vec::new();
    let mut history = Vec::with_capacity(cfg.max_iterations);
    let mut final_norm = initial;
    // As in the single-device loop, a system already within tolerance
    // runs no cycle.
    let mut converged = cfg.tolerance > 0.0 && initial_rel < cfg.tolerance;
    let max_iterations = if converged { 0 } else { cfg.max_iterations };
    let mut iterations = 0usize;
    for it in 0..max_iterations {
        let _iter_span = dev.span(
            SpanKind::Iteration,
            SpanLabel::with("iteration", (it + 1) as u64),
        );
        cycle_at(rr, 0, cfg.cycle);
        iterations += 1;
        final_norm = residual_norm_dist(rr);
        let rel = final_norm / b_norm;
        history.push(rel);
        dev.flight_residual(it + 1, None, rel);
        if let Some(ev) = monitor.observe(rel) {
            emit_health(rr, ev, true, &mut health_events);
        }
        if monitor.should_abort() {
            break;
        }
        if cfg.tolerance > 0.0 && rel < cfg.tolerance {
            converged = true;
            break;
        }
    }

    SolveReport {
        iterations,
        initial_residual_norm: initial,
        initial_relative_residual: initial_rel,
        final_residual_norm: final_norm,
        history,
        converged,
        outcome: monitor.outcome(converged),
        convergence_factor: monitor.geometric_factor(),
        health_events,
    }
}

/// One V-cycle preconditioner application: `z = M^{-1} r` (owned lanes).
fn precond(rr: &mut RankRun, r_o: &[f64], z_o: &mut Vec<f64>) {
    let n = rr.h.levels[0].n();
    {
        let LevelBufs { x, b, .. } = &mut rr.bufs[0];
        b.clear();
        b.extend_from_slice(r_o);
        x.clear();
        x.resize(n, 0.0);
    }
    cycle_at(rr, 0, rr.cfg.cycle);
    let (lo, hi) = (rr.levels[0].lo, rr.levels[0].hi);
    z_o.clear();
    z_o.extend_from_slice(&rr.bufs[0].x[lo..hi]);
}

/// Distributed PCG (the mirror of [`amgt::pcg::pcg_solve`]): owned-lane
/// vectors, a full-length search direction for the halo-exchange `A p`, and
/// every dot product combined by rank-ordered all-reduce. Returns the
/// assembled solution plus the report.
fn run_pcg(rr: &mut RankRun, tol: f64, max_iters: usize) -> (Vec<f64>, SolveReport) {
    let dev = rr.dev;
    let n = rr.h.levels[0].n();
    let (lo, hi) = (rr.levels[0].lo, rr.levels[0].hi);
    let ctx = ctx_at(rr, Phase::Solve, 0);
    let bo: Vec<f64> = rr.bufs[0].b.clone();
    let b_norm = {
        let local = vec_ops::dot(&ctx, &bo, &bo);
        let nb = allreduce(rr, local).sqrt();
        if nb == 0.0 {
            1.0
        } else {
            nb
        }
    };

    // Initial residual from the zero iterate (still one charged SpMV, as
    // in the single-device PCG).
    let mut x_full = vec![0.0; n];
    rr.bufs[0].x.clear();
    rr.bufs[0].x.resize(n, 0.0);
    halo_exchange(rr, 0, HaloOp::AOnX);
    {
        let rl = &rr.levels[0];
        let LevelBufs { x, ax, op, .. } = &mut rr.bufs[0];
        rl.a.spmv(&ctx, x, op, ax);
    }
    let mut r_o = Vec::new();
    vec_ops::sub_into(&ctx, &bo, &rr.bufs[0].ax, &mut r_o);
    let local = vec_ops::dot(&ctx, &r_o, &r_o);
    let initial = allreduce(rr, local).sqrt();
    let initial_rel = initial / b_norm;
    if initial_rel < tol {
        let x_out = rr.comm.allgather(&x_full[lo..hi]);
        account_gather(rr, n - (hi - lo));
        let report = SolveReport {
            iterations: 0,
            initial_residual_norm: initial,
            initial_relative_residual: initial_rel,
            final_residual_norm: initial,
            history: vec![],
            converged: true,
            outcome: SolveOutcome::Converged,
            convergence_factor: 0.0,
            health_events: vec![],
        };
        return (x_out, report);
    }

    let mut monitor = ConvergenceMonitor::new(HealthThresholds::default(), initial_rel);
    let mut health_events: Vec<HealthEvent> = Vec::new();
    let mut z_o = Vec::new();
    precond(rr, &r_o, &mut z_o);
    let mut p_full = vec![0.0; n];
    p_full[lo..hi].copy_from_slice(&z_o);
    let local = vec_ops::dot(&ctx, &r_o, &z_o);
    let mut rz = allreduce(rr, local);

    let mut ap_o: Vec<f64> = Vec::new();
    let mut history = Vec::new();
    let mut converged = false;
    let mut iterations = 0usize;
    let mut final_norm = initial;
    for _ in 0..max_iters {
        iterations += 1;
        rr.bufs[0].x.clear();
        rr.bufs[0].x.extend_from_slice(&p_full);
        halo_exchange(rr, 0, HaloOp::AOnX);
        {
            let rl = &rr.levels[0];
            let LevelBufs { x, ax, op, .. } = &mut rr.bufs[0];
            rl.a.spmv(&ctx, x, op, ax);
        }
        ap_o.clear();
        ap_o.extend_from_slice(&rr.bufs[0].ax);
        let local = vec_ops::dot(&ctx, &p_full[lo..hi], &ap_o);
        let pap = allreduce(rr, local);
        if pap <= 0.0 || !pap.is_finite() {
            break;
        }
        let alpha = rz / pap;
        vec_ops::axpy(&ctx, alpha, &p_full[lo..hi], &mut x_full[lo..hi]);
        vec_ops::axpy(&ctx, -alpha, &ap_o, &mut r_o);
        let local = vec_ops::dot(&ctx, &r_o, &r_o);
        final_norm = allreduce(rr, local).sqrt();
        let rel = final_norm / b_norm;
        history.push(rel);
        dev.flight_residual(history.len(), None, rel);
        if let Some(ev) = monitor.observe(rel) {
            emit_health(rr, ev, false, &mut health_events);
        }
        if monitor.nonfinite() {
            break;
        }
        if rel < tol {
            converged = true;
            break;
        }
        precond(rr, &r_o, &mut z_o);
        let local = vec_ops::dot(&ctx, &r_o, &z_o);
        let rz_new = allreduce(rr, local);
        let beta = rz_new / rz;
        rz = rz_new;
        vec_ops::xpby(&ctx, &z_o, beta, &mut p_full[lo..hi]);
    }

    let x_out = rr.comm.allgather(&x_full[lo..hi]);
    account_gather(rr, n - (hi - lo));
    let report = SolveReport {
        iterations,
        initial_residual_norm: initial,
        initial_relative_residual: initial_rel,
        final_residual_norm: final_norm,
        history,
        converged,
        outcome: monitor.outcome(converged),
        convergence_factor: monitor.geometric_factor(),
        health_events,
    };
    (x_out, report)
}

/// What one rank's thread hands back to the coordinator.
struct RankOut {
    x: Vec<f64>,
    report: SolveReport,
    prep_seconds: f64,
    compute_seconds: f64,
    comm_seconds: f64,
    halo_bytes: f64,
    rows: usize,
    nnz: usize,
    counters: CommCounters,
}

/// One rank's thread: slice the distributed levels (charged to this rank's
/// device under a "dist setup" span), then run the outer loop under a
/// "dist solve" span.
#[allow(clippy::too_many_arguments)]
fn rank_main(
    rank: usize,
    nranks: usize,
    dev: &Device,
    cfg: &AmgConfig,
    dcfg: &DistConfig,
    h: &Hierarchy,
    parts: &[Partition],
    plans: &[LevelPlans],
    boundary: usize,
    interconnect: Interconnect,
    comm: LocalComm,
    b: &[f64],
    mode: DistMode,
) -> RankOut {
    let n_levels = h.n_levels();
    let n0 = h.levels[0].n();

    if boundary == 0 {
        // Fully-redundant degenerate mode: the finest level is already
        // below the gather threshold, so every rank runs the plain
        // single-device solver on its own device. No communication.
        let start = dev.elapsed();
        let _span = dev.span(SpanKind::Phase, SpanLabel::named("dist solve"));
        let mut x = vec![0.0; n0];
        let report = match mode {
            DistMode::Stationary => amgt::solve::solve(dev, cfg, h, b, &mut x),
            DistMode::Pcg { tol, max_iters } => {
                let rep = amgt::pcg::pcg_solve(dev, cfg, h, b, &mut x, tol, max_iters);
                // With a zero initial iterate the initial residual is b.
                let raw_nb = b.iter().map(|v| v * v).sum::<f64>().sqrt();
                let b_norm = if raw_nb == 0.0 { 1.0 } else { raw_nb };
                SolveReport {
                    iterations: rep.iterations,
                    initial_residual_norm: raw_nb,
                    initial_relative_residual: raw_nb / b_norm,
                    final_residual_norm: rep.history.last().map_or(raw_nb, |r| r * b_norm),
                    history: rep.history,
                    converged: rep.converged,
                    outcome: rep.outcome,
                    convergence_factor: rep.convergence_factor,
                    health_events: rep.health_events,
                }
            }
        };
        return RankOut {
            x,
            report,
            prep_seconds: 0.0,
            compute_seconds: dev.elapsed() - start,
            comm_seconds: 0.0,
            halo_bytes: 0.0,
            rows: n0,
            nnz: h.levels[0].a.csr.nnz(),
            counters: comm.counters(),
        };
    }

    let prep_start = dev.elapsed();
    let mut levels = Vec::with_capacity(boundary);
    {
        let _span = dev.span(SpanKind::Phase, SpanLabel::named("dist setup"));
        for k in 0..boundary {
            let ctx = Ctx::new(dev, Phase::Setup, k as u32, h.levels[k].precision)
                .with_policy(cfg.policy)
                .with_exec(cfg.exec);
            let (lo, hi) = parts[k].range(rank);
            let (next_lo, next_hi) = parts[k + 1].range(rank);
            let a = RankMatrix::assemble(
                &ctx,
                cfg.backend,
                &h.levels[k].a,
                lo,
                hi,
                Some(plans[k].a[rank].clone()),
                rank,
            );
            let r = RankMatrix::assemble(
                &ctx,
                cfg.backend,
                h.levels[k].r.as_ref().expect("non-coarsest level has R"),
                next_lo,
                next_hi,
                Some(plans[k].r[rank].clone()),
                rank,
            );
            let p = RankMatrix::assemble(
                &ctx,
                cfg.backend,
                h.levels[k].p.as_ref().expect("non-coarsest level has P"),
                lo,
                hi,
                plans[k].p.as_ref().map(|v| v[rank].clone()),
                rank,
            );
            levels.push(RankLevel {
                a,
                r,
                p,
                lo,
                hi,
                next_lo,
                next_hi,
            });
        }
    }
    let prep_seconds = dev.elapsed() - prep_start;

    let lambda: Vec<f64> = if matches!(dcfg.smoother, DistSmoother::Chebyshev { .. }) {
        h.levels.iter().map(gershgorin_lambda_max).collect()
    } else {
        vec![0.0; n_levels]
    };
    let eff = match dcfg.smoother {
        DistSmoother::Chebyshev { degree } => Eff::Cheb(degree.max(1)),
        DistSmoother::FromConfig => match cfg.smoother {
            Smoother::WeightedJacobi(w) => Eff::Weighted(w),
            Smoother::L1Jacobi | Smoother::HybridGaussSeidel => Eff::L1,
        },
    };

    let mut bufs: Vec<LevelBufs> = (0..n_levels).map(|_| LevelBufs::default()).collect();
    let (lo0, hi0) = parts[0].range(rank);
    bufs[0].x = vec![0.0; n0];
    bufs[0].b = b[lo0..hi0].to_vec();
    let rows = hi0 - lo0;

    let mut rr = RankRun {
        nranks,
        dev,
        cfg,
        h,
        boundary,
        eff,
        comm,
        levels,
        bufs,
        lambda,
        interconnect,
        tag: 0,
        comm_seconds: 0.0,
        halo_bytes: 0.0,
    };
    let nnz = rr.levels[0].a.op.csr.nnz();

    let solve_start = dev.elapsed();
    let (x, report) = {
        let _span = dev.span(SpanKind::Phase, SpanLabel::named("dist solve"));
        match mode {
            DistMode::Stationary => {
                let report = run_stationary(&mut rr);
                let (lo, hi) = (rr.levels[0].lo, rr.levels[0].hi);
                let x = rr.comm.allgather(&rr.bufs[0].x[lo..hi]);
                account_gather(&mut rr, n0 - (hi - lo));
                (x, report)
            }
            DistMode::Pcg { tol, max_iters } => run_pcg(&mut rr, tol, max_iters),
        }
    };
    let compute_seconds = dev.elapsed() - solve_start;

    RankOut {
        x,
        report,
        prep_seconds,
        compute_seconds,
        comm_seconds: rr.comm_seconds,
        halo_bytes: rr.halo_bytes,
        rows,
        nnz,
        counters: rr.comm.counters(),
    }
}

/// Shared pipeline of [`dist_solve`] / [`dist_pcg`].
fn run_dist(
    cluster: &Cluster,
    cfg: &AmgConfig,
    dcfg: &DistConfig,
    a: Csr,
    b: &[f64],
    mode: DistMode,
) -> (Vec<f64>, DistReport) {
    let p = cluster.n_devices();
    assert!(p >= 1, "cluster has no devices");
    assert_eq!(b.len(), a.nrows(), "RHS size mismatch");

    // Replicated reference setup: the numerics of coarsening, and the event
    // stream the distributed cost model scales.
    let reference = Device::new(cluster.devices[0].spec().clone());
    let h = setup(&reference, cfg, a);
    let setup_events = reference.events();
    let n_levels = h.n_levels();
    let boundary = h
        .levels
        .iter()
        .position(|l| l.n() <= dcfg.gather_threshold)
        .unwrap_or(n_levels - 1)
        .min(n_levels - 1);

    let parts: Vec<Partition> = (0..=boundary)
        .map(|k| partition_contiguous(&h.levels[k].a.csr, p))
        .collect();
    let plans: Vec<LevelPlans> = (0..boundary)
        .map(|k| {
            let a_pl = build_halo_plans(&h.levels[k].a.csr, &parts[k].offsets, &parts[k].offsets);
            let r_csr = &h.levels[k].r.as_ref().expect("level has R").csr;
            let r_pl = build_halo_plans(r_csr, &parts[k + 1].offsets, &parts[k].offsets);
            let p_pl = if k + 1 < boundary {
                let p_csr = &h.levels[k].p.as_ref().expect("level has P").csr;
                Some(build_halo_plans(
                    p_csr,
                    &parts[k].offsets,
                    &parts[k + 1].offsets,
                ))
            } else {
                None
            };
            LevelPlans {
                a: a_pl,
                r: r_pl,
                p: p_pl,
            }
        })
        .collect();

    // Setup cost model (ported from the old multi-GPU path): distributed
    // levels scale each reference event by 1/p and pay, once per level, a
    // SpGEMM halo gather of the level's ghost fraction; gathered levels run
    // redundantly at full cost.
    let halo_frac: Vec<f64> = (0..n_levels)
        .map(|k| {
            if k < boundary {
                let lanes: usize = plans[k].a.iter().map(HaloPlan::ghost_lanes).sum();
                (lanes as f64 / h.levels[k].n().max(1) as f64).min(1.0)
            } else {
                1.0
            }
        })
        .collect();
    let mut events_seconds = 0.0;
    let mut halo_paid = vec![false; n_levels];
    for e in &setup_events {
        let lvl = (e.level as usize).min(n_levels - 1);
        let mut t = if lvl < boundary {
            e.seconds / p as f64
        } else {
            e.seconds
        };
        if matches!(
            e.kind,
            KernelKind::SpGemmNumeric | KernelKind::SpGemmSymbolic
        ) && lvl < boundary
            && p > 1
            && !halo_paid[lvl]
        {
            halo_paid[lvl] = true;
            let bytes = h.levels[lvl].a.csr.bytes() * halo_frac[lvl];
            t += cluster.interconnect.transfer_seconds(bytes, rounds(p));
        }
        events_seconds += t;
    }

    let comms = LocalComm::group(p);
    let interconnect = cluster.interconnect;
    let outs: Vec<RankOut> = std::thread::scope(|s| {
        let h = &h;
        let parts = &parts;
        let plans = &plans;
        let handles: Vec<_> = comms
            .into_iter()
            .enumerate()
            .map(|(rank, comm)| {
                let dev = &cluster.devices[rank];
                s.spawn(move || {
                    rank_main(
                        rank,
                        p,
                        dev,
                        cfg,
                        dcfg,
                        h,
                        parts,
                        plans,
                        boundary,
                        interconnect,
                        comm,
                        b,
                        mode,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|jh| jh.join().expect("rank thread panicked"))
            .collect()
    });

    let prep_max = outs.iter().map(|o| o.prep_seconds).fold(0.0f64, f64::max);
    let setup_seconds = events_seconds + prep_max;
    let per_rank_solve: Vec<f64> = outs
        .iter()
        .map(|o| o.compute_seconds + o.comm_seconds)
        .collect();
    let solve_seconds = per_rank_solve.iter().copied().fold(0.0f64, f64::max);
    let comm_seconds = outs.iter().map(|o| o.comm_seconds).fold(0.0f64, f64::max);
    // Advance the shared bulk-synchronous clock: one step per phase.
    cluster.step(&vec![setup_seconds; p], 0.0, 0);
    cluster.step(&per_rank_solve, 0.0, 0);

    let counters = outs[0].counters;
    let report = DistReport {
        ranks: p,
        levels: n_levels,
        gathered_levels: n_levels - boundary,
        edge_cut: parts[0].edge_cut,
        imbalance: parts[0].imbalance(),
        setup_seconds,
        solve_seconds,
        comm_seconds,
        halo_bytes: outs.iter().map(|o| o.halo_bytes).sum(),
        halo_messages: counters.messages,
        allreduce_count: counters.allreduces,
        per_rank: outs
            .iter()
            .enumerate()
            .map(|(rank, o)| RankReport {
                rank,
                rows: o.rows,
                nnz: o.nnz,
                compute_seconds: o.compute_seconds,
                comm_seconds: o.comm_seconds,
                halo_bytes: o.halo_bytes,
            })
            .collect(),
        solve_report: outs[0].report.clone(),
    };
    let mut outs = outs;
    let x = outs.swap_remove(0).x;
    (x, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use amgt_sim::GpuSpec;
    use amgt_sparse::gen::{laplacian_2d, rhs_of_ones, Stencil2d};

    fn cluster(p: usize) -> Cluster {
        Cluster::new(GpuSpec::a100(), p, Interconnect::nvlink())
    }

    #[test]
    fn distributed_solution_matches_single_device_bitwise() {
        let a = laplacian_2d(16, 16, Stencil2d::Five);
        let b = rhs_of_ones(&a);
        let mut cfg = AmgConfig::amgt_fp64();
        cfg.max_iterations = 8;

        // Single-device reference.
        let dev = Device::new(GpuSpec::a100());
        let h = setup(&dev, &cfg, a.clone());
        let mut x_ref = vec![0.0; b.len()];
        amgt::solve::solve(&dev, &cfg, &h, &b, &mut x_ref);

        let (x, rep) = dist_solve(&cluster(4), &cfg, &DistConfig::default(), a, &b);
        assert_eq!(rep.ranks, 4);
        for (i, (u, v)) in x.iter().zip(&x_ref).enumerate() {
            assert_eq!(u.to_bits(), v.to_bits(), "row {i}: {u} vs {v}");
        }
        assert!(rep.setup_seconds > 0.0);
        assert!(rep.solve_seconds > 0.0);
        assert!(rep.comm_seconds > 0.0);
        assert!(rep.comm_seconds < rep.solve_seconds);
    }

    #[test]
    fn more_devices_reduce_compute_but_add_comm() {
        let a = laplacian_2d(100, 100, Stencil2d::Five);
        let b = rhs_of_ones(&a);
        let mut cfg = AmgConfig::hypre_fp64();
        cfg.max_iterations = 3;
        let dcfg = DistConfig::default();
        let (_, r1) = dist_solve(&cluster(1), &cfg, &dcfg, a.clone(), &b);
        let (_, r8) = dist_solve(&cluster(8), &cfg, &dcfg, a, &b);
        // One rank exchanges nothing; eight pay real interconnect time.
        assert_eq!(r1.comm_seconds, 0.0);
        assert!(r8.comm_seconds > r1.comm_seconds);
        // Setup compute scales ~1/p; the added comm must not negate it on a
        // matrix of this size.
        assert!(
            r8.setup_seconds < r1.setup_seconds,
            "r8 {} vs r1 {}",
            r8.setup_seconds,
            r1.setup_seconds
        );
    }

    #[test]
    fn mixed_precision_distributed_converges() {
        let a = laplacian_2d(20, 20, Stencil2d::Five);
        let b = rhs_of_ones(&a);
        let mut cfg = AmgConfig::amgt_mixed();
        cfg.max_iterations = 25;
        let (_, rep) = dist_solve(&cluster(2), &cfg, &DistConfig::default(), a, &b);
        assert!(
            rep.solve_report.final_relative_residual() < 1e-5,
            "relres {}",
            rep.solve_report.final_relative_residual()
        );
    }
}
