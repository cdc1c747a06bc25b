//! The distributed solve driver: per-rank hierarchies, halo-exchange
//! V/W/F-cycles, and a gathered redundant coarse region.
//!
//! Every rank runs as one thread over a [`LocalComm`] group. The hierarchy
//! is built once on a reference device (the numerics of setup are not
//! distributed — only its cost model is, mirroring HYPRE's per-event
//! scaling); each rank then slices every *fine* level into its contiguous,
//! tile-aligned row block and runs the cycle distributed down to
//! `GATHER_THRESHOLD` (128) rows. Below it, levels are gathered (one
//! all-gather per transit) and solved redundantly on every rank — the
//! standard dodge for coarse grids whose halo would exceed their interior.
//!
//! The driver owns only what distribution changes: the halo-exchange cycle
//! on the distributed levels and the all-reduced norms. The gathered region
//! runs [`amgt::solve::vcycle`] itself, and the stationary outer loop is
//! judged by [`amgt::solve::Column`], the per-column state of the
//! single-device solver. The smoother is the single-device one, L1-Jacobi,
//! applied to each rank's owned rows after a halo exchange.
//!
//! Determinism: the stationary cycle contains no reductions inside the
//! update path, so the iterate trajectory is **bitwise invariant in the
//! rank count**. Residual norms are computed from rank-ordered
//! all-reduces — identical bits on every rank of a run, so control flow
//! (tolerance tests, health monitoring) never diverges across ranks — but
//! a sum of per-rank partials rounds differently from the sequential fold,
//! so the *recorded* norms move at the ulp between rank counts while the
//! iterates do not. At `P = 1` the whole run is
//! bit-identical to [`amgt::solve::solve`]. Distributed PCG feeds those
//! dots back into its coefficients, so only `P = 1` is bitwise there;
//! more ranks agree on the converged residual and iterations ±1.

use crate::comm::{CommCounters, Communicator, LocalComm};
use crate::partition::{build_halo_plans, HaloPlan, RankMatrix};
use amgt::config::{AmgConfig, CycleType};
use amgt::diagnostics::{emit_health, ConvergenceMonitor, HealthThresholds, SolveOutcome};
use amgt::hierarchy::{setup, Hierarchy};
use amgt::solve::{vcycle, Column, SolveReport, SolveWorkspace};
use amgt::vec_ops;
use amgt::OpScratch;
use amgt_kernels::Ctx;
use amgt_sim::{
    Cluster, Device, HealthEvent, Interconnect, KernelKind, Phase, SpanKind, SpanLabel,
};
use amgt_sparse::reorder::{partition_contiguous, Partition};
use amgt_sparse::Csr;

/// Levels with at most this many rows are gathered and solved redundantly
/// on every rank instead of distributed.
const GATHER_THRESHOLD: usize = 128;

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
    /// Trailing levels solved redundantly on every rank (the levels from
    /// the first one of at most 128 rows down, and always the coarsest).
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
/// Numerically equivalent to [`amgt::solve::solve`] (bitwise at one rank);
/// returns the assembled solution and the distributed report.
pub fn dist_solve(cluster: &Cluster, cfg: &AmgConfig, a: Csr, b: &[f64]) -> (Vec<f64>, DistReport) {
    run_dist(cluster, cfg, a, b, DistMode::Stationary)
}

/// Solve `A x = b` by AMG-preconditioned CG over the cluster's ranks.
pub fn dist_pcg(
    cluster: &Cluster,
    cfg: &AmgConfig,
    a: Csr,
    b: &[f64],
    tol: f64,
    max_iters: usize,
) -> (Vec<f64>, DistReport) {
    run_dist(cluster, cfg, a, b, DistMode::Pcg { tol, max_iters })
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

/// Per-level vectors of one rank, for the distributed levels and the first
/// gathered one (whose `b` and `x` are the gathered cycle's operands).
/// Distributed levels keep `x` (and the residual staging `r_full`) at full
/// length — only the owned plus ghost lanes are meaningful — and everything
/// else owned-sized.
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
    comm: LocalComm,
    levels: Vec<RankLevel>,
    bufs: Vec<LevelBufs>,
    /// The gathered region's cycle buffers, and the first non-finite
    /// sighting of the current cycle (distributed levels record theirs on
    /// the owned lanes).
    ws: SolveWorkspace,
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

/// One distributed L1-Jacobi sweep at level `k < boundary`: exchange the
/// iterate's halo, apply the owned row block, update the owned lanes.
fn smooth_dist(rr: &mut RankRun, k: usize) {
    halo_exchange(rr, k, HaloOp::AOnX);
    let h = rr.h;
    let ctx = ctx_at(rr, Phase::Solve, k);
    let rl = &rr.levels[k];
    let (lo, hi) = (rl.lo, rl.hi);
    let LevelBufs { x, b, ax, op, .. } = &mut rr.bufs[k];
    rl.a.spmv(&ctx, x, op, ax);
    let l1_diag_inv = &h.levels[k].l1_diag_inv[lo..hi];
    vec_ops::jacobi_fused(&ctx, l1_diag_inv, b, ax, &mut x[lo..hi]);
}

/// Record a non-finite value on this rank's owned lanes of level `k`.
fn check_finite_dist(rr: &mut RankRun, k: usize, stage: &'static str) {
    let (lo, hi) = (rr.levels[k].lo, rr.levels[k].hi);
    let lanes = &rr.bufs[k].x[lo..hi];
    rr.ws.check_finite(lanes, &rr.h.levels[k], k, stage);
}

/// Cycle dispatch: distributed above the boundary; in the gathered region
/// every rank runs the single-device cycle on the replicated vectors.
fn cycle_at(rr: &mut RankRun, k: usize, cycle: CycleType) {
    if k < rr.boundary {
        cycle_dist(rr, k, cycle);
        return;
    }
    let LevelBufs { x, b, .. } = &mut rr.bufs[k];
    vcycle(rr.dev, rr.cfg, rr.h, k, cycle, b, x, 1, &mut rr.ws);
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

    smooth_dist(rr, k);
    check_finite_dist(rr, k, "pre-smoothing");

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

    for &sub in cycle.coarse_visits() {
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

    smooth_dist(rr, k);
    check_finite_dist(rr, k, "post-smoothing");
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

/// The stationary outer loop: distributed cycles judged by the
/// single-device solver's [`Column`]. `bufs[0].b` holds the owned
/// right-hand side and `bufs[0].x` the zeroed full-length iterate.
///
/// The column sees only all-reduced norms, identical on every rank, so
/// every keep-cycling decision is too. The non-finite site it names is
/// this rank's own first sighting; the iterate is not scanned separately
/// (an owned-lane scan could differ between ranks).
fn run_stationary(rr: &mut RankRun) -> SolveReport {
    let dev = rr.dev;
    let ctx0 = ctx_at(rr, Phase::Solve, 0);
    let local = vec_ops::dot(&ctx0, &rr.bufs[0].b, &rr.bufs[0].b);
    let b_norm = allreduce(rr, local).sqrt();
    let initial = {
        let _span = dev.span(SpanKind::Region, SpanLabel::named("initial residual"));
        residual_norm_dist(rr)
    };
    let mut col = Column::new(rr.cfg, b_norm, initial, None);
    let mut health_events = Vec::new();
    let cycle = rr.cfg.cycle;
    for it in 0..rr.cfg.max_iterations {
        if !col.is_active() {
            break;
        }
        let _iter_span = dev.span(
            SpanKind::Iteration,
            SpanLabel::with("iteration", (it + 1) as u64),
        );
        cycle_at(rr, 0, cycle);
        let norm = residual_norm_dist(rr);
        let site = rr.ws.take_non_finite();
        col.judge_cycle(dev, rr.cfg, norm, false, site, &mut health_events);
    }
    col.report(health_events)
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
            emit_health(dev, ev, &mut health_events);
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
    h: &Hierarchy,
    parts: &[Partition],
    plans: &[LevelPlans],
    boundary: usize,
    interconnect: Interconnect,
    comm: LocalComm,
    b: &[f64],
    mode: DistMode,
) -> RankOut {
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
                amgt::pcg::pcg_solve(dev, cfg, h, b, &mut x, tol, max_iters)
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

    let mut bufs: Vec<LevelBufs> = (0..=boundary).map(|_| LevelBufs::default()).collect();
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
        comm,
        levels,
        bufs,
        ws: SolveWorkspace::for_hierarchy(h),
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
        .position(|l| l.n() <= GATHER_THRESHOLD)
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

        let (x, rep) = dist_solve(&cluster(4), &cfg, a, &b);
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
        let (_, r1) = dist_solve(&cluster(1), &cfg, a.clone(), &b);
        let (_, r8) = dist_solve(&cluster(8), &cfg, a, &b);
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
        let (_, rep) = dist_solve(&cluster(2), &cfg, a, &b);
        assert!(
            rep.solve_report.final_relative_residual() < 1e-5,
            "relres {}",
            rep.solve_report.final_relative_residual()
        );
    }
}
