//! The AMG solve phase (Algorithm 2): V-cycles with L1-Jacobi smoothing.
//!
//! Mirrors the paper's accounting exactly: per V-cycle each non-coarsest
//! level issues five SpMV calls (pre-smooth, residual, restrict,
//! interpolate, post-smooth, with the paper's `num_sweep = 1`), the
//! coarsest level relaxes with one more L1-Jacobi sweep (one SpMV), and
//! one extra SpMV per iteration evaluates the outer residual — 1601 calls
//! for a 7-level grid over 50 iterations (Section V.A).
//!
//! One code path solves one right-hand side or a batch of them. Every
//! cycle function takes a column-major block of `ncols` columns: each SpMV
//! of a batched cycle is one call of the mBSR driver over the block (which
//! streams each tile once per column chunk), and each vector op is one
//! launch over all columns, while a column's arithmetic stays that of a
//! solve of it alone. The outer loop tracks convergence per column. A
//! column that reaches `tolerance` (before the first cycle too) or fails
//! numerically leaves the active set. Until one leaves, the cycles run in
//! place on the caller's `b` and `x`; from then on, on a compact copy of
//! the remaining columns. [`solve`] is that loop at one column and
//! [`solve_batched`] at `b.ncols`.
//!
//! The pieces other drivers reuse are public: [`vcycle`] is one cycle from
//! any start level (PCG's preconditioner applies it from level 0, the
//! distributed driver runs its gathered coarse region through it), and
//! [`Column`] holds what judges one right-hand side between cycles.

use crate::backend::OpScratch;
use crate::config::{AmgConfig, CycleType};
use crate::diagnostics::{emit_health, ConvergenceMonitor, HealthThresholds, SolveOutcome};
use crate::hierarchy::{level_precision, Hierarchy, Level};
use crate::vec_ops;
use amgt_kernels::spmm_mbsr::MultiVector;
use amgt_kernels::Ctx;
use amgt_sim::{Device, HealthEvent, Phase, SpanKind, SpanLabel};

/// Reusable buffers for one level position of the cycle: every block the
/// cycle materializes at that level (smoother product, residual chain,
/// coarse correction) plus the kernel scratch.
/// Blocks hold as many columns as the cycle runs. Buffers grow
/// monotonically and are reused across iterations and solves.
#[derive(Clone, Debug, Default)]
pub struct LevelWorkspace {
    ax: Vec<f64>,
    r: Vec<f64>,
    b_next: Vec<f64>,
    x_next: Vec<f64>,
    e: Vec<f64>,
    op: OpScratch,
}

/// Outer-loop state of one right-hand side, and the rules that judge it
/// between cycles: the zero-`b` norm rule, the tolerance test before the
/// first cycle and after each one, the convergence monitor and its health
/// events, the history and the recorded residual.
///
/// [`solve`] and [`solve_batched`] keep one per column. The distributed
/// driver keeps one per solve and feeds it all-reduced norms, so every
/// rank takes the same decisions.
#[derive(Clone, Debug)]
pub struct Column {
    /// `||b||`, or 1 for a zero right-hand side.
    b_norm: f64,
    initial_norm: f64,
    final_norm: f64,
    /// Relative residual after the column's last cycle (before the first
    /// until one ran).
    rel: f64,
    /// Cycles run while the column was active.
    iterations: usize,
    converged: bool,
    monitor: ConvergenceMonitor,
    history: Vec<f64>,
    /// Column index stamped on recorded residuals and health events
    /// (batched solves only).
    stamp: Option<usize>,
}

impl Column {
    /// State before the first cycle, from `||b||` and the initial residual
    /// norm. A zero `b` is measured against 1. A column already within
    /// `cfg.tolerance` counts as converged and runs no cycle.
    pub fn new(cfg: &AmgConfig, b_norm: f64, initial_norm: f64, stamp: Option<usize>) -> Column {
        let b_norm = if b_norm == 0.0 { 1.0 } else { b_norm };
        let rel = initial_norm / b_norm;
        let thresholds = HealthThresholds::default();
        let monitor = match stamp {
            Some(j) => ConvergenceMonitor::for_column(thresholds, rel, j),
            None => ConvergenceMonitor::new(thresholds, rel),
        };
        Column {
            b_norm,
            initial_norm,
            final_norm: initial_norm,
            rel,
            iterations: 0,
            converged: within_tolerance(cfg, rel),
            monitor,
            history: Vec::with_capacity(cfg.max_iterations),
            stamp,
        }
    }

    /// True until the column converges or its monitor aborts the solve.
    pub fn is_active(&self) -> bool {
        !self.converged && !self.monitor.should_abort()
    }

    /// Judge the cycle just run from the residual norm after it. Records
    /// the relative residual in the history and the device's recorder and
    /// feeds the monitor. When the residual or the iterate
    /// (`x_non_finite`) went non-finite, the event names `site`, the
    /// cycle's first non-finite sighting, if there is one. Events without
    /// a level are attributed to the finest level. Returns whether the column keeps cycling.
    pub fn judge_cycle(
        &mut self,
        device: &Device,
        cfg: &AmgConfig,
        norm: f64,
        x_non_finite: bool,
        site: Option<NonFiniteSite>,
        health_events: &mut Vec<HealthEvent>,
    ) -> bool {
        self.final_norm = norm;
        self.rel = norm / self.b_norm;
        self.iterations += 1;
        self.history.push(self.rel);
        device.record_residual(self.iterations, self.stamp, self.rel);
        let event = match site {
            Some(site) if x_non_finite || !self.rel.is_finite() => {
                self.monitor.attribute_non_finite(
                    Some(site.level),
                    Some(site.precision),
                    format!("non-finite values after {}", site.stage),
                )
            }
            _ => self.monitor.observe(self.rel),
        };
        if let Some(mut ev) = event {
            // Divergence/stagnation fire at the outer residual check;
            // attribute them to the finest level and its active precision
            // so a post-mortem names the grid that failed.
            if ev.level.is_none() {
                ev.level = Some(0);
                ev.precision = Some(level_precision(device, cfg, 0).label());
            }
            emit_health(device, ev, health_events);
        }
        self.converged = !self.monitor.should_abort() && within_tolerance(cfg, self.rel);
        self.is_active()
    }

    /// The report of a one-column solve; takes the history.
    pub fn report(&mut self, health_events: Vec<HealthEvent>) -> SolveReport {
        SolveReport {
            iterations: self.iterations,
            initial_residual_norm: self.initial_norm,
            initial_relative_residual: self.initial_norm / self.b_norm,
            final_residual_norm: self.final_norm,
            history: std::mem::take(&mut self.history),
            converged: self.converged,
            outcome: self.monitor.outcome(self.converged),
            convergence_factor: self.monitor.geometric_factor(),
            health_events,
        }
    }
}

/// The outer tolerance test (`tolerance = 0` disables early exit).
fn within_tolerance(cfg: &AmgConfig, rel: f64) -> bool {
    cfg.tolerance > 0.0 && rel < cfg.tolerance
}

/// Preallocated solve-phase buffers for a hierarchy: one [`LevelWorkspace`]
/// per level, the outer-residual buffers, the compact batch and the
/// per-column state of the outer loop.
///
/// Create once (or keep alongside a cached hierarchy) and pass to
/// [`solve_with_workspace`] / [`solve_batched_with_workspace`]: after the
/// first iteration has grown every buffer, steady-state cycles perform no
/// heap allocation. All `_with_workspace` paths produce bitwise-identical
/// iterates to the allocating entry points.
#[derive(Clone, Debug, Default)]
pub struct SolveWorkspace {
    levels: Vec<LevelWorkspace>,
    outer: LevelWorkspace,
    /// Compact copies of `b` and `x` for the active columns, in use once a
    /// column has left the active set.
    bc: Vec<f64>,
    xc: Vec<f64>,
    /// Norms of the block the outer loop last reduced.
    norms: Vec<f64>,
    columns: Vec<Column>,
    /// Active columns, in the order the cycle's block holds them.
    active: Vec<usize>,
    /// First non-finite sighting since it was last taken.
    non_finite: Option<NonFiniteSite>,
}

impl SolveWorkspace {
    /// Workspace pre-sized for `h` (buffers still grow lazily on first use).
    pub fn for_hierarchy(h: &Hierarchy) -> SolveWorkspace {
        let mut ws = SolveWorkspace::default();
        ws.ensure(h);
        ws
    }

    /// Grow the per-level pool to cover `h`. Idempotent; never shrinks, so
    /// one workspace can serve hierarchies of different depths.
    pub fn ensure(&mut self, h: &Hierarchy) {
        if self.levels.len() < h.n_levels() {
            self.levels.resize_with(h.n_levels(), Default::default);
        }
    }

    /// Record the first non-finite sighting in `values`, the iterate of
    /// level `k` after `stage`. Checks run top-down, so the finest poisoned
    /// level wins: the level that *produced* the NaN, not the levels it
    /// propagated to. Pure CPU-side inspection of data the cycle already
    /// touched: it charges no simulated kernels, so kernel counts still
    /// match the paper's Section V.A formulas.
    pub fn check_finite(&mut self, values: &[f64], lvl: &Level, k: usize, stage: &'static str) {
        if self.non_finite.is_none() && values.iter().any(|v| !v.is_finite()) {
            self.non_finite = Some(NonFiniteSite {
                level: k as u32,
                precision: lvl.precision.label(),
                stage,
            });
        }
    }

    /// Take the first non-finite sighting recorded since the last take.
    pub fn take_non_finite(&mut self) -> Option<NonFiniteSite> {
        self.non_finite.take()
    }
}

/// Result of a solve.
#[derive(Clone, Debug)]
pub struct SolveReport {
    pub iterations: usize,
    pub initial_residual_norm: f64,
    /// `initial_residual_norm / ||b||` (`/ 1` for a zero `b`).
    pub initial_relative_residual: f64,
    pub final_residual_norm: f64,
    /// Relative residual after each V-cycle.
    pub history: Vec<f64>,
    pub converged: bool,
    /// Terminal classification, finer-grained than `converged`.
    pub outcome: SolveOutcome,
    /// Geometric-mean convergence factor over the executed cycles.
    pub convergence_factor: f64,
    /// Health incidents detected during the solve, in emission order.
    pub health_events: Vec<HealthEvent>,
}

impl SolveReport {
    /// Relative residual after the last cycle, or before the first when
    /// none ran.
    pub fn final_relative_residual(&self) -> f64 {
        self.history
            .last()
            .copied()
            .unwrap_or(self.initial_relative_residual)
    }
}

/// Where in a cycle a non-finite value was first seen (see
/// [`SolveWorkspace::check_finite`]).
#[derive(Clone, Copy, Debug)]
pub struct NonFiniteSite {
    level: u32,
    precision: &'static str,
    stage: &'static str,
}

/// One L1-Jacobi sweep over a block of `ncols` columns: one SpMV plus a
/// fused vector update (the paper's accounting).
fn smooth(ctx: &Ctx, lvl: &Level, b: &[f64], x: &mut [f64], ncols: usize, lw: &mut LevelWorkspace) {
    lvl.a.apply_into(ctx, x, ncols, &mut lw.op, &mut lw.ax);
    vec_ops::jacobi_fused(ctx, &lvl.l1_diag_inv, b, &lw.ax, x);
}

/// One multigrid cycle of shape `cycle` over a block of `ncols` columns,
/// starting at level `k` with the right-hand side `b` and the iterate `x`
/// of that level (Algorithm 2 for V; W and F visit coarse levels more than
/// once). `cfg` supplies the kernel policy and execution backend. The
/// first non-finite value the cycle produces is
/// recorded in `ws` (see [`SolveWorkspace::take_non_finite`]).
#[allow(clippy::too_many_arguments)]
pub fn vcycle(
    device: &Device,
    cfg: &AmgConfig,
    h: &Hierarchy,
    k: usize,
    cycle: CycleType,
    b: &[f64],
    x: &mut [f64],
    ncols: usize,
    ws: &mut SolveWorkspace,
) {
    ws.ensure(h);
    let _level_span = device.span(SpanKind::Level, SpanLabel::with("level", k as u64));
    let lvl = &h.levels[k];
    let ctx = Ctx::new(device, Phase::Solve, k as u32, lvl.precision)
        .with_policy(cfg.policy)
        .with_exec(cfg.exec);
    // Detach this level's buffers so the recursion below can borrow the
    // pool for the coarser levels; reattached on every exit path.
    let mut lw = std::mem::take(&mut ws.levels[k]);
    if k + 1 == h.n_levels() {
        // Coarsest level (Algorithm 2, line 6): one L1-Jacobi sweep.
        smooth(&ctx, lvl, b, x, ncols, &mut lw);
        ws.check_finite(x, lvl, k, "coarse solve");
        ws.levels[k] = lw;
        return;
    }

    // Pre-smoothing: one sweep (the paper's `num_sweep = 1`).
    smooth(&ctx, lvl, b, x, ncols, &mut lw);
    // Non-finite check *before* recursing: a NaN born here would otherwise
    // propagate down the restricted residual and be misattributed to the
    // coarsest level on unwind.
    ws.check_finite(x, lvl, k, "pre-smoothing");

    // Residual and restriction.
    lvl.a.apply_into(&ctx, x, ncols, &mut lw.op, &mut lw.ax);
    vec_ops::sub_into(&ctx, b, &lw.ax, &mut lw.r);
    let restriction = lvl.r.as_ref().expect("non-coarsest level has R");
    restriction.apply_into(&ctx, &lw.r, ncols, &mut lw.op, &mut lw.b_next);

    // Recurse with a zero initial guess (the reused buffer must be
    // re-zeroed: it carries the previous cycle's correction); W/F recurse
    // twice per level, the second visit continuing from the first.
    lw.x_next.clear();
    lw.x_next.resize(lw.b_next.len(), 0.0);
    for &sub in cycle.coarse_visits() {
        vcycle(
            device,
            cfg,
            h,
            k + 1,
            sub,
            &lw.b_next,
            &mut lw.x_next,
            ncols,
            ws,
        );
    }

    // Interpolation and correction.
    let p = lvl.p.as_ref().expect("non-coarsest level has P");
    p.apply_into(&ctx, &lw.x_next, ncols, &mut lw.op, &mut lw.e);
    vec_ops::axpy(&ctx, 1.0, &lw.e, x);

    // Post-smoothing: one sweep.
    smooth(&ctx, lvl, b, x, ncols, &mut lw);
    ws.check_finite(x, lvl, k, "post-smoothing");
    ws.levels[k] = lw;
}

/// Copy the columns `idx` of the column-major `src` (columns of `n` rows)
/// into a compact block in `out`.
fn gather_columns(src: &[f64], n: usize, idx: &[usize], out: &mut Vec<f64>) {
    out.resize(idx.len() * n, 0.0);
    for (c, &j) in idx.iter().enumerate() {
        out[c * n..(c + 1) * n].copy_from_slice(&src[j * n..(j + 1) * n]);
    }
}

/// The outer loop shared by [`solve_with_workspace`] and
/// [`solve_batched_with_workspace`]: cycles over the column-major block
/// `b`/`x` of `ncols` right-hand sides until every column has converged,
/// failed numerically or run out of cycles (see the module docs). Returns
/// the number of cycles run and leaves each column's results in
/// `ws.columns`. The entry point names the phase span (`label`) and says
/// whether health events and residuals carry their column (`stamp_columns`).
#[allow(clippy::too_many_arguments)]
fn solve_columns(
    device: &Device,
    cfg: &AmgConfig,
    h: &Hierarchy,
    b: &[f64],
    x: &mut [f64],
    ncols: usize,
    ws: &mut SolveWorkspace,
    label: &'static str,
    stamp_columns: bool,
    health_events: &mut Vec<HealthEvent>,
) -> usize {
    ws.ensure(h);
    let n = h.finest().n();
    let a = &h.finest().a;
    let ctx0 = Ctx::new(device, Phase::Solve, 0, h.finest().precision)
        .with_policy(cfg.policy)
        .with_exec(cfg.exec);
    let _phase_span = device.span(SpanKind::Phase, SpanLabel::named(label));

    ws.norms.resize(2 * ncols, 0.0);
    let (b_norms, r_norms) = ws.norms.split_at_mut(ncols);
    vec_ops::norms2(&ctx0, b, b_norms);
    // Initial residual (the paper's "+1" SpMV).
    {
        let _span = device.span(SpanKind::Region, SpanLabel::named("initial residual"));
        a.apply_into(&ctx0, x, ncols, &mut ws.outer.op, &mut ws.outer.ax);
        vec_ops::sub_into(&ctx0, b, &ws.outer.ax, &mut ws.outer.r);
        vec_ops::norms2(&ctx0, &ws.outer.r, r_norms);
    }
    ws.columns.clear();
    ws.active.clear();
    for (j, (&b_norm, &initial)) in b_norms.iter().zip(r_norms.iter()).enumerate() {
        let col = Column::new(cfg, b_norm, initial, stamp_columns.then_some(j));
        // A column already within tolerance never enters a cycle.
        if col.is_active() {
            ws.active.push(j);
        }
        ws.columns.push(col);
    }

    let mut compact = false;
    let mut iterations = 0usize;
    for it in 0..cfg.max_iterations {
        let na = ws.active.len();
        if na == 0 {
            break;
        }
        if !compact && na < ncols {
            gather_columns(b, n, &ws.active, &mut ws.bc);
            gather_columns(x, n, &ws.active, &mut ws.xc);
            compact = true;
        }
        let _iter_span = device.span(
            SpanKind::Iteration,
            SpanLabel::with("iteration", (it + 1) as u64),
        );
        // Detached from the pool so the cycle below can borrow `ws`.
        let mut bc = std::mem::take(&mut ws.bc);
        let mut xc = std::mem::take(&mut ws.xc);
        ws.non_finite = None;
        {
            let (bb, xx): (&[f64], &mut [f64]) = if compact {
                (&bc[..na * n], &mut xc[..na * n])
            } else {
                (b, &mut *x)
            };
            vcycle(device, cfg, h, 0, cfg.cycle, bb, xx, na, ws);
            // Residual after the cycle (one SpMV per iteration).
            a.apply_into(&ctx0, xx, na, &mut ws.outer.op, &mut ws.outer.ax);
            vec_ops::sub_into(&ctx0, bb, &ws.outer.ax, &mut ws.outer.r);
            ws.norms.resize(na, 0.0);
            vec_ops::norms2(&ctx0, &ws.outer.r, &mut ws.norms);
        }
        iterations += 1;

        // Columns that stay active move to the front of the block. A
        // poisoned cycle fails the columns whose data actually went
        // non-finite, with the level attribution from the cycle's own
        // checks.
        let site = ws.non_finite.take();
        let mut kept = 0;
        for c in 0..na {
            let j = ws.active[c];
            let x_col = if compact {
                &xc[c * n..(c + 1) * n]
            } else {
                &x[j * n..(j + 1) * n]
            };
            let x_non_finite = x_col.iter().any(|v| !v.is_finite());
            let norm = ws.norms[c];
            if !ws.columns[j].judge_cycle(device, cfg, norm, x_non_finite, site, health_events) {
                if compact {
                    x[j * n..(j + 1) * n].copy_from_slice(&xc[c * n..(c + 1) * n]);
                }
            } else {
                if compact && kept != c {
                    bc.copy_within(c * n..(c + 1) * n, kept * n);
                    xc.copy_within(c * n..(c + 1) * n, kept * n);
                }
                ws.active[kept] = j;
                kept += 1;
            }
        }
        ws.active.truncate(kept);
        ws.bc = bc;
        ws.xc = xc;
    }
    if compact {
        for (c, &j) in ws.active.iter().enumerate() {
            x[j * n..(j + 1) * n].copy_from_slice(&ws.xc[c * n..(c + 1) * n]);
        }
    }
    iterations
}

/// Run the solve phase: `max_iterations` V-cycles (with early exit on
/// `tolerance`, checked before the first cycle too), tracking the relative
/// residual after each cycle.
pub fn solve(
    device: &Device,
    cfg: &AmgConfig,
    h: &Hierarchy,
    b: &[f64],
    x: &mut Vec<f64>,
) -> SolveReport {
    let mut ws = SolveWorkspace::for_hierarchy(h);
    solve_with_workspace(device, cfg, h, b, x, &mut ws)
}

/// [`solve`] with caller-owned buffers: bitwise-identical iterates and
/// identical kernel charges, but all per-cycle vectors come from `ws`.
/// Reusing one workspace across repeated solves of one hierarchy makes the
/// steady-state solve phase allocation-free. The cycles run in place on
/// `b` and `x`, on a worker of the global pool
/// ([`amgt_exec::par::on_pool`]).
pub fn solve_with_workspace(
    device: &Device,
    cfg: &AmgConfig,
    h: &Hierarchy,
    b: &[f64],
    x: &mut Vec<f64>,
    ws: &mut SolveWorkspace,
) -> SolveReport {
    let n = h.finest().n();
    assert_eq!(b.len(), n);
    if x.len() != n {
        x.resize(n, 0.0);
    }
    let mut health_events = Vec::new();
    amgt_exec::par::on_pool(|| {
        solve_columns(
            device,
            cfg,
            h,
            b,
            x,
            1,
            ws,
            "solve",
            false,
            &mut health_events,
        )
    });
    ws.columns[0].report(health_events)
}

/// Result of a batched multi-RHS solve.
#[derive(Clone, Debug)]
pub struct BatchedSolveReport {
    /// Number of right-hand sides solved together.
    pub ncols: usize,
    /// V-cycles executed (the slowest column's count).
    pub iterations: usize,
    /// Per-column convergence flag.
    pub converged: Vec<bool>,
    /// Per-column cycle count at which the column left the active set
    /// (equals `iterations` for columns that never converged).
    pub column_iterations: Vec<usize>,
    /// Per-column final relative residual.
    pub final_relative_residuals: Vec<f64>,
    /// Per-column relative residual after each cycle the column was active
    /// in — the batched mirror of [`SolveReport::history`]. Column `j`'s
    /// history has `column_iterations[j]` entries.
    pub column_histories: Vec<Vec<f64>>,
    /// Per-column terminal classification — distinguishes "hit the
    /// iteration budget" from "diverged / went non-finite".
    pub column_outcomes: Vec<SolveOutcome>,
    /// Per-column geometric-mean convergence factor.
    pub column_convergence_factors: Vec<f64>,
    /// Health incidents across all columns, each stamped with its column.
    pub health_events: Vec<HealthEvent>,
}

impl BatchedSolveReport {
    pub fn all_converged(&self) -> bool {
        self.converged.iter().all(|&c| c)
    }

    /// True when no column diverged or went non-finite (columns may still
    /// have merely run out of iterations).
    pub fn all_numerically_healthy(&self) -> bool {
        self.column_outcomes
            .iter()
            .all(|o| !o.is_numerical_failure())
    }
}

/// Solve `A X = B` for a batch of right-hand sides over one hierarchy.
///
/// All columns advance through the same V-cycles, so every SpMV covers the
/// whole batch; convergence is tracked **per column**, and each column's
/// iterates are bitwise those of [`solve`] on it alone. Columns that reach
/// `cfg.tolerance` leave the active set (early-exit masking), and later
/// cycles only pay for the still-active columns.
pub fn solve_batched(
    device: &Device,
    cfg: &AmgConfig,
    h: &Hierarchy,
    b: &MultiVector,
    x: &mut MultiVector,
) -> BatchedSolveReport {
    let mut ws = SolveWorkspace::for_hierarchy(h);
    solve_batched_with_workspace(device, cfg, h, b, x, &mut ws)
}

/// [`solve_batched`] with caller-owned buffers (see
/// [`solve_with_workspace`]): bitwise-identical per-column iterates,
/// identical charges, reusable batch staging and per-level blocks. Runs
/// on a worker of the global pool like [`solve_with_workspace`].
pub fn solve_batched_with_workspace(
    device: &Device,
    cfg: &AmgConfig,
    h: &Hierarchy,
    b: &MultiVector,
    x: &mut MultiVector,
    ws: &mut SolveWorkspace,
) -> BatchedSolveReport {
    let n = h.finest().n();
    assert_eq!(b.nrows, n, "RHS size mismatch");
    let ncols = b.ncols;
    if x.nrows != n || x.ncols != ncols {
        *x = MultiVector::zeros(n, ncols);
    }
    let mut health_events = Vec::new();
    let iterations = amgt_exec::par::on_pool(|| {
        solve_columns(
            device,
            cfg,
            h,
            &b.data,
            &mut x.data,
            ncols,
            ws,
            "solve batched",
            true,
            &mut health_events,
        )
    });
    let cols = &mut ws.columns;
    BatchedSolveReport {
        ncols,
        iterations,
        converged: cols.iter().map(|c| c.converged).collect(),
        column_iterations: cols.iter().map(|c| c.iterations).collect(),
        final_relative_residuals: cols.iter().map(|c| c.rel).collect(),
        column_histories: cols
            .iter_mut()
            .map(|c| std::mem::take(&mut c.history))
            .collect(),
        column_outcomes: cols
            .iter()
            .map(|c| c.monitor.outcome(c.converged))
            .collect(),
        column_convergence_factors: cols.iter().map(|c| c.monitor.geometric_factor()).collect(),
        health_events,
    }
}

/// Expected SpMV calls for a solve: the paper's Section V.A formula
/// `iterations * (5 (levels - 1) + 2) + 1`.
pub fn expected_spmv_calls(levels: usize, iterations: usize) -> usize {
    // Per cycle: five SpMVs on each non-coarsest level, one for the
    // coarsest level's sweep and one outer residual; plus the initial
    // residual.
    iterations * (5 * (levels - 1) + 2) + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AmgConfig;
    use crate::hierarchy::setup;
    use amgt_sim::{Device, GpuSpec, KernelKind};
    use amgt_sparse::gen::{laplacian_2d, laplacian_3d, rhs_of_ones, Stencil2d, Stencil3d};

    fn run(cfg: &AmgConfig, a: amgt_sparse::Csr) -> (Device, SolveReport, usize) {
        let dev = Device::new(GpuSpec::a100());
        let b = rhs_of_ones(&a);
        let h = setup(&dev, cfg, a);
        let solve_start = dev.events().len();
        let mut x = vec![0.0; b.len()];
        let rep = solve(&dev, cfg, &h, &b, &mut x);
        let spmv = dev.events()[solve_start..]
            .iter()
            .filter(|e| e.kind == KernelKind::SpMV)
            .count();
        // Solution should approach all-ones.
        if rep.final_relative_residual() < 1e-8 {
            for &xi in &x {
                assert!((xi - 1.0).abs() < 1e-5, "x = {xi}");
            }
        }
        (dev, rep, spmv)
    }

    #[test]
    fn amg_converges_on_2d_laplacian() {
        let mut cfg = AmgConfig::amgt_fp64();
        cfg.max_iterations = 30;
        let a = laplacian_2d(24, 24, Stencil2d::Five);
        let (_, rep, _) = run(&cfg, a);
        assert!(
            rep.final_relative_residual() < 1e-7,
            "relres {}",
            rep.final_relative_residual()
        );
        // Convergence history: one entry per executed cycle, ending at the
        // reported final relative residual, and decreasing overall.
        assert_eq!(rep.history.len(), rep.iterations);
        assert_eq!(
            rep.history.last().copied().unwrap(),
            rep.final_relative_residual()
        );
        assert!(rep.history.last().unwrap() < &rep.history[0]);
        assert!(rep.history.iter().all(|r| r.is_finite() && *r >= 0.0));
    }

    #[test]
    fn amg_converges_on_3d_laplacian() {
        let mut cfg = AmgConfig::amgt_fp64();
        cfg.max_iterations = 30;
        let a = laplacian_3d(8, 8, 8, Stencil3d::Seven);
        let (_, rep, _) = run(&cfg, a);
        assert!(
            rep.final_relative_residual() < 1e-6,
            "relres {}",
            rep.final_relative_residual()
        );
    }

    #[test]
    fn vendor_and_amgt_converge_identically_in_fp64() {
        let a = laplacian_2d(16, 16, Stencil2d::Five);
        let mut cv = AmgConfig::hypre_fp64();
        cv.max_iterations = 10;
        let mut ct = AmgConfig::amgt_fp64();
        ct.max_iterations = 10;
        let (_, rv, _) = run(&cv, a.clone());
        let (_, rt, _) = run(&ct, a);
        for (a, b) in rv.history.iter().zip(&rt.history) {
            assert!((a - b).abs() / a.max(1e-30) < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn mixed_precision_still_converges() {
        let a = laplacian_2d(20, 20, Stencil2d::Five);
        let mut cfg = AmgConfig::amgt_mixed();
        cfg.max_iterations = 40;
        let (_, rep, _) = run(&cfg, a);
        assert!(
            rep.final_relative_residual() < 1e-6,
            "mixed relres {}",
            rep.final_relative_residual()
        );
    }

    #[test]
    fn spmv_count_matches_paper_formula() {
        let a = laplacian_2d(20, 20, Stencil2d::Five);
        let mut cfg = AmgConfig::amgt_fp64();
        cfg.max_iterations = 7;
        let dev = Device::new(GpuSpec::a100());
        let b = rhs_of_ones(&a);
        let h = setup(&dev, &cfg, a);
        let solve_start = dev.events().len();
        let mut x = vec![0.0; b.len()];
        solve(&dev, &cfg, &h, &b, &mut x);
        let spmv = dev.events()[solve_start..]
            .iter()
            .filter(|e| e.kind == KernelKind::SpMV)
            .count();
        let expect = expected_spmv_calls(h.n_levels(), cfg.max_iterations);
        assert_eq!(spmv, expect, "levels {}", h.n_levels());
    }

    #[test]
    fn paper_formula_values() {
        // Section V.A: 7 levels, 50 iterations, one coarse sweep -> 1601.
        assert_eq!(expected_spmv_calls(7, 50), 1601);
        // Table II: 2-level matrices report 351.
        assert_eq!(expected_spmv_calls(2, 50), 351);
        // 3 levels -> 601.
        assert_eq!(expected_spmv_calls(3, 50), 601);
    }

    #[test]
    fn tolerance_early_exit() {
        let mut cfg = AmgConfig::amgt_fp64();
        cfg.tolerance = 1e-4;
        cfg.max_iterations = 50;
        let a = laplacian_2d(16, 16, Stencil2d::Five);
        let (_, rep, _) = run(&cfg, a);
        assert!(rep.converged);
        assert!(rep.iterations < 50);
    }

    #[test]
    fn batched_solve_bitwise_matches_serial_columns() {
        // Each column of the batch must follow the exact arithmetic path a
        // standalone solve of that column takes (spmm is bitwise-equal to
        // per-column spmv, and the MV vector ops reuse the scalar order).
        let a = laplacian_2d(14, 14, Stencil2d::Five);
        let mut cfg = AmgConfig::amgt_fp64();
        cfg.max_iterations = 6;
        cfg.tolerance = 0.0;
        let dev = Device::new(GpuSpec::a100());
        let h = setup(&dev, &cfg, a.clone());
        let n = a.nrows();
        let cols: Vec<Vec<f64>> = (0..5)
            .map(|j| (0..n).map(|i| ((i * (j + 2)) as f64).sin()).collect())
            .collect();
        let b = amgt_kernels::spmm_mbsr::MultiVector::from_columns(&cols);
        let mut x = amgt_kernels::spmm_mbsr::MultiVector::zeros(n, cols.len());
        let rep = solve_batched(&dev, &cfg, &h, &b, &mut x);
        assert_eq!(rep.iterations, 6);
        for (j, col) in cols.iter().enumerate() {
            let mut xs = vec![0.0; n];
            solve(&dev, &cfg, &h, col, &mut xs);
            for i in 0..n {
                assert_eq!(
                    x.get(i, j).to_bits(),
                    xs[i].to_bits(),
                    "col {j} row {i}: {} vs {}",
                    x.get(i, j),
                    xs[i]
                );
            }
        }
    }

    /// `solve` is the batched loop at one column: a one-column
    /// `solve_batched` gives the same iterate bits and the same ledger, on
    /// CUDA-core and tensor-core levels, at FP64 and mixed precision, for
    /// V/W/F cycles, under both execution backends.
    #[test]
    fn solve_matches_one_column_batched_solve_bits_and_ledger() {
        use amgt_kernels::spmv_mbsr::SpmvPath;
        use amgt_kernels::ExecMode;
        use amgt_sparse::gen::{elasticity_3d, NeighborSet};
        let matrices = [
            (laplacian_2d(16, 16, Stencil2d::Five), SpmvPath::CudaCore),
            (
                elasticity_3d(3, 3, 3, 4, NeighborSet::Face, 1),
                SpmvPath::TensorCore,
            ),
        ];
        for (a, path) in matrices {
            let n = a.nrows();
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 0.5).collect();
            for base in [AmgConfig::amgt_fp64(), AmgConfig::amgt_mixed()] {
                let h = setup(&Device::new(GpuSpec::a100()), &base, a.clone());
                assert_eq!(h.levels[0].a.plan.as_ref().unwrap().path, path);
                for exec in [ExecMode::Simulated, ExecMode::Native] {
                    for cycle in [CycleType::V, CycleType::W, CycleType::F] {
                        let mut cfg = base.clone();
                        cfg.exec = exec;
                        cfg.cycle = cycle;
                        cfg.max_iterations = 4;
                        let what = format!("{path:?} {:?} {exec:?} {cycle:?}", cfg.precision);
                        let dev_s = Device::new(GpuSpec::a100());
                        let mut xs = vec![0.0; n];
                        let rep = solve(&dev_s, &cfg, &h, &b, &mut xs);
                        let dev_b = Device::new(GpuSpec::a100());
                        let bm = MultiVector::from_columns(std::slice::from_ref(&b));
                        let mut xb = MultiVector::zeros(n, 1);
                        let brep = solve_batched(&dev_b, &cfg, &h, &bm, &mut xb);
                        assert_eq!(rep.iterations, brep.iterations, "{what}");
                        assert_eq!(rep.history, brep.column_histories[0], "{what}");
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&xs), bits(&xb.data), "{what}: x bits");
                        let ledger = |d: &Device| {
                            d.events()
                                .iter()
                                .map(|e| {
                                    let id = (e.kind, e.algo, e.phase, e.level, e.precision);
                                    (id, e.seconds.to_bits())
                                })
                                .collect::<Vec<_>>()
                        };
                        assert_eq!(ledger(&dev_s), ledger(&dev_b), "{what}: ledger");
                    }
                }
            }
        }
    }

    /// A system already within tolerance runs no cycle, as a batched
    /// column does, and reports its initial relative residual.
    #[test]
    fn solve_within_tolerance_before_the_first_cycle_runs_none() {
        let a = laplacian_2d(16, 16, Stencil2d::Five);
        let mut cfg = AmgConfig::amgt_fp64();
        cfg.tolerance = 1e-8;
        let dev = Device::new(GpuSpec::a100());
        let h = setup(&dev, &cfg, a.clone());
        let x0: Vec<f64> = (0..a.nrows()).map(|i| (i as f64 * 0.1).cos()).collect();
        let b = a.matvec(&x0);
        let mut x = x0.clone();
        let rep = solve(&dev, &cfg, &h, &b, &mut x);
        assert_eq!(rep.iterations, 0);
        assert!(rep.converged);
        assert_eq!(rep.outcome, crate::diagnostics::SolveOutcome::Converged);
        assert!(rep.history.is_empty());
        assert_eq!(rep.final_residual_norm, rep.initial_residual_norm);
        let b_norm = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        let initial_rel = rep.initial_residual_norm / b_norm;
        assert!(
            (rep.final_relative_residual() - initial_rel).abs() <= 1e-12 * initial_rel,
            "{} vs {initial_rel}",
            rep.final_relative_residual()
        );
        assert_eq!(rep.final_relative_residual(), rep.initial_relative_residual);
        assert!(rep.final_relative_residual() < cfg.tolerance);
        assert_eq!(x, x0, "no cycle touched x");
    }

    #[test]
    fn batched_solve_early_exit_masks_converged_columns() {
        let a = laplacian_2d(16, 16, Stencil2d::Five);
        let mut cfg = AmgConfig::amgt_fp64();
        cfg.max_iterations = 40;
        cfg.tolerance = 1e-8;
        let dev = Device::new(GpuSpec::a100());
        let h = setup(&dev, &cfg, a.clone());
        let n = a.nrows();
        // An easy column (already nearly the solution's image) next to
        // harder ones: the easy column must exit in fewer cycles.
        let ones = vec![1.0; n];
        let easy = a.matvec(&ones);
        let hard: Vec<f64> = (0..n)
            .map(|i| if i % 7 == 0 { 1.0 } else { -0.25 })
            .collect();
        let b = amgt_kernels::spmm_mbsr::MultiVector::from_columns(&[easy, hard]);
        let mut x = amgt_kernels::spmm_mbsr::MultiVector::zeros(n, 2);
        let rep = solve_batched(&dev, &cfg, &h, &b, &mut x);
        assert!(
            rep.all_converged(),
            "residuals {:?}",
            rep.final_relative_residuals
        );
        for r in &rep.final_relative_residuals {
            assert!(*r < 1e-8);
        }
        assert!(
            rep.column_iterations[0] <= rep.column_iterations[1],
            "easy {} vs hard {}",
            rep.column_iterations[0],
            rep.column_iterations[1]
        );
        assert_eq!(rep.iterations, *rep.column_iterations.iter().max().unwrap());
        // Per-column histories mirror the scalar SolveReport history: one
        // entry per cycle the column was active in, ending under tolerance.
        for (j, hist) in rep.column_histories.iter().enumerate() {
            assert_eq!(hist.len(), rep.column_iterations[j], "col {j}");
            assert_eq!(
                hist.last().copied().unwrap(),
                rep.final_relative_residuals[j],
                "col {j}"
            );
            assert!(hist.last().unwrap() < &1e-8, "col {j}");
        }
        // The easy column stopped accruing history once it converged.
        assert!(rep.column_histories[0].len() <= rep.column_histories[1].len());
    }

    #[test]
    fn healthy_solve_reports_converged_outcome_and_factor() {
        let mut cfg = AmgConfig::amgt_fp64();
        cfg.tolerance = 1e-8;
        cfg.max_iterations = 50;
        let a = laplacian_2d(20, 20, Stencil2d::Five);
        let (_, rep, _) = run(&cfg, a);
        assert!(rep.converged);
        assert_eq!(rep.outcome, crate::diagnostics::SolveOutcome::Converged);
        assert!(rep.health_events.is_empty(), "{:?}", rep.health_events);
        assert!(
            rep.convergence_factor > 0.0 && rep.convergence_factor < 1.0,
            "factor {}",
            rep.convergence_factor
        );
    }

    #[test]
    fn nan_in_level3_fp16_operator_reports_nonfinite_with_level() {
        use amgt_sim::{HealthEventKind, Precision};
        // Mixed precision on A100: level 0 FP64, 1 FP32, >= 2 FP16. Build a
        // deep enough hierarchy, then poison the level-3 operator the way a
        // bad FP16 quantization would: in the mBSR tiles the AmgT SpMV
        // actually reads (and the CSR image, to keep both in sync).
        let a = laplacian_2d(96, 96, Stencil2d::Five);
        let mut cfg = AmgConfig::amgt_mixed();
        // Coarse Galerkin operators are strongly diagonally dominant; the
        // paper's max_row_sum = 0.8 filter stops coarsening at 3 levels.
        // Disable it so the hierarchy is deep enough to have a level 3.
        cfg.max_row_sum = 1.0;
        cfg.max_iterations = 30;
        cfg.tolerance = 1e-10;
        let dev = Device::new(GpuSpec::a100());
        let b = rhs_of_ones(&a);
        let mut h = setup(&dev, &cfg, a);
        assert!(h.n_levels() >= 4, "need a level 3, got {}", h.n_levels());
        let lvl = &mut h.levels[3];
        assert_eq!(lvl.precision, Precision::Fp16);
        lvl.a.csr.vals[0] = f64::NAN;
        if let Some(m) = lvl.a.mbsr.as_mut() {
            m.blc_val[0] = f64::NAN;
        }

        let mut x = vec![0.0; b.len()];
        let rep = solve(&dev, &cfg, &h, &b, &mut x);
        // Aborts on the first poisoned cycle instead of looping to 30.
        assert_eq!(rep.iterations, 1, "history {:?}", rep.history);
        assert_eq!(rep.outcome, crate::diagnostics::SolveOutcome::NonFinite);
        assert!(!rep.converged);
        let ev = rep
            .health_events
            .iter()
            .find(|e| e.kind == HealthEventKind::NonFinite)
            .expect("NonFinite event emitted");
        assert_eq!(ev.level, Some(3), "first poisoned level wins: {ev:?}");
        assert_eq!(ev.precision, Some("FP16"));
        assert_eq!(ev.iteration, 1);
    }

    /// 2D Laplacian shifted to negative definiteness: eigenvalues of the
    /// stencil lie in (0, 8), so `A = L - 9 I` has all-negative spectrum
    /// while the L1 diagonal stays positive (|-5| + 4 = 9 interior). The
    /// L1-Jacobi iteration matrix `I - D^{-1} A` then has eigenvalues
    /// `1 - lambda/9 > 1`: guaranteed divergence.
    fn negative_definite_matrix(nx: usize) -> amgt_sparse::Csr {
        let base = laplacian_2d(nx, nx, Stencil2d::Five);
        let mut shift = amgt_sparse::Csr::identity(base.nrows());
        for v in shift.vals.iter_mut() {
            *v = -9.0;
        }
        base.add(&shift)
    }

    #[test]
    fn negative_definite_matrix_diverges_under_l1_jacobi() {
        use amgt_sim::HealthEventKind;
        let a = negative_definite_matrix(12);
        let mut cfg = AmgConfig::amgt_fp64();
        cfg.max_levels = 1; // Pure smoother iteration, no coarse correction.
        cfg.max_iterations = 50;
        cfg.tolerance = 1e-10;
        let dev = Device::new(GpuSpec::a100());
        let b = rhs_of_ones(&a);
        let h = setup(&dev, &cfg, a);
        let mut x = vec![0.0; b.len()];
        let rep = solve(&dev, &cfg, &h, &b, &mut x);
        assert!(!rep.converged);
        assert_eq!(rep.outcome, crate::diagnostics::SolveOutcome::Diverged);
        assert!(
            rep.iterations < 50,
            "divergence aborts early, ran {}",
            rep.iterations
        );
        let ev = rep
            .health_events
            .iter()
            .find(|e| e.kind == HealthEventKind::Divergence)
            .expect("Divergence event emitted");
        assert!(ev.factor > 1.0, "growing residual factor: {}", ev.factor);
        assert!(rep.convergence_factor > 1.0);
        // The residual really did blow up.
        assert!(rep.final_relative_residual() > 1e3);
    }

    #[test]
    fn solve_emits_health_events_to_installed_recorder() {
        use amgt_sim::{HealthEventKind, Recorder};
        use std::sync::Arc;
        let a = negative_definite_matrix(10);
        let mut cfg = AmgConfig::amgt_fp64();
        cfg.max_levels = 1;
        cfg.max_iterations = 50;
        cfg.tolerance = 1e-10;
        let dev = Device::new(GpuSpec::a100());
        let b = rhs_of_ones(&a);
        let h = setup(&dev, &cfg, a);
        let recorder = Arc::new(Recorder::new());
        dev.install_recorder(recorder.clone());
        let mut x = vec![0.0; b.len()];
        let rep = solve(&dev, &cfg, &h, &b, &mut x);
        dev.remove_recorder();
        let rec = recorder.take();
        // The same events land in the report and the trace recording.
        assert_eq!(rec.health.len(), rep.health_events.len());
        assert!(rec
            .health
            .iter()
            .any(|e| e.kind == HealthEventKind::Divergence));
    }

    #[test]
    fn batched_solve_classifies_columns_with_outcomes() {
        // Healthy batch: every column converges and says so.
        let a = laplacian_2d(16, 16, Stencil2d::Five);
        let mut cfg = AmgConfig::amgt_fp64();
        cfg.max_iterations = 40;
        cfg.tolerance = 1e-8;
        let dev = Device::new(GpuSpec::a100());
        let h = setup(&dev, &cfg, a.clone());
        let n = a.nrows();
        let cols: Vec<Vec<f64>> = (0..3)
            .map(|j| (0..n).map(|i| ((i + j) as f64).cos()).collect())
            .collect();
        let b = amgt_kernels::spmm_mbsr::MultiVector::from_columns(&cols);
        let mut x = amgt_kernels::spmm_mbsr::MultiVector::zeros(n, 3);
        let rep = solve_batched(&dev, &cfg, &h, &b, &mut x);
        assert!(rep.all_converged());
        assert!(rep.all_numerically_healthy());
        assert_eq!(rep.column_outcomes.len(), 3);
        for (j, o) in rep.column_outcomes.iter().enumerate() {
            assert_eq!(*o, crate::diagnostics::SolveOutcome::Converged, "col {j}");
            assert!(rep.column_convergence_factors[j] < 1.0);
        }
        assert!(rep.health_events.is_empty());
    }

    #[test]
    fn batched_solve_flags_diverging_columns() {
        use amgt_sim::HealthEventKind;
        let a = negative_definite_matrix(10);
        let mut cfg = AmgConfig::amgt_fp64();
        cfg.max_levels = 1;
        cfg.max_iterations = 50;
        cfg.tolerance = 1e-10;
        let dev = Device::new(GpuSpec::a100());
        let h = setup(&dev, &cfg, a.clone());
        let n = a.nrows();
        let cols: Vec<Vec<f64>> = (0..2)
            .map(|j| (0..n).map(|i| ((i * (j + 1)) as f64).sin() + 1.0).collect())
            .collect();
        let b = amgt_kernels::spmm_mbsr::MultiVector::from_columns(&cols);
        let mut x = amgt_kernels::spmm_mbsr::MultiVector::zeros(n, 2);
        let rep = solve_batched(&dev, &cfg, &h, &b, &mut x);
        assert!(!rep.all_numerically_healthy());
        for (j, o) in rep.column_outcomes.iter().enumerate() {
            assert_eq!(*o, crate::diagnostics::SolveOutcome::Diverged, "col {j}");
        }
        // Events are stamped with their column; diverged columns left the
        // active set early.
        let div_cols: Vec<usize> = rep
            .health_events
            .iter()
            .filter(|e| e.kind == HealthEventKind::Divergence)
            .filter_map(|e| e.column)
            .collect();
        assert_eq!(div_cols.len(), 2);
        assert!(div_cols.contains(&0) && div_cols.contains(&1));
        assert!(rep.iterations < 50);
    }

    #[test]
    fn disabled_recorder_path_records_nothing() {
        let a = laplacian_2d(12, 12, Stencil2d::Five);
        let mut cfg = AmgConfig::amgt_fp64();
        cfg.max_iterations = 2;
        let dev = Device::new(GpuSpec::a100());
        let b = rhs_of_ones(&a);
        let h = setup(&dev, &cfg, a);
        let mut x = vec![0.0; b.len()];
        // A recorder exists but is never installed: the whole solve runs on
        // the untraced path and must not touch it.
        let recorder = std::sync::Arc::new(amgt_sim::Recorder::new());
        solve(&dev, &cfg, &h, &b, &mut x);
        assert!(dev.recorder().is_none());
        assert!(recorder.take().is_empty());
        // The simulated-time ledger is independent of tracing.
        assert!(!dev.events().is_empty());
    }

    #[test]
    fn enabled_recorder_captures_two_level_vcycle_span_tree() {
        use amgt_sim::{Recorder, SpanKind};
        use std::sync::Arc;
        let a = laplacian_2d(16, 16, Stencil2d::Five);
        let mut cfg = AmgConfig::amgt_fp64();
        cfg.max_levels = 2;
        cfg.max_iterations = 1;
        cfg.tolerance = 0.0;
        let dev = Device::new(GpuSpec::a100());
        let b = rhs_of_ones(&a);
        let h = setup(&dev, &cfg, a);
        assert_eq!(h.n_levels(), 2);

        let recorder = Arc::new(Recorder::new());
        dev.install_recorder(recorder.clone());
        let sim_before = dev.elapsed();
        let mut x = vec![0.0; b.len()];
        solve(&dev, &cfg, &h, &b, &mut x);
        dev.remove_recorder();
        let rec = recorder.take();

        // Exact expected tree for one V-cycle over two levels:
        //   solve (Phase)
        //     initial residual (Region)
        //     iteration 1 (Iteration)
        //       level 0 (Level)
        //         level 1 (Level)
        let names: Vec<&str> = rec.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "solve",
                "initial residual",
                "iteration 1",
                "level 0",
                "level 1"
            ]
        );
        let kinds: Vec<SpanKind> = rec.spans.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            [
                SpanKind::Phase,
                SpanKind::Region,
                SpanKind::Iteration,
                SpanKind::Level,
                SpanKind::Level
            ]
        );
        let id_of = |name: &str| rec.spans.iter().find(|s| s.name == name).unwrap().id;
        let parent_of = |name: &str| rec.spans.iter().find(|s| s.name == name).unwrap().parent;
        assert_eq!(parent_of("solve"), None);
        assert_eq!(parent_of("initial residual"), Some(id_of("solve")));
        assert_eq!(parent_of("iteration 1"), Some(id_of("solve")));
        assert_eq!(parent_of("level 0"), Some(id_of("iteration 1")));
        assert_eq!(parent_of("level 1"), Some(id_of("level 0")));
        assert!(rec.spans.iter().all(|s| s.closed));

        // Intervals nest: each child lies inside its parent's interval.
        for s in &rec.spans {
            if let Some(p) = s.parent.and_then(|p| rec.span(p)) {
                assert!(
                    s.sim_start >= p.sim_start && s.sim_end <= p.sim_end,
                    "{}",
                    s.name
                );
            }
        }
        // Every kernel is parented to some span and inside its interval,
        // and the trace accounts for all simulated time of the solve.
        assert!(!rec.kernels.is_empty());
        for k in &rec.kernels {
            let p = rec
                .span(k.parent.expect("kernel outside any span"))
                .unwrap();
            assert!(k.sim_start >= p.sim_start && k.sim_start + k.sim_seconds <= p.sim_end + 1e-15);
        }
        let solve_seconds = dev.elapsed() - sim_before;
        assert!(
            (rec.total_kernel_seconds() - solve_seconds).abs() <= 1e-12 * solve_seconds.max(1.0)
        );
        // The coarse solve's sweep ran under the "level 1" span.
        assert!(rec
            .kernels_under(id_of("level 1"))
            .iter()
            .any(|k| k.kind == "SpMV"));
    }

    #[test]
    fn w_cycle_converges_at_least_as_fast_as_v() {
        let a = laplacian_2d(24, 24, Stencil2d::Five);
        let mut v = AmgConfig::amgt_fp64();
        v.max_iterations = 6;
        let mut w = v.clone();
        w.cycle = crate::config::CycleType::W;
        let mut f = v.clone();
        f.cycle = crate::config::CycleType::F;
        let (_, rv, _) = run(&v, a.clone());
        let (_, rw, _) = run(&w, a.clone());
        let (_, rf, _) = run(&f, a);
        assert!(rw.final_relative_residual() <= rv.final_relative_residual() * 1.01);
        assert!(rf.final_relative_residual() <= rv.final_relative_residual() * 1.01);
    }

    #[test]
    fn w_cycle_issues_more_coarse_spmv_than_v() {
        let a = laplacian_2d(24, 24, Stencil2d::Five);
        let count = |cfg: &AmgConfig| {
            let dev = Device::new(GpuSpec::a100());
            let b = rhs_of_ones(&a);
            let h = setup(&dev, cfg, a.clone());
            let start = dev.events().len();
            let mut x = vec![0.0; b.len()];
            solve(&dev, cfg, &h, &b, &mut x);
            dev.events()[start..]
                .iter()
                .filter(|e| e.kind == KernelKind::SpMV && e.level >= 2)
                .count()
        };
        let mut v = AmgConfig::amgt_fp64();
        v.max_iterations = 3;
        let mut w = v.clone();
        w.cycle = crate::config::CycleType::W;
        assert!(count(&w) > count(&v));
    }

    #[test]
    fn precision_uniform_vs_mixed_residual_gap_small() {
        let a = laplacian_2d(20, 20, Stencil2d::Five);
        let mut c64 = AmgConfig::amgt_fp64();
        c64.max_iterations = 15;
        let mut cmx = AmgConfig::amgt_mixed();
        cmx.max_iterations = 15;
        let (_, r64, _) = run(&c64, a.clone());
        let (_, rmx, _) = run(&cmx, a);
        // Mixed precision may converge slightly slower but in the same
        // ballpark (Tsai et al.; the paper relies on this).
        let f64_res = r64.final_relative_residual();
        let mix_res = rmx.final_relative_residual();
        assert!(mix_res < 1e-3, "mixed stagnated: {mix_res}");
        assert!(mix_res / f64_res.max(1e-30) < 1e9);
    }
}
