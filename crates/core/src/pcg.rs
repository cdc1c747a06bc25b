//! Preconditioned conjugate gradient with an AMG V-cycle preconditioner.
//!
//! Section II.B notes that the solve phase is often wrapped in PCG for
//! faster convergence, adding further SpMV calls per iteration. This module
//! provides that wrapper: each PCG iteration applies one cycle of the
//! hierarchy ([`vcycle`] from the finest level, zero initial guess) as the
//! preconditioner `M^{-1}`.
//!
//! The iteration is written once, as [`PcgOps::pcg`], over the four steps
//! that depend on where the vectors live: the operator, the two
//! reductions and the preconditioner. [`pcg_solve`] runs it on one
//! device; the distributed driver runs it on each rank's owned rows, with
//! halo-exchanged products and all-reduced dots.

use crate::backend::OpScratch;
use crate::config::AmgConfig;
use crate::diagnostics::{emit_health, ConvergenceMonitor, HealthThresholds};
use crate::hierarchy::Hierarchy;
use crate::solve::{vcycle, SolveReport, SolveWorkspace};
use crate::vec_ops;
use amgt_kernels::Ctx;
use amgt_sim::{Device, Phase};

/// The steps of AMG-preconditioned CG that depend on where the vectors
/// live. Vectors passed in hold the caller's rows of the system (all of
/// them on one device, the owned block on a rank); every other step of the
/// iteration is elementwise and runs in [`PcgOps::pcg`].
pub trait PcgOps {
    /// `ap = A p`.
    fn apply(&mut self, p: &[f64], ap: &mut Vec<f64>);
    /// The dot product `x . y` over the whole system.
    fn dot(&mut self, x: &[f64], y: &[f64]) -> f64;
    /// The Euclidean norm of `x` over the whole system.
    fn norm(&mut self, x: &[f64]) -> f64;
    /// `z = M^{-1} r`: one cycle of the hierarchy from a zero guess.
    fn precond(&mut self, r: &[f64], z: &mut Vec<f64>);

    /// Solve `A x = b` by preconditioned CG from the guess in `x`.
    ///
    /// `tol` is the relative-residual stopping criterion (relative to
    /// `||b||`, or to 1 for a zero `b`), tested before the first iteration
    /// too; `max_iters` caps the iteration count. Elementwise updates are
    /// charged to `ctx`, and residuals and health events go to its device.
    /// The report's history holds the relative residual per iteration; the
    /// iteration aborts only on non-finite values (stagnation and
    /// divergence events are advisory for a Krylov method) and on a
    /// non-positive `p.Ap`.
    fn pcg(
        &mut self,
        ctx: &Ctx,
        b: &[f64],
        x: &mut [f64],
        tol: f64,
        max_iters: usize,
    ) -> SolveReport {
        let b_norm = match self.norm(b) {
            0.0 => 1.0,
            nb => nb,
        };
        let mut ap = Vec::new();
        self.apply(x, &mut ap);
        let mut r = Vec::new();
        vec_ops::sub_into(ctx, b, &ap, &mut r);
        let initial = self.norm(&r);
        let initial_rel = initial / b_norm;

        let mut monitor = ConvergenceMonitor::new(HealthThresholds::default(), initial_rel);
        let mut health_events = Vec::new();
        let mut history = Vec::new();
        let mut converged = initial_rel < tol;
        let mut iterations = 0;
        let mut final_norm = initial;
        if !converged {
            let mut z = Vec::new();
            self.precond(&r, &mut z);
            let mut p = z.clone();
            let mut rz = self.dot(&r, &z);
            for _ in 0..max_iters {
                iterations += 1;
                self.apply(&p, &mut ap);
                let pap = self.dot(&p, &ap);
                if pap <= 0.0 || !pap.is_finite() {
                    break; // Loss of positive-definiteness (should not happen on SPD).
                }
                let alpha = rz / pap;
                vec_ops::axpy(ctx, alpha, &p, x);
                vec_ops::axpy(ctx, -alpha, &ap, &mut r);
                final_norm = self.norm(&r);
                let rel = final_norm / b_norm;
                history.push(rel);
                ctx.device.record_residual(history.len(), None, rel);
                if let Some(ev) = monitor.observe(rel) {
                    emit_health(ctx.device, ev, &mut health_events);
                }
                if monitor.nonfinite() {
                    break; // Only non-finite aborts a Krylov wrapper.
                }
                if rel < tol {
                    converged = true;
                    break;
                }
                self.precond(&r, &mut z);
                let rz_new = self.dot(&r, &z);
                let beta = rz_new / rz;
                rz = rz_new;
                vec_ops::xpby(ctx, &z, beta, &mut p);
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
}

/// [`PcgOps`] on one device: the finest-level operator, the device-wide
/// reductions and a cycle from level 0 with a hoisted workspace.
struct Finest<'a> {
    ctx: Ctx<'a>,
    cfg: &'a AmgConfig,
    h: &'a Hierarchy,
    scratch: OpScratch,
    ws: SolveWorkspace,
}

impl PcgOps for Finest<'_> {
    fn apply(&mut self, p: &[f64], ap: &mut Vec<f64>) {
        self.h
            .finest()
            .a
            .spmv_into(&self.ctx, p, &mut self.scratch, ap);
    }

    fn dot(&mut self, x: &[f64], y: &[f64]) -> f64 {
        vec_ops::dot(&self.ctx, x, y)
    }

    fn norm(&mut self, x: &[f64]) -> f64 {
        vec_ops::norm2(&self.ctx, x)
    }

    fn precond(&mut self, r: &[f64], z: &mut Vec<f64>) {
        z.clear();
        z.resize(r.len(), 0.0);
        let (cfg, h) = (self.cfg, self.h);
        vcycle(self.ctx.device, cfg, h, 0, cfg.cycle, r, z, 1, &mut self.ws);
    }
}

/// Solve `A x = b` by AMG-preconditioned CG ([`PcgOps::pcg`] on one
/// device, on a worker of the global pool: [`amgt_exec::par::on_pool`])
/// from the guess in `x`.
///
/// `tol` is the relative-residual stopping criterion; `max_iters` caps the
/// iteration count. The hierarchy must have been built for the same matrix.
pub fn pcg_solve(
    device: &Device,
    cfg: &AmgConfig,
    h: &Hierarchy,
    b: &[f64],
    x: &mut Vec<f64>,
    tol: f64,
    max_iters: usize,
) -> SolveReport {
    let n = h.finest().n();
    assert_eq!(b.len(), n);
    x.resize(n, 0.0);
    let ctx = Ctx::new(device, Phase::Solve, 0, h.finest().precision)
        .with_policy(cfg.policy)
        .with_exec(cfg.exec);
    let mut ops = Finest {
        ctx,
        cfg,
        h,
        scratch: OpScratch::default(),
        ws: SolveWorkspace::for_hierarchy(h),
    };
    amgt_exec::par::on_pool(|| ops.pcg(&ctx, b, x, tol, max_iters))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AmgConfig;
    use crate::hierarchy::setup;
    use amgt_sim::GpuSpec;
    use amgt_sparse::gen::{laplacian_2d, laplacian_3d, rhs_of_ones, Stencil2d, Stencil3d};

    #[test]
    fn pcg_converges_quickly_on_2d_laplacian() {
        let a = laplacian_2d(24, 24, Stencil2d::Five);
        let b = rhs_of_ones(&a);
        let dev = Device::new(GpuSpec::a100());
        let cfg = AmgConfig::amgt_fp64();
        let h = setup(&dev, &cfg, a);
        let mut x = vec![0.0; b.len()];
        let rep = pcg_solve(&dev, &cfg, &h, &b, &mut x, 1e-10, 40);
        assert!(rep.converged, "history {:?}", rep.history);
        assert!(rep.iterations <= 25, "iterations {}", rep.iterations);
        assert_eq!(rep.outcome, crate::diagnostics::SolveOutcome::Converged);
        assert!(rep.convergence_factor > 0.0 && rep.convergence_factor < 1.0);
        assert!(rep.health_events.is_empty());
        for &xi in &x {
            assert!((xi - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn pcg_on_3d_problem() {
        let a = laplacian_3d(7, 7, 7, Stencil3d::Seven);
        let b = rhs_of_ones(&a);
        let dev = Device::new(GpuSpec::h100());
        let cfg = AmgConfig::amgt_fp64();
        let h = setup(&dev, &cfg, a);
        let mut x = vec![0.0; b.len()];
        let rep = pcg_solve(&dev, &cfg, &h, &b, &mut x, 1e-9, 50);
        assert!(rep.converged);
    }

    #[test]
    fn pcg_history_decreases() {
        let a = laplacian_2d(16, 16, Stencil2d::Five);
        let b = rhs_of_ones(&a);
        let dev = Device::new(GpuSpec::a100());
        let cfg = AmgConfig::amgt_fp64();
        let h = setup(&dev, &cfg, a);
        let mut x = vec![0.0; b.len()];
        let rep = pcg_solve(&dev, &cfg, &h, &b, &mut x, 1e-12, 30);
        assert!(rep.history.len() >= 2);
        assert!(rep.history.last().unwrap() < &rep.history[0]);
    }

    /// Each preconditioner application is one cycle from the finest level
    /// and nothing more: it gives the iterate bits of a one-cycle solve from
    /// zero at tolerance 0, without that solve's residual SpMVs and norms.
    /// A PCG run then charges the initial residual, one `A p` per iteration
    /// and one cycle's SpMVs per application.
    #[test]
    fn preconditioner_is_one_cycle_in_bits_and_ledger() {
        use crate::config::CycleType;
        use crate::solve::{expected_spmv_calls, solve};
        use amgt_sim::KernelKind;
        let a = laplacian_2d(48, 48, Stencil2d::Five);
        let n = a.nrows();
        let b = rhs_of_ones(&a);
        let dev = Device::new(GpuSpec::a100());
        let cfg = AmgConfig::amgt_fp64();
        let h = setup(&dev, &cfg, a);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let r: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        for cycle in [CycleType::V, CycleType::W, CycleType::F] {
            let mut c = cfg.clone();
            c.cycle = cycle;
            let mut z = vec![0.0; n];
            let mut ws = SolveWorkspace::for_hierarchy(&h);
            vcycle(&dev, &c, &h, 0, cycle, &r, &mut z, 1, &mut ws);
            c.max_iterations = 1;
            c.tolerance = 0.0;
            let mut one_cycle = vec![0.0; n];
            solve(&dev, &c, &h, &r, &mut one_cycle);
            assert_eq!(bits(&z), bits(&one_cycle), "{cycle:?}");
        }

        let start = dev.events().len();
        let mut x = vec![0.0; n];
        let rep = pcg_solve(&dev, &cfg, &h, &b, &mut x, 1e-10, 40);
        assert!(rep.converged);
        let spmv = dev.events()[start..]
            .iter()
            .filter(|e| e.kind == KernelKind::SpMV)
            .count();
        // One application before the loop and one per iteration but the
        // last; the outer-loop formula at one cycle less its two residuals.
        let applications = rep.iterations;
        let per_cycle = expected_spmv_calls(h.n_levels(), 1) - 2;
        assert_eq!(spmv, 1 + rep.iterations + applications * per_cycle);
    }

    /// FNV-1a over the `(kind, algo, phase, level, precision, seconds)` of
    /// every ledger event from `start` on.
    fn ledger_fnv(dev: &Device, start: usize) -> u64 {
        let mut f = amgt_sparse::fingerprint::Fnv::new();
        for e in &dev.events()[start..] {
            let tag = format!("{:?}/{:?}/{:?}/{:?}", e.kind, e.algo, e.phase, e.precision);
            f.write_bytes(tag.as_bytes());
            f.write_u64(u64::from(e.level));
            f.write_u64(e.seconds.to_bits());
        }
        f.finish()
    }

    fn bits_fnv(v: &[f64]) -> u64 {
        let mut f = amgt_sparse::fingerprint::Fnv::new();
        for x in v {
            f.write_u64(x.to_bits());
        }
        f.finish()
    }

    /// Pins PCG on the 48x48 Laplacian (FP64): FNV-1a of the solution
    /// bits, of the history bits and of the solve's ledger. The constants
    /// were recorded with the PCG loop written out inline in `pcg_solve`,
    /// before it ran the shared [`PcgOps::pcg`] loop, so the shared loop is
    /// bit-for-bit that loop in iterates, history and charges.
    #[test]
    fn pcg_solve_bits_and_ledger_are_pinned() {
        let a = laplacian_2d(48, 48, Stencil2d::Five);
        let b = rhs_of_ones(&a);
        let dev = Device::new(GpuSpec::a100());
        let cfg = AmgConfig::amgt_fp64();
        let h = setup(&dev, &cfg, a);
        let start = dev.events().len();
        let mut x = vec![0.0; b.len()];
        let rep = pcg_solve(&dev, &cfg, &h, &b, &mut x, 1e-10, 40);
        let got = (
            rep.iterations,
            bits_fnv(&x),
            bits_fnv(&rep.history),
            ledger_fnv(&dev, start),
        );
        let want = (
            9,
            0x466b_5bb4_c6c5_22f8,
            0xa87c_19ac_6ece_4b8b,
            0x331e_8479_d9da_7ffb,
        );
        assert_eq!(got, want, "{got:#x?}");
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let a = laplacian_2d(8, 8, Stencil2d::Five);
        let dev = Device::new(GpuSpec::a100());
        let cfg = AmgConfig::amgt_fp64();
        let h = setup(&dev, &cfg, a);
        let b = vec![0.0; 64];
        let mut x = vec![0.0; 64];
        let rep = pcg_solve(&dev, &cfg, &h, &b, &mut x, 1e-12, 10);
        assert!(rep.converged);
        assert!(x.iter().all(|&v| v.abs() < 1e-12));
    }
}
