//! Preconditioned conjugate gradient with an AMG V-cycle preconditioner.
//!
//! Section II.B notes that the solve phase is often wrapped in PCG for
//! faster convergence, adding further SpMV calls per iteration. This module
//! provides that wrapper: each PCG iteration applies one cycle of the
//! hierarchy ([`vcycle`] from the finest level, zero initial guess) as the
//! preconditioner `M^{-1}`.

use crate::config::AmgConfig;
use crate::diagnostics::{emit_health, ConvergenceMonitor, HealthThresholds, SolveOutcome};
use crate::hierarchy::Hierarchy;
use crate::solve::{vcycle, SolveReport, SolveWorkspace};
use crate::vec_ops;
use amgt_kernels::Ctx;
use amgt_sim::{Device, HealthEvent, Phase};

/// Solve `A x = b` by AMG-preconditioned CG.
///
/// `tol` is the relative-residual stopping criterion; `max_iters` caps the
/// iteration count. The hierarchy must have been built for the same matrix.
/// The report's history holds the relative residual per iteration; its
/// outcome aborts only on non-finite values (stagnation and divergence
/// events are advisory for a Krylov method).
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
    if x.len() != n {
        x.resize(n, 0.0);
    }
    let ctx = Ctx::new(device, Phase::Solve, 0, h.finest().precision)
        .with_policy(cfg.policy)
        .with_exec(cfg.exec);

    // One cycle as the preconditioner application; the cycle workspace is
    // hoisted out of the iteration loop and reused by every application.
    let mut pre_ws = SolveWorkspace::for_hierarchy(h);
    let precond = |r: &[f64], z: &mut Vec<f64>, ws: &mut SolveWorkspace| {
        z.clear();
        z.resize(n, 0.0);
        vcycle(device, cfg, h, 0, cfg.cycle, r, z, 1, ws);
    };

    let b_norm = {
        let nb = vec_ops::norm2(&ctx, b);
        if nb == 0.0 {
            1.0
        } else {
            nb
        }
    };

    let ax = h.finest().a.spmv(&ctx, x);
    let mut r = vec_ops::sub(&ctx, b, &ax);
    let initial = vec_ops::norm2(&ctx, &r);
    let initial_rel = initial / b_norm;
    if initial_rel < tol {
        return SolveReport {
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
    }
    let mut monitor = ConvergenceMonitor::new(HealthThresholds::default(), initial_rel);
    let mut health_events: Vec<HealthEvent> = Vec::new();
    let mut z = Vec::new();
    precond(&r, &mut z, &mut pre_ws);
    let mut p = z.clone();
    let mut rz = vec_ops::dot(&ctx, &r, &z);

    let mut history = Vec::new();
    let mut converged = false;
    let mut iterations = 0usize;
    let mut final_norm = initial;
    for _ in 0..max_iters {
        iterations += 1;
        let ap = h.finest().a.spmv(&ctx, &p);
        let pap = vec_ops::dot(&ctx, &p, &ap);
        if pap <= 0.0 || !pap.is_finite() {
            break; // Loss of positive-definiteness (should not happen on SPD).
        }
        let alpha = rz / pap;
        vec_ops::axpy(&ctx, alpha, &p, x);
        vec_ops::axpy(&ctx, -alpha, &ap, &mut r);
        final_norm = vec_ops::norm2(&ctx, &r);
        let rel = final_norm / b_norm;
        history.push(rel);
        device.record_residual(history.len(), None, rel);
        if let Some(ev) = monitor.observe(rel) {
            emit_health(device, ev, &mut health_events);
        }
        if monitor.nonfinite() {
            break; // Only non-finite aborts a Krylov wrapper.
        }
        if rel < tol {
            converged = true;
            break;
        }
        precond(&r, &mut z, &mut pre_ws);
        let rz_new = vec_ops::dot(&ctx, &r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        vec_ops::xpby(&ctx, &z, beta, &mut p);
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
