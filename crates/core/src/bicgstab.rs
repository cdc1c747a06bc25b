//! BiCGStab with an AMG V-cycle preconditioner.
//!
//! The stabilized bi-conjugate gradient method: short recurrences (unlike
//! GMRES, no Krylov basis storage) for nonsymmetric systems. Each iteration
//! costs two SpMVs and two preconditioner applications — all routed through
//! the backend kernels.

use crate::config::AmgConfig;
use crate::diagnostics::{emit_health, ConvergenceMonitor, HealthThresholds, SolveOutcome};
use crate::hierarchy::Hierarchy;
use crate::solve::{vcycle, SolveWorkspace};
use crate::vec_ops;
use amgt_kernels::Ctx;
use amgt_sim::{Device, HealthEvent, Phase};

/// BiCGStab result.
#[derive(Clone, Debug)]
pub struct BicgstabReport {
    pub iterations: usize,
    pub converged: bool,
    /// Breakdown flag (`rho` or `omega` collapsed; restart with a better
    /// preconditioner or initial guess).
    pub breakdown: bool,
    pub history: Vec<f64>,
    /// Health classification of the run. BiCGStab residuals legitimately
    /// spike, so divergence/stagnation events are advisory; only non-finite
    /// values abort.
    pub outcome: SolveOutcome,
    /// Geometric-mean residual reduction per iteration.
    pub convergence_factor: f64,
    pub health_events: Vec<HealthEvent>,
}

/// Solve `A x = b` with AMG-preconditioned BiCGStab.
pub fn bicgstab_solve(
    device: &Device,
    cfg: &AmgConfig,
    h: &Hierarchy,
    b: &[f64],
    x: &mut Vec<f64>,
    tol: f64,
    max_iters: usize,
) -> BicgstabReport {
    let n = h.finest().n();
    assert_eq!(b.len(), n);
    if x.len() != n {
        x.resize(n, 0.0);
    }
    let ctx = Ctx::new(device, Phase::Solve, 0, h.finest().precision)
        .with_policy(cfg.policy)
        .with_exec(cfg.exec);

    // Preconditioner state hoisted out of the iteration loop: reusable
    // output buffers and one cycle workspace.
    let mut pre_ws = SolveWorkspace::for_hierarchy(h);
    let precond = |r: &[f64], z: &mut Vec<f64>, ws: &mut SolveWorkspace| {
        z.clear();
        z.resize(n, 0.0);
        vcycle(device, cfg, h, 0, cfg.cycle, r, z, 1, ws);
    };
    let mut p_hat = Vec::new();
    let mut s_hat = Vec::new();

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
    let r_hat = r.clone(); // Shadow residual.
    let mut rho = 1.0f64;
    let mut alpha = 1.0f64;
    let mut omega = 1.0f64;
    let mut v = vec![0.0f64; n];
    let mut p = vec![0.0f64; n];

    let mut history = Vec::new();
    let initial_rel = vec_ops::norm2(&ctx, &r) / b_norm;
    let mut converged = initial_rel < tol;
    let mut breakdown = false;
    let mut iterations = 0usize;
    let mut monitor = ConvergenceMonitor::new(HealthThresholds::default(), initial_rel);
    let mut health_events: Vec<HealthEvent> = Vec::new();
    let observe =
        |monitor: &mut ConvergenceMonitor, health_events: &mut Vec<HealthEvent>, rel: f64| {
            if let Some(ev) = monitor.observe(rel) {
                emit_health(device, ev, health_events);
            }
        };

    while !converged && !breakdown && iterations < max_iters {
        iterations += 1;
        let rho_new = vec_ops::dot(&ctx, &r_hat, &r);
        if rho_new.abs() < 1e-300 {
            breakdown = true;
            break;
        }
        let beta = (rho_new / rho) * (alpha / omega);
        rho = rho_new;
        // p = r + beta * (p - omega * v)
        vec_ops::axpy(&ctx, -omega, &v, &mut p);
        vec_ops::xpby(&ctx, &r, beta, &mut p);

        precond(&p, &mut p_hat, &mut pre_ws);
        v = h.finest().a.spmv(&ctx, &p_hat);
        let rhv = vec_ops::dot(&ctx, &r_hat, &v);
        if rhv.abs() < 1e-300 {
            breakdown = true;
            break;
        }
        alpha = rho / rhv;
        // s = r - alpha v
        let mut s = r.clone();
        vec_ops::axpy(&ctx, -alpha, &v, &mut s);
        let s_norm = vec_ops::norm2(&ctx, &s);
        if s_norm / b_norm < tol {
            vec_ops::axpy(&ctx, alpha, &p_hat, x);
            history.push(s_norm / b_norm);
            device.record_residual(history.len(), None, s_norm / b_norm);
            observe(&mut monitor, &mut health_events, s_norm / b_norm);
            converged = true;
            break;
        }

        precond(&s, &mut s_hat, &mut pre_ws);
        let t = h.finest().a.spmv(&ctx, &s_hat);
        let tt = vec_ops::dot(&ctx, &t, &t);
        if tt.abs() < 1e-300 {
            breakdown = true;
            break;
        }
        omega = vec_ops::dot(&ctx, &t, &s) / tt;
        if omega.abs() < 1e-300 {
            breakdown = true;
            break;
        }
        // x += alpha p_hat + omega s_hat; r = s - omega t
        vec_ops::axpy(&ctx, alpha, &p_hat, x);
        vec_ops::axpy(&ctx, omega, &s_hat, x);
        r = s;
        vec_ops::axpy(&ctx, -omega, &t, &mut r);

        let rel = vec_ops::norm2(&ctx, &r) / b_norm;
        history.push(rel);
        device.record_residual(history.len(), None, rel);
        observe(&mut monitor, &mut health_events, rel);
        if monitor.nonfinite() {
            break; // Only non-finite aborts a Krylov wrapper.
        }
        converged = rel < tol;
    }

    BicgstabReport {
        iterations,
        converged,
        breakdown,
        history,
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
    use amgt_sparse::gen::{laplacian_2d, rhs_of_ones, Stencil2d};
    use amgt_sparse::Csr;

    fn convection_diffusion(nx: usize) -> Csr {
        let base = laplacian_2d(nx, nx, Stencil2d::Five);
        let n = base.nrows();
        let mut trips = Vec::new();
        for r in 0..n {
            let (cols, vals) = base.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                trips.push((r, c as usize, v));
            }
            if r + nx < n {
                trips.push((r, r + nx, 0.4));
                trips.push((r, r, 0.4));
            }
        }
        Csr::from_triplets(n, n, &trips)
    }

    #[test]
    fn bicgstab_converges_on_spd() {
        let a = laplacian_2d(18, 18, Stencil2d::Five);
        let b = rhs_of_ones(&a);
        let dev = Device::new(GpuSpec::a100());
        let cfg = AmgConfig::amgt_fp64();
        let h = setup(&dev, &cfg, a);
        let mut x = vec![0.0; b.len()];
        let rep = bicgstab_solve(&dev, &cfg, &h, &b, &mut x, 1e-10, 50);
        assert!(rep.converged, "history {:?}", rep.history);
        assert!(!rep.breakdown);
        assert_eq!(rep.outcome, crate::diagnostics::SolveOutcome::Converged);
        assert!(rep.convergence_factor < 1.0);
        for &xi in &x {
            assert!((xi - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn bicgstab_converges_on_nonsymmetric() {
        let a = convection_diffusion(14);
        let b = rhs_of_ones(&a);
        let dev = Device::new(GpuSpec::a100());
        let cfg = AmgConfig::amgt_fp64();
        let h = setup(&dev, &cfg, a.clone());
        let mut x = vec![0.0; b.len()];
        let rep = bicgstab_solve(&dev, &cfg, &h, &b, &mut x, 1e-9, 60);
        assert!(rep.converged, "history {:?}", rep.history);
        let ax = a.matvec(&x);
        let res: f64 = ax
            .iter()
            .zip(&b)
            .map(|(u, v)| (u - v) * (u - v))
            .sum::<f64>()
            .sqrt();
        let bn: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(res / bn < 1e-8);
    }

    #[test]
    fn bicgstab_needs_fewer_iterations_than_plain_cycles() {
        let a = laplacian_2d(20, 20, Stencil2d::Five);
        let b = rhs_of_ones(&a);
        let dev = Device::new(GpuSpec::a100());
        let cfg = AmgConfig::amgt_fp64();
        let h = setup(&dev, &cfg, a);

        let mut plain_cfg = cfg.clone();
        plain_cfg.tolerance = 1e-9;
        plain_cfg.max_iterations = 100;
        let mut x1 = vec![0.0; b.len()];
        let plain = crate::solve::solve(&dev, &plain_cfg, &h, &b, &mut x1);

        let mut x2 = vec![0.0; b.len()];
        let krylov = bicgstab_solve(&dev, &cfg, &h, &b, &mut x2, 1e-9, 100);
        assert!(krylov.converged);
        assert!(
            krylov.iterations <= plain.iterations,
            "bicgstab {} vs plain {}",
            krylov.iterations,
            plain.iterations
        );
    }

    #[test]
    fn zero_rhs_immediate() {
        let a = laplacian_2d(8, 8, Stencil2d::Five);
        let dev = Device::new(GpuSpec::a100());
        let cfg = AmgConfig::amgt_fp64();
        let h = setup(&dev, &cfg, a);
        let b = vec![0.0; 64];
        let mut x = vec![0.0; 64];
        let rep = bicgstab_solve(&dev, &cfg, &h, &b, &mut x, 1e-12, 10);
        assert!(rep.converged);
        assert_eq!(rep.iterations, 0);
    }
}
