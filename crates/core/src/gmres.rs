//! Flexible GMRES with an AMG V-cycle preconditioner.
//!
//! The paper's related work highlights mixed-precision GMRES as a major
//! consumer of fast SpMV; this module provides restarted FGMRES(m) with one
//! V-cycle of the hierarchy as the (possibly nonlinear, hence "flexible")
//! right preconditioner. Works for nonsymmetric systems where CG does not.

use crate::config::AmgConfig;
use crate::diagnostics::{emit_health, ConvergenceMonitor, HealthThresholds, SolveOutcome};
use crate::hierarchy::Hierarchy;
use crate::solve::{vcycle, SolveWorkspace};
use crate::vec_ops;
use amgt_kernels::Ctx;
use amgt_sim::{Device, HealthEvent, Phase};

/// GMRES result.
#[derive(Clone, Debug)]
pub struct GmresReport {
    /// Total inner iterations across restarts.
    pub iterations: usize,
    pub restarts: usize,
    pub converged: bool,
    /// Relative residual at each inner iteration.
    pub history: Vec<f64>,
    /// Health classification of the run (advisory except for non-finite,
    /// which aborts).
    pub outcome: SolveOutcome,
    /// Geometric-mean residual reduction per inner iteration.
    pub convergence_factor: f64,
    pub health_events: Vec<HealthEvent>,
}

/// Solve `A x = b` with restarted FGMRES(m), right-preconditioned by one
/// AMG V-cycle per application.
#[allow(clippy::too_many_arguments)]
pub fn fgmres_solve(
    device: &Device,
    cfg: &AmgConfig,
    h: &Hierarchy,
    b: &[f64],
    x: &mut Vec<f64>,
    tol: f64,
    restart: usize,
    max_outer: usize,
) -> GmresReport {
    let n = h.finest().n();
    assert_eq!(b.len(), n);
    assert!(restart >= 1);
    if x.len() != n {
        x.resize(n, 0.0);
    }
    let ctx = Ctx::new(device, Phase::Solve, 0, h.finest().precision)
        .with_policy(cfg.policy)
        .with_exec(cfg.exec);

    // The cycle workspace is hoisted out of the Arnoldi loop; each
    // application still returns an owned vector because the flexible
    // variant stores the whole preconditioned basis.
    let mut pre_ws = SolveWorkspace::for_hierarchy(h);
    let precond = |r: &[f64], ws: &mut SolveWorkspace| -> Vec<f64> {
        let mut z = vec![0.0; n];
        vcycle(device, cfg, h, 0, cfg.cycle, r, &mut z, 1, ws);
        z
    };

    let b_norm = {
        let nb = vec_ops::norm2(&ctx, b);
        if nb == 0.0 {
            1.0
        } else {
            nb
        }
    };

    let mut history = Vec::new();
    let mut total_iters = 0usize;
    let mut restarts = 0usize;
    let mut converged = false;
    let mut monitor: Option<ConvergenceMonitor> = None;
    let mut health_events: Vec<HealthEvent> = Vec::new();

    'outer: for _ in 0..max_outer {
        restarts += 1;
        let ax = h.finest().a.spmv(&ctx, x);
        let r0 = vec_ops::sub(&ctx, b, &ax);
        let beta = vec_ops::norm2(&ctx, &r0);
        if beta / b_norm < tol {
            converged = true;
            break;
        }
        monitor.get_or_insert_with(|| {
            ConvergenceMonitor::new(HealthThresholds::default(), beta / b_norm)
        });

        // Arnoldi with modified Gram-Schmidt; Z holds the preconditioned
        // vectors (flexible variant).
        let m = restart;
        let mut v: Vec<Vec<f64>> = Vec::with_capacity(m + 1);
        let mut z: Vec<Vec<f64>> = Vec::with_capacity(m);
        v.push(r0.iter().map(|&e| e / beta).collect());
        // Hessenberg in column-major: hess[j] has j+2 entries.
        let mut hess: Vec<Vec<f64>> = Vec::with_capacity(m);
        // Givens rotations and the rhs of the least-squares problem.
        let mut cs = vec![0.0f64; m];
        let mut sn = vec![0.0f64; m];
        let mut g = vec![0.0f64; m + 1];
        g[0] = beta;

        let mut k_used = 0usize;
        for j in 0..m {
            total_iters += 1;
            let zj = precond(&v[j], &mut pre_ws);
            let mut w = h.finest().a.spmv(&ctx, &zj);
            z.push(zj);

            let mut hcol = vec![0.0f64; j + 2];
            for (i, vi) in v.iter().enumerate().take(j + 1) {
                let hij = vec_ops::dot(&ctx, &w, vi);
                hcol[i] = hij;
                vec_ops::axpy(&ctx, -hij, vi, &mut w);
            }
            let wnorm = vec_ops::norm2(&ctx, &w);
            hcol[j + 1] = wnorm;

            // Apply the accumulated Givens rotations to the new column.
            for i in 0..j {
                let t = cs[i] * hcol[i] + sn[i] * hcol[i + 1];
                hcol[i + 1] = -sn[i] * hcol[i] + cs[i] * hcol[i + 1];
                hcol[i] = t;
            }
            // New rotation to annihilate hcol[j+1].
            let denom = (hcol[j] * hcol[j] + hcol[j + 1] * hcol[j + 1]).sqrt();
            if denom > 0.0 {
                cs[j] = hcol[j] / denom;
                sn[j] = hcol[j + 1] / denom;
            } else {
                cs[j] = 1.0;
                sn[j] = 0.0;
            }
            hcol[j] = cs[j] * hcol[j] + sn[j] * hcol[j + 1];
            hcol[j + 1] = 0.0;
            g[j + 1] = -sn[j] * g[j];
            g[j] *= cs[j];
            hess.push(hcol);
            k_used = j + 1;

            let rel = g[j + 1].abs() / b_norm;
            history.push(rel);
            device.record_residual(history.len(), None, rel);
            if let Some(m) = monitor.as_mut() {
                if let Some(ev) = m.observe(rel) {
                    emit_health(device, ev, &mut health_events);
                }
            }
            if rel < tol {
                converged = true;
            }
            let abort = monitor.as_ref().is_some_and(|m| m.nonfinite());
            if converged || wnorm == 0.0 || abort {
                break;
            }
            v.push(w.iter().map(|&e| e / wnorm).collect());
        }

        // Back-substitute the triangular system and form the update from Z.
        let mut y = vec![0.0f64; k_used];
        for i in (0..k_used).rev() {
            let mut acc = g[i];
            for (jj, yj) in y.iter().enumerate().take(k_used).skip(i + 1) {
                acc -= hess[jj][i] * yj;
            }
            y[i] = acc / hess[i][i];
        }
        for (yi, zi) in y.iter().zip(&z) {
            vec_ops::axpy(&ctx, *yi, zi, x);
        }
        if converged || monitor.as_ref().is_some_and(|m| m.nonfinite()) {
            break 'outer;
        }
    }

    let (outcome, convergence_factor) = match &monitor {
        Some(m) => (m.outcome(converged), m.geometric_factor()),
        None => (SolveOutcome::Converged, 0.0),
    };
    GmresReport {
        iterations: total_iters,
        restarts,
        converged,
        history,
        outcome,
        convergence_factor,
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

    #[test]
    fn fgmres_converges_on_spd_problem() {
        let a = laplacian_2d(20, 20, Stencil2d::Five);
        let b = rhs_of_ones(&a);
        let dev = Device::new(GpuSpec::a100());
        let cfg = AmgConfig::amgt_fp64();
        let h = setup(&dev, &cfg, a);
        let mut x = vec![0.0; b.len()];
        let rep = fgmres_solve(&dev, &cfg, &h, &b, &mut x, 1e-10, 20, 5);
        assert!(rep.converged, "history {:?}", rep.history);
        for &xi in &x {
            assert!((xi - 1.0).abs() < 1e-6, "{xi}");
        }
    }

    #[test]
    fn fgmres_handles_nonsymmetric_systems() {
        // Convection-diffusion-like: Laplacian + skew part (CG would not
        // be applicable; FGMRES must still converge).
        let base = laplacian_2d(14, 14, Stencil2d::Five);
        let n = base.nrows();
        let mut trips = Vec::new();
        for r in 0..n {
            let (cols, vals) = base.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                trips.push((r, c as usize, v));
            }
            // One-sided convection along the x direction.
            if r + 14 < n {
                trips.push((r, r + 14, 0.3));
                trips.push((r, r, 0.3));
            }
        }
        let a = Csr::from_triplets(n, n, &trips);
        let b = rhs_of_ones(&a);
        let dev = Device::new(GpuSpec::a100());
        let cfg = AmgConfig::amgt_fp64();
        let h = setup(&dev, &cfg, a.clone());
        let mut x = vec![0.0; n];
        let rep = fgmres_solve(&dev, &cfg, &h, &b, &mut x, 1e-9, 25, 8);
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
    fn restart_limits_inner_iterations() {
        let a = laplacian_2d(16, 16, Stencil2d::Five);
        let b = rhs_of_ones(&a);
        let dev = Device::new(GpuSpec::a100());
        let cfg = AmgConfig::amgt_fp64();
        let h = setup(&dev, &cfg, a);
        let mut x = vec![0.0; b.len()];
        let rep = fgmres_solve(&dev, &cfg, &h, &b, &mut x, 1e-30, 3, 2);
        assert!(!rep.converged);
        assert!(rep.iterations <= 6);
        assert_eq!(rep.restarts, 2);
        assert!(!rep.outcome.is_numerical_failure(), "{:?}", rep.outcome);
    }

    #[test]
    fn zero_rhs_is_immediate() {
        let a = laplacian_2d(8, 8, Stencil2d::Five);
        let dev = Device::new(GpuSpec::a100());
        let cfg = AmgConfig::amgt_fp64();
        let h = setup(&dev, &cfg, a);
        let b = vec![0.0; 64];
        let mut x = vec![0.0; 64];
        let rep = fgmres_solve(&dev, &cfg, &h, &b, &mut x, 1e-12, 10, 3);
        assert!(rep.converged);
        assert!(x.iter().all(|&v| v.abs() < 1e-12));
    }
}
