//! Integration tests for AMG-preconditioned CG on suite matrices, across
//! backends and precision policies.

use amgt::pcg::pcg_solve;
use amgt::prelude::*;
use amgt_sparse::gen::rhs_of_ones;
use amgt_sparse::suite::{self, Scale};

fn hierarchy_for(name: &str, cfg: &AmgConfig) -> (Device, amgt::Hierarchy, Vec<f64>) {
    let a = suite::generate(name, Scale::Small).unwrap();
    let b = rhs_of_ones(&a);
    let dev = Device::new(GpuSpec::a100());
    let h = setup(&dev, cfg, a);
    (dev, h, b)
}

#[test]
fn pcg_converges_on_thermal1() {
    let cfg = AmgConfig::amgt_fp64();
    let (dev, h, b) = hierarchy_for("thermal1", &cfg);

    let mut x = vec![0.0; b.len()];
    let pcg = pcg_solve(&dev, &cfg, &h, &b, &mut x, 1e-9, 60);
    assert!(pcg.converged, "pcg {:?}", pcg.history.last());

    // The solution of A x = A 1 is all ones.
    for &xi in &x {
        assert!((xi - 1.0).abs() < 1e-5, "{xi}");
    }
}

#[test]
fn krylov_methods_work_over_the_vendor_backend_too() {
    let cfg = AmgConfig::hypre_fp64();
    let (dev, h, b) = hierarchy_for("Chevron2", &cfg);
    let mut x = vec![0.0; b.len()];
    let pcg = pcg_solve(&dev, &cfg, &h, &b, &mut x, 1e-9, 60);
    assert!(pcg.converged);
}

#[test]
fn pcg_with_mixed_precision_preconditioner() {
    // The preconditioner runs FP16 on coarse levels; PCG wraps it in FP64 —
    // the paper's preconditioned use case.
    let cfg = AmgConfig::amgt_mixed();
    let (dev, h, b) = hierarchy_for("bcsstk39", &cfg);
    let mut x = vec![0.0; b.len()];
    let pcg = pcg_solve(&dev, &cfg, &h, &b, &mut x, 1e-8, 80);
    assert!(
        pcg.converged,
        "mixed-precision PCG history {:?}",
        pcg.history
    );
}

#[test]
fn krylov_iterations_beat_plain_cycles_across_structures() {
    for name in ["mc2depi", "venkat25"] {
        let cfg = AmgConfig::amgt_fp64();
        let (dev, h, b) = hierarchy_for(name, &cfg);

        let mut plain_cfg = cfg.clone();
        plain_cfg.tolerance = 1e-8;
        plain_cfg.max_iterations = 200;
        let mut xp = vec![0.0; b.len()];
        let plain = solve(&dev, &plain_cfg, &h, &b, &mut xp);

        let mut xk = vec![0.0; b.len()];
        let pcg = pcg_solve(&dev, &cfg, &h, &b, &mut xk, 1e-8, 200);
        assert!(pcg.converged, "{name}");
        assert!(
            pcg.iterations <= plain.iterations,
            "{name}: pcg {} vs plain {}",
            pcg.iterations,
            plain.iterations
        );
    }
}

#[test]
fn resetup_feeds_krylov_chain() {
    // Newton-like chain: the operator drifts, the hierarchy is re-setup,
    // PCG keeps converging.
    let a0 = suite::generate("parabolic_fem", Scale::Small).unwrap();
    let dev = Device::new(GpuSpec::a100());
    let cfg = AmgConfig::amgt_fp64();
    let mut h = setup(&dev, &cfg, a0.clone());
    let mut a = a0;
    for step in 0..3 {
        let b = rhs_of_ones(&a);
        let mut x = vec![0.0; b.len()];
        let rep = pcg_solve(&dev, &cfg, &h, &b, &mut x, 1e-8, 60);
        assert!(rep.converged, "step {step}");
        // Drift the operator (values only) and refresh.
        for v in a.vals.iter_mut() {
            *v *= 1.02;
        }
        amgt::resetup(&dev, &cfg, &mut h, a.clone());
    }
}
