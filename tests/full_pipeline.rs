//! End-to-end integration tests: the full AMG pipeline over the synthetic
//! suite, across backends, precisions and GPUs.

use amgt::prelude::*;
use amgt_sim::KernelKind;
use amgt_sparse::gen::rhs_of_ones;
use amgt_sparse::suite::{self, Scale};

fn run(name: &str, variant_cfg: AmgConfig, spec: GpuSpec) -> (Device, Vec<f64>, amgt::RunReport) {
    let a = suite::generate(name, Scale::Small).unwrap();
    let b = rhs_of_ones(&a);
    let dev = Device::new(spec);
    let (x, _h, rep) = run_amg(&dev, &variant_cfg, a, &b);
    (dev, x, rep)
}

#[test]
fn all_suite_matrices_solve_with_amgt_fp64() {
    let mut cfg = AmgConfig::amgt_fp64();
    cfg.max_iterations = 25;
    for entry in suite::entries() {
        let (_dev, x, rep) = run(entry.name, cfg.clone(), GpuSpec::a100());
        let relres = rep.solve_report.final_relative_residual();
        assert!(relres < 1e-3, "{}: relres {relres}", entry.name);
        // The exact solution is all ones; the iterate must be near it when
        // tightly converged, and at least finite and sane otherwise.
        assert!(x.iter().all(|v| v.is_finite()), "{}", entry.name);
        if relres < 1e-9 {
            assert!(x.iter().all(|v| (v - 1.0).abs() < 1e-4), "{}", entry.name);
        }
    }
}

#[test]
fn backends_agree_numerically_in_fp64() {
    for name in ["venkat25", "mc2depi", "TSOPF_RS_b300_c3", "spmsrtls"] {
        let mut cv = AmgConfig::hypre_fp64();
        cv.max_iterations = 8;
        let mut ct = AmgConfig::amgt_fp64();
        ct.max_iterations = 8;
        let (_d1, xv, rv) = run(name, cv, GpuSpec::a100());
        let (_d2, xt, rt) = run(name, ct, GpuSpec::a100());
        // Same hierarchy, same iteration counts, near-identical iterates
        // (both backends perform the same FP64 math up to summation order).
        assert_eq!(
            rv.setup_stats.grid_sizes, rt.setup_stats.grid_sizes,
            "{name}"
        );
        let scale = xv.iter().map(|v| v.abs()).fold(0.0f64, f64::max).max(1.0);
        for (u, w) in xv.iter().zip(&xt) {
            assert!((u - w).abs() / scale < 1e-6, "{name}: {u} vs {w}");
        }
        let (h1, h2) = (&rv.solve_report.history, &rt.solve_report.history);
        for (a, b) in h1.iter().zip(h2) {
            assert!(
                (a - b).abs() / a.max(1e-30) < 1e-4,
                "{name}: history {a} vs {b}"
            );
        }
    }
}

#[test]
fn mixed_precision_converges_on_suite_subset() {
    let mut cfg = AmgConfig::amgt_mixed();
    cfg.max_iterations = 25;
    for name in ["venkat25", "mc2depi", "bcsstk39", "parabolic_fem"] {
        let (_dev, _x, rep) = run(name, cfg.clone(), GpuSpec::h100());
        let relres = rep.solve_report.final_relative_residual();
        assert!(relres < 1e-2, "{name}: mixed relres {relres}");
    }
}

#[test]
fn kernel_call_counts_match_paper_formulas() {
    let mut cfg = AmgConfig::amgt_fp64();
    cfg.max_iterations = 50;
    let (_dev, _x, rep) = run("cant", cfg.clone(), GpuSpec::a100());
    let levels = rep.setup_stats.levels;
    assert_eq!(rep.spgemm_calls, 3 * (levels - 1));
    assert_eq!(rep.spmv_calls, amgt::expected_spmv_calls(levels, 50));
}

#[test]
fn ledger_times_are_positive_and_phase_separated() {
    let (dev, _x, rep) = run("venkat25", AmgConfig::amgt_mixed(), GpuSpec::h100());
    assert!(rep.setup.total > 0.0 && rep.solve.total > 0.0);
    for e in dev.events() {
        assert!(e.seconds > 0.0, "zero-cost event {e:?}");
    }
    // Setup holds all SpGEMM; solve holds all SpMV (standalone AMG flow).
    assert!(rep
        .events
        .iter()
        .all(|e| e.kind != KernelKind::SpGemmNumeric || e.phase == amgt_sim::Phase::Setup));
}

#[test]
fn mi210_mixed_never_uses_fp16() {
    let a = suite::generate("bcsstk39", Scale::Small).unwrap();
    let b = rhs_of_ones(&a);
    let dev = Device::new(GpuSpec::mi210());
    let mut cfg = AmgConfig::amgt_mixed();
    cfg.max_iterations = 3;
    let (_x, h, rep) = run_amg(&dev, &cfg, a, &b);
    assert!(h.levels.iter().all(|l| l.precision != Precision::Fp16));
    assert!(rep.events.iter().all(|e| e.precision != Precision::Fp16));
}

#[test]
fn deterministic_across_runs() {
    let mk = || {
        let mut cfg = AmgConfig::amgt_mixed();
        cfg.max_iterations = 6;
        run("stomach", cfg, GpuSpec::a100())
    };
    let (d1, x1, r1) = mk();
    let (d2, x2, r2) = mk();
    assert_eq!(x1, x2);
    assert_eq!(r1.solve_report.history, r2.solve_report.history);
    let (e1, e2) = (d1.events(), d2.events());
    assert_eq!(e1.len(), e2.len());
    for (a, b) in e1.iter().zip(&e2) {
        assert_eq!(a.seconds.to_bits(), b.seconds.to_bits(), "event {}", a.seq);
    }
}

#[test]
fn pcg_beats_plain_cycles_on_suite_matrix() {
    let a = suite::generate("thermal1", Scale::Small).unwrap();
    let b = rhs_of_ones(&a);
    let dev = Device::new(GpuSpec::a100());
    let cfg = AmgConfig::amgt_fp64();
    let h = setup(&dev, &cfg, a);

    let mut plain_cfg = cfg.clone();
    plain_cfg.tolerance = 1e-8;
    plain_cfg.max_iterations = 200;
    let mut x1 = vec![0.0; b.len()];
    let plain = solve(&dev, &plain_cfg, &h, &b, &mut x1);

    let mut x2 = vec![0.0; b.len()];
    let pcg = amgt::pcg::pcg_solve(&dev, &cfg, &h, &b, &mut x2, 1e-8, 200);
    assert!(pcg.converged);
    assert!(
        pcg.iterations <= plain.iterations,
        "PCG {} vs plain {}",
        pcg.iterations,
        plain.iterations
    );
}
