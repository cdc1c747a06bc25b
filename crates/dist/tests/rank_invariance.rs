//! Rank-count invariance of the distributed solve over the full evaluation
//! suite (Table II): at one rank the distributed stationary solve is
//! bitwise-identical to the single-device solver, and the iterate
//! trajectory does not change with the rank count.

use amgt::config::{AmgConfig, CycleType};
use amgt::diagnostics::SolveOutcome;
use amgt::hierarchy::setup;
use amgt::solve::solve;
use amgt_dist::dist_solve;
use amgt_kernels::ExecMode;
use amgt_sim::{Cluster, Device, GpuSpec, Interconnect};
use amgt_sparse::gen::{laplacian_2d, rhs_of_ones, Stencil2d};
use amgt_sparse::suite::{self, Scale};

fn cluster(p: usize) -> Cluster {
    Cluster::new(GpuSpec::a100(), p, Interconnect::nvlink())
}

/// The tier-1 invariance gate: every suite matrix, stationary V-cycles,
/// P = 1 bitwise against the single-device solver and P in {2, 4}
/// bitwise-invariant in residual history, solution and iteration count.
#[test]
fn suite_rank_invariance() {
    for entry in suite::entries() {
        let a = suite::generate(entry.name, Scale::Small).unwrap();
        let b = rhs_of_ones(&a);
        let mut cfg = AmgConfig::amgt_fp64();
        // Native execution is bitwise-identical to Simulated and much
        // faster on the host; a handful of cycles is enough to expose any
        // halo defect (a single wrong ghost lane poisons the trajectory).
        cfg.exec = ExecMode::Native;
        cfg.max_iterations = 4;
        cfg.tolerance = 1e-10;

        let dev = Device::new(GpuSpec::a100());
        let h = setup(&dev, &cfg, a.clone());
        let mut x_ref = vec![0.0; b.len()];
        let ref_report = solve(&dev, &cfg, &h, &b, &mut x_ref);

        let mut histories = Vec::new();
        for p in [1usize, 2, 4] {
            let cl = cluster(p);
            let (x, rep) = dist_solve(&cl, &cfg, a.clone(), &b);
            assert_eq!(
                rep.solve_report.iterations, ref_report.iterations,
                "{}: iterations diverged at p={p}",
                entry.name
            );
            for (i, (u, v)) in x.iter().zip(&x_ref).enumerate() {
                assert_eq!(
                    u.to_bits(),
                    v.to_bits(),
                    "{} p={p} row {i}: {u} vs {v}",
                    entry.name
                );
            }
            histories.push(rep.solve_report.history.clone());
        }
        // P = 1 reproduces the single-device residual history bitwise...
        assert_eq!(
            histories[0], ref_report.history,
            "{}: p=1 history differs from single-device",
            entry.name
        );
        // ...and with more ranks only the *recorded* norms move (an
        // all-reduce of partial dots rounds differently from the
        // sequential fold at the ulp); the iterates themselves were
        // asserted bitwise above.
        for h in &histories[1..] {
            for (u, v) in h.iter().zip(&histories[0]) {
                assert!(
                    (u - v).abs() <= 1e-12 * v.abs(),
                    "{}: history varies with p beyond rounding: {u} vs {v}",
                    entry.name
                );
            }
        }
    }
}

/// Distributed PCG: P = 1 matches the single-device PCG bitwise; more
/// ranks may round dot products differently, so they must agree on the
/// converged residual within rounding and on the iteration count ±1.
#[test]
fn pcg_rank_agreement() {
    use amgt_dist::dist_pcg;

    let a = suite::generate("thermal1", Scale::Small).unwrap();
    let b = rhs_of_ones(&a);
    let mut cfg = AmgConfig::amgt_fp64();
    cfg.exec = ExecMode::Native;
    let tol = 1e-8;
    let max_iters = 60;

    let dev = Device::new(GpuSpec::a100());
    let h = setup(&dev, &cfg, a.clone());
    let mut x_ref = vec![0.0; b.len()];
    let ref_rep = amgt::pcg::pcg_solve(&dev, &cfg, &h, &b, &mut x_ref, tol, max_iters);
    assert!(ref_rep.converged);

    let (x1, r1) = dist_pcg(&cluster(1), &cfg, a.clone(), &b, tol, max_iters);
    assert_eq!(r1.solve_report.iterations, ref_rep.iterations);
    assert_eq!(r1.solve_report.history, ref_rep.history);
    for (u, v) in x1.iter().zip(&x_ref) {
        assert_eq!(u.to_bits(), v.to_bits());
    }

    for p in [2usize, 4] {
        let (_, rp) = dist_pcg(&cluster(p), &cfg, a.clone(), &b, tol, max_iters);
        assert!(rp.solve_report.converged, "p={p} did not converge");
        assert!(
            rp.solve_report.iterations.abs_diff(ref_rep.iterations) <= 1,
            "p={p}: {} vs {} iterations",
            rp.solve_report.iterations,
            ref_rep.iterations
        );
        let rel = rp.solve_report.history.last().unwrap();
        assert!(*rel < tol, "p={p} converged residual {rel}");
    }
}

/// The distributed cycle against the single-device solver for every cycle
/// shape. P = 1
/// matches `solve` bitwise in solution and history, and P = 2 gives the
/// same iterate bits. The 1024-row Laplacian distributes two levels (one
/// with a halo-exchanged interpolation) above a gathered region that
/// smooths before its coarse solve; the 100-row one is below the gather
/// threshold and runs fully redundant.
#[test]
fn cycle_configurations_match_single_device() {
    let matrices = [
        laplacian_2d(32, 32, Stencil2d::Five),
        laplacian_2d(10, 10, Stencil2d::Five),
    ];
    let cycles = [CycleType::V, CycleType::W, CycleType::F];
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (m, a) in matrices.iter().enumerate() {
        let b: Vec<f64> = (0..a.nrows())
            .map(|i| (i as f64 * 0.37).sin() + 0.5)
            .collect();
        for cycle in cycles {
            let mut cfg = AmgConfig::amgt_fp64();
            cfg.exec = ExecMode::Native;
            cfg.max_row_sum = 1.0;
            cfg.max_iterations = 3;
            cfg.tolerance = 1e-10;
            cfg.cycle = cycle;
            let what = format!("matrix {m} {cycle:?}");

            let dev = Device::new(GpuSpec::a100());
            let h = setup(&dev, &cfg, a.clone());
            let mut x_ref = vec![0.0; b.len()];
            let ref_report = solve(&dev, &cfg, &h, &b, &mut x_ref);

            let (x1, r1) = dist_solve(&cluster(1), &cfg, a.clone(), &b);
            assert_eq!(bits(&x1), bits(&x_ref), "{what}: p=1 x");
            assert_eq!(r1.solve_report.history, ref_report.history, "{what}");
            if m == 0 {
                assert!(r1.gathered_levels >= 2, "{what}: {r1:?}");
                assert!(r1.levels - r1.gathered_levels >= 2, "{what}: {r1:?}");
            } else {
                assert_eq!(r1.gathered_levels, r1.levels, "{what}");
            }

            let (x2, r2) = dist_solve(&cluster(2), &cfg, a.clone(), &b);
            assert_eq!(bits(&x2), bits(&x_ref), "{what}: p=2 x");
            assert_eq!(r2.solve_report.iterations, ref_report.iterations, "{what}");
        }
    }
}

/// A right-hand side with a NaN poisons the first cycle. At P = 1 the
/// distributed solve reports the same health events as `solve`, naming the
/// level and stage that produced the NaN; at P = 2 every rank still stops
/// after that cycle.
#[test]
fn non_finite_first_cycle_reports_like_single_device() {
    let a = laplacian_2d(32, 32, Stencil2d::Five);
    let mut b = rhs_of_ones(&a);
    b[17] = f64::NAN;
    let mut cfg = AmgConfig::amgt_fp64();
    cfg.exec = ExecMode::Native;
    cfg.max_iterations = 4;
    cfg.tolerance = 1e-10;

    let dev = Device::new(GpuSpec::a100());
    let h = setup(&dev, &cfg, a.clone());
    let mut x_ref = vec![0.0; b.len()];
    let ref_report = solve(&dev, &cfg, &h, &b, &mut x_ref);
    assert_eq!(ref_report.outcome, SolveOutcome::NonFinite);
    assert_eq!(ref_report.iterations, 1);
    assert_eq!(ref_report.health_events.len(), 1);
    assert_eq!(
        ref_report.health_events[0].detail,
        "non-finite values after pre-smoothing"
    );

    let (_, r1) = dist_solve(&cluster(1), &cfg, a.clone(), &b);
    assert_eq!(
        format!("{:?}", r1.solve_report.health_events),
        format!("{:?}", ref_report.health_events)
    );
    assert_eq!(r1.solve_report.outcome, SolveOutcome::NonFinite);
    assert_eq!(r1.solve_report.iterations, 1);

    let (_, r2) = dist_solve(&cluster(2), &cfg, a, &b);
    assert_eq!(r2.solve_report.outcome, SolveOutcome::NonFinite);
    assert_eq!(r2.solve_report.iterations, 1);
}
