//! Property tests for the allocation-free workspace paths: every `_into`
//! variant must be **bitwise identical** to its allocating counterpart, and
//! a `SolveWorkspace` reused across back-to-back solves (including W/F
//! cycles, whose correction buffers are re-zeroed between visits) must
//! reproduce the fresh-workspace iterates exactly.

use amgt::prelude::*;
use amgt::solve::{solve, solve_with_workspace, SolveWorkspace};
use amgt::{op_matmul_ws, CycleType, OpScratch, Operator};
use amgt_kernels::spgemm_mbsr::SpgemmWorkspace;
use amgt_kernels::Ctx;
use amgt_sim::{Phase, Precision};
use amgt_sparse::gen::{laplacian_2d, random_sparse, rhs_of_ones, Stencil2d};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

fn ctx(dev: &Device, prec: Precision) -> Ctx<'_> {
    Ctx::new(dev, Phase::Solve, 0, prec)
}

fn random_x(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `spmv_into` (both backends, FP64 and FP16 contexts) is bitwise equal
    /// to `spmv`, including when one scratch is reused across two matrices
    /// of different shapes (stale padding must not leak).
    #[test]
    fn spmv_into_matches_allocating(
        (n, k, seed) in (4usize..60, 1usize..6, any::<u64>())
    ) {
        let dev = Device::new(GpuSpec::a100());
        let a = random_sparse(n, k, seed);
        let a2 = random_sparse(n / 2 + 2, k, seed ^ 0x5A5A);
        let mut scratch = OpScratch::default();
        for backend in [BackendKind::Vendor, BackendKind::AmgT] {
            for prec in [Precision::Fp64, Precision::Fp16] {
                let c = ctx(&dev, prec);
                // Interleave two operand shapes through ONE scratch.
                for m in [&a, &a2] {
                    let op = Operator::prepare(&c, backend, m.clone());
                    let x = random_x(m.ncols(), seed ^ n as u64);
                    let y_ref = op.spmv(&c, &x);
                    let mut y = Vec::new();
                    op.spmv_into(&c, &x, &mut scratch, &mut y);
                    prop_assert_eq!(bits(&y_ref), bits(&y));
                }
            }
        }
    }

    /// `spmm_into` is bitwise equal to `spmm` per column, with scratch
    /// reused across calls and backends.
    #[test]
    fn spmm_into_matches_allocating(
        (n, k, ncols, seed) in (4usize..50, 1usize..5, 1usize..7, any::<u64>())
    ) {
        let dev = Device::new(GpuSpec::a100());
        let a = random_sparse(n, k, seed);
        let cols: Vec<Vec<f64>> = (0..ncols)
            .map(|j| random_x(a.ncols(), seed ^ j as u64))
            .collect();
        let x = MultiVector::from_columns(&cols);
        let mut scratch = OpScratch::default();
        for backend in [BackendKind::Vendor, BackendKind::AmgT] {
            let c = ctx(&dev, Precision::Fp64);
            let op = Operator::prepare(&c, backend, a.clone());
            let y_ref = op.spmm(&c, &x);
            let mut y = MultiVector::default();
            op.spmm_into(&c, &x, &mut scratch, &mut y);
            prop_assert_eq!(y_ref.nrows, y.nrows);
            prop_assert_eq!(y_ref.ncols, y.ncols);
            prop_assert_eq!(bits(&y_ref.data), bits(&y.data));
        }
    }

    /// An SpGEMM workspace reused across products (the RAP pattern) yields
    /// the same matrices as fresh per-product state.
    #[test]
    fn spgemm_workspace_reuse_matches_fresh(
        (n, k, seed) in (4usize..40, 1usize..4, any::<u64>())
    ) {
        let dev = Device::new(GpuSpec::a100());
        let c = ctx(&dev, Precision::Fp64);
        let a = Operator::prepare(&c, BackendKind::AmgT, random_sparse(n, k, seed));
        let b = Operator::prepare(&c, BackendKind::AmgT, random_sparse(n, k, seed ^ 0xBEEF));
        let mut ws = SpgemmWorkspace::default();
        // Two products through one workspace, versus fresh state each time.
        let ab_ws = op_matmul_ws(&c, &a, &b, &mut ws);
        let ba_ws = op_matmul_ws(&c, &b, &a, &mut ws);
        let ab = op_matmul_ws(&c, &a, &b, &mut SpgemmWorkspace::default());
        let ba = op_matmul_ws(&c, &b, &a, &mut SpgemmWorkspace::default());
        prop_assert_eq!(&ab.csr, &ab_ws.csr);
        prop_assert_eq!(&ba.csr, &ba_ws.csr);
    }
}

proptest! {
    // Full AMG solves are expensive; fewer cases, broader configs.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Two back-to-back solves through ONE reused `SolveWorkspace` produce
    /// bitwise-identical solutions and residual histories to fresh-workspace
    /// solves — across V, W and F cycles.
    #[test]
    fn reused_solve_workspace_is_bitwise_identical(
        (w, h_dim, cyc) in (6usize..14, 6usize..14, 0u8..3)
    ) {
        let a = laplacian_2d(w, h_dim, Stencil2d::Five);
        let b = rhs_of_ones(&a);
        let dev = Device::new(GpuSpec::a100());
        let mut cfg = AmgConfig::amgt_fp64();
        cfg.max_iterations = 6;
        cfg.tolerance = 0.0;
        cfg.cycle = match cyc { 0 => CycleType::V, 1 => CycleType::W, _ => CycleType::F };
        let h = setup(&dev, &cfg, a);

        // Reference: fresh workspace per solve (the allocating entry point).
        let mut x1 = vec![0.0; b.len()];
        let r1 = solve(&dev, &cfg, &h, &b, &mut x1);
        let mut x2 = x1.clone();
        let r2 = solve(&dev, &cfg, &h, &b, &mut x2);

        // One workspace reused across both solves.
        let mut ws = SolveWorkspace::for_hierarchy(&h);
        let mut y1 = vec![0.0; b.len()];
        let s1 = solve_with_workspace(&dev, &cfg, &h, &b, &mut y1, &mut ws);
        let mut y2 = y1.clone();
        let s2 = solve_with_workspace(&dev, &cfg, &h, &b, &mut y2, &mut ws);

        prop_assert_eq!(bits(&x1), bits(&y1));
        prop_assert_eq!(bits(&x2), bits(&y2));
        prop_assert_eq!(bits(&r1.history), bits(&s1.history));
        prop_assert_eq!(bits(&r2.history), bits(&s2.history));
    }

    /// The batched solver with a reused workspace matches its allocating
    /// entry point bitwise, per column.
    #[test]
    fn reused_batched_workspace_is_bitwise_identical(
        (w, h_dim, ncols) in (6usize..12, 6usize..12, 1usize..5)
    ) {
        use amgt::solve::{solve_batched, solve_batched_with_workspace};
        let a = laplacian_2d(w, h_dim, Stencil2d::Five);
        let dev = Device::new(GpuSpec::a100());
        let mut cfg = AmgConfig::amgt_fp64();
        cfg.max_iterations = 5;
        let h = setup(&dev, &cfg, a.clone());
        let cols: Vec<Vec<f64>> = (0..ncols)
            .map(|j| random_x(a.nrows(), 0xC0FFEE ^ j as u64))
            .collect();
        let b = MultiVector::from_columns(&cols);

        let mut x_ref = MultiVector::zeros(b.nrows, b.ncols);
        let rep_ref = solve_batched(&dev, &cfg, &h, &b, &mut x_ref);

        let mut ws = SolveWorkspace::for_hierarchy(&h);
        let mut x1 = MultiVector::zeros(b.nrows, b.ncols);
        solve_batched_with_workspace(&dev, &cfg, &h, &b, &mut x1, &mut ws);
        // Second run through the same (now grown) workspace.
        let mut x2 = MultiVector::zeros(b.nrows, b.ncols);
        let rep2 = solve_batched_with_workspace(&dev, &cfg, &h, &b, &mut x2, &mut ws);

        prop_assert_eq!(bits(&x_ref.data), bits(&x1.data));
        prop_assert_eq!(bits(&x_ref.data), bits(&x2.data));
        prop_assert_eq!(rep_ref.iterations, rep2.iterations);
    }
}
