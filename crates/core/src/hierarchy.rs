//! The AMG setup phase (Algorithm 1) with the AmgT data flow (Figure 6).
//!
//! Per level: coarsening on the CSR image (strength + PMIS), interpolation
//! (one SpGEMM for extended+i), `R = P^T`, Galerkin product `A_{k+1} =
//! R (A P)` as two SpGEMMs — in mBSR for the AmgT backend with one
//! `MBSR2CSR` conversion of the result, so the `A` chain takes the paper's
//! `2 * #levels - 1` conversions (the interpolation operands, `P` and `R`
//! add five more per coarsening). Every SpGEMM of a pass shares one
//! workspace. Under the mixed-precision policy, each level's operators are
//! quantized to that level's precision (FP64 / FP32 / FP16 / ... per
//! Section IV.E).

use crate::backend::{op_transpose, Operator};
use crate::config::{AmgConfig, BackendKind, PrecisionPolicy};
use crate::interp::build_interpolation;
use crate::pmis::pmis;
use crate::strength::strength_graph;
use amgt_kernels::convert::mbsr_to_csr;
use amgt_kernels::spgemm_mbsr::{spgemm_mbsr_with_workspace, SpgemmWorkspace};
use amgt_kernels::vendor::spgemm_csr;
use amgt_kernels::Ctx;
use amgt_sim::{Algo, Device, KernelCost, KernelKind, Phase, Precision, SpanKind, SpanLabel};
use amgt_sparse::Csr;
use std::sync::{Arc, Mutex};

/// One level of the grid hierarchy.
#[derive(Clone)]
pub struct Level {
    /// The level's system matrix, prepared for the backend.
    pub a: Operator,
    /// Interpolation to this level from the next coarser one (`None` on the
    /// coarsest level).
    pub p: Option<Operator>,
    /// Restriction `R = P^T`.
    pub r: Option<Operator>,
    /// Inverse L1 diagonal (`1 / sum_j |a_ij|`) for the L1-Jacobi smoother.
    pub l1_diag_inv: Vec<f64>,
    /// Storage/compute precision assigned to this level.
    pub precision: Precision,
}

impl Level {
    pub fn n(&self) -> usize {
        self.a.nrows()
    }
}

/// Setup statistics (the raw material of Table II).
#[derive(Clone, Debug, Default)]
pub struct SetupStats {
    pub levels: usize,
    pub grid_sizes: Vec<usize>,
    pub grid_nnz: Vec<usize>,
    /// `sum_k nnz(A_k) / nnz(A_0)`.
    pub operator_complexity: f64,
    /// SpGEMM kernel calls issued: 3 per coarsening, the extended+i
    /// interpolation's one and the Galerkin product's two.
    pub spgemm_calls: usize,
    pub coarsening_rounds: Vec<usize>,
}

/// The assembled hierarchy.
#[derive(Clone)]
pub struct Hierarchy {
    pub levels: Vec<Level>,
    pub stats: SetupStats,
    /// SpGEMM workspace (hash-table slab + prefix-sum scratch) grown by the
    /// setup's RAP products and reused by every [`resetup`] of this
    /// hierarchy. Shared across clones so cached hierarchies keep their
    /// capacity.
    spgemm_ws: Arc<Mutex<SpgemmWorkspace>>,
}

impl Hierarchy {
    pub fn n_levels(&self) -> usize {
        self.levels.len()
    }

    pub fn finest(&self) -> &Level {
        &self.levels[0]
    }

    /// Per-level quality statistics plus operator/grid complexity; the same
    /// structure `setup` attaches to an installed trace recorder.
    pub fn diagnostics(&self) -> amgt_sim::HierarchyDiagnostics {
        crate::diagnostics::hierarchy_diagnostics(self)
    }
}

/// Precision for level `k` under the configuration on this device. The
/// mixed-policy level boundaries come from `cfg.policy` (paper default:
/// FP64 / FP32 / FP16 from level 2 on, FP32 without FP16 MMA support).
pub fn level_precision(device: &Device, cfg: &AmgConfig, k: usize) -> Precision {
    match cfg.precision {
        PrecisionPolicy::Uniform64 => Precision::Fp64,
        PrecisionPolicy::Mixed => cfg
            .policy
            .mixed_precision_for_level(device.spec().fp16_supported, k),
    }
}

/// Galerkin product `A_next = R * (A * P)` through the backend: two SpGEMM
/// calls; for AmgT the intermediate stays in mBSR and only the final coarse
/// matrix converts back to CSR.
fn rap(
    ctx: &Ctx,
    backend: BackendKind,
    a: &Operator,
    p: &Operator,
    r: &Operator,
    ws: &mut SpgemmWorkspace,
) -> Csr {
    match backend {
        BackendKind::Vendor => {
            let (ap, _) = spgemm_csr(ctx, &a.csr, &p.csr);
            let (c, _) = spgemm_csr(ctx, &r.csr, &ap);
            c
        }
        BackendKind::AmgT => {
            let ma = a.mbsr.as_ref().expect("AmgT operator");
            let mp = p.mbsr.as_ref().expect("AmgT operator");
            let mr = r.mbsr.as_ref().expect("AmgT operator");
            let (ap, _) = spgemm_mbsr_with_workspace(ctx, ma, mp, ws);
            let (c, _) = spgemm_mbsr_with_workspace(ctx, mr, &ap, ws);
            mbsr_to_csr(ctx, &c)
        }
    }
}

/// Charged computation of the inverse L1 diagonal the smoother scales by.
fn smoother_diagonal(ctx: &Ctx, a: &Csr) -> Vec<f64> {
    let timer = ctx.timer();
    let l1: Vec<f64> = a
        .l1_diagonal()
        .iter()
        .map(|&d| if d != 0.0 { 1.0 / d } else { 0.0 })
        .collect();
    ctx.charge_timed(
        KernelKind::Vector,
        Algo::Shared,
        &KernelCost {
            cuda_flops: a.nnz() as f64 + a.nrows() as f64,
            bytes: a.bytes() + a.nrows() as f64 * 8.0,
            launches: 1,
            ..Default::default()
        },
        timer,
    );
    l1
}

/// Run the full setup phase on a device.
pub fn setup(device: &Device, cfg: &AmgConfig, a0: Csr) -> Hierarchy {
    assert_eq!(a0.nrows(), a0.ncols(), "AMG needs a square system");
    let _phase_span = device.span(SpanKind::Phase, SpanLabel::named("setup"));
    let mut levels: Vec<Level> = Vec::new();
    let mut stats = SetupStats::default();
    let nnz0 = a0.nnz().max(1);

    // One SpGEMM workspace serves every product of this setup and is then
    // carried by the hierarchy for later `resetup` calls.
    let mut spgemm_ws = SpgemmWorkspace::default();
    let mut current = a0;
    let mut k = 0usize;
    loop {
        let _level_span = device.span(SpanKind::Level, SpanLabel::with("level", k as u64));
        let prec = level_precision(device, cfg, k);
        let ctx = Ctx::new(device, Phase::Setup, k as u32, prec)
            .with_policy(cfg.policy)
            .with_exec(cfg.exec);
        let mut a_op = Operator::prepare(&ctx, cfg.backend, current);
        if prec != Precision::Fp64 {
            a_op.quantize(&ctx);
        }
        let l1 = smoother_diagonal(&ctx, &a_op.csr);
        stats.grid_sizes.push(a_op.nrows());
        stats.grid_nnz.push(a_op.nnz());

        // Coarsening (Algorithm 1, line 3). The level is the coarsest when
        // it is small enough, at the depth cap, or when PMIS cannot shrink
        // it.
        let n = a_op.nrows();
        let coarsened = if k + 1 < cfg.max_levels && n > cfg.max_coarse_size {
            let s = strength_graph(&ctx, &a_op.csr, cfg.strength_threshold, cfg.max_row_sum);
            let split = pmis(&ctx, &s, 0xA3_97 + k as u64);
            stats.coarsening_rounds.push(split.rounds);
            (split.n_coarse > 0 && split.n_coarse < n).then_some((s, split))
        } else {
            None
        };
        let Some((s, split)) = coarsened else {
            levels.push(Level {
                a: a_op,
                p: None,
                r: None,
                l1_diag_inv: l1,
                precision: prec,
            });
            break;
        };

        // Extended+i interpolation (line 4): one SpGEMM through the backend.
        let p_csr = build_interpolation(
            &ctx,
            cfg.backend,
            &a_op.csr,
            &s,
            &split,
            cfg.trunc_fact,
            cfg.max_elmts,
            &mut spgemm_ws,
        );
        let p_op = Operator::prepare(&ctx, cfg.backend, p_csr);
        let r_op = op_transpose(&ctx, cfg.backend, &p_op.csr);

        // Galerkin product (line 5): two SpGEMMs.
        let a_next = rap(&ctx, cfg.backend, &a_op, &p_op, &r_op, &mut spgemm_ws);
        stats.spgemm_calls += 3;

        levels.push(Level {
            a: a_op,
            p: Some(p_op),
            r: Some(r_op),
            l1_diag_inv: l1,
            precision: prec,
        });
        current = a_next;
        k += 1;
    }

    stats.levels = levels.len();
    stats.operator_complexity = stats.grid_nnz.iter().map(|&z| z as f64).sum::<f64>() / nnz0 as f64;

    let h = Hierarchy {
        levels,
        stats,
        spgemm_ws: Arc::new(Mutex::new(spgemm_ws)),
    };
    if let Some(rec) = device.recorder() {
        rec.set_hierarchy(h.diagnostics());
    }
    h
}

/// Value-only re-setup for a *sequence* of systems with a fixed sparsity
/// pattern (time-stepping, Newton chains): keeps the coarsening and the
/// interpolation operators of an existing hierarchy and only recomputes the
/// Galerkin products and smoother diagonals — the
/// adaptive-setup idea of alpha-Setup-AMG (Xu et al., cited by the paper).
/// Skips the strength/PMIS/interpolation graph work entirely (2 of 3
/// SpGEMMs per level remain: the two RAP products).
pub fn resetup(device: &Device, cfg: &AmgConfig, h: &mut Hierarchy, a0: Csr) {
    assert_eq!(a0.nrows(), h.finest().n(), "pattern/order mismatch");
    let _phase_span = device.span(SpanKind::Phase, SpanLabel::named("resetup"));
    // Reuse the workspace the original setup grew (clone the Arc so the
    // guard does not pin `h` while the loop borrows its levels).
    let spgemm_ws = h.spgemm_ws.clone();
    let mut spgemm_ws = spgemm_ws.lock().unwrap_or_else(|e| e.into_inner());
    let mut current = Some(a0);
    let n_levels = h.levels.len();
    for k in 0..n_levels {
        let _level_span = device.span(SpanKind::Level, SpanLabel::with("level", k as u64));
        let prec = level_precision(device, cfg, k);
        let ctx = Ctx::new(device, Phase::Setup, k as u32, prec)
            .with_policy(cfg.policy)
            .with_exec(cfg.exec);
        let mut a_op = Operator::prepare(&ctx, cfg.backend, current.take().expect("chain"));
        if prec != Precision::Fp64 {
            a_op.quantize(&ctx);
        }
        let l1 = smoother_diagonal(&ctx, &a_op.csr);
        h.stats.grid_nnz[k] = a_op.nnz();
        if k + 1 < n_levels {
            let p_op = h.levels[k].p.as_ref().expect("existing hierarchy has P");
            let r_op = h.levels[k].r.as_ref().expect("existing hierarchy has R");
            current = Some(rap(&ctx, cfg.backend, &a_op, p_op, r_op, &mut spgemm_ws));
        }
        let lvl = &mut h.levels[k];
        lvl.a = a_op;
        lvl.l1_diag_inv = l1;
    }
    h.stats.operator_complexity =
        h.stats.grid_nnz.iter().map(|&z| z as f64).sum::<f64>() / h.stats.grid_nnz[0].max(1) as f64;

    if let Some(rec) = device.recorder() {
        rec.set_hierarchy(h.diagnostics());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AmgConfig;
    use amgt_sim::GpuSpec;
    use amgt_sparse::gen::{elasticity_3d, laplacian_2d, NeighborSet, Stencil2d};

    fn build(cfg: &AmgConfig, a: Csr) -> (Device, Hierarchy) {
        let dev = Device::new(GpuSpec::a100());
        let h = setup(&dev, cfg, a);
        (dev, h)
    }

    #[test]
    fn laplacian_builds_multiple_levels() {
        let a = laplacian_2d(24, 24, Stencil2d::Five);
        let (_, h) = build(&AmgConfig::amgt_fp64(), a);
        assert!(h.n_levels() >= 3, "levels {}", h.n_levels());
        assert!(h.n_levels() <= 7);
        // Grids shrink strictly.
        for w in h.stats.grid_sizes.windows(2) {
            assert!(w[1] < w[0], "sizes {:?}", h.stats.grid_sizes);
        }
        // 3 SpGEMMs per coarsening.
        assert_eq!(h.stats.spgemm_calls, 3 * (h.n_levels() - 1));
        assert!(h.stats.operator_complexity >= 1.0);
        assert!(h.stats.operator_complexity < 4.0);
    }

    #[test]
    fn vendor_and_amgt_build_identical_grids() {
        let a = laplacian_2d(16, 16, Stencil2d::Five);
        let (_, hv) = build(&AmgConfig::hypre_fp64(), a.clone());
        let (_, ht) = build(&AmgConfig::amgt_fp64(), a);
        assert_eq!(hv.stats.grid_sizes, ht.stats.grid_sizes);
        // Same patterns; values equal to solver tolerance.
        for (lv, lt) in hv.levels.iter().zip(&ht.levels) {
            assert!(lv.a.csr.max_abs_diff(&lt.a.csr) < 1e-8);
        }
    }

    #[test]
    fn level_cap_respected() {
        let mut cfg = AmgConfig::amgt_fp64();
        cfg.max_levels = 2;
        let a = laplacian_2d(20, 20, Stencil2d::Five);
        let (_, h) = build(&cfg, a);
        assert_eq!(h.n_levels(), 2);
        assert!(h.levels[1].p.is_none());
        assert!(h.levels[0].p.is_some());
    }

    #[test]
    fn mixed_precision_assigns_levels() {
        let a = laplacian_2d(24, 24, Stencil2d::Five);
        let (_, h) = build(&AmgConfig::amgt_mixed(), a);
        assert_eq!(h.levels[0].precision, Precision::Fp64);
        if h.n_levels() > 1 {
            assert_eq!(h.levels[1].precision, Precision::Fp32);
        }
        if h.n_levels() > 2 {
            assert_eq!(h.levels[2].precision, Precision::Fp16);
        }
    }

    #[test]
    fn mi210_mixed_avoids_fp16() {
        let dev = Device::new(GpuSpec::mi210());
        let a = laplacian_2d(20, 20, Stencil2d::Five);
        let h = setup(&dev, &AmgConfig::amgt_mixed(), a);
        for lvl in &h.levels[1..] {
            assert_eq!(lvl.precision, Precision::Fp32);
        }
    }

    #[test]
    fn dense_block_matrix_coarsens() {
        let a = elasticity_3d(4, 4, 4, 4, NeighborSet::Face, 5);
        let (_, h) = build(&AmgConfig::amgt_fp64(), a);
        assert!(h.n_levels() >= 2);
        // The finest level of an AmgT hierarchy carries mBSR data.
        assert!(h.finest().a.mbsr.is_some());
    }

    #[test]
    fn galerkin_matrix_matches_reference_product() {
        let a = laplacian_2d(12, 12, Stencil2d::Five);
        let (_, h) = build(&AmgConfig::hypre_fp64(), a);
        assert!(h.n_levels() >= 2);
        let l0 = &h.levels[0];
        let p = &l0.p.as_ref().unwrap().csr;
        let r = &l0.r.as_ref().unwrap().csr;
        let expect = r.matmul(&l0.a.csr.matmul(p));
        assert!(h.levels[1].a.csr.max_abs_diff(&expect) < 1e-10);
    }

    #[test]
    fn resetup_reuses_interpolation_and_converges() {
        let a = laplacian_2d(20, 20, Stencil2d::Five);
        let dev = Device::new(GpuSpec::a100());
        let mut cfg = AmgConfig::amgt_fp64();
        cfg.max_iterations = 25;
        let mut h = setup(&dev, &cfg, a.clone());

        // Shifted system with the identical pattern (a time-step change).
        let shift = Csr::identity(a.nrows());
        let mut shifted = a.clone();
        for v in shifted.vals.iter_mut() {
            *v *= 1.05;
        }
        let a2 = shifted.add(&shift);

        let before = dev.events().len();
        resetup(&dev, &cfg, &mut h, a2.clone());
        let resetup_events = dev.events()[before..].to_vec();
        // No coarsening graph work repeated; exactly 2 SpGEMMs per level
        // (the RAP pair), none for interpolation.
        let spgemm = resetup_events
            .iter()
            .filter(|e| e.kind == KernelKind::SpGemmNumeric)
            .count();
        assert_eq!(spgemm, 2 * (h.n_levels() - 1));

        // The refreshed hierarchy still solves the new system.
        let b = amgt_sparse::gen::rhs_of_ones(&a2);
        let mut x = vec![0.0; b.len()];
        let rep = crate::solve::solve(&dev, &cfg, &h, &b, &mut x);
        assert!(
            rep.final_relative_residual() < 1e-7,
            "resetup relres {}",
            rep.final_relative_residual()
        );
        // Galerkin consistency of the refreshed level 1.
        let l0 = &h.levels[0];
        let expect =
            l0.r.as_ref()
                .unwrap()
                .csr
                .matmul(&l0.a.csr.matmul(&l0.p.as_ref().unwrap().csr));
        assert!(h.levels[1].a.csr.max_abs_diff(&expect) < 1e-9);
    }

    #[test]
    fn conversion_count_matches_data_flow() {
        // AmgT flow, per coarsening: CSR2MBSR of A, of the two interpolation
        // operands (A_FFs, N) and of P and R, plus MBSR2CSR of the
        // interpolation product and of the Galerkin product — 7; the
        // coarsest A adds one CSR2MBSR (29 for 5 levels). The ROADMAP item
        // "mBSR-native data flow" lowers this count to the paper's 2L-1 on
        // purpose; until then it pins that no change adds or drops a
        // Convert charge.
        let a = laplacian_2d(16, 16, Stencil2d::Five);
        let dev = Device::new(GpuSpec::a100());
        let h = setup(&dev, &AmgConfig::amgt_fp64(), a);
        let conversions = dev
            .events()
            .iter()
            .filter(|e| e.kind == KernelKind::Convert && e.algo == Algo::AmgT)
            .count();
        let l = h.n_levels();
        assert!(l >= 3, "levels {l}");
        assert_eq!(conversions, 7 * (l - 1) + 1);
    }

    #[test]
    fn spgemm_calls_count_the_products_issued() {
        // Extended+i interpolation issues one SpGEMM and the Galerkin
        // product two.
        let a = laplacian_2d(20, 20, Stencil2d::Five);
        let (dev, h) = build(&AmgConfig::amgt_fp64(), a);
        let numeric = dev
            .events()
            .iter()
            .filter(|e| e.kind == KernelKind::SpGemmNumeric)
            .count();
        assert!(h.n_levels() >= 2);
        assert_eq!(h.stats.spgemm_calls, numeric);
        assert_eq!(h.stats.spgemm_calls, 3 * (h.n_levels() - 1));
    }
}
