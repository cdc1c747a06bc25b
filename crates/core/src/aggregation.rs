//! Aggregation-based coarsening (the AmgX-style alternative to classical
//! C/F coarsening; Naumov et al., referenced by the paper's related work).
//!
//! Greedy pairwise aggregation over the strength graph builds disjoint
//! aggregates; the tentative interpolation is piecewise-constant over
//! aggregates, optionally smoothed by one weighted-Jacobi step
//! `P = (I - omega D^{-1} A) P_tent` — which costs exactly one SpGEMM,
//! matching the paper's interpolation accounting.

use crate::backend::{op_matmul_ws, Operator};
use crate::config::BackendKind;
use crate::strength::Strength;
use amgt_kernels::spgemm_mbsr::SpgemmWorkspace;
use amgt_kernels::Ctx;
use amgt_sim::{Algo, KernelCost, KernelKind};
use amgt_sparse::Csr;

/// Result of aggregation: a dense map node -> aggregate id.
#[derive(Clone, Debug)]
pub struct Aggregation {
    pub aggregate_of: Vec<u32>,
    pub n_aggregates: usize,
}

/// Greedy aggregation: unassigned points grab their unassigned strong
/// neighbours; stragglers join an adjacent aggregate (or form singletons
/// when isolated).
pub fn aggregate(ctx: &Ctx, s: &Strength, seed: u64) -> Aggregation {
    let timer = ctx.timer();
    let n = s.n;
    const UNASSIGNED: u32 = u32::MAX;
    let mut agg = vec![UNASSIGNED; n];
    let mut count = 0u32;

    // Deterministic visit order with a seeded rotation so aggregation does
    // not systematically favour low indices.
    let offset = (seed as usize) % n.max(1);
    let order = (0..n).map(|i| (i + offset) % n.max(1));

    // Pass 1: seed aggregates from fully-unassigned neighbourhoods.
    let mut ops = 0u64;
    for i in order.clone() {
        if agg[i] != UNASSIGNED {
            continue;
        }
        ops += s.row(i).len() as u64;
        if s.row(i).iter().all(|&j| agg[j as usize] == UNASSIGNED) {
            agg[i] = count;
            for &j in s.row(i) {
                agg[j as usize] = count;
            }
            count += 1;
        }
    }
    // Pass 2: attach stragglers to a strong neighbour's aggregate.
    for i in order.clone() {
        if agg[i] != UNASSIGNED {
            continue;
        }
        if let Some(&j) = s.row(i).iter().find(|&&j| agg[j as usize] != UNASSIGNED) {
            agg[i] = agg[j as usize];
        }
    }
    // Pass 3: isolated leftovers become singletons.
    for i in 0..n {
        if agg[i] == UNASSIGNED {
            agg[i] = count;
            count += 1;
        }
    }

    ctx.charge_timed(
        KernelKind::Graph,
        Algo::Shared,
        &KernelCost {
            int_ops: (2 * ops + 3 * n as u64) as f64,
            bytes: s.nnz() as f64 * 4.0 + n as f64 * 8.0,
            launches: 3,
            ..Default::default()
        },
        timer,
    );
    Aggregation {
        aggregate_of: agg,
        n_aggregates: count as usize,
    }
}

/// Piecewise-constant tentative prolongator: `P[i, agg(i)] = 1`.
pub fn tentative_prolongator(agg: &Aggregation) -> Csr {
    let trips: Vec<(usize, usize, f64)> = agg
        .aggregate_of
        .iter()
        .enumerate()
        .map(|(i, &g)| (i, g as usize, 1.0))
        .collect();
    Csr::from_triplets(agg.aggregate_of.len(), agg.n_aggregates, &trips)
}

/// Smoothed-aggregation prolongator: `P = P_tent - omega * D^{-1} (A P_tent)`.
/// The product `A * P_tent` is the scheme's one SpGEMM.
pub fn smoothed_prolongator(
    ctx: &Ctx,
    backend: BackendKind,
    a: &Csr,
    agg: &Aggregation,
    omega: f64,
    ws: &mut SpgemmWorkspace,
) -> Csr {
    let p_tent = tentative_prolongator(agg);
    let a_op = Operator::prepare_for_spgemm(ctx, backend, a.clone());
    let p_op = Operator::prepare_for_spgemm(ctx, backend, p_tent.clone());
    let ap = op_matmul_ws(ctx, &a_op, &p_op, ws);

    // Scale rows of AP by -omega / d_i and add the tentative part.
    let timer = ctx.timer();
    let diag = a.diagonal();
    let mut scaled = ap.csr;
    let scale: Vec<f64> = diag
        .iter()
        .map(|&d| if d != 0.0 { -omega / d } else { 0.0 })
        .collect();
    scaled.scale_rows(&scale);
    let p = p_tent.add(&scaled);
    ctx.charge_timed(
        KernelKind::Vector,
        Algo::Shared,
        &KernelCost {
            cuda_flops: 2.0 * p.nnz() as f64,
            bytes: 2.0 * p.bytes(),
            launches: 2,
            ..Default::default()
        },
        timer,
    );
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strength::strength_graph;
    use amgt_sim::{Device, GpuSpec, Phase, Precision};
    use amgt_sparse::gen::{laplacian_2d, Stencil2d};

    fn ctx(dev: &Device) -> Ctx<'_> {
        Ctx::new(dev, Phase::Setup, 0, Precision::Fp64)
    }

    fn agg_for(a: &Csr) -> Aggregation {
        let dev = Device::new(GpuSpec::a100());
        let s = strength_graph(&ctx(&dev), a, 0.25, 1.0);
        aggregate(&ctx(&dev), &s, 7)
    }

    #[test]
    fn every_node_assigned_and_ids_dense() {
        let a = laplacian_2d(14, 14, Stencil2d::Five);
        let agg = agg_for(&a);
        assert_eq!(agg.aggregate_of.len(), a.nrows());
        let max = *agg.aggregate_of.iter().max().unwrap() as usize;
        assert_eq!(max + 1, agg.n_aggregates);
        // Coarsening ratio between ~3x and ~8x for a 5-point stencil.
        let ratio = a.nrows() as f64 / agg.n_aggregates as f64;
        assert!((2.0..10.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn tentative_prolongator_partition_of_unity() {
        let a = laplacian_2d(10, 10, Stencil2d::Five);
        let agg = agg_for(&a);
        let p = tentative_prolongator(&agg);
        assert_eq!(p.nrows(), 100);
        assert_eq!(p.ncols(), agg.n_aggregates);
        // Exactly one unit entry per row; column sums = aggregate sizes.
        for r in 0..p.nrows() {
            let (cols, vals) = p.row(r);
            assert_eq!(cols.len(), 1);
            assert_eq!(vals[0], 1.0);
        }
        let ones = p.matvec(&vec![1.0; p.ncols()]);
        assert!(ones.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn smoothed_prolongator_uses_one_spgemm_and_preserves_constants() {
        let a = laplacian_2d(12, 12, Stencil2d::Five);
        let agg = agg_for(&a);
        let dev = Device::new(GpuSpec::a100());
        let mut ws = SpgemmWorkspace::default();
        let p = smoothed_prolongator(
            &ctx(&dev),
            BackendKind::Vendor,
            &a,
            &agg,
            2.0 / 3.0,
            &mut ws,
        );
        let numeric = dev
            .events()
            .iter()
            .filter(|e| e.kind == KernelKind::SpGemmNumeric)
            .count();
        assert_eq!(numeric, 1);
        // Smoothing widens the stencil beyond one entry per row somewhere.
        assert!(p.nnz() > p.nrows());
        // Near-null-space preservation: on interior rows with zero row sums
        // the smoothed P still reproduces constants: P * 1 = 1 - omega*D^-1*(A*1).
        let p1 = p.matvec(&vec![1.0; p.ncols()]);
        let a1 = a.matvec(&vec![1.0; a.ncols()]);
        let d = a.diagonal();
        for i in 0..p.nrows() {
            let expect = 1.0 - (2.0 / 3.0) * a1[i] / d[i];
            assert!(
                (p1[i] - expect).abs() < 1e-12,
                "row {i}: {} vs {expect}",
                p1[i]
            );
        }
    }

    #[test]
    fn aggregation_deterministic_per_seed() {
        let a = laplacian_2d(9, 9, Stencil2d::Five);
        let dev = Device::new(GpuSpec::a100());
        let s = strength_graph(&ctx(&dev), &a, 0.25, 1.0);
        let a1 = aggregate(&ctx(&dev), &s, 3);
        let a2 = aggregate(&ctx(&dev), &s, 3);
        assert_eq!(a1.aggregate_of, a2.aggregate_of);
    }

    #[test]
    fn isolated_points_become_singletons() {
        let a = Csr::identity(6);
        let agg = agg_for(&a);
        assert_eq!(agg.n_aggregates, 6);
    }
}
