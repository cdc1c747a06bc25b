//! Vendor-library baseline kernels (cuSPARSE / rocSPARSE style).
//!
//! The paper's baseline is HYPRE v2.31.0 calling the vendor CSR kernels:
//! a two-phase hash SpGEMM (`cusparseSpGEMM`) and a row-parallel CSR SpMV
//! (`cusparseSpMV`). These are reimplemented here so the comparison is
//! self-contained: results are exact, and the measured operation counts
//! (intermediate products, hash probes, traffic) feed the cost model.

use crate::ctx::Ctx;
use amgt_sim::{Algo, KernelCost, KernelKind};
use amgt_sparse::Csr;
use rayon::prelude::*;

/// Fork-join leaf size, in rows, for the vendor CSR SpMV sweep.
const CSR_JOIN_GRAIN: usize = 1024;

/// Statistics a vendor SpGEMM reports alongside its result.
#[derive(Clone, Copy, Debug, Default)]
pub struct VendorSpgemmStats {
    /// Total scalar intermediate products (`sum over a_ik of nnz(B_k*)`).
    pub intermediate_products: u64,
    /// Nonzeros in the result.
    pub result_nnz: u64,
}

/// `y = A x` with the vendor CSR algorithm. Values and `x` are quantized to
/// the context precision first (the baseline HYPRE run always uses FP64; the
/// quantization is the identity there).
pub fn spmv_csr(ctx: &Ctx, a: &Csr, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; a.nrows()];
    spmv_csr_into(ctx, a, x, &mut y);
    y
}

/// [`spmv_csr`] writing into a caller-owned output of length `a.nrows()`.
/// Bitwise-identical (same per-row accumulation order, same kernel charge)
/// and allocation-free.
pub fn spmv_csr_into(ctx: &Ctx, a: &Csr, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), a.ncols());
    assert_eq!(y.len(), a.nrows());
    let timer = ctx.timer();
    let prec = ctx.precision;
    let be = ctx.backend();
    // Rows are independent: fan out as a fork-join tree over disjoint output
    // chunks (sequential under a single-thread pool), one backend call per
    // leaf of rows.
    amgt_exec::par::join_block_chunks(
        y,
        0,
        a.nrows(),
        1,
        CSR_JOIN_GRAIN,
        &|r0, n_rows, chunk| be.csr_spmv_rows(prec, a, r0..r0 + n_rows, x, &mut chunk[..n_rows]),
        &|(), ()| (),
    );

    let vb = prec.bytes() as f64;
    let cost = KernelCost {
        cuda_flops: 2.0 * a.nnz() as f64,
        int_ops: a.nnz() as f64, // Column-index decode per nonzero.
        // Row pointers + column indices + values + x gather + y write.
        bytes: a.nrows() as f64 * 8.0
            + a.nnz() as f64 * (4.0 + vb) // col idx + value
            + a.nnz() as f64 * vb // x gather (irregular; derated by mem eff)
            + a.nrows() as f64 * vb,
        launches: 1,
        ..Default::default()
    };
    ctx.charge_timed(KernelKind::SpMV, Algo::Vendor, &cost, timer);
}

/// Count intermediate products of `A * B` (the size of the symbolic work).
pub fn intermediate_products(a: &Csr, b: &Csr) -> u64 {
    (0..a.nrows())
        .into_par_iter()
        .map(|r| {
            a.row(r)
                .0
                .iter()
                .map(|&k| b.row_nnz(k as usize) as u64)
                .sum::<u64>()
        })
        .sum()
}

/// `C = A * B` with the vendor two-phase hash algorithm.
///
/// Phase 1 (symbolic) sizes each row of `C` with a hash set over scalar
/// column indices; phase 2 (numeric) re-hashes accumulating values, then
/// sorts each row. Charged as two kernel events, mirroring
/// `cusparseSpGEMM`'s workEstimation/compute split.
pub fn spgemm_csr(ctx: &Ctx, a: &Csr, b: &Csr) -> (Csr, VendorSpgemmStats) {
    assert_eq!(a.ncols(), b.nrows());
    let sym_timer = ctx.timer();
    let prec = ctx.precision;
    let n = a.nrows();
    let products = intermediate_products(a, b);

    // --- Symbolic phase ---
    // The GPU kernel hashes per product; on the CPU we reproduce the same
    // result with a sparse accumulator (a generation-stamped column marker)
    // so paper-scale matrices stay tractable: one pass counts each row's
    // distinct columns, a prefix sum sizes the flat column array, and a
    // second pass fills each row's stretch and sorts it. The *charged* cost
    // below still models the hash algorithm.
    let mut marker = vec![u32::MAX; b.ncols()];
    let mut generation = 0u32;
    let mut visit_row = |r: usize, mut put: Option<&mut [u32]>| -> usize {
        generation += 1;
        let mut len = 0;
        for &k in a.row(r).0 {
            for &c in b.row(k as usize).0 {
                if marker[c as usize] != generation {
                    marker[c as usize] = generation;
                    if let Some(out) = put.as_deref_mut() {
                        out[len] = c;
                    }
                    len += 1;
                }
            }
        }
        len
    };
    let mut row_ptr = vec![0usize; n + 1];
    for r in 0..n {
        row_ptr[r + 1] = row_ptr[r] + visit_row(r, None);
    }
    let nnz = row_ptr[n];
    let mut col_idx = vec![0u32; nnz];
    for r in 0..n {
        let cols = &mut col_idx[row_ptr[r]..row_ptr[r + 1]];
        visit_row(r, Some(&mut *cols));
        cols.sort_unstable();
    }

    let sym_cost = KernelCost {
        int_ops: 6.0 * products as f64, // Hash probe + insert per product.
        bytes: a.bytes() * 0.5 /* index arrays only */
            + products as f64 * 4.0 /* B column reads */
            + n as f64 * 8.0,
        launches: 2, // Estimation + fill, as in cusparseSpGEMM_workEstimation.
        ..Default::default()
    };
    ctx.charge_timed(
        KernelKind::SpGemmSymbolic,
        Algo::Vendor,
        &sym_cost,
        sym_timer,
    );

    // --- Numeric phase: hash-accumulate values. ---
    let num_timer = ctx.timer();
    let mut vals = vec![0.0f64; nnz];
    for r in 0..n {
        let (lo, hi) = (row_ptr[r], row_ptr[r + 1]);
        let (cols, vslice) = (&col_idx[lo..hi], &mut vals[lo..hi]);
        // Dense-in-row accumulation via position lookup (the hash table
        // equivalent; exact and deterministic).
        let (acols, avals) = a.row(r);
        for (&k, &av) in acols.iter().zip(avals) {
            let av = prec.quantize(av);
            let (bcols, bvals) = b.row(k as usize);
            for (&c, &bv) in bcols.iter().zip(bvals) {
                let idx = cols.binary_search(&c).expect("symbolic covered column");
                let prod = prec.round_product(av, prec.quantize(bv));
                vslice[idx] = prec.round_accum(vslice[idx] + prod);
            }
        }
    }

    let vb = prec.bytes() as f64;
    let num_cost = KernelCost {
        cuda_flops: 2.0 * products as f64,
        int_ops: 6.0 * products as f64 // Hash probes.
            + row_ptr.windows(2).map(|w| {
                let l = (w[1] - w[0]) as f64;
                if l > 1.0 { l * l.log2() } else { 0.0 }
            }).sum::<f64>(), // Per-row sort.
        // B-row reads hit L2 for about half of the intermediate products.
        bytes: a.bytes() + 0.6 * products as f64 * (4.0 + vb) + nnz as f64 * (4.0 + vb),
        launches: 2,
        ..Default::default()
    };
    ctx.charge_timed(
        KernelKind::SpGemmNumeric,
        Algo::Vendor,
        &num_cost,
        num_timer,
    );

    let c = Csr::new(n, b.ncols(), row_ptr, col_idx, vals);
    (
        c,
        VendorSpgemmStats {
            intermediate_products: products,
            result_nnz: nnz as u64,
        },
    )
}

/// Quantize a CSR matrix's values in place to the context precision —
/// the "very low cost" conversion before coarse-level kernel calls.
pub fn quantize_csr(ctx: &Ctx, a: &mut Csr) {
    let timer = ctx.timer();
    ctx.backend().quantize(ctx.precision, &mut a.vals);
    let cost = KernelCost {
        bytes: a.nnz() as f64 * (8.0 + ctx.precision.bytes() as f64),
        launches: 1,
        ..Default::default()
    };
    ctx.charge_timed(KernelKind::Convert, Algo::Shared, &cost, timer);
}

#[cfg(test)]
mod tests {
    use super::*;
    use amgt_sim::{Device, GpuSpec, Phase, Precision};
    use amgt_sparse::gen::{laplacian_2d, random_sparse, Stencil2d};

    fn ctx(dev: &Device) -> Ctx<'_> {
        Ctx::new(dev, Phase::Solve, 0, Precision::Fp64)
    }

    #[test]
    fn spmv_matches_reference() {
        let dev = Device::new(GpuSpec::a100());
        let a = laplacian_2d(13, 11, Stencil2d::Five);
        let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64 * 0.37).sin()).collect();
        let y = spmv_csr(&ctx(&dev), &a, &x);
        let expect = a.matvec(&x);
        for (u, v) in y.iter().zip(&expect) {
            assert!((u - v).abs() < 1e-12);
        }
        assert_eq!(dev.events().len(), 1);
        assert_eq!(dev.events()[0].kind, amgt_sim::KernelKind::SpMV);
    }

    #[test]
    fn spgemm_matches_reference() {
        let dev = Device::new(GpuSpec::a100());
        let a = random_sparse(60, 5, 3);
        let b = random_sparse(60, 4, 4);
        let (c, stats) = spgemm_csr(&ctx(&dev), &a, &b);
        let expect = a.matmul(&b);
        assert_eq!(c.row_ptr, expect.row_ptr);
        assert_eq!(c.col_idx, expect.col_idx);
        assert!(c.max_abs_diff(&expect) < 1e-10);
        assert_eq!(stats.result_nnz as usize, c.nnz());
        assert!(stats.intermediate_products >= stats.result_nnz);
        // Two ledger events: symbolic + numeric.
        assert_eq!(dev.events().len(), 2);
    }

    #[test]
    fn spgemm_rectangular() {
        let dev = Device::new(GpuSpec::h100());
        let a = Csr::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)]);
        let b = Csr::from_triplets(3, 2, &[(0, 1, 4.0), (2, 0, 6.0), (2, 1, 7.0)]);
        let (c, _) = spgemm_csr(&ctx(&dev), &a, &b);
        assert_eq!(c.to_dense(), vec![vec![12.0, 18.0], vec![0.0, 3.0 * 0.0]]);
    }

    #[test]
    fn low_precision_spmv_loses_accuracy() {
        let dev = Device::new(GpuSpec::a100());
        let a = random_sparse(100, 8, 5);
        let x: Vec<f64> = (0..100).map(|i| 1.0 + (i as f64 * 0.11).cos()).collect();
        let y64 = spmv_csr(&Ctx::new(&dev, Phase::Solve, 0, Precision::Fp64), &a, &x);
        let y16 = spmv_csr(&Ctx::new(&dev, Phase::Solve, 0, Precision::Fp16), &a, &x);
        let max_err = y64
            .iter()
            .zip(&y16)
            .map(|(u, v)| (u - v).abs())
            .fold(0.0f64, f64::max);
        assert!(max_err > 1e-8, "fp16 should differ from fp64");
        assert!(
            max_err < 0.3,
            "fp16 error should stay bounded, got {max_err}"
        );
    }

    #[test]
    fn intermediate_products_counts() {
        let a = Csr::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0)]);
        let b = Csr::from_triplets(2, 2, &[(0, 0, 1.0), (1, 0, 1.0), (1, 1, 1.0)]);
        // Row 0: k=0 (1 nnz) + k=1 (2 nnz) = 3; row 1: k=1 -> 2. Total 5.
        assert_eq!(intermediate_products(&a, &b), 5);
    }

    #[test]
    fn quantize_csr_rounds_values() {
        let dev = Device::new(GpuSpec::a100());
        let mut a = Csr::from_triplets(1, 1, &[(0, 0, 1.0 + 2e-11)]);
        quantize_csr(&Ctx::new(&dev, Phase::Setup, 1, Precision::Fp16), &mut a);
        assert_eq!(a.get(0, 0), Some(1.0));
    }
}
