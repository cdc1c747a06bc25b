//! SpMM (sparse matrix times dense multi-vector) on the mBSR format.
//!
//! An extension beyond the paper's SpMV: with eight right-hand sides the
//! 8x8x4 tensor-core shape is used *without* waste — `fragA` holds two
//! stacked tiles of `A`, `fragB` holds the 4x8 slab of the dense operand,
//! and all 64 accumulator entries are useful output (the SpMV of Section
//! IV.D only consumes the diagonal). Multi-RHS solves (multiple load
//! vectors in FEM, block Krylov methods) hit exactly this kernel.

use crate::ctx::{Ctx, ExecMode};
use crate::spmv_mbsr::{SpmvPath, SpmvPlan};
use amgt_exec::SPMM_COLS;
use amgt_sim::mma::MMA_FLOPS;
use amgt_sim::{Algo, KernelCost, KernelKind};
use amgt_sparse::bitmap::{TILE, TILE_AREA};
use amgt_sparse::Mbsr;

/// Number of right-hand sides one tensor fragment carries.
pub const RHS_TILE: usize = 8;

/// Block-rows per leaf of the SpMM fork-join tree (each leaf processes
/// every column's work for its rows, so the grain is smaller than the
/// single-vector SpMV's). Part of the fixed split topology — never derive
/// it from the pool width.
const SPMM_JOIN_GRAIN: usize = 64;

/// A dense column-major multi-vector.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MultiVector {
    pub nrows: usize,
    pub ncols: usize,
    /// Column-major storage: column `j` occupies `data[j*nrows..]`.
    pub data: Vec<f64>,
}

impl MultiVector {
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        MultiVector {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    pub fn from_columns(cols: &[Vec<f64>]) -> Self {
        assert!(!cols.is_empty());
        let nrows = cols[0].len();
        let mut data = Vec::with_capacity(nrows * cols.len());
        for c in cols {
            assert_eq!(c.len(), nrows);
            data.extend_from_slice(c);
        }
        MultiVector {
            nrows,
            ncols: cols.len(),
            data,
        }
    }

    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        &self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        &mut self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Reshape in place to `nrows x ncols`, reusing the existing data
    /// buffer's capacity. Contents after the call are unspecified (every
    /// element is expected to be overwritten by the caller).
    pub fn reshape(&mut self, nrows: usize, ncols: usize) {
        self.nrows = nrows;
        self.ncols = ncols;
        self.data.resize(nrows * ncols, 0.0);
    }

    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[j * self.nrows + i]
    }

    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[j * self.nrows + i] = v;
    }
}

/// Per-call statistics reported by [`spmm_mbsr_with_stats`] — consumed by
/// the serving layer's metrics and by the throughput bench.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpmmStats {
    /// Number of RHS columns processed.
    pub ncols: usize,
    /// Number of [`RHS_TILE`]-wide slabs the columns were coalesced into.
    pub slabs: u32,
    /// Tensor-core `mma` instructions issued (tensor path only).
    pub mma_count: u64,
    /// Scalar flops on the CUDA-core path.
    pub cuda_flops: u64,
}

/// `Y = A X` on mBSR. See [`spmm_mbsr_with_stats`]; this wrapper drops the
/// statistics.
pub fn spmm_mbsr(ctx: &Ctx, a: &Mbsr, plan: &SpmvPlan, x: &MultiVector) -> MultiVector {
    spmm_mbsr_with_stats(ctx, a, plan, x).0
}

/// Reusable scratch for [`spmm_mbsr_into`]: the quantized, padded,
/// column-major operand slab. Capacity grows monotonically across calls.
#[derive(Clone, Debug, Default)]
pub struct SpmmScratch {
    xq: Vec<f64>,
    /// Reduced-precision image of `xq` from `ExecBackend::spmv_quantize_x`
    /// (empty whenever the active backend needs none).
    x32: Vec<f32>,
    /// Tile image for a plan that carries none at the call's precision.
    a32: Vec<f32>,
}

/// `Y = A X` on mBSR, returning per-call [`SpmmStats`].
///
/// Right-hand sides are processed in slabs of [`RHS_TILE`]: `fragB` carries
/// the 4x8 X sub-slab of one tile's column range, so one `mma` per tile per
/// slab produces 4x8 useful accumulator lanes (the SpMV of Section IV.D
/// consumes only the 8-lane diagonal of each `mma`). `A`'s values, indices
/// and bitmaps stream once per slab instead of once per column.
///
/// Each column's arithmetic reuses the row-range kernel of
/// [`crate::spmv_mbsr::spmv_mbsr`] (same path selection, same job schedule,
/// same accumulation order), so every output column is **bitwise identical**
/// to a standalone SpMV of that column at every precision — only the charged
/// cost differs.
pub fn spmm_mbsr_with_stats(
    ctx: &Ctx,
    a: &Mbsr,
    plan: &SpmvPlan,
    x: &MultiVector,
) -> (MultiVector, SpmmStats) {
    let mut scratch = SpmmScratch::default();
    let mut y = MultiVector::zeros(a.nrows(), x.ncols);
    let stats = spmm_mbsr_into(ctx, a, plan, x, &mut scratch, &mut y);
    (y, stats)
}

/// [`spmm_mbsr_with_stats`] writing into a caller-owned output, reusing
/// `scratch` for the quantized operand slab. Bitwise-identical output and
/// identical kernel charge; allocation-free once `scratch` and `y` have
/// grown to the operand size.
pub fn spmm_mbsr_into(
    ctx: &Ctx,
    a: &Mbsr,
    plan: &SpmvPlan,
    x: &MultiVector,
    scratch: &mut SpmmScratch,
    y: &mut MultiVector,
) -> SpmmStats {
    assert_eq!(x.nrows, a.ncols());
    let timer = ctx.timer();
    let prec = ctx.precision;
    let nrhs = x.ncols;
    let padded = a.blk_cols() * TILE;

    // Quantized, padded, column-major operand (per column, exactly the
    // padded vector spmv_mbsr builds). Pad tails are re-zeroed each call:
    // the scratch may carry stale values from a previous operand. Columns
    // are independent, so the quantize sweep forks per column. The sweep
    // also checks the operand is finite; if not, the call runs on the
    // emulator (see `amgt_exec::operand_is_finite`).
    scratch.xq.resize(padded * nrhs, 0.0);
    let xq = &mut scratch.xq[..padded * nrhs];
    let x_nrows = x.nrows;
    let finite = amgt_exec::par::join_block_chunks(
        xq,
        0,
        nrhs,
        padded,
        1,
        &|first_col, ncol, chunk| {
            let mut finite = true;
            for jc in 0..ncol {
                let dst = &mut chunk[jc * padded..(jc + 1) * padded];
                for (d, &v) in dst[..x_nrows].iter_mut().zip(x.col(first_col + jc)) {
                    *d = prec.quantize(v);
                    finite &= amgt_exec::operand_is_finite(prec, *d);
                }
                dst[x_nrows..].fill(0.0);
            }
            finite
        },
        &|l, r| l & r,
    );
    let xq = &scratch.xq[..padded * nrhs];

    y.reshape(a.nrows(), nrhs);
    let nrows = a.nrows();
    let be = if finite {
        ctx.backend()
    } else {
        amgt_exec::backend(ExecMode::Simulated)
    };
    be.spmv_quantize_x(prec, xq, &mut scratch.x32);
    let x32_all = &scratch.x32[..];
    let a32 = plan.tile_image(be, prec, a, &mut scratch.a32);

    // The block-rows fork into an index-range tree; each leaf runs the
    // backend once per chunk of up to `SPMM_COLS` columns over its rows
    // `[r0, r1)`, so a tile is read once per chunk rather than once per
    // column. A leaf owns rows `[4 r0, 4 r1)` of every column — disjoint
    // but strided in the column-major output, hence the `SendPtr` slices.
    // Each column's arithmetic is exactly its SpMV's, so output is bitwise
    // identical to the per-column SpMV at any pool width.
    let y_out = amgt_exec::par::SendPtr::new(y.data.as_mut_ptr());
    amgt_exec::par::join_ranges(
        0,
        a.blk_rows(),
        SPMM_JOIN_GRAIN,
        &|r0, r1| {
            let (lo, hi) = (r0 * TILE, (r1 * TILE).min(nrows));
            for j0 in (0..nrhs).step_by(SPMM_COLS) {
                let cols = j0..(j0 + SPMM_COLS).min(nrhs);
                let mut ycols: [&mut [f64]; SPMM_COLS] = std::array::from_fn(|c| {
                    if j0 + c < cols.end {
                        // SAFETY: rows `[lo, hi)` of column `j0 + c` belong
                        // to this leaf only, lie inside the `nrows * nrhs`
                        // output, and `y` outlives the fork-join region.
                        unsafe {
                            std::slice::from_raw_parts_mut(
                                y_out.add((j0 + c) * nrows + lo),
                                hi - lo,
                            )
                        }
                    } else {
                        &mut []
                    }
                });
                let x_range = cols.start * padded..cols.end * padded;
                be.spmm_rows(
                    prec,
                    plan.path,
                    a,
                    a32,
                    plan.job_len,
                    r0..r1,
                    &xq[x_range.clone()],
                    x32_all.get(x_range).unwrap_or(&[]),
                    &mut ycols[..cols.len()],
                );
            }
        },
        &|(), ()| (),
    );

    // The charge scales the plan's per-SpMV counters: A streams (and the
    // tensor path issues one `mma` per tile) once per slab, scalar flops
    // happen per column.
    let counters = plan.counters();
    let vb = prec.bytes() as f64;
    let nb = a.n_blocks() as f64;
    let slabs = nrhs.div_ceil(RHS_TILE) as u64;
    let (mma_total, flops_total) = match plan.path {
        SpmvPath::TensorCore => (slabs * a.n_blocks() as u64, 0),
        SpmvPath::CudaCore => (0, nrhs as u64 * counters.cuda_flops),
    };
    let nonempty_tile_rows = slabs * counters.tile_rows;
    let slabs = slabs as f64;
    let cost = match plan.path {
        SpmvPath::TensorCore => KernelCost {
            tc_flops: mma_total as f64 * MMA_FLOPS,
            // Shuffle extraction + final adds, per warp per column.
            cuda_flops: plan.n_warps as f64 * 16.0 * nrhs as f64,
            int_ops: nb * 2.0 * slabs,
            // A (indices + bitmaps + whole tiles) streams once per slab;
            // X segments and Y stream per column.
            bytes: slabs * nb * (4.0 + 2.0 + TILE_AREA as f64 * vb)
                + nb * TILE as f64 * vb * nrhs as f64
                + a.nrows() as f64 * nrhs as f64 * vb,
            launches: slabs as u32,
        },
        SpmvPath::CudaCore => KernelCost {
            cuda_flops: flops_total as f64,
            int_ops: nb * (2.0 + 16.0) * slabs,
            // Row-granular tile reads once per slab (matching spmv_mbsr's
            // model); X segments with the same 0.6 L1 factor, per column.
            bytes: slabs * nb * (4.0 + 2.0)
                + nonempty_tile_rows as f64 * TILE as f64 * vb
                + 0.6 * nb * TILE as f64 * vb * nrhs as f64
                + a.nrows() as f64 * nrhs as f64 * vb,
            launches: slabs as u32,
            ..Default::default()
        },
    };
    ctx.charge_timed(KernelKind::SpMV, Algo::AmgT, &cost, timer);
    SpmmStats {
        ncols: nrhs,
        slabs: slabs as u32,
        mma_count: mma_total,
        cuda_flops: flops_total,
    }
}

/// Reference SpMM: column-by-column vendor SpMV (what HYPRE does absent a
/// fused kernel) — used for comparison and testing. One output slab is
/// shared across columns (each SpMV lands in the reused scratch, then is
/// copied into its column) instead of allocating a fresh vector per RHS.
pub fn spmm_by_columns(ctx: &Ctx, a: &amgt_sparse::Csr, x: &MultiVector) -> MultiVector {
    let mut y = MultiVector::zeros(a.nrows(), x.ncols);
    let mut col = Vec::with_capacity(a.nrows());
    for j in 0..x.ncols {
        crate::vendor::spmv_csr_into(ctx, a, x.col(j), &mut col);
        y.col_mut(j).copy_from_slice(&col);
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmv_mbsr::analyze_spmv;
    use amgt_sim::{Device, GpuSpec, Precision};
    use amgt_sparse::gen::{elasticity_3d, laplacian_2d, NeighborSet, Stencil2d};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_mv(nrows: usize, ncols: usize, seed: u64) -> MultiVector {
        let mut rng = StdRng::seed_from_u64(seed);
        let cols: Vec<Vec<f64>> = (0..ncols)
            .map(|_| (0..nrows).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        MultiVector::from_columns(&cols)
    }

    #[test]
    fn spmm_matches_per_column_spmv() {
        for (name, a) in [
            ("stencil", laplacian_2d(13, 15, Stencil2d::Five)),
            ("blocks", elasticity_3d(3, 3, 2, 4, NeighborSet::Face, 5)),
        ] {
            let dev = Device::new(GpuSpec::a100());
            let ctx = Ctx::standalone(&dev, Precision::Fp64);
            let m = Mbsr::from_csr(&a);
            let plan = analyze_spmv(&ctx, &m);
            for nrhs in [1usize, 3, 8, 11] {
                let x = random_mv(a.ncols(), nrhs, nrhs as u64);
                let y = spmm_mbsr(&ctx, &m, &plan, &x);
                for j in 0..nrhs {
                    let expect = a.matvec(x.col(j));
                    for (i, e) in expect.iter().enumerate() {
                        assert!(
                            (y.get(i, j) - e).abs() < 1e-10,
                            "{name} nrhs={nrhs} ({i},{j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn spmm_cheaper_than_column_loop_on_dense_tiles() {
        let a = elasticity_3d(4, 4, 4, 4, NeighborSet::Face, 9);
        let dev = Device::new(GpuSpec::a100());
        let ctx = Ctx::standalone(&dev, Precision::Fp64);
        let m = Mbsr::from_csr(&a);
        let plan = analyze_spmv(&ctx, &m);
        let x = random_mv(a.ncols(), 8, 1);

        let t0 = dev.elapsed();
        let _ = spmm_mbsr(&ctx, &m, &plan, &x);
        let t_fused = dev.elapsed() - t0;
        let t0 = dev.elapsed();
        let _ = spmm_by_columns(&ctx, &a, &x);
        let t_loop = dev.elapsed() - t0;
        assert!(
            t_fused < t_loop * 0.5,
            "fused {t_fused} vs column loop {t_loop}"
        );
    }

    #[test]
    fn multivector_accessors() {
        let mv = MultiVector::from_columns(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(mv.get(0, 1), 3.0);
        assert_eq!(mv.col(1), &[3.0, 4.0]);
        let mut z = MultiVector::zeros(2, 2);
        z.set(1, 0, 5.0);
        assert_eq!(z.get(1, 0), 5.0);
    }
}
