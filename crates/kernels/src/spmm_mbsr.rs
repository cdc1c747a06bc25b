//! The mBSR SpMV driver over a block of operand columns, and SpMM (sparse
//! matrix times dense multi-vector) as its multi-column call.
//!
//! SpMV is the one-column call of [`spmm_mbsr_into`]. Wider operands are an
//! extension beyond the paper: with eight right-hand sides the 8x8x4
//! tensor-core shape is used *without* waste — `fragA` holds two stacked
//! tiles of `A`, `fragB` holds the 4x8 slab of the dense operand, and all
//! 64 accumulator entries are useful output (the SpMV of Section IV.D only
//! consumes the diagonal). Multi-RHS solves (multiple load vectors in FEM,
//! block Krylov methods) hit exactly this kernel.

use crate::ctx::{Ctx, ExecMode};
use crate::spmv_mbsr::{SpmvPath, SpmvPlan, SpmvScratch};
use amgt_exec::SPMM_COLS;
use amgt_sim::mma::MMA_FLOPS;
use amgt_sim::{Algo, KernelCost, KernelKind, Precision};
use amgt_sparse::bitmap::{TILE, TILE_AREA};
use amgt_sparse::Mbsr;

/// Number of right-hand sides one tensor fragment carries.
pub const RHS_TILE: usize = 8;

/// Block-rows per fork-join leaf of a one-column call; a leaf of a wider
/// call covers proportionally fewer rows (down to a quarter at
/// `SPMM_COLS` columns). Part of the fixed split topology — never derive
/// it from the pool width.
const JOIN_GRAIN: usize = 256;

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

/// Per-call statistics returned by the driver.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpmmStats {
    /// Number of operand columns processed.
    pub ncols: usize,
    /// Number of [`RHS_TILE`]-wide slabs the columns were coalesced into.
    pub slabs: u32,
    /// Tensor-core `mma` instructions issued (tensor path only).
    pub mma_count: u64,
    /// Scalar flops on the CUDA-core path.
    pub cuda_flops: u64,
}

/// `Y = A X` on mBSR. See [`spmm_mbsr_into`]; this wrapper drops the
/// statistics.
pub fn spmm_mbsr(ctx: &Ctx, a: &Mbsr, plan: &SpmvPlan, x: &MultiVector) -> MultiVector {
    spmm_mbsr_with_stats(ctx, a, plan, x).0
}

/// `Y = A X` on mBSR into a fresh multi-vector, returning the driver's
/// [`SpmmStats`].
pub fn spmm_mbsr_with_stats(
    ctx: &Ctx,
    a: &Mbsr,
    plan: &SpmvPlan,
    x: &MultiVector,
) -> (MultiVector, SpmmStats) {
    let mut y = MultiVector {
        nrows: a.nrows(),
        ncols: x.ncols,
        data: Vec::new(),
    };
    let mut scratch = SpmvScratch::default();
    let stats = spmm_mbsr_into(ctx, a, plan, &x.data, x.ncols, &mut scratch, &mut y.data);
    (y, stats)
}

/// The mBSR SpMV driver: `Y = A X` for a column-major operand of `ncols`
/// columns (`x.len() == a.ncols() * ncols`), written column-major into
/// `y` (resized to `a.nrows() * ncols`). SpMV is the one-column call.
///
/// The operand is quantized and padded into `scratch` in one sweep that
/// also checks it is finite; if it is not, the call runs on the emulator
/// (see `amgt_exec::operand_is_finite`). The block-rows then fork into an
/// index-range tree, and each leaf runs `ExecBackend::spmm_rows` once per
/// chunk of up to `SPMM_COLS` columns over its rows, so a tile is read
/// once per chunk rather than once per column. Every row's warp jobs run
/// in order, so each output column is **bitwise identical** to the SpMV
/// of that column at every precision and any pool width. Allocation-free
/// once `scratch` and `y` have grown to the operand size.
///
/// The charge comes from the plan's counters. One column runs the SpMV
/// kernel of Section IV.D: two tiles per `mma`, the result on the
/// accumulator diagonal. Wider operands run the slab kernel: `fragB`
/// carries the 4x8 sub-slab of [`RHS_TILE`] columns, so `A` streams and
/// issues one `mma` per tile once per slab, while scalar flops and the
/// X/Y traffic scale with the columns.
pub fn spmm_mbsr_into(
    ctx: &Ctx,
    a: &Mbsr,
    plan: &SpmvPlan,
    x: &[f64],
    ncols: usize,
    scratch: &mut SpmvScratch,
    y: &mut Vec<f64>,
) -> SpmmStats {
    let (x_nrows, nrows) = (a.ncols(), a.nrows());
    assert_eq!(x.len(), x_nrows * ncols);
    let timer = ctx.timer();
    let prec = ctx.precision;
    let padded = a.blk_cols() * TILE;

    // Pad tails are re-zeroed each call: the scratch may carry stale values
    // from a previous operand. Columns are independent, so the sweep forks
    // per column. FP64 operands pass through unrounded: a copy and a
    // branch-free finiteness fold.
    scratch.xp.resize(padded * ncols, 0.0);
    let finite = amgt_exec::par::join_block_chunks(
        &mut scratch.xp[..padded * ncols],
        0,
        ncols,
        padded,
        1,
        &|first_col, ncol, chunk| {
            let mut finite = true;
            for jc in 0..ncol {
                let dst = &mut chunk[jc * padded..(jc + 1) * padded];
                let src = &x[(first_col + jc) * x_nrows..][..x_nrows];
                if prec == Precision::Fp64 {
                    dst[..x_nrows].copy_from_slice(src);
                    finite &= src.iter().fold(true, |f, v| f & v.is_finite());
                } else {
                    for (d, &v) in dst[..x_nrows].iter_mut().zip(src) {
                        *d = prec.quantize(v);
                        finite &= amgt_exec::operand_is_finite(prec, *d);
                    }
                }
                dst[x_nrows..].fill(0.0);
            }
            finite
        },
        &|l, r| l & r,
    );
    let xq = &scratch.xp[..padded * ncols];

    y.resize(nrows * ncols, 0.0);
    let be = if finite {
        ctx.backend()
    } else {
        amgt_exec::backend(ExecMode::Simulated)
    };
    be.spmv_quantize_x(prec, xq, &mut scratch.x32);
    let x32_all = &scratch.x32[..];
    let a32 = plan.tile_image(be, prec, a, &mut scratch.a32);

    // A leaf owns rows `[4 r0, 4 r1)` of every column — disjoint but
    // strided in the column-major output, hence the `SendPtr` slices.
    let y_out = amgt_exec::par::SendPtr::new(y.as_mut_ptr());
    amgt_exec::par::join_ranges(
        0,
        a.blk_rows(),
        JOIN_GRAIN / ncols.clamp(1, SPMM_COLS),
        &|r0, r1| {
            let (lo, hi) = (r0 * TILE, (r1 * TILE).min(nrows));
            for j0 in (0..ncols).step_by(SPMM_COLS) {
                let cols = j0..(j0 + SPMM_COLS).min(ncols);
                let mut ycols: [&mut [f64]; SPMM_COLS] = std::array::from_fn(|c| {
                    if j0 + c < cols.end {
                        // SAFETY: rows `[lo, hi)` of column `j0 + c` belong
                        // to this leaf only, lie inside the `nrows * ncols`
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

    let counters = plan.counters();
    let slabs = ncols.div_ceil(RHS_TILE) as u64;
    let stats = match plan.path {
        SpmvPath::TensorCore => SpmmStats {
            ncols,
            slabs: slabs as u32,
            mma_count: if ncols == 1 {
                counters.mma
            } else {
                slabs * a.n_blocks() as u64
            },
            cuda_flops: 0,
        },
        SpmvPath::CudaCore => SpmmStats {
            ncols,
            slabs: slabs as u32,
            mma_count: 0,
            cuda_flops: ncols as u64 * counters.cuda_flops,
        },
    };
    let vb = prec.bytes() as f64;
    let nb = a.n_blocks() as f64;
    let nc = ncols as f64;
    let s = slabs as f64;
    let cost = match plan.path {
        SpmvPath::TensorCore => KernelCost {
            tc_flops: stats.mma_count as f64 * MMA_FLOPS,
            // Shuffle extraction + final adds, per warp per column.
            cuda_flops: plan.n_warps as f64 * 16.0 * nc,
            int_ops: nb * 2.0 * s, // Index decode + x segment addressing.
            // A (indices + bitmaps + whole tiles) streams once per slab;
            // X segments and Y stream per column.
            bytes: s * nb * (4.0 + 2.0 + TILE_AREA as f64 * vb)
                + nb * TILE as f64 * vb * nc
                + nrows as f64 * nc * vb,
            launches: slabs as u32,
        },
        SpmvPath::CudaCore => KernelCost {
            cuda_flops: stats.cuda_flops as f64,
            int_ops: nb * (2.0 + 16.0) * s, // Bitmap bit tests per tile.
            // Row-granular tile reads: only nonempty 4-value tile rows hit
            // DRAM (one 32-byte transaction each at FP64). The x segments
            // of vertically adjacent tiles overlap and mostly hit L1
            // (factor 0.6).
            bytes: s * nb * (4.0 + 2.0)
                + (slabs * counters.tile_rows) as f64 * TILE as f64 * vb
                + 0.6 * nb * TILE as f64 * vb * nc
                + nrows as f64 * nc * vb,
            launches: slabs as u32,
            ..Default::default()
        },
    };
    ctx.charge_timed(KernelKind::SpMV, Algo::AmgT, &cost, timer);
    stats
}

/// Reference SpMM: column-by-column vendor SpMV (what HYPRE does absent a
/// fused kernel) — used for comparison and testing.
pub fn spmm_by_columns(ctx: &Ctx, a: &amgt_sparse::Csr, x: &MultiVector) -> MultiVector {
    let mut y = MultiVector::zeros(a.nrows(), x.ncols);
    for j in 0..x.ncols {
        crate::vendor::spmv_csr_into(ctx, a, x.col(j), y.col_mut(j));
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
