//! Charged BLAS-1 vector operations.
//!
//! The non-SpMV remainder of the solve phase (the unshadowed part of the
//! blue bars in Figure 7) is vector work: residual updates, scaled
//! corrections, norms. Arithmetic is performed in f64 (kernels quantize at
//! their own boundaries); traffic is charged at the context precision.
//!
//! # Parallelism and the bitwise contract
//!
//! Elementwise updates fork over disjoint chunks of the output
//! ([`amgt_exec::par::join_block_chunks`]); reductions ([`dot`],
//! [`norm2`], [`norms2_mv`]) use a **fixed-topology** binary tree
//! ([`amgt_exec::par::join_ranges`]) whose split points depend only on
//! the vector length and [`REDUCE_GRAIN`] — never on the pool width.
//! Floating-point addition is not associative, so the tree shape *is* the
//! answer: keeping it fixed makes every result bitwise identical from 1
//! to N threads (the `thread_invariance` suite pins this). The grain
//! constants below are therefore part of the numerical contract, not
//! tuning knobs — changing them changes reduction results.
//!
//! Simulated charges are computed on the calling thread after the
//! parallel region completes (leaves never touch the `Ctx`), so the cost
//! model sees identical events at any pool width.

use amgt_exec::par;
use amgt_kernels::ctx::KernelTimer;
use amgt_kernels::spmm_mbsr::MultiVector;
use amgt_kernels::Ctx;
use amgt_sim::{Algo, KernelCost, KernelKind};

/// Elements per fork-join leaf for elementwise streams. Below this size
/// the traversal is a single leaf, i.e. exactly the old sequential loop.
const VEC_GRAIN: usize = 4096;

/// Elements per leaf of the fixed-topology reduction tree. Part of the
/// bitwise contract (see module docs): vectors up to this length reduce
/// with a plain sequential fold.
const REDUCE_GRAIN: usize = 4096;

fn charge_stream(ctx: &Ctx, n: usize, vectors: f64, flops_per_elem: f64, timer: KernelTimer) {
    let cost = KernelCost {
        cuda_flops: n as f64 * flops_per_elem,
        bytes: n as f64 * vectors * ctx.precision.bytes() as f64,
        launches: 1,
        ..Default::default()
    };
    ctx.charge_timed(KernelKind::Vector, Algo::Shared, &cost, timer);
}

/// Fixed-topology sum of `f(i)` over `[0, n)`; the reduction tree depends
/// only on `n`, so the result is thread-count-invariant bitwise.
fn tree_sum(n: usize, f: &(dyn Fn(usize) -> f64 + Sync)) -> f64 {
    par::join_ranges(
        0,
        n,
        REDUCE_GRAIN,
        &|lo, hi| (lo..hi).map(f).sum(),
        &|a, b| a + b,
    )
}

/// `y += alpha * x`.
pub fn axpy(ctx: &Ctx, alpha: f64, x: &[f64], y: &mut [f64]) {
    let timer = ctx.timer();
    assert_eq!(x.len(), y.len());
    let n = y.len();
    par::join_block_chunks(
        y,
        0,
        n,
        1,
        VEC_GRAIN,
        &|first, n, chunk| {
            for (yi, &xi) in chunk.iter_mut().zip(&x[first..first + n]) {
                *yi += alpha * xi;
            }
        },
        &|(), ()| (),
    );
    charge_stream(ctx, x.len(), 3.0, 2.0, timer);
}

/// `y = x + beta * y`.
pub fn xpby(ctx: &Ctx, x: &[f64], beta: f64, y: &mut [f64]) {
    let timer = ctx.timer();
    assert_eq!(x.len(), y.len());
    let n = y.len();
    par::join_block_chunks(
        y,
        0,
        n,
        1,
        VEC_GRAIN,
        &|first, n, chunk| {
            for (yi, &xi) in chunk.iter_mut().zip(&x[first..first + n]) {
                *yi = xi + beta * *yi;
            }
        },
        &|(), ()| (),
    );
    charge_stream(ctx, x.len(), 3.0, 2.0, timer);
}

/// Elementwise `y += diag_inv[i] * r[i]` (the Jacobi correction).
pub fn diag_scaled_add(ctx: &Ctx, diag_inv: &[f64], r: &[f64], y: &mut [f64]) {
    let timer = ctx.timer();
    assert_eq!(diag_inv.len(), y.len());
    assert_eq!(r.len(), y.len());
    let n = y.len();
    par::join_block_chunks(
        y,
        0,
        n,
        1,
        VEC_GRAIN,
        &|first, n, chunk| {
            for ((yi, &di), &ri) in chunk
                .iter_mut()
                .zip(&diag_inv[first..first + n])
                .zip(&r[first..first + n])
            {
                *yi += di * ri;
            }
        },
        &|(), ()| (),
    );
    charge_stream(ctx, y.len(), 4.0, 2.0, timer);
}

/// Fused smoother update: `x += dinv .* (b - ax)` in one kernel launch
/// (HYPRE fuses the relax update the same way).
pub fn jacobi_fused(ctx: &Ctx, dinv: &[f64], b: &[f64], ax: &[f64], x: &mut [f64]) {
    let timer = ctx.timer();
    assert_eq!(dinv.len(), x.len());
    assert_eq!(b.len(), x.len());
    assert_eq!(ax.len(), x.len());
    let n = x.len();
    par::join_block_chunks(
        x,
        0,
        n,
        1,
        VEC_GRAIN,
        &|first, _n, chunk| {
            for (i, xi) in chunk.iter_mut().enumerate() {
                let g = first + i;
                *xi += dinv[g] * (b[g] - ax[g]);
            }
        },
        &|(), ()| (),
    );
    charge_stream(ctx, x.len(), 5.0, 3.0, timer);
}

/// `z = x - y` into a fresh vector.
pub fn sub(ctx: &Ctx, x: &[f64], y: &[f64]) -> Vec<f64> {
    let mut z = Vec::new();
    sub_into(ctx, x, y, &mut z);
    z
}

/// `z = x - y` into a caller-owned buffer (same charge as [`sub`]).
pub fn sub_into(ctx: &Ctx, x: &[f64], y: &[f64], z: &mut Vec<f64>) {
    let timer = ctx.timer();
    assert_eq!(x.len(), y.len());
    let n = x.len();
    z.clear();
    z.resize(n, 0.0);
    par::join_block_chunks(
        z,
        0,
        n,
        1,
        VEC_GRAIN,
        &|first, n, chunk| {
            for ((zi, &xi), &yi) in chunk
                .iter_mut()
                .zip(&x[first..first + n])
                .zip(&y[first..first + n])
            {
                *zi = xi - yi;
            }
        },
        &|(), ()| (),
    );
    charge_stream(ctx, x.len(), 3.0, 1.0, timer);
}

/// Dot product (fixed-topology tree reduction; see module docs).
pub fn dot(ctx: &Ctx, x: &[f64], y: &[f64]) -> f64 {
    let timer = ctx.timer();
    assert_eq!(x.len(), y.len());
    let d = tree_sum(x.len(), &|i| x[i] * y[i]);
    charge_stream(ctx, x.len(), 2.0, 2.0, timer);
    d
}

/// Euclidean norm (fixed-topology tree reduction; see module docs).
pub fn norm2(ctx: &Ctx, x: &[f64]) -> f64 {
    let timer = ctx.timer();
    let d = tree_sum(x.len(), &|i| x[i] * x[i]);
    charge_stream(ctx, x.len(), 1.0, 2.0, timer);
    d.sqrt()
}

/// Fill with zeros (charged as a stream write).
pub fn zero_fill(ctx: &Ctx, x: &mut [f64]) {
    let timer = ctx.timer();
    let n = x.len();
    par::join_block_chunks(
        x,
        0,
        n,
        1,
        VEC_GRAIN,
        &|_, _, chunk| chunk.fill(0.0),
        &|(), ()| (),
    );
    charge_stream(ctx, n, 1.0, 0.0, timer);
}

// ---------------------------------------------------------------------------
// Multi-vector (batched-RHS) variants: the same arithmetic applied to every
// column, charged as ONE kernel launch streaming `n * ncols` elements —
// batching amortizes launch overhead, not arithmetic.

/// Batched [`sub`]: `Z = X - Y` columnwise.
pub fn sub_mv(ctx: &Ctx, x: &MultiVector, y: &MultiVector) -> MultiVector {
    let mut z = MultiVector::default();
    sub_mv_into(ctx, x, y, &mut z);
    z
}

/// Batched [`sub`] into a caller-owned multi-vector (same charge as
/// [`sub_mv`]).
pub fn sub_mv_into(ctx: &Ctx, x: &MultiVector, y: &MultiVector, z: &mut MultiVector) {
    let timer = ctx.timer();
    assert_eq!(x.nrows, y.nrows);
    assert_eq!(x.ncols, y.ncols);
    z.reshape(x.nrows, x.ncols);
    let n = z.data.len();
    par::join_block_chunks(
        &mut z.data,
        0,
        n,
        1,
        VEC_GRAIN,
        &|first, n, chunk| {
            for ((zi, &xi), &yi) in chunk
                .iter_mut()
                .zip(&x.data[first..first + n])
                .zip(&y.data[first..first + n])
            {
                *zi = xi - yi;
            }
        },
        &|(), ()| (),
    );
    charge_stream(ctx, x.data.len(), 3.0, 1.0, timer);
}

/// Batched [`axpy`]: `Y += alpha * X` columnwise.
pub fn axpy_mv(ctx: &Ctx, alpha: f64, x: &MultiVector, y: &mut MultiVector) {
    let timer = ctx.timer();
    assert_eq!(x.nrows, y.nrows);
    assert_eq!(x.ncols, y.ncols);
    let n = y.data.len();
    par::join_block_chunks(
        &mut y.data,
        0,
        n,
        1,
        VEC_GRAIN,
        &|first, n, chunk| {
            for (yi, &xi) in chunk.iter_mut().zip(&x.data[first..first + n]) {
                *yi += alpha * xi;
            }
        },
        &|(), ()| (),
    );
    charge_stream(ctx, x.data.len(), 3.0, 2.0, timer);
}

/// Batched [`jacobi_fused`]: `X[:,j] += dinv .* (B[:,j] - AX[:,j])` for
/// every column, with the diagonal broadcast across columns. Forks over
/// whole columns (block length = `nrows`) so each leaf indexes the
/// broadcast diagonal locally.
pub fn jacobi_fused_mv(
    ctx: &Ctx,
    dinv: &[f64],
    b: &MultiVector,
    ax: &MultiVector,
    x: &mut MultiVector,
) {
    let timer = ctx.timer();
    assert_eq!(dinv.len(), x.nrows);
    assert_eq!(b.nrows, x.nrows);
    assert_eq!(ax.nrows, x.nrows);
    assert_eq!(b.ncols, x.ncols);
    assert_eq!(ax.ncols, x.ncols);
    let n = x.nrows;
    let ncols = x.ncols;
    par::join_block_chunks(
        &mut x.data,
        0,
        ncols,
        n,
        1,
        &|first_col, ncol, chunk| {
            for jc in 0..ncol {
                let j = first_col + jc;
                for i in 0..n {
                    chunk[jc * n + i] += dinv[i] * (b.data[j * n + i] - ax.data[j * n + i]);
                }
            }
        },
        &|(), ()| (),
    );
    charge_stream(ctx, x.data.len(), 5.0, 3.0, timer);
}

/// Per-column Euclidean norms in one reduction launch. Each column uses
/// the same fixed-topology tree as [`norm2`], so the batched and
/// single-vector paths agree bitwise.
pub fn norms2_mv(ctx: &Ctx, x: &MultiVector) -> Vec<f64> {
    let mut norms = Vec::with_capacity(x.ncols);
    norms2_mv_into(ctx, x, &mut norms);
    norms
}

/// [`norms2_mv`] into a caller-owned vector (same bits, same charge).
pub fn norms2_mv_into(ctx: &Ctx, x: &MultiVector, norms: &mut Vec<f64>) {
    let timer = ctx.timer();
    norms.clear();
    norms.extend((0..x.ncols).map(|j| {
        let col = x.col(j);
        tree_sum(col.len(), &|i| col[i] * col[i]).sqrt()
    }));
    charge_stream(ctx, x.data.len(), 1.0, 2.0, timer);
}

#[cfg(test)]
mod tests {
    use super::*;
    use amgt_sim::{Device, GpuSpec, Phase, Precision};

    fn ctx(dev: &Device) -> Ctx<'_> {
        Ctx::new(dev, Phase::Solve, 0, Precision::Fp64)
    }

    #[test]
    fn ops_compute_correctly() {
        let dev = Device::new(GpuSpec::a100());
        let c = ctx(&dev);
        let mut y = vec![1.0, 2.0, 3.0];
        axpy(&c, 2.0, &[1.0, 1.0, 1.0], &mut y);
        assert_eq!(y, vec![3.0, 4.0, 5.0]);
        xpby(&c, &[1.0, 1.0, 1.0], -1.0, &mut y);
        assert_eq!(y, vec![-2.0, -3.0, -4.0]);
        let mut z = vec![0.0; 3];
        diag_scaled_add(&c, &[0.5, 0.5, 0.5], &[2.0, 4.0, 6.0], &mut z);
        assert_eq!(z, vec![1.0, 2.0, 3.0]);
        assert_eq!(sub(&c, &[3.0, 3.0], &[1.0, 2.0]), vec![2.0, 1.0]);
        assert_eq!(dot(&c, &[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(norm2(&c, &[3.0, 4.0]), 5.0);
        let mut w = vec![1.0; 4];
        zero_fill(&c, &mut w);
        assert_eq!(w, vec![0.0; 4]);
        let mut xf = vec![1.0, 1.0];
        jacobi_fused(&c, &[0.5, 0.25], &[3.0, 5.0], &[1.0, 1.0], &mut xf);
        assert_eq!(xf, vec![2.0, 2.0]);
        // Every op charged one Vector event.
        assert_eq!(dev.events().len(), 8);
        assert!(dev.events().iter().all(|e| e.kind == KernelKind::Vector));
    }

    #[test]
    fn fp16_context_charges_fewer_bytes() {
        let dev = Device::new(GpuSpec::a100());
        let n = 1 << 16;
        let x = vec![1.0; n];
        let mut y = vec![0.0; n];
        axpy(
            &Ctx::new(&dev, Phase::Solve, 0, Precision::Fp64),
            1.0,
            &x,
            &mut y,
        );
        axpy(
            &Ctx::new(&dev, Phase::Solve, 0, Precision::Fp16),
            1.0,
            &x,
            &mut y,
        );
        let evs = dev.events();
        assert!(evs[1].seconds < evs[0].seconds);
    }

    #[test]
    fn large_ops_cross_the_grain_boundary_correctly() {
        // n > VEC_GRAIN so the fork-join tree has multiple leaves.
        let dev = Device::new(GpuSpec::a100());
        let c = ctx(&dev);
        let n = 3 * VEC_GRAIN + 17;
        let x: Vec<f64> = (0..n).map(|i| (i % 13) as f64 - 6.0).collect();
        let mut y: Vec<f64> = (0..n).map(|i| (i % 7) as f64).collect();
        let y0 = y.clone();
        axpy(&c, 0.5, &x, &mut y);
        for i in 0..n {
            assert_eq!(y[i], y0[i] + 0.5 * x[i], "element {i}");
        }
        let d = dot(&c, &x, &x);
        // The tree must still sum every element exactly once; the values
        // are small integers scaled by 0.5-free ops so the comparison is
        // exact against a grain-respecting reference.
        let reference = {
            fn tree(x: &[f64], lo: usize, hi: usize) -> f64 {
                if hi - lo <= REDUCE_GRAIN {
                    return (lo..hi).map(|i| x[i] * x[i]).sum();
                }
                let mid = lo + (hi - lo) / 2;
                tree(x, lo, mid) + tree(x, mid, hi)
            }
            tree(&x, 0, n)
        };
        assert_eq!(d.to_bits(), reference.to_bits());
    }

    #[test]
    fn batched_norms_match_single_vector_norms_bitwise() {
        let dev = Device::new(GpuSpec::a100());
        let c = ctx(&dev);
        let n = 2 * REDUCE_GRAIN + 5;
        let cols: Vec<Vec<f64>> = (0..3)
            .map(|j| (0..n).map(|i| 1.0 / ((i + j) as f64 + 0.9)).collect())
            .collect();
        let mv = MultiVector::from_columns(&cols);
        let batched = norms2_mv(&c, &mv);
        for (j, col) in cols.iter().enumerate() {
            assert_eq!(batched[j].to_bits(), norm2(&c, col).to_bits(), "col {j}");
        }
    }
}
