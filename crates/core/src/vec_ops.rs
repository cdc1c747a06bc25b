//! Charged BLAS-1 vector operations.
//!
//! The non-SpMV remainder of the solve phase (the unshadowed part of the
//! blue bars in Figure 7) is vector work: residual updates, scaled
//! corrections, norms. Arithmetic is performed in f64 (kernels quantize at
//! their own boundaries); traffic is charged at the context precision.
//!
//! A batched solve keeps its columns back to back (column-major), and the
//! same functions serve it: elementwise ops stream the whole block as one
//! launch, [`jacobi_fused`] broadcasts the diagonal over the columns, and
//! [`norms2`] reduces each column on its own. A column's bits are
//! therefore the same whether it is solved alone or in a batch.
//!
//! # Parallelism and the bitwise contract
//!
//! Elementwise updates fork over disjoint chunks of the output
//! ([`amgt_exec::par::join_block_chunks`]); reductions ([`dot`],
//! [`norm2`], [`norms2`]) use a **fixed-topology** binary tree
//! ([`amgt_exec::par::join_ranges`]) whose split points depend only on
//! the vector length and the `REDUCE_GRAIN` constant (4096 elements per
//! leaf) — never on the pool width. Floating-point addition is not
//! associative, so the tree shape *is* the answer: keeping it fixed makes
//! every result bitwise identical from 1 to N threads (the
//! `thread_invariance` suite pins this). The grain constants below are
//! therefore part of the numerical contract, not tuning knobs — changing
//! them changes reduction results.
//!
//! Simulated charges are computed on the calling thread after the
//! parallel region completes (leaves never touch the `Ctx`), so the cost
//! model sees identical events at any pool width.

use amgt_exec::par;
use amgt_kernels::ctx::KernelTimer;
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

/// Fused smoother update: `x += dinv .* (b - ax)` in one kernel launch
/// (HYPRE fuses the relax update the same way). `x`, `b` and `ax` hold
/// one or more columns of `dinv.len()` rows, column-major; the diagonal
/// is broadcast over the columns.
pub fn jacobi_fused(ctx: &Ctx, dinv: &[f64], b: &[f64], ax: &[f64], x: &mut [f64]) {
    let timer = ctx.timer();
    let n = dinv.len();
    assert_eq!(b.len(), x.len());
    assert_eq!(ax.len(), x.len());
    assert!(x.len().is_multiple_of(n), "x is not whole columns");
    let len = x.len();
    par::join_block_chunks(
        x,
        0,
        len,
        1,
        VEC_GRAIN,
        &|first, len, chunk| {
            // Walk the leaf one column segment at a time, so the diagonal
            // is indexed directly.
            let mut off = 0;
            while off < len {
                let (g, i0) = (first + off, (first + off) % n);
                let m = (n - i0).min(len - off);
                for (((xi, &d), &bi), &ai) in chunk[off..off + m]
                    .iter_mut()
                    .zip(&dinv[i0..i0 + m])
                    .zip(&b[g..g + m])
                    .zip(&ax[g..g + m])
                {
                    *xi += d * (bi - ai);
                }
                off += m;
            }
        },
        &|(), ()| (),
    );
    charge_stream(ctx, len, 5.0, 3.0, timer);
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

/// Euclidean norm (fixed-topology tree reduction; see module docs): the
/// one-column [`norms2`].
pub fn norm2(ctx: &Ctx, x: &[f64]) -> f64 {
    let mut norm = [0.0];
    norms2(ctx, x, &mut norm);
    norm[0]
}

/// Per-column Euclidean norms of the column-major `x`, one column per
/// entry of `norms`, in one reduction launch. Each column reduces with
/// its own fixed-topology tree (see module docs), so a column's norm does
/// not depend on the other columns.
pub fn norms2(ctx: &Ctx, x: &[f64], norms: &mut [f64]) {
    let timer = ctx.timer();
    let n = x.len().checked_div(norms.len()).unwrap_or(0);
    assert_eq!(x.len(), n * norms.len(), "x is not whole columns");
    for (j, norm) in norms.iter_mut().enumerate() {
        let col = &x[j * n..(j + 1) * n];
        *norm = tree_sum(n, &|i| col[i] * col[i]).sqrt();
    }
    charge_stream(ctx, x.len(), 1.0, 2.0, timer);
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
        assert_eq!(dev.events().len(), 7);
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
        let mut batched = [0.0; 3];
        norms2(&c, &cols.concat(), &mut batched);
        for (j, col) in cols.iter().enumerate() {
            assert_eq!(batched[j].to_bits(), norm2(&c, col).to_bits(), "col {j}");
        }
    }

    #[test]
    fn jacobi_fused_broadcasts_the_diagonal_over_columns() {
        // Columns longer than the grain, so leaves start mid-column.
        let dev = Device::new(GpuSpec::a100());
        let c = ctx(&dev);
        let n = VEC_GRAIN + 3;
        let dinv: Vec<f64> = (0..n).map(|i| 1.0 / (i as f64 + 2.0)).collect();
        let col = |j: usize, k: f64| -> Vec<f64> {
            (0..n).map(|i| ((i * (j + 1)) as f64 * k).sin()).collect()
        };
        let b: Vec<f64> = (0..3).flat_map(|j| col(j, 0.3)).collect();
        let ax: Vec<f64> = (0..3).flat_map(|j| col(j, 0.7)).collect();
        let mut x: Vec<f64> = (0..3).flat_map(|j| col(j, 1.1)).collect();
        let mut want = x.clone();
        jacobi_fused(&c, &dinv, &b, &ax, &mut x);
        for j in 0..3 {
            let r = j * n..(j + 1) * n;
            jacobi_fused(&c, &dinv, &b[r.clone()], &ax[r.clone()], &mut want[r]);
        }
        assert_eq!(x, want);
    }
}
