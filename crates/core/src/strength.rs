//! Classical strength-of-connection (setup step 1, Algorithm 1 line 3).
//!
//! Point `i` strongly depends on `j` when `-a_ij >= theta * max_k(-a_ik)`
//! (classical negative-coupling measure). HYPRE's `max_row_sum` guard marks
//! rows whose off-diagonal mass nearly cancels the diagonal as having only
//! weak connections, removing them from coarsening.

use amgt_kernels::Ctx;
use amgt_sim::{Algo, KernelCost, KernelKind};
use amgt_sparse::Csr;

/// The boolean strength pattern: CSR-like structure without values.
#[derive(Clone, Debug, PartialEq)]
pub struct Strength {
    pub n: usize,
    pub row_ptr: Vec<usize>,
    pub col_idx: Vec<u32>,
}

impl Strength {
    #[inline]
    pub fn row(&self, r: usize) -> &[u32] {
        &self.col_idx[self.row_ptr[r]..self.row_ptr[r + 1]]
    }

    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Transpose of the pattern (who does `i` strongly influence).
    pub fn transpose(&self) -> Strength {
        let mut counts = vec![0usize; self.n + 1];
        for &c in &self.col_idx {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.n {
            counts[i + 1] += counts[i];
        }
        let mut cols = vec![0u32; self.nnz()];
        let mut cursor = counts.clone();
        for r in 0..self.n {
            for &c in self.row(r) {
                cols[cursor[c as usize]] = r as u32;
                cursor[c as usize] += 1;
            }
        }
        Strength {
            n: self.n,
            row_ptr: counts,
            col_idx: cols,
        }
    }
}

/// Compute the strength pattern of a square matrix.
///
/// `theta` is the strength threshold; `max_row_sum` the weak-row guard
/// (rows with `|Σ_j a_ij| > max_row_sum * |a_ii|`... HYPRE's actual test is
/// on the ratio of row sum to diagonal: rows where off-diagonals nearly
/// cancel the diagonal (`row_sum_ratio > max_row_sum`) keep no strong
/// connections).
pub fn strength_graph(ctx: &Ctx, a: &Csr, theta: f64, max_row_sum: f64) -> Strength {
    let timer = ctx.timer();
    assert_eq!(a.nrows(), a.ncols());
    let n = a.nrows();
    // Count pass: each row's strength cut (`None` = no strong connections)
    // and its strong-entry count; then fill the flat `col_idx` at the
    // prefix-summed offsets with the same filter.
    let row_cut = |r: usize| -> Option<f64> {
        let (cols, vals) = a.row(r);
        let mut diag = 0.0f64;
        let mut max_neg = 0.0f64;
        let mut row_sum = 0.0f64;
        for (&c, &v) in cols.iter().zip(vals) {
            row_sum += v;
            if c as usize == r {
                diag = v;
            } else {
                max_neg = max_neg.max(-v);
            }
        }
        // Weak-row guard: when the row sum barely deviates from zero
        // relative to the diagonal, HYPRE treats all connections as
        // weak (smooth error is nearly constant there anyway).
        if diag != 0.0 && max_row_sum < 1.0 {
            let ratio = 1.0 - (row_sum / diag);
            if ratio.abs() < 1.0 - max_row_sum {
                return None;
            }
        }
        (max_neg > 0.0).then_some(theta * max_neg)
    };
    let strong = |r: usize, cut: f64| {
        let (cols, vals) = a.row(r);
        cols.iter()
            .zip(vals)
            .filter(move |&(&c, &v)| c as usize != r && -v >= cut && v < 0.0)
            .map(|(&c, _)| c)
    };
    let mut cuts = vec![0.0f64; n];
    let mut row_ptr = vec![0usize; n + 1];
    for r in 0..n {
        let len = row_cut(r).map_or(0, |cut| {
            cuts[r] = cut;
            strong(r, cut).count()
        });
        row_ptr[r + 1] = row_ptr[r] + len;
    }
    let mut col_idx = vec![0u32; row_ptr[n]];
    for r in 0..n {
        let row = &mut col_idx[row_ptr[r]..row_ptr[r + 1]];
        for (dst, c) in row.iter_mut().zip(strong(r, cuts[r])) {
            *dst = c;
        }
    }

    let cost = KernelCost {
        int_ops: a.nnz() as f64 * 3.0,
        cuda_flops: a.nnz() as f64,
        bytes: a.bytes() + col_idx.len() as f64 * 4.0,
        launches: 1,
        ..Default::default()
    };
    ctx.charge_timed(KernelKind::Graph, Algo::Shared, &cost, timer);
    Strength {
        n,
        row_ptr,
        col_idx,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amgt_sim::{Device, GpuSpec, Phase, Precision};
    use amgt_sparse::gen::{anisotropic_2d, laplacian_2d, Stencil2d};

    fn ctx(dev: &Device) -> Ctx<'_> {
        Ctx::new(dev, Phase::Setup, 0, Precision::Fp64)
    }

    #[test]
    fn laplacian_all_neighbours_strong() {
        let dev = Device::new(GpuSpec::a100());
        let a = laplacian_2d(5, 5, Stencil2d::Five);
        let s = strength_graph(&ctx(&dev), &a, 0.25, 1.0);
        // Uniform couplings: every off-diagonal is strong.
        assert_eq!(s.nnz(), a.nnz() - a.nrows());
    }

    #[test]
    fn anisotropic_keeps_only_strong_direction() {
        let dev = Device::new(GpuSpec::a100());
        let a = anisotropic_2d(6, 6, Stencil2d::Five, 0.01);
        let s = strength_graph(&ctx(&dev), &a, 0.25, 1.0);
        // y-couplings (-0.01) fall below 0.25 * 1.0.
        let interior = 2 * 6 + 2;
        let row = s.row(interior);
        assert_eq!(row.len(), 2); // Only the two x-direction neighbours.
        assert!(row.contains(&((interior - 6) as u32)));
        assert!(row.contains(&((interior + 6) as u32)));
    }

    #[test]
    fn positive_offdiagonals_never_strong() {
        let dev = Device::new(GpuSpec::a100());
        let a = amgt_sparse::Csr::from_triplets(
            2,
            2,
            &[(0, 0, 2.0), (0, 1, 1.5), (1, 0, -1.0), (1, 1, 2.0)],
        );
        let s = strength_graph(&ctx(&dev), &a, 0.25, 1.0);
        assert_eq!(s.row(0).len(), 0);
        assert_eq!(s.row(1), &[0]);
    }

    #[test]
    fn max_row_sum_guard_drops_balanced_rows() {
        let dev = Device::new(GpuSpec::a100());
        // Row sums exactly zero (pure graph Laplacian): ratio = 1 - 0 = 1
        // ... wait, ratio = 1 - row_sum/diag = 1. |1| >= 1 - 0.8, so strong
        // connections survive. Build a row with row_sum == diag (all
        // off-diagonals cancel): ratio 0 < 0.2 -> dropped.
        let a = amgt_sparse::Csr::from_triplets(
            2,
            2,
            &[(0, 0, 2.0), (0, 1, -1e-9), (1, 0, -1.0), (1, 1, 2.0)],
        );
        let s = strength_graph(&ctx(&dev), &a, 0.0, 0.8);
        assert_eq!(s.row(0).len(), 0, "nearly-zero off-diagonal mass row");
        assert_eq!(s.row(1), &[0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let dev = Device::new(GpuSpec::a100());
        let a = anisotropic_2d(5, 4, Stencil2d::Nine, 0.3);
        let s = strength_graph(&ctx(&dev), &a, 0.25, 1.0);
        let tt = s.transpose().transpose();
        assert_eq!(s, tt);
    }

    #[test]
    fn charges_graph_event() {
        let dev = Device::new(GpuSpec::h100());
        let a = laplacian_2d(4, 4, Stencil2d::Five);
        strength_graph(&ctx(&dev), &a, 0.25, 0.8);
        assert_eq!(dev.events().len(), 1);
        assert_eq!(dev.events()[0].kind, KernelKind::Graph);
    }
}
