//! Interpolation operator construction (Algorithm 1, line 4).
//!
//! Two schemes:
//!
//! * **Direct** — classical distance-1 interpolation (no SpGEMM), kept as a
//!   baseline and fallback.
//! * **Extended+i-style** — the paper selects the matrix-product
//!   formulation of Li, Sjögreen and Yang, where strong F-F connections are
//!   extended through their strong C neighbours with **one SpGEMM**:
//!   `W = A_FCs + A_FFs * N`, `N = rowscale(A_FCs)`, and the final weights
//!   are `P_F = -diag(1/D) * W` with weak couplings (and F neighbours that
//!   have no strong C point) lumped into `D`. Truncation keeps at most
//!   `max_elmts` weights per row, drops weights below `trunc_fact * rowmax`,
//!   and rescales to preserve the row sum.

use crate::backend::{op_matmul_ws, Operator};
use crate::config::{BackendKind, Interpolation};
use crate::pmis::Splitting;
use crate::strength::Strength;
use amgt_kernels::spgemm_mbsr::SpgemmWorkspace;
use amgt_kernels::Ctx;
use amgt_sim::{Algo, KernelCost, KernelKind};
use amgt_sparse::Csr;

/// Build `P` (size `n x n_coarse`). The returned matrix is in CSR; callers
/// prepare it for their backend. Extended+i runs its SpGEMM on the
/// caller's workspace `ws`.
#[allow(clippy::too_many_arguments)] // Mirrors the HYPRE interpolation signature.
pub fn build_interpolation(
    ctx: &Ctx,
    backend: BackendKind,
    a: &Csr,
    s: &Strength,
    split: &Splitting,
    scheme: Interpolation,
    trunc_fact: f64,
    max_elmts: usize,
    ws: &mut SpgemmWorkspace,
) -> Csr {
    assert!(split.n_coarse > 0, "no coarse points to interpolate to");
    let mut p = match scheme {
        Interpolation::Direct => direct_interpolation(a, s, split),
        Interpolation::ExtendedI => extended_i_interpolation(ctx, backend, a, s, split, ws),
    };
    let timer = ctx.timer();
    truncate_rows(&mut p, split, trunc_fact, max_elmts);
    let cost = KernelCost {
        int_ops: p.nnz() as f64 * 4.0,
        cuda_flops: p.nnz() as f64 * 2.0,
        bytes: a.bytes() + 2.0 * p.bytes(),
        launches: 2,
        ..Default::default()
    };
    ctx.charge_timed(KernelKind::Graph, Algo::Shared, &cost, timer);
    p
}

/// Row `i` of `a` as `(column, value, strong)`. The strong row is sorted
/// like A's row, so one forward walk over both answers every strength test.
fn strong_entries<'a>(
    a: &'a Csr,
    s: &'a Strength,
    i: usize,
) -> impl Iterator<Item = (usize, f64, bool)> + 'a {
    let (cols, vals) = a.row(i);
    let strong = s.row(i);
    let mut p = 0;
    cols.iter().zip(vals).map(move |(&c, &v)| {
        while p < strong.len() && strong[p] < c {
            p += 1;
        }
        (c as usize, v, p < strong.len() && strong[p] == c)
    })
}

/// A CSR matrix assembled row by row, in order, each row's columns pushed
/// ascending.
#[derive(Default)]
struct CsrRows {
    row_ptr: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<f64>,
}

impl CsrRows {
    fn with_rows(nrows: usize) -> Self {
        let mut row_ptr = Vec::with_capacity(nrows + 1);
        row_ptr.push(0);
        CsrRows {
            row_ptr,
            ..Default::default()
        }
    }

    fn push(&mut self, col: u32, val: f64) {
        self.cols.push(col);
        self.vals.push(val);
    }

    fn end_row(&mut self) {
        self.row_ptr.push(self.cols.len());
    }

    fn finish(self, ncols: usize) -> Csr {
        Csr::new(
            self.row_ptr.len() - 1,
            ncols,
            self.row_ptr,
            self.cols,
            self.vals,
        )
    }
}

fn direct_interpolation(a: &Csr, s: &Strength, split: &Splitting) -> Csr {
    let n = a.nrows();
    let mut p = CsrRows::with_rows(n);
    for i in 0..n {
        if split.is_coarse(i) {
            p.push(split.coarse_index[i], 1.0);
            p.end_row();
            continue;
        }
        let strong_c = |j: usize, strong: bool| j != i && strong && split.is_coarse(j);
        let mut diag = 0.0f64;
        let mut off_sum = 0.0f64;
        let mut cs_sum = 0.0f64;
        for (j, v, strong) in strong_entries(a, s, i) {
            if j == i {
                diag = v;
            } else {
                off_sum += v;
                if strong_c(j, strong) {
                    cs_sum += v;
                }
            }
        }
        // Otherwise a pure smoothing point: empty interpolation row.
        if cs_sum != 0.0 && diag != 0.0 {
            let alpha = off_sum / cs_sum;
            for (j, v, strong) in strong_entries(a, s, i) {
                if strong_c(j, strong) {
                    p.push(split.coarse_index[j], -alpha * v / diag);
                }
            }
        }
        p.end_row();
    }
    p.finish(split.n_coarse)
}

fn extended_i_interpolation(
    ctx: &Ctx,
    backend: BackendKind,
    a: &Csr,
    s: &Strength,
    split: &Splitting,
    ws: &mut SpgemmWorkspace,
) -> Csr {
    let n = a.nrows();
    // F-point local numbering.
    let mut f_index = vec![u32::MAX; n];
    let mut nf = 0usize;
    for i in 0..n {
        if !split.is_coarse(i) {
            f_index[i] = nf as u32;
            nf += 1;
        }
    }
    let nc = split.n_coarse;

    // A_FCs, A_FFs, the row scales d_k and N = diag(1/d) * A_FCs, row by
    // row over the F points. Both column maps (`coarse_index`, `f_index`)
    // are monotone, so each row comes out sorted. Rows with d == 0 vanish
    // from N (those F points cannot pass information through).
    let timer = ctx.timer();
    let mut fcs = CsrRows::with_rows(nf);
    let mut ffs = CsrRows::with_rows(nf);
    let mut n_vals = Vec::new();
    let mut d = Vec::with_capacity(nf);
    for i in (0..n).filter(|&i| !split.is_coarse(i)) {
        let row_start = fcs.vals.len();
        let mut dk = 0.0f64;
        for (j, v, strong) in strong_entries(a, s, i) {
            if j == i || !strong {
                continue;
            }
            if split.is_coarse(j) {
                fcs.push(split.coarse_index[j], v);
                dk += v;
            } else {
                ffs.push(f_index[j], v);
            }
        }
        fcs.end_row();
        ffs.end_row();
        let scale = if dk != 0.0 { 1.0 / dk } else { 0.0 };
        n_vals.extend(fcs.vals[row_start..].iter().map(|&v| v * scale));
        d.push(dk);
    }
    let n_mat = Csr::new(nf, nc, fcs.row_ptr.clone(), fcs.cols.clone(), n_vals);
    let a_fcs = fcs.finish(nc);
    let a_ffs = ffs.finish(nf);
    ctx.charge_timed(
        KernelKind::Graph,
        Algo::Shared,
        &KernelCost {
            int_ops: (a.nnz() + a_fcs.nnz()) as f64 * 2.0,
            cuda_flops: a_fcs.nnz() as f64,
            bytes: a.bytes() + a_fcs.bytes() + a_ffs.bytes(),
            launches: 2,
            ..Default::default()
        },
        timer,
    );

    // The one SpGEMM of the scheme: distance-2 extension.
    let ffs_op = Operator::prepare_for_spgemm(ctx, backend, a_ffs);
    let n_op = Operator::prepare_for_spgemm(ctx, backend, n_mat);
    let ext = op_matmul_ws(ctx, &ffs_op, &n_op, ws);

    // W = A_FCs + ext (charged as a streaming add).
    let timer = ctx.timer();
    let w = a_fcs.add(&ext.csr);
    ctx.charge_timed(
        KernelKind::Vector,
        Algo::Shared,
        &KernelCost {
            cuda_flops: w.nnz() as f64,
            bytes: (a_fcs.bytes() + ext.csr.bytes() + w.bytes()),
            launches: 1,
            ..Default::default()
        },
        timer,
    );

    // P row by row: identity on C points; on F points, -W / D_i with
    // D_i = a_ii + weak couplings + strong F couplings that cannot extend
    // (d_k == 0) — the "+i" lumping.
    let mut p = CsrRows::with_rows(n);
    for i in 0..n {
        if split.is_coarse(i) {
            p.push(split.coarse_index[i], 1.0);
            p.end_row();
            continue;
        }
        let mut dd = 0.0f64;
        for (j, v, strong) in strong_entries(a, s, i) {
            if j == i || !strong || (!split.is_coarse(j) && d[f_index[j] as usize] == 0.0) {
                dd += v;
            }
        }
        if dd != 0.0 {
            let (wcols, wvals) = w.row(f_index[i] as usize);
            for (&c, &v) in wcols.iter().zip(wvals) {
                if v != 0.0 {
                    p.push(c, -v / dd);
                }
            }
        }
        p.end_row();
    }
    p.finish(nc)
}

/// Interpolation truncation, in place: per F row, drop weights
/// `< trunc_fact * max`, keep the `max_elmts` largest, rescale to preserve
/// the row sum. Rows only shrink, so each row is compacted down into the
/// same arrays through one reused scratch row.
fn truncate_rows(p: &mut Csr, split: &Splitting, trunc_fact: f64, max_elmts: usize) {
    let mut kept: Vec<(u32, f64)> = Vec::new();
    let (mut lo, mut out) = (0usize, 0usize);
    for i in 0..p.nrows() {
        let hi = p.row_ptr[i + 1];
        if split.is_coarse(i) || hi - lo <= 1 {
            p.col_idx.copy_within(lo..hi, out);
            p.vals.copy_within(lo..hi, out);
            out += hi - lo;
        } else {
            let (cols, vals) = (&p.col_idx[lo..hi], &p.vals[lo..hi]);
            let row_max = vals.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            let total: f64 = vals.iter().sum();
            kept.clear();
            kept.extend(
                cols.iter()
                    .zip(vals)
                    .filter(|&(_, &v)| v.abs() >= trunc_fact * row_max)
                    .map(|(&c, &v)| (c, v)),
            );
            if kept.len() > max_elmts {
                kept.sort_by(|a, b| b.1.abs().partial_cmp(&a.1.abs()).unwrap());
                kept.truncate(max_elmts);
                kept.sort_unstable_by_key(|&(c, _)| c);
            }
            let kept_sum: f64 = kept.iter().map(|&(_, v)| v).sum();
            let rescale = if kept_sum != 0.0 && total != 0.0 {
                total / kept_sum
            } else {
                1.0
            };
            for &(c, v) in &kept {
                p.col_idx[out] = c;
                p.vals[out] = v * rescale;
                out += 1;
            }
        }
        lo = hi;
        p.row_ptr[i + 1] = out;
    }
    p.col_idx.truncate(out);
    p.vals.truncate(out);
    p.col_idx.shrink_to_fit();
    p.vals.shrink_to_fit();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pmis::pmis;
    use crate::strength::strength_graph;
    use amgt_sim::{Device, GpuSpec, Phase, Precision};
    use amgt_sparse::gen::{laplacian_2d, Stencil2d};

    fn ctx(dev: &Device) -> Ctx<'_> {
        Ctx::new(dev, Phase::Setup, 0, Precision::Fp64)
    }

    fn setup(a: &Csr) -> (Strength, Splitting) {
        let dev = Device::new(GpuSpec::a100());
        let s = strength_graph(&ctx(&dev), a, 0.25, 1.0);
        let sp = pmis(&ctx(&dev), &s, 42);
        (s, sp)
    }

    /// Pure graph Laplacian (zero row sums except one pinned node).
    fn graph_laplacian(nx: usize, ny: usize) -> Csr {
        let base = laplacian_2d(nx, ny, Stencil2d::Five);
        let mut trips = Vec::new();
        for r in 0..base.nrows() {
            let (cols, vals) = base.row(r);
            let mut off = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                if c as usize != r {
                    trips.push((r, c as usize, v));
                    off += v;
                }
            }
            let pin = if r == 0 { 0.1 } else { 0.0 };
            trips.push((r, r, -off + pin));
        }
        Csr::from_triplets(base.nrows(), base.ncols(), &trips)
    }

    fn check_interp(scheme: Interpolation, backend: BackendKind) {
        let a = graph_laplacian(12, 12);
        let (s, sp) = setup(&a);
        let dev = Device::new(GpuSpec::a100());
        let mut ws = SpgemmWorkspace::default();
        let p = build_interpolation(&ctx(&dev), backend, &a, &s, &sp, scheme, 0.1, 4, &mut ws);
        assert_eq!(p.nrows(), a.nrows());
        assert_eq!(p.ncols(), sp.n_coarse);
        // C rows are identity.
        let mut f_rows_with_weights = 0;
        for i in 0..a.nrows() {
            let (cols, vals) = p.row(i);
            if sp.is_coarse(i) {
                assert_eq!(cols, &[sp.coarse_index[i]]);
                assert_eq!(vals, &[1.0]);
            } else {
                assert!(cols.len() <= 4, "truncation cap violated: {}", cols.len());
                if !cols.is_empty() {
                    f_rows_with_weights += 1;
                    // Constant-preserving on zero-row-sum rows: weights sum
                    // close to 1.
                    let sum: f64 = vals.iter().sum();
                    assert!(
                        (sum - 1.0).abs() < 0.35,
                        "row {i} weight sum {sum} ({scheme:?})"
                    );
                }
            }
        }
        assert!(f_rows_with_weights > 0);
    }

    #[test]
    fn direct_interpolation_properties() {
        check_interp(Interpolation::Direct, BackendKind::Vendor);
    }

    #[test]
    fn extended_i_properties_vendor() {
        check_interp(Interpolation::ExtendedI, BackendKind::Vendor);
    }

    #[test]
    fn extended_i_properties_amgt() {
        check_interp(Interpolation::ExtendedI, BackendKind::AmgT);
    }

    #[test]
    fn extended_i_issues_one_spgemm() {
        let a = graph_laplacian(10, 10);
        let (s, sp) = setup(&a);
        let dev = Device::new(GpuSpec::a100());
        build_interpolation(
            &ctx(&dev),
            BackendKind::Vendor,
            &a,
            &s,
            &sp,
            Interpolation::ExtendedI,
            0.1,
            4,
            &mut SpgemmWorkspace::default(),
        );
        let numeric = dev
            .events()
            .iter()
            .filter(|e| e.kind == KernelKind::SpGemmNumeric)
            .count();
        assert_eq!(numeric, 1);
    }

    #[test]
    fn direct_issues_no_spgemm() {
        let a = graph_laplacian(10, 10);
        let (s, sp) = setup(&a);
        let dev = Device::new(GpuSpec::a100());
        build_interpolation(
            &ctx(&dev),
            BackendKind::Vendor,
            &a,
            &s,
            &sp,
            Interpolation::Direct,
            0.1,
            4,
            &mut SpgemmWorkspace::default(),
        );
        assert!(dev
            .events()
            .iter()
            .all(|e| e.kind != KernelKind::SpGemmNumeric));
    }

    #[test]
    fn extended_i_reaches_distance_two() {
        // A chain F-F-C: the middle F point has no strong C at distance 1
        // in "direct", but extended+i reaches the C point through its F
        // neighbour... construct: 0 -- 1 -- 2 with 2 coarse.
        let a = Csr::from_triplets(
            3,
            3,
            &[
                (0, 0, 1.0),
                (0, 1, -1.0),
                (1, 0, -1.0),
                (1, 1, 2.0),
                (1, 2, -1.0),
                (2, 1, -1.0),
                (2, 2, 1.0),
            ],
        );
        let dev = Device::new(GpuSpec::a100());
        let s = strength_graph(&ctx(&dev), &a, 0.25, 1.0);
        // Force the splitting: node 2 coarse, 0 and 1 fine.
        let split = Splitting {
            cf: vec![
                crate::pmis::CfPoint::Fine,
                crate::pmis::CfPoint::Fine,
                crate::pmis::CfPoint::Coarse,
            ],
            coarse_index: vec![u32::MAX, u32::MAX, 0],
            n_coarse: 1,
            rounds: 1,
        };
        let mut ws = SpgemmWorkspace::default();
        let p = extended_i_interpolation(&ctx(&dev), BackendKind::Vendor, &a, &s, &split, &mut ws);
        // Node 0 interpolates from C point 2 through F neighbour 1.
        let (cols, vals) = p.row(0);
        assert_eq!(cols, &[0]);
        assert!(vals[0] > 0.0, "distance-2 weight {}", vals[0]);
        // Direct interpolation cannot reach it.
        let pd = direct_interpolation(&a, &s, &split);
        assert_eq!(pd.row(0).0.len(), 0);
    }

    #[test]
    fn truncation_caps_and_rescales() {
        let split = Splitting {
            cf: vec![crate::pmis::CfPoint::Fine],
            coarse_index: vec![u32::MAX],
            n_coarse: 6,
            rounds: 0,
        };
        let mut t = Csr::from_triplets(
            1,
            6,
            &[
                (0, 0, 0.4),
                (0, 1, 0.3),
                (0, 2, 0.2),
                (0, 3, 0.05),
                (0, 4, 0.03),
                (0, 5, 0.02),
            ],
        );
        truncate_rows(&mut t, &split, 0.1, 4);
        let (cols, vals) = t.row(0);
        assert!(cols.len() <= 4);
        // 0.03 and 0.02 dropped by trunc_fact (0.1 * 0.4 = 0.04).
        assert!(!cols.contains(&4) && !cols.contains(&5));
        let sum: f64 = vals.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12, "row sum preserved, got {sum}");
    }
}
