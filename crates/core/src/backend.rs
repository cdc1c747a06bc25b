//! Backend abstraction: the same solver calls either the vendor CSR
//! kernels or the AmgT mBSR kernels (Section IV.F's minimal-interface-change
//! integration into HYPRE).
//!
//! An [`Operator`] is a matrix *prepared* for a backend: the CSR image is
//! always retained (coarsening, truncation and the coarsest solve need it),
//! and the AmgT backend additionally carries the mBSR image plus the SpMV
//! preprocessing plan, mirroring how the paper attaches `AmgT_mBSR_*` arrays
//! to `hypre_CSRMatrix`.

use crate::config::BackendKind;
use amgt_kernels::convert::{csr_to_mbsr, mbsr_to_csr};
use amgt_kernels::spgemm_mbsr::{spgemm_mbsr_with_workspace, SpgemmWorkspace};
use amgt_kernels::spmm_mbsr::{spmm_mbsr_into, MultiVector};
use amgt_kernels::spmv_mbsr::{analyze_spmv, SpmvPlan, SpmvScratch};
use amgt_kernels::vendor::{spgemm_csr, spmv_csr_into};
use amgt_kernels::Ctx;
use amgt_sim::precision::quantize_slice;
use amgt_sim::{Algo, KernelCost, KernelKind};
use amgt_sparse::{Csr, Mbsr};

/// Reusable kernel scratch for [`Operator::apply_into`]. Capacity grows
/// monotonically; one instance serves operators of any shape and operands
/// of any width (stale pad regions are re-zeroed by the kernels
/// themselves).
#[derive(Clone, Debug, Default)]
pub struct OpScratch {
    spmv: SpmvScratch,
}

/// A matrix prepared for a backend.
#[derive(Clone, Debug)]
pub struct Operator {
    backend: BackendKind,
    pub csr: Csr,
    pub mbsr: Option<Mbsr>,
    pub plan: Option<SpmvPlan>,
}

impl Operator {
    /// Prepare a CSR matrix for the backend. For AmgT this performs the
    /// (charged) `CSR2MBSR` conversion and SpMV preprocessing.
    pub fn prepare(ctx: &Ctx, backend: BackendKind, csr: Csr) -> Operator {
        match backend {
            BackendKind::Vendor => Operator {
                backend,
                csr,
                mbsr: None,
                plan: None,
            },
            BackendKind::AmgT => {
                let m = csr_to_mbsr(ctx, &csr);
                let plan = analyze_spmv(ctx, &m);
                Operator {
                    backend,
                    csr,
                    mbsr: Some(m),
                    plan: Some(plan),
                }
            }
        }
    }

    /// Prepare a matrix used **only** as a SpGEMM operand (interpolation
    /// intermediates): converts to mBSR but skips the SpMV preprocessing.
    pub fn prepare_for_spgemm(ctx: &Ctx, backend: BackendKind, csr: Csr) -> Operator {
        match backend {
            BackendKind::Vendor => Operator {
                backend,
                csr,
                mbsr: None,
                plan: None,
            },
            BackendKind::AmgT => {
                let m = csr_to_mbsr(ctx, &csr);
                Operator {
                    backend,
                    csr,
                    mbsr: Some(m),
                    plan: None,
                }
            }
        }
    }

    /// Wrap an mBSR product result (AmgT backend only): converts back to
    /// CSR (the charged `MBSR2CSR` of the data flow) without building an
    /// SpMV plan (products feeding further setup steps never run SpMV).
    pub fn from_mbsr(ctx: &Ctx, m: Mbsr) -> Operator {
        let csr = mbsr_to_csr(ctx, &m);
        Operator {
            backend: BackendKind::AmgT,
            csr,
            mbsr: Some(m),
            plan: None,
        }
    }

    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    pub fn nrows(&self) -> usize {
        self.csr.nrows()
    }

    pub fn ncols(&self) -> usize {
        self.csr.ncols()
    }

    pub fn nnz(&self) -> usize {
        self.csr.nnz()
    }

    /// `Y = A X` through the backend kernel, for a column-major operand of
    /// `ncols` columns (`x.len() == self.ncols() * ncols`); `y` is resized
    /// to `self.nrows() * ncols`. The AmgT backend runs the mBSR SpMV
    /// driver once over the whole block (each output column bitwise equal
    /// to the SpMV of that column); the vendor backend has no fused SpMM
    /// and runs one CSR SpMV per column. Allocation-free once `scratch` and
    /// `y` have grown to the operand size.
    pub fn apply_into(
        &self,
        ctx: &Ctx,
        x: &[f64],
        ncols: usize,
        scratch: &mut OpScratch,
        y: &mut Vec<f64>,
    ) {
        match self.backend {
            BackendKind::Vendor => {
                let (n_in, n_out) = (self.ncols(), self.nrows());
                assert_eq!(x.len(), n_in * ncols);
                y.resize(n_out * ncols, 0.0);
                for j in 0..ncols {
                    let yj = &mut y[j * n_out..(j + 1) * n_out];
                    spmv_csr_into(ctx, &self.csr, &x[j * n_in..(j + 1) * n_in], yj);
                }
            }
            BackendKind::AmgT => {
                spmm_mbsr_into(
                    ctx,
                    self.mbsr.as_ref().expect("AmgT operator carries mBSR"),
                    self.plan.as_ref().expect("AmgT operator carries a plan"),
                    x,
                    ncols,
                    &mut scratch.spmv,
                    y,
                );
            }
        }
    }

    /// `y = A x`: the one-column [`Operator::apply_into`].
    pub fn spmv(&self, ctx: &Ctx, x: &[f64]) -> Vec<f64> {
        let mut y = Vec::new();
        self.spmv_into(ctx, x, &mut OpScratch::default(), &mut y);
        y
    }

    /// [`Operator::spmv`] into a caller-owned output, reusing `scratch`.
    pub fn spmv_into(&self, ctx: &Ctx, x: &[f64], scratch: &mut OpScratch, y: &mut Vec<f64>) {
        self.apply_into(ctx, x, 1, scratch, y);
    }

    /// `Y = A X` on a dense multi-vector: [`Operator::apply_into`] at
    /// `x.ncols` columns.
    pub fn spmm(&self, ctx: &Ctx, x: &MultiVector) -> MultiVector {
        let mut y = MultiVector::default();
        self.spmm_into(ctx, x, &mut OpScratch::default(), &mut y);
        y
    }

    /// [`Operator::spmm`] into a caller-owned multi-vector, reusing
    /// `scratch`.
    pub fn spmm_into(
        &self,
        ctx: &Ctx,
        x: &MultiVector,
        scratch: &mut OpScratch,
        y: &mut MultiVector,
    ) {
        self.apply_into(ctx, &x.data, x.ncols, scratch, &mut y.data);
        y.nrows = self.nrows();
        y.ncols = x.ncols;
    }

    /// Quantize the operator's stored values to the context precision
    /// (charged): the "very low cost" per-level conversion of Section IV.E.
    pub fn quantize(&mut self, ctx: &Ctx) {
        let timer = ctx.timer();
        quantize_slice(ctx.precision, &mut self.csr.vals);
        if let Some(m) = &mut self.mbsr {
            quantize_slice(ctx.precision, &mut m.blc_val);
        }
        let cost = KernelCost {
            bytes: self.csr.nnz() as f64 * (8.0 + ctx.precision.bytes() as f64),
            launches: 1,
            ..Default::default()
        };
        ctx.charge_timed(KernelKind::Convert, Algo::Shared, &cost, timer);
    }
}

/// `C = A * B` through the backend SpGEMM. Inputs must share the backend.
/// The caller owns the SpGEMM workspace (hash-table slab, prefix-sum
/// scratch). It grows monotonically, so one instance serves every product
/// of a hierarchy setup and is reused across `resetup`. Vendor products
/// take no workspace and ignore it.
pub fn op_matmul_ws(ctx: &Ctx, a: &Operator, b: &Operator, ws: &mut SpgemmWorkspace) -> Operator {
    assert_eq!(a.backend, b.backend, "mixed-backend product");
    match a.backend {
        BackendKind::Vendor => {
            let (c, _stats) = spgemm_csr(ctx, &a.csr, &b.csr);
            Operator {
                backend: BackendKind::Vendor,
                csr: c,
                mbsr: None,
                plan: None,
            }
        }
        BackendKind::AmgT => {
            let (c, _stats) = spgemm_mbsr_with_workspace(
                ctx,
                a.mbsr.as_ref().expect("AmgT operator carries mBSR"),
                b.mbsr.as_ref().expect("AmgT operator carries mBSR"),
                ws,
            );
            Operator::from_mbsr(ctx, c)
        }
    }
}

/// Charged CSR transpose (`R = P^T`, Algorithm 1 line 4).
pub fn op_transpose(ctx: &Ctx, backend: BackendKind, p: &Csr) -> Operator {
    let timer = ctx.timer();
    let t = p.transpose();
    let cost = KernelCost {
        int_ops: p.nnz() as f64 * 3.0,
        bytes: 2.0 * p.bytes(),
        launches: 2,
        ..Default::default()
    };
    ctx.charge_timed(KernelKind::Transpose, Algo::Shared, &cost, timer);
    Operator::prepare(ctx, backend, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use amgt_sim::{Device, GpuSpec, Phase, Precision};
    use amgt_sparse::gen::{elasticity_3d, laplacian_2d, NeighborSet, Stencil2d};

    fn ctx(dev: &Device) -> Ctx<'_> {
        Ctx::new(dev, Phase::Setup, 0, Precision::Fp64)
    }

    #[test]
    fn both_backends_agree_on_spmv() {
        let dev = Device::new(GpuSpec::a100());
        let a = laplacian_2d(9, 11, Stencil2d::Nine);
        let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64).sin()).collect();
        let v = Operator::prepare(&ctx(&dev), BackendKind::Vendor, a.clone());
        let t = Operator::prepare(&ctx(&dev), BackendKind::AmgT, a);
        let yv = v.spmv(&ctx(&dev), &x);
        let yt = t.spmv(&ctx(&dev), &x);
        for (u, w) in yv.iter().zip(&yt) {
            assert!((u - w).abs() < 1e-11);
        }
    }

    #[test]
    fn both_backends_agree_on_matmul() {
        let dev = Device::new(GpuSpec::a100());
        let a = elasticity_3d(2, 2, 3, 4, NeighborSet::Face, 3);
        let v = Operator::prepare(&ctx(&dev), BackendKind::Vendor, a.clone());
        let t = Operator::prepare(&ctx(&dev), BackendKind::AmgT, a);
        let mut ws = SpgemmWorkspace::default();
        let cv = op_matmul_ws(&ctx(&dev), &v, &v, &mut ws);
        let ct = op_matmul_ws(&ctx(&dev), &t, &t, &mut ws);
        assert!(cv.csr.max_abs_diff(&ct.csr) < 1e-8);
        assert!(ct.mbsr.is_some());
        assert!(cv.mbsr.is_none());
    }

    #[test]
    fn amgt_prepare_charges_conversion() {
        let dev = Device::new(GpuSpec::a100());
        let a = laplacian_2d(6, 6, Stencil2d::Five);
        Operator::prepare(&ctx(&dev), BackendKind::AmgT, a.clone());
        let kinds: Vec<_> = dev.events().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&KernelKind::Convert));
        dev.reset();
        Operator::prepare(&ctx(&dev), BackendKind::Vendor, a);
        assert!(dev.events().is_empty());
    }

    #[test]
    fn transpose_operator() {
        let dev = Device::new(GpuSpec::a100());
        let p = amgt_sparse::Csr::from_triplets(3, 2, &[(0, 0, 1.0), (2, 1, 4.0), (1, 0, -2.0)]);
        let r = op_transpose(&ctx(&dev), BackendKind::Vendor, &p);
        assert_eq!(r.nrows(), 2);
        assert_eq!(r.csr.get(0, 1), Some(-2.0));
        assert_eq!(r.csr.get(1, 2), Some(4.0));
    }

    #[test]
    fn quantize_rounds_both_images() {
        let dev = Device::new(GpuSpec::a100());
        let a = amgt_sparse::Csr::from_triplets(4, 4, &[(0, 0, 1.0 + 2e-11), (3, 3, 2.0)]);
        let mut op = Operator::prepare(&ctx(&dev), BackendKind::AmgT, a);
        op.quantize(&Ctx::new(&dev, Phase::Setup, 1, Precision::Fp16));
        assert_eq!(op.csr.get(0, 0), Some(1.0));
        assert_eq!(op.mbsr.as_ref().unwrap().tile(0)[0], 1.0);
    }
}
