//! Real-CPU-time comparison of the SpMV implementations (vendor CSR vs the
//! AmgT mBSR tensor/CUDA paths) on representative suite matrices, on the
//! native execution backend.

use amgt_kernels::spmv_mbsr::{analyze_spmv, spmv_mbsr};
use amgt_kernels::vendor::spmv_csr;
use amgt_kernels::{Ctx, ExecMode};
use amgt_sim::{Device, GpuSpec, Precision};
use amgt_sparse::suite::{generate, Scale};
use amgt_sparse::Mbsr;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_spmv(c: &mut Criterion) {
    // venkat25: dense tiles (tensor path); mc2depi: sparse tiles (CUDA path).
    for name in ["venkat25", "mc2depi"] {
        let a = generate(name, Scale::Small).unwrap();
        let m = Mbsr::from_csr(&a);
        let x: Vec<f64> = (0..a.ncols()).map(|i| (i % 17) as f64 * 0.21).collect();
        let dev = Device::new(GpuSpec::a100());
        let ctx = Ctx::standalone(&dev, Precision::Fp64).with_exec(ExecMode::Native);
        let plan = analyze_spmv(&ctx, &m);
        // The FP16 plan carries the native f32 tile image at FP16.
        let ctx16 = Ctx::standalone(&dev, Precision::Fp16).with_exec(ExecMode::Native);
        let plan16 = analyze_spmv(&ctx16, &m);

        let mut g = c.benchmark_group(format!("spmv/{name}"));
        g.bench_function("vendor_csr", |b| {
            b.iter(|| black_box(spmv_csr(&ctx, black_box(&a), black_box(&x))));
        });
        g.bench_function("amgt_mbsr", |b| {
            b.iter(|| black_box(spmv_mbsr(&ctx, black_box(&m), &plan, black_box(&x))));
        });
        g.bench_function("amgt_mbsr_fp16", |b| {
            b.iter(|| black_box(spmv_mbsr(&ctx16, black_box(&m), &plan16, black_box(&x))));
        });
        g.finish();
    }
}

criterion_group!(benches, bench_spmv);
criterion_main!(benches);
