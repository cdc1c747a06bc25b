//! Real-CPU-time comparison of the SpGEMM implementations (vendor two-phase
//! hash CSR vs the AmgT mBSR pipeline) on A*A for two structure classes,
//! on the native execution backend.

use amgt_kernels::spgemm_mbsr::spgemm_mbsr;
use amgt_kernels::vendor::spgemm_csr;
use amgt_kernels::{Ctx, ExecMode};
use amgt_sim::{Device, GpuSpec, Precision};
use amgt_sparse::suite::{generate, Scale};
use amgt_sparse::Mbsr;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_spgemm(c: &mut Criterion) {
    for name in ["venkat25", "mc2depi"] {
        let a = generate(name, Scale::Small).unwrap();
        let m = Mbsr::from_csr(&a);
        let dev = Device::new(GpuSpec::a100());
        let ctx = Ctx::standalone(&dev, Precision::Fp64).with_exec(ExecMode::Native);

        let mut g = c.benchmark_group(format!("spgemm/{name}"));
        g.sample_size(10);
        g.bench_function("vendor_csr", |b| {
            b.iter(|| black_box(spgemm_csr(&ctx, black_box(&a), black_box(&a))));
        });
        g.bench_function("amgt_mbsr", |b| {
            b.iter(|| black_box(spgemm_mbsr(&ctx, black_box(&m), black_box(&m))));
        });
        g.finish();
    }
}

criterion_group!(benches, bench_spgemm);
criterion_main!(benches);
