//! Real-CPU-time comparison on the native execution backend: the mBSR SpMV
//! driver over 8 right-hand sides at once, the same driver called once
//! per column, and a per-column vendor CSR loop.

use amgt_kernels::spmm_mbsr::{spmm_by_columns, spmm_mbsr, MultiVector};
use amgt_kernels::spmv_mbsr::{analyze_spmv, spmv_mbsr_into, SpmvScratch};
use amgt_kernels::{Ctx, ExecMode};
use amgt_sim::{Device, GpuSpec, Precision};
use amgt_sparse::suite::{generate, Scale};
use amgt_sparse::Mbsr;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_spmm(c: &mut Criterion) {
    for name in ["venkat25", "mc2depi"] {
        let a = generate(name, Scale::Small).unwrap();
        let m = Mbsr::from_csr(&a);
        let dev = Device::new(GpuSpec::a100());
        let ctx = Ctx::standalone(&dev, Precision::Fp64).with_exec(ExecMode::Native);
        let plan = analyze_spmv(&ctx, &m);
        let cols: Vec<Vec<f64>> = (0..8)
            .map(|j| {
                (0..a.ncols())
                    .map(|i| ((i + j) % 13) as f64 * 0.3)
                    .collect()
            })
            .collect();
        let x = MultiVector::from_columns(&cols);

        let mut g = c.benchmark_group(format!("spmm8/{name}"));
        g.sample_size(20);
        g.bench_function("fused_mbsr", |b| {
            b.iter(|| black_box(spmm_mbsr(&ctx, black_box(&m), &plan, black_box(&x))));
        });
        g.bench_function("one_column_calls_mbsr", |b| {
            let mut scratch = SpmvScratch::default();
            let mut y = Vec::new();
            b.iter(|| {
                for j in 0..x.ncols {
                    spmv_mbsr_into(&ctx, &m, &plan, x.col(j), &mut scratch, &mut y);
                    black_box(&y);
                }
            });
        });
        g.bench_function("column_loop_csr", |b| {
            b.iter(|| black_box(spmm_by_columns(&ctx, black_box(&a), black_box(&x))));
        });
        g.finish();
    }
}

criterion_group!(benches, bench_spmm);
criterion_main!(benches);
