//! Real-CPU-time cost of the full AMG phases: setup and a fixed number of
//! V-cycles, for both backends, on the native execution backend.

use amgt::prelude::*;
use amgt_sparse::gen::{laplacian_2d, rhs_of_ones, Stencil2d};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_amg(c: &mut Criterion) {
    let a = laplacian_2d(48, 48, Stencil2d::Five);
    let b = rhs_of_ones(&a);

    let mut g = c.benchmark_group("amg");
    g.sample_size(10);
    for (label, mut cfg) in [
        ("setup_vendor", AmgConfig::hypre_fp64()),
        ("setup_amgt", AmgConfig::amgt_fp64()),
    ] {
        cfg.exec = ExecMode::Native;
        g.bench_function(label, |bench| {
            bench.iter(|| {
                let dev = Device::new(GpuSpec::a100());
                black_box(setup(&dev, &cfg, black_box(a.clone())))
            });
        });
    }
    for (label, mut cfg) in [
        ("solve5_vendor", AmgConfig::hypre_fp64()),
        ("solve5_amgt", AmgConfig::amgt_fp64()),
        ("solve5_amgt_mixed", AmgConfig::amgt_mixed()),
    ] {
        cfg.max_iterations = 5;
        cfg.exec = ExecMode::Native;
        let dev = Device::new(GpuSpec::a100());
        let h = setup(&dev, &cfg, a.clone());
        g.bench_function(label, |bench| {
            bench.iter(|| {
                let mut x = vec![0.0; b.len()];
                black_box(solve(&dev, &cfg, &h, black_box(&b), &mut x))
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_amg);
criterion_main!(benches);
