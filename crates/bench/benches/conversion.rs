//! Real-CPU-time cost of the format conversions along the AmgT data flow
//! (Figure 10's subject): CSR->mBSR, CSR->BSR and mBSR->CSR.
//!
//! Covers the five matrices of the `cold_solve` host benchmark, mc2depi,
//! and one rectangular operand: the level-0 interpolation `P` of `cant`
//! (n x nc), as an FP64 AmgT setup builds it. Run with
//! `cargo bench -p amgt-bench --bench conversion`.

use amgt::prelude::*;
use amgt_sparse::suite::{generate, Scale};
use amgt_sparse::{Bsr, Csr, Mbsr};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

/// Level-0 interpolation operator of an FP64 AmgT setup of `name`.
fn level0_interpolation(name: &str) -> Csr {
    let a = generate(name, Scale::Small).unwrap();
    let cfg = AmgConfig::paper(BackendKind::AmgT, PrecisionPolicy::Uniform64);
    let h = setup(&Device::new(GpuSpec::a100()), &cfg, a);
    let p = h.levels[0].p.as_ref().expect("cant coarsens at least once");
    p.csr.clone()
}

fn bench_conversion(c: &mut Criterion) {
    let mut inputs: Vec<(String, Csr)> = [
        "cant",
        "venkat25",
        "thermal1",
        "parabolic_fem",
        "Pres_Poisson",
        "mc2depi",
    ]
    .into_iter()
    .map(|name| (name.to_string(), generate(name, Scale::Small).unwrap()))
    .collect();
    inputs.push(("cant_P0".to_string(), level0_interpolation("cant")));

    for (name, a) in &inputs {
        let m = Mbsr::from_csr(a);
        let mut g = c.benchmark_group(format!("convert/{name}"));
        g.sample_size(30);
        g.bench_function("csr_to_mbsr", |b| {
            b.iter(|| black_box(Mbsr::from_csr(black_box(a))));
        });
        g.bench_function("csr_to_bsr", |b| {
            b.iter(|| black_box(Bsr::from_csr(black_box(a))));
        });
        g.bench_function("mbsr_to_csr", |b| {
            b.iter(|| black_box(black_box(&m).to_csr()));
        });
        g.finish();
    }
}

criterion_group!(benches, bench_conversion);
criterion_main!(benches);
