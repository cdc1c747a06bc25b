//! The solver's entry points on the global pool: `setup`, `resetup`,
//! `solve`, `solve_batched` and `pcg_solve` called from a thread outside
//! the pool each run on a pool worker once the global pool exists. Their
//! value bits, iterates, histories and simulated clocks must match the
//! same calls made before the pool was built, when every call ran inline.
//!
//! The global pool lives for the whole process, so this binary holds one
//! test: it computes the references first, then builds the pool.

use amgt::pcg::pcg_solve;
use amgt::prelude::*;
use amgt::resetup;
use amgt_sparse::suite::{generate, Scale};

/// Labelled bit patterns of everything one pass over the entry points
/// produced, in call order.
type Bits = Vec<(String, Vec<u64>)>;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn push_levels(out: &mut Bits, what: &str, h: &Hierarchy) {
    for (k, level) in h.levels.iter().enumerate() {
        out.push((format!("{what} A{k}"), bits(&level.a.csr.vals)));
        if let Some(mbsr) = &level.a.mbsr {
            out.push((format!("{what} A{k} tiles"), bits(&mbsr.blc_val)));
        }
        for (name, op) in [("P", &level.p), ("R", &level.r)] {
            if let Some(op) = op {
                out.push((format!("{what} {name}{k}"), bits(&op.csr.vals)));
            }
        }
        out.push((format!("{what} l1 {k}"), bits(&level.l1_diag_inv)));
    }
}

fn push_clock(out: &mut Bits, what: &str, dev: &Device) {
    out.push((format!("{what} elapsed"), vec![dev.elapsed().to_bits()]));
}

/// Every entry point once, on one device, from the calling thread.
fn entry_points(cfg: &AmgConfig, a: &Csr) -> Bits {
    let mut out = Bits::new();
    let dev = Device::new(GpuSpec::a100());
    let mut h = setup(&dev, cfg, a.clone());
    push_levels(&mut out, "setup", &h);
    push_clock(&mut out, "setup", &dev);

    let mut shifted = a.clone();
    for v in &mut shifted.vals {
        *v *= 1.25;
    }
    resetup(&dev, cfg, &mut h, shifted);
    push_levels(&mut out, "resetup", &h);
    push_clock(&mut out, "resetup", &dev);

    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.125).collect();
    let mut x = vec![0.0; n];
    let rep = solve(&dev, cfg, &h, &b, &mut x);
    out.push(("solve x".into(), bits(&x)));
    out.push(("solve history".into(), bits(&rep.history)));
    push_clock(&mut out, "solve", &dev);

    let columns: Vec<Vec<f64>> = (0..4)
        .map(|j| (0..n).map(|i| ((i * (j + 3)) % 11) as f64 - 5.0).collect())
        .collect();
    let bm = MultiVector::from_columns(&columns);
    let mut xm = MultiVector::zeros(n, 4);
    let rep = solve_batched(&dev, cfg, &h, &bm, &mut xm);
    out.push(("batched x".into(), bits(&xm.data)));
    for (j, history) in rep.column_histories.iter().enumerate() {
        out.push((format!("batched history {j}"), bits(history)));
    }
    push_clock(&mut out, "batched", &dev);

    let mut x = vec![0.0; n];
    let rep = pcg_solve(&dev, cfg, &h, &b, &mut x, 1e-10, 30);
    out.push(("pcg x".into(), bits(&x)));
    out.push(("pcg history".into(), bits(&rep.history)));
    push_clock(&mut out, "pcg", &dev);
    out
}

#[test]
fn entry_points_on_the_global_pool_match_inline_bits() {
    let a = generate("thermal1", Scale::Small).expect("suite matrix");
    let configs: Vec<AmgConfig> = [AmgConfig::amgt_fp64(), AmgConfig::amgt_mixed()]
        .into_iter()
        .map(|mut cfg| {
            cfg.exec = ExecMode::Native;
            cfg.max_iterations = 12;
            cfg
        })
        .collect();
    let inline: Vec<Bits> = configs.iter().map(|cfg| entry_points(cfg, &a)).collect();

    rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build_global()
        .expect("no other test in this binary builds the global pool");
    assert_eq!(rayon::current_num_threads(), 2);

    for (cfg, want) in configs.iter().zip(&inline) {
        let got = entry_points(cfg, &a);
        assert_eq!(got.len(), want.len(), "{:?}", cfg.precision);
        for ((label, g), (_, w)) in got.iter().zip(want) {
            assert!(g == w, "{:?}: {label} differs on the pool", cfg.precision);
        }
    }
}
