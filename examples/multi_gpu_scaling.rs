//! Strong scaling of the distributed AMG solver across 1-8 simulated A100s
//! (the Figure 9 machinery as a library API).
//!
//! ```text
//! cargo run --release -p amgt-examples --bin multi_gpu_scaling
//! ```

use amgt::prelude::*;
use amgt_dist::{dist_solve, DistConfig};
use amgt_sim::{Cluster, Interconnect};
use amgt_sparse::gen::{laplacian_2d, rhs_of_ones, Stencil2d};

fn main() {
    let a = laplacian_2d(256, 256, Stencil2d::Five);
    let b = rhs_of_ones(&a);
    println!("system: n = {}, nnz = {}\n", a.nrows(), a.nnz());
    println!(
        "{:>5} {:>12} {:>12} {:>10} {:>10}",
        "GPUs", "setup", "solve", "comm %", "speedup"
    );

    let mut cfg = AmgConfig::amgt_fp64();
    cfg.max_iterations = 10;
    let mut t1 = None;
    for p in [1usize, 2, 4, 8] {
        let cluster = Cluster::new(GpuSpec::a100(), p, Interconnect::nvlink());
        let (x, rep) = dist_solve(&cluster, &cfg, &DistConfig::default(), a.clone(), &b);
        let total = rep.total_seconds();
        let t1v = *t1.get_or_insert(total);
        println!(
            "{:>5} {:>9.1} us {:>9.1} us {:>9.0}% {:>9.2}x",
            p,
            rep.setup_seconds * 1e6,
            rep.solve_seconds * 1e6,
            100.0 * rep.comm_seconds / rep.solve_seconds,
            t1v / total
        );
        let err = x.iter().map(|v| (v - 1.0).abs()).fold(0.0f64, f64::max);
        assert!(err < 1.0, "distributed solve diverged");
    }
    println!("\nCommunication latency is constant per V-cycle level while compute");
    println!("shrinks as 1/p, so scaling flattens on coarse-grid-heavy hierarchies —");
    println!("the same dilution the paper observes between Figures 7 and 9.");
}
