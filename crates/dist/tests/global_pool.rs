//! Distributed solves under the global pool. Rank bodies block on each
//! other's collectives, so they must stay on their own threads and only
//! fork their kernels onto the pool: moving four rank bodies onto two
//! workers would deadlock. A stationary solve and a PCG solve at P = 4
//! must complete under a width-2 global pool and match the bits they had
//! before the pool was built.
//!
//! The global pool lives for the whole process, so this binary holds one
//! test: it computes the references first, then builds the pool.

use amgt::config::AmgConfig;
use amgt_dist::{dist_pcg, dist_solve};
use amgt_kernels::ExecMode;
use amgt_sim::{Cluster, GpuSpec, Interconnect};
use amgt_sparse::gen::rhs_of_ones;
use amgt_sparse::suite::{generate, Scale};
use std::sync::mpsc;
use std::time::Duration;

/// Solution, residual history and simulated phase seconds of a stationary
/// and a PCG solve at P = 4, as bits.
fn dist_bits(cfg: &AmgConfig) -> Vec<Vec<u64>> {
    let a = generate("thermal1", Scale::Small).expect("suite matrix");
    let b = rhs_of_ones(&a);
    let cluster = Cluster::new(GpuSpec::a100(), 4, Interconnect::nvlink());
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let mut out = Vec::new();
    for (x, rep) in [
        dist_solve(&cluster, cfg, a.clone(), &b),
        dist_pcg(&cluster, cfg, a.clone(), &b, 1e-10, 12),
    ] {
        assert_eq!(rep.ranks, 4);
        out.push(bits(&x));
        out.push(bits(&rep.solve_report.history));
        out.push(bits(&[rep.setup_seconds, rep.solve_seconds]));
    }
    out
}

#[test]
fn dist_solves_complete_under_the_global_pool_with_the_same_bits() {
    let mut cfg = AmgConfig::amgt_fp64();
    cfg.exec = ExecMode::Native;
    cfg.max_iterations = 8;
    let inline = dist_bits(&cfg);

    rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build_global()
        .expect("no other test in this binary builds the global pool");
    // A deadlock would hang the solve, so run it on its own thread and
    // fail the test when it does not finish in time.
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(dist_bits(&cfg)));
    let pooled = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("the distributed solves finish under a width-2 global pool");
    assert!(
        pooled == inline,
        "the pool changed a distributed solve's bits"
    );
}
