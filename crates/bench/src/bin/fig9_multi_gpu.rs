//! Figure 9 — the three solver variants on eight A100 GPUs.
//!
//! The paper reports AmgT (FP64) beating HYPRE by a geomean of 1.35x (up to
//! 1.84x) and AmgT (Mixed) a further 1.06x — lower than the single-GPU
//! gains because halo communication is backend-independent and dilutes the
//! kernel advantage.

use amgt::geomean;
use amgt_bench::{fmt_time, HarnessArgs, Table, Variant};
use amgt_dist::dist_solve;
use amgt_sim::{Cluster, GpuSpec, Interconnect};
use amgt_sparse::gen::rhs_of_ones;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = HarnessArgs::parse_with_default(amgt_sparse::suite::Scale::Medium);
    const N_GPUS: usize = 8;
    println!(
        "== Figure 9: {} x A100 over NVLink (scale {:?}) ==\n",
        N_GPUS, args.scale
    );
    let mut table = Table::new(&[
        "matrix", "variant", "setup", "solve", "(comm)", "total", "rel.res",
    ]);
    let mut sp_amgt = Vec::new();
    let mut sp_mixed = Vec::new();
    for entry in args.entries() {
        let a = args.generate(entry.name)?;
        let b = rhs_of_ones(&a);
        let mut totals = Vec::new();
        for v in Variant::ALL {
            let cluster = Cluster::new(GpuSpec::a100(), N_GPUS, Interconnect::nvlink());
            let cfg = v.config(args.iters);
            let (_x, rep) = dist_solve(&cluster, &cfg, a.clone(), &b);
            table.row(vec![
                entry.name.to_string(),
                v.label().to_string(),
                fmt_time(rep.setup_seconds),
                fmt_time(rep.solve_seconds),
                format!(
                    "{:.0}%",
                    100.0 * rep.comm_seconds / rep.solve_seconds.max(1e-30)
                ),
                fmt_time(rep.total_seconds()),
                format!("{:.1e}", rep.solve_report.final_relative_residual()),
            ]);
            totals.push(rep.total_seconds());
        }
        sp_amgt.push(totals[0] / totals[1]);
        sp_mixed.push(totals[1] / totals[2]);
    }
    table.print();
    let max = |v: &[f64]| v.iter().cloned().fold(f64::MIN, f64::max);
    println!(
        "\nAmgT(FP64) vs HYPRE on {N_GPUS} GPUs:  geomean {:.2}x  max {:.2}x   (paper: 1.35x / 1.84x)",
        geomean(&sp_amgt),
        max(&sp_amgt)
    );
    println!(
        "AmgT(Mixed) vs AmgT(FP64):       geomean {:.2}x  max {:.2}x   (paper: 1.06x / 1.11x)",
        geomean(&sp_mixed),
        max(&sp_mixed)
    );
    Ok(())
}
