//! High-level solver driver (the HYPRE-integration facade of Section IV.F).
//!
//! [`run_amg`] executes setup + solve on a device and extracts, from the
//! simulated-time ledger, exactly the quantities the paper's figures plot:
//! setup time with its SpGEMM share (Figures 1, 7 green bars), solve time
//! with its SpMV share (Figures 2, 7 blue bars), per-call kernel timelines
//! (Figure 8) and conversion costs (Figure 10).

use crate::config::AmgConfig;
use crate::hierarchy::{setup, Hierarchy, SetupStats};
use crate::solve::{solve, SolveReport};
use amgt_sim::{Device, KernelEvent, KernelKind, Recorder, Recording};
use amgt_sparse::Csr;
use std::sync::Arc;

/// Simulated-seconds breakdown of one phase.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseBreakdown {
    pub total: f64,
    pub spgemm: f64,
    pub spmv: f64,
    pub convert: f64,
    pub vector: f64,
    pub graph: f64,
    pub transpose: f64,
}

impl PhaseBreakdown {
    fn from_events<'a>(events: impl Iterator<Item = &'a KernelEvent>) -> Self {
        let mut b = PhaseBreakdown::default();
        for e in events {
            b.total += e.seconds;
            match e.kind {
                KernelKind::SpGemmSymbolic | KernelKind::SpGemmNumeric => b.spgemm += e.seconds,
                KernelKind::SpMV => b.spmv += e.seconds,
                KernelKind::Convert => b.convert += e.seconds,
                KernelKind::Vector => b.vector += e.seconds,
                KernelKind::Graph => b.graph += e.seconds,
                KernelKind::Transpose => b.transpose += e.seconds,
                KernelKind::Comm => {}
            }
        }
        b
    }

    /// Fraction of the phase spent in a component.
    pub fn share(&self, component: f64) -> f64 {
        if self.total > 0.0 {
            component / self.total
        } else {
            0.0
        }
    }
}

/// Everything one AMG run produces.
pub struct RunReport {
    pub setup: PhaseBreakdown,
    pub solve: PhaseBreakdown,
    pub solve_report: SolveReport,
    pub setup_stats: SetupStats,
    /// SpMV kernel calls in the solve phase.
    pub spmv_calls: usize,
    /// SpGEMM kernel calls (numeric) in the setup phase.
    pub spgemm_calls: usize,
    /// The ledger slice covering this run (for Figure 8).
    pub events: Vec<KernelEvent>,
}

impl RunReport {
    pub fn total_seconds(&self) -> f64 {
        self.setup.total + self.solve.total
    }
}

/// Run setup + solve for `A x = b` (zero initial guess) and collect the
/// report. The device ledger is *not* reset; events are sliced from the
/// call boundary so multiple runs can share a device if desired.
pub fn run_amg(
    device: &Device,
    cfg: &AmgConfig,
    a: Csr,
    b: &[f64],
) -> (Vec<f64>, Hierarchy, RunReport) {
    let start = device.events().len();
    let h = setup(device, cfg, a);
    let solve_start = device.events().len();
    let mut x = vec![0.0; b.len()];
    let solve_report = solve(device, cfg, &h, b, &mut x);
    let events = device.events()[start..].to_vec();
    let setup_events = &events[..solve_start - start];
    let solve_events = &events[solve_start - start..];

    let report = RunReport {
        setup: PhaseBreakdown::from_events(setup_events.iter()),
        solve: PhaseBreakdown::from_events(solve_events.iter()),
        spmv_calls: solve_events
            .iter()
            .filter(|e| e.kind == KernelKind::SpMV)
            .count(),
        spgemm_calls: setup_events
            .iter()
            .filter(|e| e.kind == KernelKind::SpGemmNumeric)
            .count(),
        solve_report,
        setup_stats: h.stats.clone(),
        events,
    };
    (x, h, report)
}

/// Like [`run_amg`], but with a [`Recorder`] installed on the device for
/// the duration of the run: also returns the structured [`Recording`]
/// (span tree + kernel events), ready for the `amgt-trace` exporters.
///
/// Any previously installed recorder is displaced for the run and not
/// restored; the device comes back untraced.
pub fn run_amg_traced(
    device: &Device,
    cfg: &AmgConfig,
    a: Csr,
    b: &[f64],
) -> (Vec<f64>, Hierarchy, RunReport, Recording) {
    let recorder = Arc::new(Recorder::new());
    device.install_recorder(recorder.clone());
    let (x, h, report) = run_amg(device, cfg, a, b);
    device.remove_recorder();
    (x, h, report, recorder.take())
}

/// Geometric mean helper used across the evaluation harness.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AmgConfig;
    use amgt_sim::{GpuSpec, Phase};
    use amgt_sparse::gen::{laplacian_2d, rhs_of_ones, Stencil2d};

    #[test]
    fn run_produces_consistent_report() {
        let dev = Device::new(GpuSpec::a100());
        let a = laplacian_2d(20, 20, Stencil2d::Five);
        let b = rhs_of_ones(&a);
        let mut cfg = AmgConfig::amgt_fp64();
        cfg.max_iterations = 5;
        let (x, h, rep) = run_amg(&dev, &cfg, a, &b);
        assert_eq!(x.len(), 400);
        assert!(rep.setup.total > 0.0);
        assert!(rep.solve.total > 0.0);
        assert!(rep.setup.spgemm > 0.0);
        assert!(rep.solve.spmv > 0.0);
        assert!(rep.setup.spgemm < rep.setup.total);
        assert!(rep.solve.spmv < rep.solve.total);
        assert_eq!(rep.spgemm_calls, 3 * (h.n_levels() - 1));
        // Ledger total equals report total.
        assert!((dev.elapsed() - rep.total_seconds()).abs() < 1e-12);
        // Phases are labelled correctly.
        assert!(rep
            .events
            .iter()
            .filter(|e| e.kind == amgt_sim::KernelKind::SpGemmNumeric)
            .all(|e| e.phase == Phase::Setup));
    }

    #[test]
    fn spgemm_dominates_setup_spmv_dominates_solve() {
        // The headline claims behind Figures 1 and 2.
        let dev = Device::new(GpuSpec::h100());
        let a = laplacian_2d(32, 32, Stencil2d::Five);
        let b = rhs_of_ones(&a);
        let cfg = AmgConfig::hypre_fp64();
        let (_, _, rep) = run_amg(&dev, &cfg, a, &b);
        assert!(
            rep.setup.share(rep.setup.spgemm) > 0.3,
            "SpGEMM setup share {}",
            rep.setup.share(rep.setup.spgemm)
        );
        assert!(
            rep.solve.share(rep.solve.spmv) > 0.5,
            "SpMV solve share {}",
            rep.solve.share(rep.solve.spmv)
        );
    }

    #[test]
    fn traced_run_breakdown_matches_device_elapsed() {
        // The acceptance criterion of the trace layer: a recording of one
        // run reproduces the device clock and the phase split exactly.
        let dev = Device::new(GpuSpec::a100());
        let a = laplacian_2d(20, 20, Stencil2d::Five);
        let b = rhs_of_ones(&a);
        let mut cfg = AmgConfig::amgt_fp64();
        cfg.max_iterations = 4;
        let (_, _, rep, recording) = run_amg_traced(&dev, &cfg, a, &b);

        let breakdown = amgt_trace::Breakdown::from_recording(&recording);
        let elapsed = dev.elapsed();
        let tol = 1e-12 * elapsed.max(1.0);
        assert!((breakdown.total() - elapsed).abs() <= tol);
        assert!((breakdown.phase_total("Setup") - rep.setup.total).abs() <= tol);
        assert!((breakdown.phase_total("Solve") - rep.solve.total).abs() <= tol);
        assert!((breakdown.phase_kind_total("Solve", "SpMV") - rep.solve.spmv).abs() <= tol);
        assert!(
            (breakdown.phase_kind_total("Setup", "SpGEMM-numeric")
                + breakdown.phase_kind_total("Setup", "SpGEMM-symbolic")
                - rep.setup.spgemm)
                .abs()
                <= tol
        );
        // The span tree has the setup and solve phases as roots, with
        // per-level children.
        let roots = recording.children(None);
        let root_names: Vec<&str> = roots.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(root_names, ["setup", "solve"]);
        assert!(!recording.children(Some(roots[0].id)).is_empty());
        // Chrome export of the same recording is non-trivial.
        let json = amgt_trace::chrome_trace(&recording);
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("SpMV"));
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }
}
