//! Numerical-health diagnostics: hierarchy quality and convergence health.
//!
//! Two halves, both feeding the `amgt-trace` recorder so one recording
//! explains *where the time went* and *why the iteration count is what it
//! is*:
//!
//! * [`hierarchy_diagnostics`] — per-level quality stats (rows, nnz,
//!   average `popcount(blcMap)` tile density, coarsening ratio) plus
//!   operator and grid complexity, computed from a finished [`Hierarchy`].
//!   AMGCL and PETSc GAMG both report these as first-class setup outputs;
//!   `setup`/`resetup` attach them to any installed recorder and
//!   `amgt-cli --diagnose` renders them as a table.
//! * [`ConvergenceMonitor`] — per-solve residual tracking that classifies
//!   each iteration by its convergence factor (residual-ratio EMA) and
//!   emits structured [`HealthEvent`]s: `Stagnation` (factor pinned near 1
//!   over a window), `Divergence` (residual growth far beyond its best),
//!   `NonFinite` (NaN/Inf at a cycle boundary). The terminal
//!   classification is a [`SolveOutcome`], which distinguishes "hit the
//!   iteration budget" from "numerically failed" — a deadline-killed job
//!   and a diverged job must not report identically.

use crate::hierarchy::Hierarchy;
use amgt_sim::{Device, HealthEvent, HealthEventKind, HierarchyDiagnostics, LevelStats};
use serde::Serialize;

/// Publish a health event a solve loop detected: stamp the installed
/// recorder's trace id, hand the event to that recorder and append it to
/// the solve's own list.
pub fn emit_health(device: &Device, mut ev: HealthEvent, sink: &mut Vec<HealthEvent>) {
    if let Some(rec) = device.recorder() {
        ev.trace_id = rec.trace_id();
        rec.record_health(ev.clone());
    }
    sink.push(ev);
}

/// Terminal classification of a solve, finer-grained than `converged:
/// bool`. `MaxIterations` and `Stagnated` mean "ran out of budget /
/// progress"; `Diverged` and `NonFinite` mean the numerics failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum SolveOutcome {
    /// Reached the configured tolerance.
    Converged,
    /// Exhausted the iteration budget while still making progress.
    MaxIterations,
    /// Exhausted the budget after the convergence factor pinned near 1.
    Stagnated,
    /// The residual grew beyond the divergence threshold.
    Diverged,
    /// NaN/Inf appeared at a cycle boundary.
    NonFinite,
}

impl SolveOutcome {
    pub fn is_converged(self) -> bool {
        matches!(self, SolveOutcome::Converged)
    }

    /// True for outcomes where the *numerics* failed (as opposed to
    /// merely running out of iteration budget).
    pub fn is_numerical_failure(self) -> bool {
        matches!(self, SolveOutcome::Diverged | SolveOutcome::NonFinite)
    }

    pub fn label(self) -> &'static str {
        match self {
            SolveOutcome::Converged => "Converged",
            SolveOutcome::MaxIterations => "MaxIterations",
            SolveOutcome::Stagnated => "Stagnated",
            SolveOutcome::Diverged => "Diverged",
            SolveOutcome::NonFinite => "NonFinite",
        }
    }
}

/// Detection thresholds for the convergence monitor. These are health
/// *annotations*, not solver controls — they live outside [`crate::AmgConfig`]
/// so tuning them never perturbs config fingerprints or solver behavior
/// (except that divergence/non-finite stop a clearly-failed solve early).
#[derive(Clone, Copy, Debug)]
pub struct HealthThresholds {
    /// EMA convergence factor at/above which an iteration counts as
    /// stagnant. 0.995 ≈ "less than half a digit of progress per 100
    /// iterations".
    pub stagnation_factor: f64,
    /// Consecutive stagnant iterations before a `Stagnation` event fires.
    pub stagnation_window: usize,
    /// Relative residual below which stagnation is never flagged: a
    /// converged-to-machine-precision solve sits at factor ≈ 1 without
    /// being unhealthy.
    pub stagnation_floor: f64,
    /// `Divergence` fires when the relative residual exceeds this multiple
    /// of the best residual seen so far.
    pub divergence_growth: f64,
    /// Smoothing weight of the convergence-factor EMA (1 = no smoothing).
    pub ema_alpha: f64,
}

impl Default for HealthThresholds {
    fn default() -> Self {
        HealthThresholds {
            stagnation_factor: 0.995,
            stagnation_window: 8,
            stagnation_floor: 1e-12,
            divergence_growth: 1e4,
            ema_alpha: 0.5,
        }
    }
}

/// Tracks one residual sequence (one solve, or one column of a batched
/// solve) and classifies its health. Feed it the relative residual after
/// each outer iteration via [`observe`](ConvergenceMonitor::observe);
/// each call returns at most one newly-fired [`HealthEvent`] (each kind
/// fires once per monitor).
#[derive(Clone, Debug)]
pub struct ConvergenceMonitor {
    thresholds: HealthThresholds,
    /// RHS column this monitor watches (stamped into events).
    column: Option<usize>,
    initial_rel: f64,
    prev_rel: f64,
    best_rel: f64,
    ema: f64,
    iteration: usize,
    stagnant_run: usize,
    stagnation_emitted: bool,
    divergence_emitted: bool,
    nonfinite_emitted: bool,
}

impl ConvergenceMonitor {
    /// `initial_rel` is the relative residual before the first iteration
    /// (1.0 for a zero initial guess).
    pub fn new(thresholds: HealthThresholds, initial_rel: f64) -> Self {
        let start = if initial_rel.is_finite() && initial_rel > 0.0 {
            initial_rel
        } else {
            1.0
        };
        ConvergenceMonitor {
            thresholds,
            column: None,
            initial_rel: start,
            prev_rel: start,
            best_rel: start,
            ema: 0.0,
            iteration: 0,
            stagnant_run: 0,
            stagnation_emitted: false,
            divergence_emitted: false,
            nonfinite_emitted: false,
        }
    }

    /// Monitor for one column of a batched solve; events carry the column.
    pub fn for_column(thresholds: HealthThresholds, initial_rel: f64, column: usize) -> Self {
        let mut m = ConvergenceMonitor::new(thresholds, initial_rel);
        m.column = Some(column);
        m
    }

    /// Convergence-factor EMA after the last observed iteration.
    pub fn factor(&self) -> f64 {
        self.ema
    }

    /// Geometric-mean convergence factor over the whole solve:
    /// `(rel_final / rel_initial)^(1/iterations)`. 0 when nothing was
    /// observed or the sequence is degenerate.
    pub fn geometric_factor(&self) -> f64 {
        if self.iteration == 0 || self.initial_rel <= 0.0 {
            return 0.0;
        }
        let ratio = self.prev_rel / self.initial_rel;
        if !ratio.is_finite() || ratio <= 0.0 {
            return 0.0;
        }
        ratio.powf(1.0 / self.iteration as f64)
    }

    /// True once divergence or a non-finite value was detected: the solve
    /// should stop, further cycles only amplify garbage.
    pub fn should_abort(&self) -> bool {
        self.divergence_emitted || self.nonfinite_emitted
    }

    /// True once a non-finite residual or iterate was detected. Krylov
    /// wrappers abort only on this (their residuals can legitimately spike,
    /// so divergence events stay advisory there).
    pub fn nonfinite(&self) -> bool {
        self.nonfinite_emitted
    }

    /// Observe the relative residual after one outer iteration. Returns a
    /// newly-fired event, if any.
    pub fn observe(&mut self, rel: f64) -> Option<HealthEvent> {
        self.iteration += 1;
        if !rel.is_finite() {
            return self.fire_non_finite(None, None, "relative residual became non-finite".into());
        }
        let factor = if self.prev_rel > 0.0 {
            rel / self.prev_rel
        } else {
            0.0
        };
        self.ema = if self.iteration == 1 {
            factor
        } else {
            self.thresholds.ema_alpha * factor + (1.0 - self.thresholds.ema_alpha) * self.ema
        };
        self.prev_rel = rel;

        if !self.divergence_emitted
            && rel > self.thresholds.divergence_growth * self.best_rel.max(f64::MIN_POSITIVE)
        {
            self.divergence_emitted = true;
            return Some(HealthEvent {
                kind: HealthEventKind::Divergence,
                iteration: self.iteration,
                factor: self.ema,
                level: None,
                precision: None,
                column: self.column,
                detail: format!("residual grew {:.1e}x over its best", rel / self.best_rel),
                trace_id: 0,
            });
        }
        self.best_rel = self.best_rel.min(rel);

        // Stagnation means the factor is pinned near 1 — neither shrinking
        // nor clearly growing. A factor well above 1 is a residual on its
        // way to the divergence threshold, not a plateau, so the band is
        // symmetric around 1: [stagnation_factor, 2 - stagnation_factor].
        let stagnation_ceiling = 2.0 - self.thresholds.stagnation_factor;
        if rel > self.thresholds.stagnation_floor
            && self.ema >= self.thresholds.stagnation_factor
            && self.ema <= stagnation_ceiling
        {
            self.stagnant_run += 1;
        } else {
            self.stagnant_run = 0;
        }
        if !self.stagnation_emitted && self.stagnant_run >= self.thresholds.stagnation_window {
            self.stagnation_emitted = true;
            return Some(HealthEvent {
                kind: HealthEventKind::Stagnation,
                iteration: self.iteration,
                factor: self.ema,
                level: None,
                precision: None,
                column: self.column,
                detail: format!(
                    "convergence factor {:.4} over the last {} iterations",
                    self.ema, self.thresholds.stagnation_window
                ),
                trace_id: 0,
            });
        }
        None
    }

    /// Record a non-finite value detected at a cycle boundary, with level
    /// attribution from the V-cycle's own checks. Counts as one observed
    /// iteration (the cycle ran).
    pub fn attribute_non_finite(
        &mut self,
        level: Option<u32>,
        precision: Option<&'static str>,
        detail: String,
    ) -> Option<HealthEvent> {
        self.iteration += 1;
        self.fire_non_finite(level, precision, detail)
    }

    fn fire_non_finite(
        &mut self,
        level: Option<u32>,
        precision: Option<&'static str>,
        detail: String,
    ) -> Option<HealthEvent> {
        if self.nonfinite_emitted {
            return None;
        }
        self.nonfinite_emitted = true;
        Some(HealthEvent {
            kind: HealthEventKind::NonFinite,
            iteration: self.iteration,
            factor: self.ema,
            level,
            precision,
            column: self.column,
            detail,
            trace_id: 0,
        })
    }

    /// Terminal classification given whether the tolerance was reached.
    pub fn outcome(&self, converged: bool) -> SolveOutcome {
        if self.nonfinite_emitted {
            SolveOutcome::NonFinite
        } else if self.divergence_emitted {
            SolveOutcome::Diverged
        } else if converged {
            SolveOutcome::Converged
        } else if self.stagnation_emitted {
            SolveOutcome::Stagnated
        } else {
            SolveOutcome::MaxIterations
        }
    }
}

/// Compute hierarchy-quality diagnostics from a finished hierarchy: the
/// per-level table plus operator complexity (`Σ nnz_k / nnz_0`, agreeing
/// with [`SetupStats::operator_complexity`](crate::SetupStats)) and grid
/// complexity (`Σ rows_k / rows_0`).
pub fn hierarchy_diagnostics(h: &Hierarchy) -> HierarchyDiagnostics {
    let rows0 = h.levels[0].n().max(1) as f64;
    let nnz0 = h.levels[0].a.nnz().max(1) as f64;
    let levels = h
        .levels
        .iter()
        .enumerate()
        .map(|(k, lvl)| LevelStats {
            level: k as u32,
            rows: lvl.n(),
            nnz: lvl.a.nnz(),
            avg_popcount: lvl
                .a
                .mbsr
                .as_ref()
                .map(|m| m.avg_nnz_per_block())
                .unwrap_or(0.0),
            coarsening_ratio: h
                .levels
                .get(k + 1)
                .map(|next| lvl.n() as f64 / next.n().max(1) as f64),
            precision: lvl.precision.label(),
        })
        .collect();
    HierarchyDiagnostics {
        levels,
        operator_complexity: h.levels.iter().map(|l| l.a.nnz() as f64).sum::<f64>() / nnz0,
        grid_complexity: h.levels.iter().map(|l| l.n() as f64).sum::<f64>() / rows0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AmgConfig;
    use crate::hierarchy::setup;
    use amgt_sim::{Device, GpuSpec};
    use amgt_sparse::gen::{laplacian_2d, Stencil2d};

    #[test]
    fn diagnostics_match_setup_stats() {
        let dev = Device::new(GpuSpec::a100());
        let a = laplacian_2d(24, 24, Stencil2d::Five);
        let h = setup(&dev, &AmgConfig::amgt_fp64(), a);
        let d = hierarchy_diagnostics(&h);
        assert_eq!(d.levels.len(), h.n_levels());
        assert!(
            (d.operator_complexity - h.stats.operator_complexity).abs() < 1e-12,
            "{} vs {}",
            d.operator_complexity,
            h.stats.operator_complexity
        );
        assert!(d.grid_complexity >= 1.0);
        for (k, ls) in d.levels.iter().enumerate() {
            assert_eq!(ls.rows, h.stats.grid_sizes[k]);
            assert_eq!(ls.nnz, h.stats.grid_nnz[k]);
            // AmgT operators carry mBSR tiles: density in (0, 16].
            assert!(ls.avg_popcount > 0.0 && ls.avg_popcount <= 16.0);
            match ls.coarsening_ratio {
                Some(r) => assert!(r > 1.0, "level {k} ratio {r}"),
                None => assert_eq!(k, d.levels.len() - 1, "only the coarsest has no ratio"),
            }
        }
    }

    #[test]
    fn setup_attaches_diagnostics_to_installed_recorder() {
        use std::sync::Arc;
        let dev = Device::new(GpuSpec::a100());
        let recorder = Arc::new(amgt_sim::Recorder::new());
        dev.install_recorder(recorder.clone());
        let a = laplacian_2d(20, 20, Stencil2d::Five);
        let h = setup(&dev, &AmgConfig::amgt_fp64(), a);
        dev.remove_recorder();
        let rec = recorder.take();
        let attached = rec.hierarchy.expect("setup attaches diagnostics");
        let direct = hierarchy_diagnostics(&h);
        assert_eq!(attached.levels.len(), direct.levels.len());
        assert_eq!(attached.operator_complexity, direct.operator_complexity);
        assert_eq!(attached.grid_complexity, direct.grid_complexity);
        for (a_l, d_l) in attached.levels.iter().zip(&direct.levels) {
            assert_eq!(a_l.rows, d_l.rows);
            assert_eq!(a_l.nnz, d_l.nnz);
        }
    }

    #[test]
    fn monitor_flags_divergence_and_aborts() {
        let mut m = ConvergenceMonitor::new(HealthThresholds::default(), 1.0);
        let mut event = None;
        let mut rel = 1.0;
        for _ in 0..40 {
            rel *= 2.0;
            if let Some(ev) = m.observe(rel) {
                event = Some(ev);
                break;
            }
        }
        let ev = event.expect("divergence fires");
        assert_eq!(ev.kind, HealthEventKind::Divergence);
        assert!(m.should_abort());
        assert_eq!(m.outcome(false), SolveOutcome::Diverged);
        assert!(m.factor() > 1.0);
    }

    #[test]
    fn monitor_flags_stagnation_without_aborting() {
        let t = HealthThresholds::default();
        let mut m = ConvergenceMonitor::new(t, 1.0);
        let mut events = Vec::new();
        let mut rel = 0.5;
        for _ in 0..30 {
            rel *= 0.999; // Factor ≈ 0.999 ≥ 0.995, well above the floor.
            if let Some(ev) = m.observe(rel) {
                events.push(ev);
            }
        }
        assert_eq!(events.len(), 1, "stagnation fires exactly once");
        assert_eq!(events[0].kind, HealthEventKind::Stagnation);
        assert!(!m.should_abort(), "stagnation does not abort");
        assert_eq!(m.outcome(false), SolveOutcome::Stagnated);
    }

    #[test]
    fn stagnation_floor_suppresses_machine_precision_plateau() {
        // A solve that converged to ~1e-16 and then sits there must stay
        // healthy: factor ≈ 1 below the floor is not stagnation.
        let mut m = ConvergenceMonitor::new(HealthThresholds::default(), 1.0);
        let mut rel: f64 = 1.0;
        for _ in 0..10 {
            rel *= 0.02;
            assert!(m.observe(rel.max(1e-16)).is_none());
        }
        for _ in 0..20 {
            assert!(m.observe(1e-16).is_none(), "plateau below floor is fine");
        }
        assert_eq!(m.outcome(false), SolveOutcome::MaxIterations);
        assert_eq!(m.outcome(true), SolveOutcome::Converged);
    }

    #[test]
    fn monitor_geometric_factor_tracks_overall_reduction() {
        let mut m = ConvergenceMonitor::new(HealthThresholds::default(), 1.0);
        for i in 1..=10 {
            m.observe(0.5f64.powi(i));
        }
        assert!((m.geometric_factor() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn monitor_nan_residual_fires_non_finite() {
        let mut m = ConvergenceMonitor::new(HealthThresholds::default(), 1.0);
        m.observe(0.5);
        let ev = m.observe(f64::NAN).expect("NaN fires");
        assert_eq!(ev.kind, HealthEventKind::NonFinite);
        assert!(m.should_abort());
        assert_eq!(m.outcome(false), SolveOutcome::NonFinite);
    }

    #[test]
    fn outcome_labels_and_failure_classes() {
        assert!(SolveOutcome::Converged.is_converged());
        assert!(!SolveOutcome::MaxIterations.is_numerical_failure());
        assert!(!SolveOutcome::Stagnated.is_numerical_failure());
        assert!(SolveOutcome::Diverged.is_numerical_failure());
        assert!(SolveOutcome::NonFinite.is_numerical_failure());
        assert_eq!(SolveOutcome::Diverged.label(), "Diverged");
        // Serializes as a bare string for report JSON.
        assert_eq!(
            serde::Serialize::to_json(&SolveOutcome::NonFinite),
            "\"NonFinite\""
        );
    }
}
