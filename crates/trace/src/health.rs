//! Numerical-health records: hierarchy-quality diagnostics and solver
//! health events.
//!
//! PR 2 made *time* observable; this module makes *numerics* observable.
//! Two record families live here, both flattened to plain numbers and
//! string labels so the trace layer stays independent of solver enums:
//!
//! * [`HierarchyDiagnostics`] — per-level quality stats computed after AMG
//!   setup (rows, nonzeros, average `popcount(blcMap)` density of the MBSR
//!   blocks, coarsening ratio) plus the two classic AMG cost summaries:
//!   operator complexity (Σ nnz_k / nnz_0) and grid complexity
//!   (Σ rows_k / rows_0). AMGCL and PETSc GAMG both report these as
//!   first-class setup outputs; they predict cycle cost and explain "why
//!   is the iteration count what it is".
//! * [`HealthEvent`] — structured convergence-health incidents emitted by
//!   `solve` / `solve_batched` / PCG, on one device or many: [`Stagnation`]
//!   (residual-ratio EMA stuck near 1 over a window), [`Divergence`]
//!   (residual growth beyond a factor of the initial residual), and
//!   [`NonFinite`] (NaN/Inf caught at a cycle boundary, naming the level
//!   and precision that produced it — the FP16 levels of a mixed-precision
//!   hierarchy are the usual suspects).
//!
//! [`Stagnation`]: HealthEventKind::Stagnation
//! [`Divergence`]: HealthEventKind::Divergence
//! [`NonFinite`]: HealthEventKind::NonFinite

use serde::Serialize;

/// What went wrong (or is about to): the health-event taxonomy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum HealthEventKind {
    /// Convergence factor stayed at/above the stagnation threshold for a
    /// full window of iterations: the method is no longer making progress
    /// but is not blowing up either.
    Stagnation,
    /// The residual grew beyond the divergence threshold relative to the
    /// initial residual: the iteration is amplifying error.
    Divergence,
    /// A NaN/Inf was observed at a cycle boundary. `level`/`precision`
    /// name the hierarchy level whose visit first produced it.
    NonFinite,
}

impl HealthEventKind {
    pub fn label(&self) -> &'static str {
        match self {
            HealthEventKind::Stagnation => "Stagnation",
            HealthEventKind::Divergence => "Divergence",
            HealthEventKind::NonFinite => "NonFinite",
        }
    }
}

/// One structured health incident. Emitted through
/// [`Recorder::record_health`](crate::Recorder::record_health) and carried
/// in the solver reports, so one recording explains both where the time
/// went *and* why the iteration count is what it is.
#[derive(Clone, Debug, Serialize)]
pub struct HealthEvent {
    pub kind: HealthEventKind,
    /// Outer iteration (1-based) at which the incident was detected.
    pub iteration: usize,
    /// Convergence-factor EMA at detection time (residual-ratio EMA); 0
    /// when not meaningful (e.g. NonFinite on the first iteration).
    pub factor: f64,
    /// Hierarchy level that produced the incident, when attributable
    /// (NonFinite events name the first poisoned level, top-down).
    pub level: Option<u32>,
    /// Precision label of that level ("FP64" / "FP32" / "FP16").
    pub precision: Option<&'static str>,
    /// RHS column for batched solves; `None` for single-vector solves.
    pub column: Option<usize>,
    /// Free-form context ("residual grew 1.2e5x", ...).
    pub detail: String,
    /// Raw [`TraceId`](crate::TraceId) of the job that produced the
    /// event, taken from the device's recorder; `0` when the solve ran
    /// without request identity (direct library use).
    pub trace_id: u64,
}

impl HealthEvent {
    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        let mut s = format!("{} at iteration {}", self.kind.label(), self.iteration);
        if let Some(level) = self.level {
            s.push_str(&format!(" (level {level}"));
            if let Some(p) = self.precision {
                s.push_str(&format!(", {p}"));
            }
            s.push(')');
        }
        if let Some(col) = self.column {
            s.push_str(&format!(" [column {col}]"));
        }
        if !self.detail.is_empty() {
            s.push_str(": ");
            s.push_str(&self.detail);
        }
        s
    }
}

/// Quality stats for one hierarchy level.
#[derive(Clone, Debug, Serialize)]
pub struct LevelStats {
    pub level: u32,
    /// Rows (= unknowns) of the level operator.
    pub rows: usize,
    /// Stored nonzeros of the level operator.
    pub nnz: usize,
    /// Average `popcount(blcMap)` over the MBSR blocks — how full the 4x4
    /// tensor-core tiles are (16 = dense blocks). 0 when the level has no
    /// MBSR form (CSR-only backends).
    pub avg_popcount: f64,
    /// `rows_k / rows_{k+1}`: how aggressively this level coarsens into
    /// the next. `None` on the coarsest level.
    pub coarsening_ratio: Option<f64>,
    /// Compute precision assigned to this level ("FP64"/"FP32"/"FP16").
    pub precision: &'static str,
}

/// Hierarchy-quality summary computed after AMG setup; attached to the
/// trace [`Recording`](crate::Recording) and rendered by
/// `amgt-cli --diagnose`.
#[derive(Clone, Debug, Default, Serialize)]
pub struct HierarchyDiagnostics {
    pub levels: Vec<LevelStats>,
    /// Σ nnz_k / nnz_0 — memory/work overhead of the whole hierarchy
    /// relative to the fine operator.
    pub operator_complexity: f64,
    /// Σ rows_k / rows_0 — grid overhead of the hierarchy.
    pub grid_complexity: f64,
}

impl HierarchyDiagnostics {
    /// Per-level text table plus the complexity summary lines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:>5} {:>10} {:>12} {:>8} {:>9} {:>6}\n",
            "level", "rows", "nnz", "avg-pop", "coarsen", "prec"
        ));
        for l in &self.levels {
            let coarsen = match l.coarsening_ratio {
                Some(r) => format!("{r:.2}x"),
                None => "--".to_string(),
            };
            out.push_str(&format!(
                "{:>5} {:>10} {:>12} {:>8.2} {:>9} {:>6}\n",
                l.level, l.rows, l.nnz, l.avg_popcount, coarsen, l.precision
            ));
        }
        out.push_str(&format!(
            "operator complexity: {:.3}\ngrid complexity:     {:.3}\n",
            self.operator_complexity, self.grid_complexity
        ));
        out
    }

    /// Serde JSON dump.
    pub fn to_json(&self) -> String {
        serde::Serialize::to_json(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag() -> HierarchyDiagnostics {
        HierarchyDiagnostics {
            levels: vec![
                LevelStats {
                    level: 0,
                    rows: 4096,
                    nnz: 20224,
                    avg_popcount: 4.9,
                    coarsening_ratio: Some(3.98),
                    precision: "FP64",
                },
                LevelStats {
                    level: 1,
                    rows: 1029,
                    nnz: 9103,
                    avg_popcount: 8.7,
                    coarsening_ratio: None,
                    precision: "FP32",
                },
            ],
            operator_complexity: 1.45,
            grid_complexity: 1.25,
        }
    }

    #[test]
    fn render_contains_levels_and_complexities() {
        let table = diag().render();
        assert!(table.contains("level"), "{table}");
        assert!(table.contains("4096"), "{table}");
        assert!(table.contains("3.98x"), "{table}");
        assert!(table.contains("--"), "coarsest level has no ratio: {table}");
        assert!(table.contains("FP16") || table.contains("FP32"), "{table}");
        assert!(table.contains("operator complexity: 1.450"), "{table}");
        assert!(table.contains("grid complexity:     1.250"), "{table}");
    }

    #[test]
    fn diagnostics_serialize_to_json() {
        let json = diag().to_json();
        assert!(json.contains("\"operator_complexity\":1.45"), "{json}");
        assert!(json.contains("\"coarsening_ratio\":null"), "{json}");
        assert!(json.contains("\"precision\":\"FP64\""), "{json}");
    }

    #[test]
    fn event_summary_names_level_and_precision() {
        let ev = HealthEvent {
            kind: HealthEventKind::NonFinite,
            iteration: 3,
            factor: 0.0,
            level: Some(3),
            precision: Some("FP16"),
            column: None,
            detail: "NaN after pre-smoothing".to_string(),
            trace_id: 0,
        };
        let s = ev.summary();
        assert!(s.contains("NonFinite at iteration 3"), "{s}");
        assert!(s.contains("level 3"), "{s}");
        assert!(s.contains("FP16"), "{s}");
        assert!(s.contains("NaN after pre-smoothing"), "{s}");
    }

    #[test]
    fn event_summary_mentions_column_for_batched() {
        let ev = HealthEvent {
            kind: HealthEventKind::Divergence,
            iteration: 7,
            factor: 2.5,
            level: None,
            precision: None,
            column: Some(4),
            detail: String::new(),
            trace_id: 0,
        };
        let s = ev.summary();
        assert!(s.contains("Divergence at iteration 7"), "{s}");
        assert!(s.contains("[column 4]"), "{s}");
    }
}
