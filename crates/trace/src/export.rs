//! Exporters over a finished [`Recording`].
//!
//! * [`chrome_trace`] — Chrome `trace_event` JSON ("X" complete events on
//!   the simulated timeline, microsecond units). Load it into
//!   `chrome://tracing` / Perfetto and the Figure 8 kernel timeline falls
//!   out: kernels nest under level spans under iteration spans under phase
//!   spans.
//! * [`Breakdown`] — per-(phase, kernel-kind) and per-level aggregation of
//!   a recording, the data behind the Figure 1 (setup) and Figure 2
//!   (solve) stacked bars, plus a text table renderer.
//! * [`folded_stacks`] — collapsed-stack ("folded") flamegraph lines over
//!   the *wall-clock* span tree, one `frame;frame;frame ns` line per
//!   self-time contribution, consumable by `flamegraph.pl` / `inferno`.

use crate::recorder::{KernelRecord, Recording, SpanRecord};
use serde::Serialize;
use std::collections::HashMap;

/// Render a recording as Chrome `trace_event` JSON.
///
/// The timeline is simulated device time: `ts`/`dur` are simulated seconds
/// scaled to microseconds. Spans and kernels become "X" (complete) events;
/// span depth is encoded by the natural nesting of intervals on one
/// thread, which the trace viewer reconstructs. Unclosed spans export with
/// zero duration.
pub fn chrome_trace(rec: &Recording) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for span in &rec.spans {
        push_event(&mut out, &mut first, &span_event(span));
    }
    for k in &rec.kernels {
        push_event(&mut out, &mut first, &kernel_event(k));
    }
    out.push_str("]}");
    out
}

fn push_event(out: &mut String, first: &mut bool, ev: &ChromeEvent) {
    if !*first {
        out.push(',');
    }
    *first = false;
    ev.serialize_json(out);
}

/// One `trace_event` entry. Field names match the Chrome trace format
/// (`ph` = phase letter, `ts`/`dur` in microseconds).
#[derive(Serialize)]
struct ChromeEvent {
    name: String,
    cat: String,
    ph: String,
    ts: f64,
    dur: f64,
    pid: u32,
    tid: u32,
    args: ChromeArgs,
}

#[derive(Serialize)]
struct ChromeArgs {
    kind: String,
    algo: String,
    phase: String,
    level: i64,
    precision: String,
    flops: f64,
    int_ops: f64,
    bytes: f64,
    launches: u32,
}

impl Default for ChromeArgs {
    fn default() -> Self {
        ChromeArgs {
            kind: String::new(),
            algo: String::new(),
            phase: String::new(),
            level: -1,
            precision: String::new(),
            flops: 0.0,
            int_ops: 0.0,
            bytes: 0.0,
            launches: 0,
        }
    }
}

fn span_event(span: &SpanRecord) -> ChromeEvent {
    ChromeEvent {
        name: span.name.clone(),
        cat: format!("{:?}", span.kind).to_lowercase(),
        ph: "X".to_string(),
        ts: span.sim_start * 1e6,
        dur: span.sim_seconds().max(0.0) * 1e6,
        pid: 1,
        tid: 1,
        args: ChromeArgs::default(),
    }
}

fn kernel_event(k: &KernelRecord) -> ChromeEvent {
    ChromeEvent {
        name: format!("{}/{}", k.kind, k.algo),
        cat: "kernel".to_string(),
        ph: "X".to_string(),
        ts: k.sim_start * 1e6,
        dur: k.sim_seconds * 1e6,
        pid: 1,
        tid: 1,
        args: ChromeArgs {
            kind: k.kind.to_string(),
            algo: k.algo.to_string(),
            phase: k.phase.to_string(),
            level: k.level as i64,
            precision: k.precision.to_string(),
            flops: k.flops,
            int_ops: k.int_ops,
            bytes: k.bytes,
            launches: k.launches,
        },
    }
}

/// Render a recording as folded (collapsed) flamegraph stacks over wall
/// time.
///
/// Each output line is `root;child;...;leaf <nanoseconds>`. Frames are
/// span names (spaces and semicolons sanitized — the folded format
/// reserves both); kernels charged under a span are aggregated into
/// `kernel:<kind>/<algo>[<precision>]` leaf frames using their measured
/// `wall_ns` (collected when the `amgt-exec` profiler is enabled). A
/// span's *self* time is its wall interval minus child spans and minus
/// measured kernel time, clamped at zero, so the folded total telescopes
/// back to the sum of root-span wall durations — feed the file to any
/// flamegraph renderer and the x axis is the run's real wall clock.
pub fn folded_stacks(rec: &Recording) -> String {
    let mut out = String::new();
    let mut path: Vec<String> = Vec::new();
    for root in rec.children(None) {
        fold_span(rec, root, &mut path, &mut out);
    }
    out
}

fn frame_name(raw: &str) -> String {
    raw.replace([';', ' '], "_")
}

fn span_wall_ns(span: &SpanRecord) -> u64 {
    ((span.wall_end_us - span.wall_start_us).max(0.0) * 1e3).round() as u64
}

fn fold_span(rec: &Recording, span: &SpanRecord, path: &mut Vec<String>, out: &mut String) {
    path.push(frame_name(&span.name));
    let children = rec.children(Some(span.id));
    let child_ns: u64 = children.iter().map(|c| span_wall_ns(c)).sum();
    // Aggregate measured kernel wall time under this span by class.
    let mut kernel_ns: u64 = 0;
    let mut by_class: HashMap<String, u64> = HashMap::new();
    for k in rec.kernels_under(span.id) {
        if k.wall_ns > 0 {
            kernel_ns += k.wall_ns;
            *by_class
                .entry(format!("kernel:{}/{}[{}]", k.kind, k.algo, k.precision))
                .or_insert(0) += k.wall_ns;
        }
    }
    let self_ns = span_wall_ns(span).saturating_sub(child_ns + kernel_ns);
    if self_ns > 0 {
        out.push_str(&path.join(";"));
        out.push_str(&format!(" {self_ns}\n"));
    }
    let mut classes: Vec<_> = by_class.into_iter().collect();
    classes.sort();
    for (class, ns) in classes {
        out.push_str(&path.join(";"));
        out.push_str(&format!(";{class} {ns}\n"));
    }
    for child in children {
        fold_span(rec, child, path, out);
    }
    path.pop();
}

/// Sum of the values of a folded-stacks string — for checking the
/// telescoping invariant against total wall time.
pub fn folded_total_ns(folded: &str) -> u64 {
    folded
        .lines()
        .filter_map(|l| l.rsplit_once(' '))
        .filter_map(|(_, v)| v.parse::<u64>().ok())
        .sum()
}

/// One aggregated cell of a [`Breakdown`]: all kernels sharing a
/// (phase, kind, algo, level, precision) key.
#[derive(Clone, Debug, Serialize)]
pub struct BreakdownRow {
    pub phase: &'static str,
    pub kind: &'static str,
    pub algo: &'static str,
    pub level: u32,
    pub precision: &'static str,
    pub seconds: f64,
    pub flops: f64,
    pub bytes: f64,
    pub launches: u64,
    pub events: u64,
}

/// Per-phase / per-level / per-kind aggregation of a recording — the data
/// behind the paper's Figure 1 (setup breakdown) and Figure 2 (solve
/// breakdown), computed from the trace instead of bespoke bench loops.
#[derive(Clone, Debug, Default, Serialize)]
pub struct Breakdown {
    pub rows: Vec<BreakdownRow>,
}

impl Breakdown {
    /// Aggregate every kernel event in the recording. Rows come out sorted
    /// by (phase, level, kind, algo, precision).
    pub fn from_recording(rec: &Recording) -> Self {
        let mut rows: Vec<BreakdownRow> = Vec::new();
        for k in &rec.kernels {
            let found = rows.iter_mut().find(|r| {
                r.phase == k.phase
                    && r.kind == k.kind
                    && r.algo == k.algo
                    && r.level == k.level
                    && r.precision == k.precision
            });
            match found {
                Some(r) => {
                    r.seconds += k.sim_seconds;
                    r.flops += k.flops;
                    r.bytes += k.bytes;
                    r.launches += k.launches as u64;
                    r.events += 1;
                }
                None => rows.push(BreakdownRow {
                    phase: k.phase,
                    kind: k.kind,
                    algo: k.algo,
                    level: k.level,
                    precision: k.precision,
                    seconds: k.sim_seconds,
                    flops: k.flops,
                    bytes: k.bytes,
                    launches: k.launches as u64,
                    events: 1,
                }),
            }
        }
        rows.sort_by(|a, b| {
            (a.phase, a.level, a.kind, a.algo, a.precision).cmp(&(
                b.phase,
                b.level,
                b.kind,
                b.algo,
                b.precision,
            ))
        });
        Breakdown { rows }
    }

    /// Total simulated seconds across all rows — matches
    /// `Device::elapsed()` when the recorder saw the device's whole life.
    pub fn total(&self) -> f64 {
        self.rows.iter().map(|r| r.seconds).sum()
    }

    /// Total seconds for one phase label (e.g. "Setup").
    pub fn phase_total(&self, phase: &str) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.phase == phase)
            .map(|r| r.seconds)
            .sum()
    }

    /// Total seconds for a (phase, kernel-kind) pair — one Figure 1/2
    /// stacked-bar segment.
    pub fn phase_kind_total(&self, phase: &str, kind: &str) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.phase == phase && r.kind == kind)
            .map(|r| r.seconds)
            .sum()
    }

    /// Total seconds spent at one hierarchy level within a phase.
    pub fn level_total(&self, phase: &str, level: u32) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.phase == phase && r.level == level)
            .map(|r| r.seconds)
            .sum()
    }

    /// Distinct phase labels in row order.
    pub fn phases(&self) -> Vec<&'static str> {
        let mut phases = Vec::new();
        for r in &self.rows {
            if !phases.contains(&r.phase) {
                phases.push(r.phase);
            }
        }
        phases
    }

    /// Distinct kernel-kind labels within a phase, in row order.
    pub fn kinds_in_phase(&self, phase: &str) -> Vec<&'static str> {
        let mut kinds = Vec::new();
        for r in self.rows.iter().filter(|r| r.phase == phase) {
            if !kinds.contains(&r.kind) {
                kinds.push(r.kind);
            }
        }
        kinds
    }

    /// Text table: per-phase sections, one line per (kind, algo) with its
    /// share of the phase — the Figure 1/2 stacked bars in ASCII.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let total = self.total();
        out.push_str(&format!("total simulated time: {:.3} ms\n", total * 1e3));
        for phase in self.phases() {
            let phase_total = self.phase_total(phase);
            out.push_str(&format!(
                "\n[{phase}] {:.3} ms ({:.1}% of total)\n",
                phase_total * 1e3,
                percent(phase_total, total)
            ));
            for kind in self.kinds_in_phase(phase) {
                let kind_total = self.phase_kind_total(phase, kind);
                out.push_str(&format!(
                    "  {kind:<16} {:>10.3} ms  {:>5.1}%\n",
                    kind_total * 1e3,
                    percent(kind_total, phase_total)
                ));
            }
        }
        out
    }

    /// Serde JSON dump of the rows.
    pub fn to_json(&self) -> String {
        serde::Serialize::to_json(self)
    }
}

fn percent(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{KernelSample, Recorder, SpanKind, SpanLabel};

    fn sample(
        kind: &'static str,
        phase: &'static str,
        level: u32,
        start: f64,
        secs: f64,
    ) -> KernelSample {
        KernelSample {
            kind,
            algo: "AmgT",
            phase,
            level,
            precision: "FP64",
            sim_start: start,
            sim_seconds: secs,
            wall_ns: 0,
            flops: 64.0,
            int_ops: 8.0,
            bytes: 512.0,
            launches: 1,
        }
    }

    fn two_phase_recording() -> Recording {
        let r = Recorder::new();
        let setup = r.open_span(SpanKind::Phase, SpanLabel::named("setup"), 0.0);
        r.record_kernel(sample("SpGEMM-numeric", "Setup", 0, 0.0, 3e-6));
        r.record_kernel(sample("Convert", "Setup", 1, 3e-6, 1e-6));
        r.close_span(setup, 4e-6);
        let solve = r.open_span(SpanKind::Phase, SpanLabel::named("solve"), 4e-6);
        r.record_kernel(sample("SpMV", "Solve", 0, 4e-6, 2e-6));
        r.record_kernel(sample("SpMV", "Solve", 0, 6e-6, 2e-6));
        r.record_kernel(sample("SpMV", "Solve", 1, 8e-6, 1e-6));
        r.close_span(solve, 9e-6);
        r.take()
    }

    #[test]
    fn breakdown_aggregates_and_totals() {
        let rec = two_phase_recording();
        let b = Breakdown::from_recording(&rec);
        assert!((b.total() - 9e-6).abs() < 1e-18);
        assert!((b.total() - rec.total_kernel_seconds()).abs() < 1e-18);
        assert!((b.phase_total("Setup") - 4e-6).abs() < 1e-18);
        assert!((b.phase_total("Solve") - 5e-6).abs() < 1e-18);
        assert!((b.phase_kind_total("Solve", "SpMV") - 5e-6).abs() < 1e-18);
        assert!((b.level_total("Solve", 0) - 4e-6).abs() < 1e-18);
        assert!((b.level_total("Solve", 1) - 1e-6).abs() < 1e-18);
        // The two level-0 SpMV events merged into one row.
        let spmv0: Vec<_> = b
            .rows
            .iter()
            .filter(|r| r.kind == "SpMV" && r.level == 0)
            .collect();
        assert_eq!(spmv0.len(), 1);
        assert_eq!(spmv0[0].events, 2);
        assert_eq!(spmv0[0].launches, 2);
        assert_eq!(b.phases(), vec!["Setup", "Solve"]);
    }

    #[test]
    fn breakdown_render_mentions_phases_and_kinds() {
        let b = Breakdown::from_recording(&two_phase_recording());
        let table = b.render();
        assert!(table.contains("[Setup]"), "{table}");
        assert!(table.contains("[Solve]"), "{table}");
        assert!(table.contains("SpMV"), "{table}");
        assert!(table.contains("total simulated time"), "{table}");
    }

    #[test]
    fn chrome_trace_shape() {
        let json = chrome_trace(&two_phase_recording());
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"name\":\"setup\""), "span event present");
        assert!(
            json.contains("\"name\":\"SpMV/AmgT\""),
            "kernel event present"
        );
        assert!(json.contains("\"ph\":\"X\""));
        // Kernel at sim_start 4e-6 → ts 4.0 µs.
        assert!(json.contains("\"ts\":4,"), "{json}");
        assert!(json.contains("\"precision\":\"FP64\""));
    }

    #[test]
    fn chrome_trace_empty_recording() {
        let json = chrome_trace(&Recording::default());
        assert_eq!(json, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}");
    }

    #[test]
    fn chrome_trace_empty_recording_is_parseable_json() {
        let json = chrome_trace(&Recording::default());
        let doc = crate::json::Json::parse(&json).expect("empty trace must parse");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert!(events.is_empty());
        assert_eq!(doc.str("displayTimeUnit"), Some("ms"));
    }

    #[test]
    fn chrome_trace_with_unclosed_spans_is_parseable_json() {
        // Snapshot mid-solve: two spans still open, one kernel charged.
        let r = Recorder::new();
        r.open_span(SpanKind::Phase, SpanLabel::named("solve"), 0.0);
        r.open_span(SpanKind::Iteration, SpanLabel::with("iteration", 1), 1e-6);
        r.record_kernel(sample("SpMV", "Solve", 0, 1e-6, 2e-6));
        let rec = r.snapshot();
        assert!(
            rec.spans.iter().all(|s| !s.closed),
            "both spans must still be open"
        );
        let json = chrome_trace(&rec);
        let doc = crate::json::Json::parse(&json).expect("mid-solve trace must parse");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 3, "2 spans + 1 kernel");
        // Unclosed spans export with zero duration, never negative.
        for ev in events {
            assert_eq!(ev.str("ph"), Some("X"));
            assert!(ev.num("dur").unwrap() >= 0.0);
        }
        let names: Vec<_> = events.iter().filter_map(|e| e.str("name")).collect();
        assert!(names.contains(&"solve"), "{names:?}");
        assert!(names.contains(&"iteration 1"), "{names:?}");
        assert!(names.contains(&"SpMV/AmgT"), "{names:?}");
    }

    #[test]
    fn chrome_trace_full_recording_is_parseable_json() {
        let json = chrome_trace(&two_phase_recording());
        let doc = crate::json::Json::parse(&json).expect("trace must parse");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 7, "2 spans + 5 kernels");
    }

    fn wall_span(
        id: u64,
        parent: Option<u64>,
        name: &str,
        start_us: f64,
        end_us: f64,
    ) -> crate::recorder::SpanRecord {
        crate::recorder::SpanRecord {
            id,
            parent,
            kind: SpanKind::Region,
            name: name.to_string(),
            sim_start: 0.0,
            sim_end: 0.0,
            wall_start_us: start_us,
            wall_end_us: end_us,
            closed: true,
        }
    }

    fn wall_kernel(parent: u64, kind: &'static str, wall_ns: u64) -> crate::recorder::KernelRecord {
        crate::recorder::KernelRecord {
            seq: 0,
            parent: Some(parent),
            kind,
            algo: "AmgT",
            phase: "Solve",
            level: 0,
            precision: "FP64",
            sim_start: 0.0,
            sim_seconds: 1e-6,
            wall_us: 0.0,
            wall_ns,
            flops: 0.0,
            int_ops: 0.0,
            bytes: 0.0,
            launches: 1,
        }
    }

    #[test]
    fn folded_stacks_telescope_to_root_wall() {
        // root [0, 100us]; child "level 0" [10us, 60us] with two SpMV
        // kernels of 5us and 15us measured wall; child self = 30us.
        let rec = Recording {
            spans: vec![
                wall_span(1, None, "solve poisson", 0.0, 100.0),
                wall_span(2, Some(1), "level 0", 10.0, 60.0),
            ],
            kernels: vec![
                wall_kernel(2, "SpMV", 5_000),
                wall_kernel(2, "SpMV", 15_000),
                wall_kernel(2, "Vector", 0), // unmeasured: folds into self
            ],
            ..Default::default()
        };
        let folded = folded_stacks(&rec);
        // Frames sanitize spaces; kernels aggregate per class.
        assert!(
            folded.contains("solve_poisson 50000\n"),
            "root self = 100us - 50us child:\n{folded}"
        );
        assert!(
            folded.contains("solve_poisson;level_0 30000\n"),
            "child self = 50us - 20us kernels:\n{folded}"
        );
        assert!(
            folded.contains("solve_poisson;level_0;kernel:SpMV/AmgT[FP64] 20000\n"),
            "{folded}"
        );
        assert_eq!(
            folded_total_ns(&folded),
            100_000,
            "total folds back to the root span's wall time:\n{folded}"
        );
    }

    #[test]
    fn folded_stacks_clamp_overrun_and_skip_empty() {
        // Kernel wall exceeding its span clamps self-time at zero instead
        // of going negative; a zero-length span emits nothing.
        let rec = Recording {
            spans: vec![
                wall_span(1, None, "tiny", 0.0, 1.0),
                wall_span(2, None, "empty", 5.0, 5.0),
            ],
            kernels: vec![wall_kernel(1, "SpMV", 10_000)],
            ..Default::default()
        };
        let folded = folded_stacks(&rec);
        assert!(
            folded.contains("tiny;kernel:SpMV/AmgT[FP64] 10000\n"),
            "{folded}"
        );
        assert!(!folded.contains("empty"), "{folded}");
        assert!(!folded.contains("tiny 0"), "no zero self line: {folded}");
        assert_eq!(folded_total_ns(&folded), 10_000);
    }

    #[test]
    fn folded_stacks_empty_recording() {
        assert_eq!(folded_stacks(&Recording::default()), "");
        assert_eq!(folded_total_ns(""), 0);
    }
}
