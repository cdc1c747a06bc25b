//! Span/event recording with bounded memory.
//!
//! A [`Recorder`] collects two kinds of records:
//!
//! * [`SpanRecord`] — a named region with a simulated-time interval and a
//!   wall-clock interval. Spans nest: the recorder keeps a stack of open
//!   spans and each new span (or kernel event) attaches to the innermost
//!   open one, so a whole V-cycle reconstructs as a tree (solve → iteration
//!   → level 0 → level 1 → …).
//! * [`KernelRecord`] — one per simulated kernel launch, carrying the
//!   kernel kind/algo/phase/level/precision labels, the simulated start
//!   time and duration, and the operation counts the cost model priced.
//!
//! Both stores are bounded: spans stop being recorded past `span_capacity`
//! (newest dropped, counted), kernel events live in a ring buffer that
//! drops the *oldest* event past `kernel_capacity` (also counted). Health
//! events and per-iteration residuals ride along, bounded by the span
//! capacity. Spans are stored as allocation-free [`SpanLabel`]s and
//! rendered to names only when a [`Recording`] is snapshotted, so a
//! recorder built with [`Recorder::with_capacity`] and reused through
//! [`Recorder::clear`] records without allocating. The exporters in
//! [`crate::export`] consume the [`Recording`].

use crate::health::{HealthEvent, HierarchyDiagnostics};
use parking_lot::Mutex;
use serde::Serialize;
use std::collections::VecDeque;
use std::time::Instant;

/// What a span represents; used for rendering and filtering, not nesting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum SpanKind {
    /// One service job / batch.
    Job,
    /// A solver phase (setup, solve, resetup, pcg, ...).
    Phase,
    /// One outer iteration (V-cycle) of the solve phase.
    Iteration,
    /// One AMG level visit inside setup or a cycle.
    Level,
    /// Anything else (initial residual, coarse factorization, ...).
    Region,
}

/// Compact span label: a static base name plus an optional numeric
/// argument (`"level" + 3` renders as `"level 3"`). Lets the recording
/// path describe spans without allocating.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct SpanLabel {
    pub name: &'static str,
    pub arg: Option<u64>,
}

impl SpanLabel {
    pub const fn named(name: &'static str) -> SpanLabel {
        SpanLabel { name, arg: None }
    }

    pub const fn with(name: &'static str, arg: u64) -> SpanLabel {
        SpanLabel {
            name,
            arg: Some(arg),
        }
    }

    /// The human-readable form (allocates; not for the hot path).
    pub fn render(&self) -> String {
        match self.arg {
            Some(a) => format!("{} {a}", self.name),
            None => self.name.to_string(),
        }
    }
}

/// One recorded region. `sim_*` are simulated-device seconds, `wall_*` are
/// microseconds since the recorder was created.
#[derive(Clone, Debug, Serialize)]
pub struct SpanRecord {
    /// Unique id (1-based, allocation order).
    pub id: u64,
    /// Enclosing span at open time; `None` for roots.
    pub parent: Option<u64>,
    pub kind: SpanKind,
    pub name: String,
    pub sim_start: f64,
    /// Equals `sim_start` until the span closes.
    pub sim_end: f64,
    pub wall_start_us: f64,
    pub wall_end_us: f64,
    pub closed: bool,
}

impl SpanRecord {
    pub fn sim_seconds(&self) -> f64 {
        self.sim_end - self.sim_start
    }
}

/// One simulated kernel launch, flattened to string labels so the trace
/// layer stays independent of the solver enums.
#[derive(Clone, Debug, Serialize)]
pub struct KernelRecord {
    /// Monotone sequence number (execution order — the Figure 8 x axis).
    pub seq: u64,
    /// Innermost open span when the kernel was charged.
    pub parent: Option<u64>,
    pub kind: &'static str,
    pub algo: &'static str,
    pub phase: &'static str,
    pub level: u32,
    pub precision: &'static str,
    /// Device clock when the kernel started, seconds.
    pub sim_start: f64,
    pub sim_seconds: f64,
    /// Wall-clock microseconds since the recorder was created.
    pub wall_us: f64,
    /// Measured host wall-clock duration of the kernel's compute,
    /// nanoseconds. `0` when the profiler was disabled for this launch
    /// (wall timing is opt-in; see `amgt-exec`'s profiler).
    pub wall_ns: u64,
    /// Floating-point operations (tensor + CUDA cores).
    pub flops: f64,
    pub int_ops: f64,
    pub bytes: f64,
    pub launches: u32,
}

/// The fields a charger supplies for one kernel event; the recorder adds
/// `seq`, `parent` and the wall timestamp.
#[derive(Clone, Copy, Debug)]
pub struct KernelSample {
    pub kind: &'static str,
    pub algo: &'static str,
    pub phase: &'static str,
    pub level: u32,
    pub precision: &'static str,
    pub sim_start: f64,
    pub sim_seconds: f64,
    /// Measured wall duration in nanoseconds (`0` = profiler disabled).
    pub wall_ns: u64,
    pub flops: f64,
    pub int_ops: f64,
    pub bytes: f64,
    pub launches: u32,
}

/// One outer iteration's relative residual.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct ResidualRecord {
    /// Outer iteration (1-based).
    pub iteration: usize,
    /// Batched-RHS column; `None` for single-vector solves.
    pub column: Option<usize>,
    pub relative_residual: f64,
}

/// One named scalar of the kernel policy a run executed under.
#[derive(Clone, Debug, Serialize)]
pub struct PolicyParam {
    pub name: String,
    pub value: f64,
}

/// Provenance of the kernel-dispatch policy attached to a recording. Kept
/// as flat strings/scalars so the trace layer stays independent of the
/// solver's policy types.
#[derive(Clone, Debug, Serialize)]
pub struct PolicyNote {
    /// Where the policy came from: `"paper-default"`, `"tuned-search"`,
    /// `"tuned-cache"`, `"file"`, ...
    pub source: String,
    /// Simulated-seconds speedup the tuner predicted over the paper
    /// default (1.0 when the default itself ran).
    pub predicted_speedup: f64,
    /// The policy's parameters, flattened to name/value pairs.
    pub params: Vec<PolicyParam>,
}

/// A finished (or snapshotted) trace.
#[derive(Clone, Debug, Default, Serialize)]
pub struct Recording {
    /// Spans in open order (ids ascending).
    pub spans: Vec<SpanRecord>,
    /// Kernel events in execution order.
    pub kernels: Vec<KernelRecord>,
    /// Spans not recorded because `span_capacity` was reached.
    pub dropped_spans: u64,
    /// Oldest kernel events evicted from the ring buffer.
    pub dropped_kernels: u64,
    /// Numerical-health incidents (stagnation/divergence/non-finite) in
    /// emission order.
    pub health: Vec<HealthEvent>,
    /// Per-iteration relative residuals in emission order.
    pub residuals: Vec<ResidualRecord>,
    /// Hierarchy-quality stats attached after the most recent AMG setup.
    pub hierarchy: Option<HierarchyDiagnostics>,
    /// Kernel-policy provenance for the run, when the driver attached one.
    pub policy: Option<PolicyNote>,
    /// Host thread-pool width the run was configured with (`0` = never
    /// recorded). Wall-clock fields are only comparable between recordings
    /// with equal thread counts.
    pub threads: usize,
    /// Execution backend label (`"sim"` / `"native"`; empty = never
    /// recorded). Results are bitwise identical across backends; wall-clock
    /// fields are only comparable between recordings with equal labels.
    pub exec: String,
    /// Raw [`TraceId`](crate::TraceId) of the job this recording captured
    /// (`0` = the run carried no request identity). Joins the recording
    /// against log lines, health events and retained flight traces.
    pub trace_id: u64,
}

impl Recording {
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.kernels.is_empty()
            && self.health.is_empty()
            && self.residuals.is_empty()
            && self.hierarchy.is_none()
    }

    /// Per-iteration relative residuals recorded for `column` (`None`
    /// matches single-vector residuals).
    pub fn residual_history(&self, column: Option<usize>) -> Vec<f64> {
        self.residuals
            .iter()
            .filter(|r| r.column == column)
            .map(|r| r.relative_residual)
            .collect()
    }

    /// Sum of all kernel durations — must agree with `Device::elapsed()`
    /// when the recorder observed the device's whole life and nothing was
    /// dropped.
    pub fn total_kernel_seconds(&self) -> f64 {
        self.kernels.iter().map(|k| k.sim_seconds).sum()
    }

    /// Sum of kernel durations matching a predicate.
    pub fn kernel_seconds_where(&self, pred: impl Fn(&KernelRecord) -> bool) -> f64 {
        self.kernels
            .iter()
            .filter(|k| pred(k))
            .map(|k| k.sim_seconds)
            .sum()
    }

    /// Look a span up by id.
    pub fn span(&self, id: u64) -> Option<&SpanRecord> {
        self.spans
            .binary_search_by_key(&id, |s| s.id)
            .ok()
            .map(|i| &self.spans[i])
    }

    /// Direct child spans of `parent` (`None` = roots), in open order.
    pub fn children(&self, parent: Option<u64>) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.parent == parent).collect()
    }

    /// Kernel events charged directly under span `id`.
    pub fn kernels_under(&self, id: u64) -> Vec<&KernelRecord> {
        self.kernels
            .iter()
            .filter(|k| k.parent == Some(id))
            .collect()
    }

    /// Indented text rendering of the span tree with simulated durations —
    /// a quick human-readable view of one solve.
    pub fn render_span_tree(&self) -> String {
        let mut out = String::new();
        for root in self.children(None) {
            self.render_subtree(root, 0, &mut out);
        }
        out
    }

    fn render_subtree(&self, span: &SpanRecord, depth: usize, out: &mut String) {
        let kernels = self.kernels_under(span.id).len();
        out.push_str(&format!(
            "{:indent$}{} [{:?}] {:.3} us ({} kernel events)\n",
            "",
            span.name,
            span.kind,
            span.sim_seconds() * 1e6,
            kernels,
            indent = 2 * depth
        ));
        for child in self.children(Some(span.id)) {
            self.render_subtree(child, depth + 1, out);
        }
    }

    /// Serde JSON dump of the whole recording.
    pub fn to_json(&self) -> String {
        serde::Serialize::to_json(self)
    }
}

struct RecorderState {
    next_span_id: u64,
    next_seq: u64,
    /// Open-span stack; the top is the parent of new spans and kernels.
    stack: Vec<u64>,
    /// Spans with their unrendered labels; `name` stays empty until a
    /// snapshot renders it.
    spans: Vec<(SpanLabel, SpanRecord)>,
    dropped_spans: u64,
    kernels: VecDeque<KernelRecord>,
    dropped_kernels: u64,
    health: Vec<HealthEvent>,
    residuals: Vec<ResidualRecord>,
    hierarchy: Option<HierarchyDiagnostics>,
    policy: Option<PolicyNote>,
    threads: usize,
    exec: String,
    trace_id: u64,
}

/// Thread-safe trace collector. One recorder is meant to observe one
/// logical execution (one device / one job); concurrent use is safe but
/// interleaves the span stack.
pub struct Recorder {
    epoch: Instant,
    span_capacity: usize,
    kernel_capacity: usize,
    state: Mutex<RecorderState>,
}

/// Default span capacity: far above any real hierarchy/solve span count.
pub const DEFAULT_SPAN_CAPACITY: usize = 1 << 16;
/// Default kernel ring capacity: holds every event of a full 50-iteration
/// paper-scale run with room to spare.
pub const DEFAULT_KERNEL_CAPACITY: usize = 1 << 20;

/// Open-span nesting reserved up front: job, phase, iteration and one
/// span per level visit fit many times over.
const STACK_RESERVE: usize = 64;

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// Recorder with the default bounds, growing its stores on demand.
    pub fn new() -> Self {
        Recorder::bounded(DEFAULT_SPAN_CAPACITY, DEFAULT_KERNEL_CAPACITY, false)
    }

    /// Recorder with explicit memory bounds, all of it reserved up front:
    /// recording never reallocates, and [`Recorder::clear`] keeps the
    /// reservation.
    pub fn with_capacity(span_capacity: usize, kernel_capacity: usize) -> Self {
        Recorder::bounded(span_capacity, kernel_capacity, true)
    }

    fn bounded(span_capacity: usize, kernel_capacity: usize, reserve: bool) -> Self {
        let (spans, kernels) = if reserve {
            (span_capacity, kernel_capacity)
        } else {
            (0, 0)
        };
        Recorder {
            epoch: Instant::now(),
            span_capacity,
            kernel_capacity,
            state: Mutex::new(RecorderState {
                next_span_id: 1,
                next_seq: 0,
                stack: Vec::with_capacity(STACK_RESERVE),
                spans: Vec::with_capacity(spans),
                dropped_spans: 0,
                kernels: VecDeque::with_capacity(kernels),
                dropped_kernels: 0,
                health: Vec::new(),
                residuals: Vec::with_capacity(spans),
                hierarchy: None,
                policy: None,
                threads: 0,
                exec: String::new(),
                trace_id: 0,
            }),
        }
    }

    fn wall_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span at simulated time `sim_ts`; returns its id. The span
    /// becomes the parent of subsequent spans/kernels until closed.
    pub fn open_span(&self, kind: SpanKind, label: SpanLabel, sim_ts: f64) -> u64 {
        let wall = self.wall_us();
        let mut st = self.state.lock();
        let id = st.next_span_id;
        st.next_span_id += 1;
        let parent = st.stack.last().copied();
        if st.spans.len() < self.span_capacity {
            st.spans.push((
                label,
                SpanRecord {
                    id,
                    parent,
                    kind,
                    name: String::new(),
                    sim_start: sim_ts,
                    sim_end: sim_ts,
                    wall_start_us: wall,
                    wall_end_us: wall,
                    closed: false,
                },
            ));
        } else {
            st.dropped_spans += 1;
        }
        st.stack.push(id);
        id
    }

    /// Close a span at simulated time `sim_ts`. Also pops any still-open
    /// descendants off the stack (they stay recorded as unclosed).
    pub fn close_span(&self, id: u64, sim_ts: f64) {
        let wall = self.wall_us();
        let mut st = self.state.lock();
        if let Some(pos) = st.stack.iter().rposition(|&s| s == id) {
            st.stack.truncate(pos);
        }
        if let Ok(i) = st.spans.binary_search_by_key(&id, |(_, s)| s.id) {
            let span = &mut st.spans[i].1;
            span.sim_end = sim_ts;
            span.wall_end_us = wall;
            span.closed = true;
        }
    }

    /// Record one kernel event under the innermost open span.
    pub fn record_kernel(&self, sample: KernelSample) {
        let wall = self.wall_us();
        let mut st = self.state.lock();
        let seq = st.next_seq;
        st.next_seq += 1;
        let parent = st.stack.last().copied();
        if st.kernels.len() == self.kernel_capacity {
            st.kernels.pop_front();
            st.dropped_kernels += 1;
        }
        st.kernels.push_back(KernelRecord {
            seq,
            parent,
            kind: sample.kind,
            algo: sample.algo,
            phase: sample.phase,
            level: sample.level,
            precision: sample.precision,
            sim_start: sample.sim_start,
            sim_seconds: sample.sim_seconds,
            wall_us: wall,
            wall_ns: sample.wall_ns,
            flops: sample.flops,
            int_ops: sample.int_ops,
            bytes: sample.bytes,
            launches: sample.launches,
        });
    }

    /// Record one numerical-health incident. Bounded by the span
    /// capacity; incidents are rare (at most a few per solve), so hitting
    /// the bound means something is emitting in a loop — stop recording
    /// rather than growing without limit.
    pub fn record_health(&self, event: HealthEvent) {
        let mut st = self.state.lock();
        if st.health.len() < self.span_capacity {
            st.health.push(event);
        }
    }

    /// Record one outer iteration's relative residual. Bounded by the span
    /// capacity, like the health events; past it the newest are dropped.
    pub fn record_residual(&self, iteration: usize, column: Option<usize>, relative_residual: f64) {
        let mut st = self.state.lock();
        if st.residuals.len() < self.span_capacity {
            st.residuals.push(ResidualRecord {
                iteration,
                column,
                relative_residual,
            });
        }
    }

    /// Attach hierarchy-quality diagnostics (computed after AMG setup).
    /// A re-setup replaces the previous diagnostics.
    pub fn set_hierarchy(&self, diag: HierarchyDiagnostics) {
        self.state.lock().hierarchy = Some(diag);
    }

    /// Attach kernel-policy provenance (which policy ran, where it came
    /// from, what speedup the tuner predicted). Replaces any previous note.
    pub fn set_policy(&self, note: PolicyNote) {
        self.state.lock().policy = Some(note);
    }

    /// Record the host thread-pool width the run was configured with, so
    /// wall-clock numbers in the recording carry their reproducibility
    /// context.
    pub fn set_threads(&self, threads: usize) {
        self.state.lock().threads = threads;
    }

    /// Record the execution-backend label (see [`Recording::exec`]).
    pub fn set_exec(&self, exec: impl Into<String>) {
        self.state.lock().exec = exec.into();
    }

    /// Attach the raw [`TraceId`](crate::TraceId) of the job being
    /// recorded (see [`Recording::trace_id`]).
    pub fn set_trace_id(&self, trace_id: u64) {
        self.state.lock().trace_id = trace_id;
    }

    /// The raw trace id attached by [`Recorder::set_trace_id`] (`0` = none).
    pub fn trace_id(&self) -> u64 {
        self.state.lock().trace_id
    }

    /// Clone the current state without draining it; span labels are
    /// rendered to names here.
    pub fn snapshot(&self) -> Recording {
        let st = self.state.lock();
        Recording {
            spans: st
                .spans
                .iter()
                .map(|(label, span)| SpanRecord {
                    name: label.render(),
                    ..span.clone()
                })
                .collect(),
            kernels: st.kernels.iter().cloned().collect(),
            dropped_spans: st.dropped_spans,
            dropped_kernels: st.dropped_kernels,
            health: st.health.clone(),
            residuals: st.residuals.clone(),
            hierarchy: st.hierarchy.clone(),
            policy: st.policy.clone(),
            threads: st.threads,
            exec: st.exec.clone(),
            trace_id: st.trace_id,
        }
    }

    /// Empty the recorder in place, keeping every store's capacity. Ids
    /// keep counting up, so records from two epochs never collide; the
    /// thread width, exec label and trace id stay attached.
    pub fn clear(&self) {
        let mut st = self.state.lock();
        st.stack.clear();
        st.spans.clear();
        st.dropped_spans = 0;
        st.kernels.clear();
        st.dropped_kernels = 0;
        st.health.clear();
        st.residuals.clear();
        st.hierarchy = None;
        st.policy = None;
    }

    /// [`Recorder::snapshot`] followed by [`Recorder::clear`].
    pub fn take(&self) -> Recording {
        let rec = self.snapshot();
        self.clear();
        rec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(level: u32, secs: f64) -> KernelSample {
        KernelSample {
            kind: "SpMV",
            algo: "AmgT",
            phase: "Solve",
            level,
            precision: "FP64",
            sim_start: 0.0,
            sim_seconds: secs,
            wall_ns: 0,
            flops: 100.0,
            int_ops: 0.0,
            bytes: 800.0,
            launches: 1,
        }
    }

    #[test]
    fn span_labels_render_with_and_without_arg() {
        assert_eq!(SpanLabel::named("solve").render(), "solve");
        assert_eq!(SpanLabel::with("level", 3).render(), "level 3");
    }

    #[test]
    fn clear_empties_in_place_and_keeps_capacity() {
        let r = Recorder::with_capacity(8, 4);
        r.set_trace_id(42);
        let a = r.open_span(SpanKind::Phase, SpanLabel::named("solve"), 0.0);
        r.record_kernel(sample(0, 1e-6));
        r.record_residual(1, None, 0.5);
        r.close_span(a, 1e-6);
        let reserved = {
            let st = r.state.lock();
            (st.spans.capacity(), st.kernels.capacity())
        };
        r.clear();
        let rec = r.snapshot();
        assert!(rec.is_empty(), "{rec:?}");
        assert_eq!(rec.trace_id, 42, "the trace id stays attached");
        let st = r.state.lock();
        assert_eq!((st.spans.capacity(), st.kernels.capacity()), reserved);
        assert!(reserved.0 >= 8 && reserved.1 >= 4, "{reserved:?}");
    }

    #[test]
    fn residual_list_is_bounded_by_span_capacity() {
        let r = Recorder::with_capacity(3, 4);
        for i in 1..=5 {
            r.record_residual(i, Some(1), 1.0 / i as f64);
        }
        r.record_residual(1, None, 0.9);
        let rec = r.take();
        assert_eq!(rec.residuals.len(), 3, "newest dropped past the bound");
        assert_eq!(rec.residual_history(Some(1)), vec![1.0, 0.5, 1.0 / 3.0]);
        assert!(rec.residual_history(None).is_empty());
    }

    #[test]
    fn spans_nest_via_stack() {
        let r = Recorder::new();
        let a = r.open_span(SpanKind::Phase, SpanLabel::named("solve"), 0.0);
        let b = r.open_span(SpanKind::Iteration, SpanLabel::with("iteration", 1), 0.0);
        r.record_kernel(sample(0, 1e-6));
        let c = r.open_span(SpanKind::Level, SpanLabel::with("level", 0), 1e-6);
        r.record_kernel(sample(0, 2e-6));
        r.close_span(c, 3e-6);
        r.close_span(b, 3e-6);
        r.close_span(a, 3e-6);
        let rec = r.take();
        assert_eq!(rec.spans.len(), 3);
        assert_eq!(rec.span(a).unwrap().parent, None);
        assert_eq!(rec.span(b).unwrap().parent, Some(a));
        assert_eq!(rec.span(c).unwrap().parent, Some(b));
        assert!(rec.spans.iter().all(|s| s.closed));
        assert_eq!(rec.kernels[0].parent, Some(b));
        assert_eq!(rec.kernels[1].parent, Some(c));
        assert_eq!(rec.kernels[0].seq, 0);
        assert_eq!(rec.kernels[1].seq, 1);
        assert!((rec.total_kernel_seconds() - 3e-6).abs() < 1e-18);
    }

    #[test]
    fn close_pops_unclosed_descendants() {
        let r = Recorder::new();
        let outer = r.open_span(SpanKind::Phase, SpanLabel::named("outer"), 0.0);
        let _leaked = r.open_span(SpanKind::Region, SpanLabel::named("leaked"), 0.0);
        r.close_span(outer, 1.0);
        // The stack is empty again: a new span is a root.
        let root2 = r.open_span(SpanKind::Phase, SpanLabel::named("next"), 1.0);
        let rec = r.snapshot();
        assert_eq!(rec.span(root2).unwrap().parent, None);
        assert!(!rec.span(_leaked).unwrap().closed);
        assert!(rec.span(outer).unwrap().closed);
    }

    #[test]
    fn kernel_ring_drops_oldest() {
        let r = Recorder::with_capacity(16, 4);
        for i in 0..6 {
            r.record_kernel(sample(i, 1e-6));
        }
        let rec = r.take();
        assert_eq!(rec.kernels.len(), 4);
        assert_eq!(rec.dropped_kernels, 2);
        assert_eq!(rec.kernels[0].level, 2, "oldest two evicted");
        assert_eq!(rec.kernels[0].seq, 2);
    }

    #[test]
    fn span_capacity_drops_newest() {
        let r = Recorder::with_capacity(2, 16);
        let a = r.open_span(SpanKind::Phase, SpanLabel::named("a"), 0.0);
        let b = r.open_span(SpanKind::Phase, SpanLabel::named("b"), 0.0);
        let c = r.open_span(SpanKind::Phase, SpanLabel::named("c"), 0.0);
        r.close_span(c, 1.0);
        r.close_span(b, 1.0);
        r.close_span(a, 1.0);
        let rec = r.take();
        assert_eq!(rec.spans.len(), 2);
        assert_eq!(rec.dropped_spans, 1);
        assert!(rec.span(c).is_none());
    }

    #[test]
    fn take_drains_and_resets() {
        let r = Recorder::new();
        let a = r.open_span(SpanKind::Phase, SpanLabel::named("x"), 0.0);
        r.record_kernel(sample(0, 1e-6));
        r.close_span(a, 1e-6);
        let first = r.take();
        assert_eq!(first.spans.len(), 1);
        let second = r.take();
        assert!(second.is_empty());
        // Ids keep growing, so records from the two epochs never collide.
        let b = r.open_span(SpanKind::Phase, SpanLabel::named("y"), 0.0);
        assert!(b > a);
    }

    #[test]
    fn render_span_tree_shows_nesting() {
        let r = Recorder::new();
        let a = r.open_span(SpanKind::Phase, SpanLabel::named("solve"), 0.0);
        let b = r.open_span(SpanKind::Level, SpanLabel::with("level", 0), 0.0);
        r.record_kernel(sample(0, 5e-6));
        r.close_span(b, 5e-6);
        r.close_span(a, 5e-6);
        let tree = r.take().render_span_tree();
        assert!(tree.contains("solve"), "{tree}");
        assert!(tree.contains("  level 0"), "{tree}");
        assert!(tree.contains("(1 kernel events)"), "{tree}");
    }

    #[test]
    fn health_and_hierarchy_roundtrip_through_take() {
        use crate::health::{HealthEventKind, LevelStats};
        let r = Recorder::new();
        r.record_health(HealthEvent {
            kind: HealthEventKind::Divergence,
            iteration: 5,
            factor: 3.0,
            level: None,
            precision: None,
            column: None,
            detail: "residual grew 1.0e5x".to_string(),
            trace_id: 0,
        });
        r.set_hierarchy(HierarchyDiagnostics {
            levels: vec![LevelStats {
                level: 0,
                rows: 64,
                nnz: 288,
                avg_popcount: 4.5,
                coarsening_ratio: None,
                precision: "FP64",
            }],
            operator_complexity: 1.0,
            grid_complexity: 1.0,
        });
        let rec = r.take();
        assert!(
            !rec.is_empty(),
            "health/hierarchy make a recording non-empty"
        );
        assert_eq!(rec.health.len(), 1);
        assert_eq!(rec.health[0].kind, HealthEventKind::Divergence);
        assert_eq!(rec.hierarchy.as_ref().unwrap().levels.len(), 1);
        // take() drained both channels.
        let second = r.take();
        assert!(second.health.is_empty());
        assert!(second.hierarchy.is_none());
        assert!(second.is_empty());
        // Serde carries the new fields.
        let json = rec.to_json();
        assert!(json.contains("\"kind\":\"Divergence\""), "{json}");
        assert!(json.contains("\"operator_complexity\":1"), "{json}");
    }

    #[test]
    fn health_channel_is_bounded_by_span_capacity() {
        let r = Recorder::with_capacity(2, 16);
        for i in 0..5 {
            r.record_health(HealthEvent {
                kind: crate::health::HealthEventKind::Stagnation,
                iteration: i,
                factor: 0.999,
                level: None,
                precision: None,
                column: None,
                detail: String::new(),
                trace_id: 0,
            });
        }
        assert_eq!(r.take().health.len(), 2);
    }

    #[test]
    fn threads_round_trip_through_take_and_json() {
        let r = Recorder::new();
        assert_eq!(r.snapshot().threads, 0, "unset by default");
        r.set_threads(4);
        let rec = r.take();
        assert_eq!(rec.threads, 4);
        assert!(rec.to_json().contains("\"threads\":4"), "{}", rec.to_json());
        // take() preserves the setting for subsequent epochs of the same
        // recorder (the pool width does not change between jobs).
        assert_eq!(r.take().threads, 4);
    }

    #[test]
    fn exec_label_round_trips_through_take_and_json() {
        let r = Recorder::new();
        assert!(r.snapshot().exec.is_empty(), "unset by default");
        r.set_exec("native");
        let rec = r.take();
        assert_eq!(rec.exec, "native");
        assert!(
            rec.to_json().contains("\"exec\":\"native\""),
            "{}",
            rec.to_json()
        );
        // Like the thread width, the label survives take().
        assert_eq!(r.take().exec, "native");
    }

    #[test]
    fn recording_serializes_to_json() {
        let r = Recorder::new();
        let a = r.open_span(SpanKind::Phase, SpanLabel::named("setup"), 0.0);
        r.record_kernel(sample(1, 1e-6));
        r.close_span(a, 1e-6);
        let json = r.take().to_json();
        assert!(json.contains("\"spans\":["), "{json}");
        assert!(json.contains("\"name\":\"setup\""), "{json}");
        assert!(json.contains("\"kind\":\"SpMV\""), "{json}");
    }
}
