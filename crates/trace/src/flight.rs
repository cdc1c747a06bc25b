//! Always-on flight recorder: request identity, bounded ring-buffer
//! capture, tail-based sampling.
//!
//! The opt-in [`Recorder`](crate::Recorder) answers "show me everything
//! about the solve I asked to trace". This module answers the production
//! question: "one job in ten thousand went bad an hour ago — show me
//! *that* job". Three pieces cooperate:
//!
//! * [`TraceId`] — a 64-bit request identity generated at enqueue time and
//!   threaded through the whole stack (request → worker → spans → log
//!   events → health events → HTTP responses), so every artifact of one
//!   job can be joined after the fact.
//! * a process-global set of per-thread ring buffers recording compact
//!   [`FlightEvent`]s (span begin/end, kernel class + charge, health
//!   event, iteration residual) behind an enable gate that costs one
//!   relaxed atomic load when disabled — the same discipline as
//!   `amgt_exec::prof`.
//! * a [`TailSampler`] deciding *at job completion* whether the ring
//!   contents are worth keeping: always on bad verdicts and rejections,
//!   always for the slowest-decile latency bucket, probabilistically
//!   (default 1/1000) on healthy jobs. Promoted traces become
//!   [`FlightTrace`]s, which convert back into a [`Recording`] so every
//!   existing exporter (span tree, Chrome trace, folded stacks) works on
//!   them unchanged.
//!
//! # Memory ordering
//!
//! The recording path is engineered so concurrent writers never contend
//! and a concurrent snapshotter never observes a torn event:
//!
//! * The enable gate is a single `AtomicBool` read with `Relaxed`
//!   ordering. A stale read is harmless — it can only make an event
//!   land (or not) near an enable/disable edge, never corrupt one.
//! * Each thread owns one shard: a fixed-capacity `VecDeque` behind a
//!   `parking_lot::Mutex`. The owning thread is the only *writer*, so in
//!   steady state the lock is uncontended (a single CAS); the snapshotter
//!   takes the same lock to read, and the mutex's acquire/release pairs
//!   guarantee it sees every field of every pushed event or none of it —
//!   events cannot tear.
//! * Event order across shards is established by a global `AtomicU64`
//!   sequence counter incremented with `fetch_add(Relaxed)`. Atomic RMW
//!   operations on a single object have a total modification order
//!   regardless of the memory-order argument, so sequence numbers are
//!   unique and sorting a snapshot by `seq` reconstructs a consistent
//!   interleaving. `Relaxed` is sufficient because the number travels
//!   *inside* the event, through the shard mutex — the mutex provides the
//!   happens-before edge to the reader.
//! * Shards register once per thread in a global registry and are never
//!   removed, so a snapshot can still read events from a thread that has
//!   since exited (the `Arc` keeps the shard alive).
//!
//! Bounded capture means bounded loss: when a ring is full the *oldest*
//! event is dropped and counted, so a promoted trace is the most recent
//! window of the job — exactly what a post-mortem wants.

use crate::health::{HealthEvent, HealthEventKind};
use crate::recorder::{KernelSample, Recorder, Recording, SpanKind};
use parking_lot::Mutex;
use serde::Serialize;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

// ---------------------------------------------------------------------------
// TraceId
// ---------------------------------------------------------------------------

/// 64-bit request identity. Never zero, so `0` can mean "no trace" in
/// packed contexts (e.g. an `AtomicU64` holding the current device
/// context). Rendered as 16 lowercase hex digits everywhere.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(u64);

impl TraceId {
    /// Generate a fresh id: a process-unique counter mixed through
    /// SplitMix64 with a per-process seed (start time ⊕ pid), so ids are
    /// unique within a process and collide across processes only by
    /// 64-bit accident.
    pub fn generate() -> TraceId {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        static SEED: OnceLock<u64> = OnceLock::new();
        let seed = *SEED.get_or_init(|| {
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0x9E37_79B9_7F4A_7C15);
            nanos ^ u64::from(std::process::id()).rotate_left(32)
        });
        loop {
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let id = splitmix64(seed.wrapping_add(n));
            if id != 0 {
                return TraceId(id);
            }
        }
    }

    /// Wrap a raw value; `None` for the reserved zero.
    pub fn from_raw(raw: u64) -> Option<TraceId> {
        (raw != 0).then_some(TraceId(raw))
    }

    pub fn get(self) -> u64 {
        self.0
    }

    /// 16 lowercase hex digits, the canonical rendering. One allocation
    /// for every id: `format!` would start from an empty string, and the
    /// zero padding of an id with a leading zero nibble would then grow it
    /// twice.
    pub fn to_hex(self) -> String {
        use std::fmt::Write;
        let mut s = String::with_capacity(16);
        write!(s, "{:016x}", self.0).expect("writing to a String cannot fail");
        s
    }

    /// Parse the canonical hex rendering (leading/trailing whitespace ok).
    pub fn parse_hex(s: &str) -> Option<TraceId> {
        u64::from_str_radix(s.trim(), 16)
            .ok()
            .and_then(Self::from_raw)
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

// Hex string in JSON: a raw u64 can exceed 2^53 and lose precision in
// consumers that parse JSON numbers as doubles.
impl Serialize for TraceId {
    fn serialize_json(&self, out: &mut String) {
        serde::write_str(out, &self.to_hex());
    }
}

/// SplitMix64 — the standard 64-bit finalizer (Steele et al.).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------------
// Span labels and events
// ---------------------------------------------------------------------------

/// Compact span label: a static base name plus an optional numeric
/// argument (`"level" + 3` renders as `"level 3"`). Lets the always-on
/// path describe spans without allocating; the heavyweight recorder
/// renders the same label into its `String` names.
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

/// Sentinel for "no numeric argument" in the packed event encoding.
pub const NO_ARG: u64 = u64::MAX;

/// What a flight event describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum EventTag {
    SpanBegin,
    SpanEnd,
    Kernel,
    Health,
    Residual,
}

/// The payload of one flight event, fixed-size and allocation-free.
/// Field meaning depends on [`EventTag`]:
///
/// | tag        | name          | arg        | level | column | value       |
/// |------------|---------------|------------|-------|--------|-------------|
/// | Span*      | label base    | label arg  | —     | —      | —           |
/// | Kernel     | kernel kind   | —          | level | —      | sim seconds |
/// | Health     | event kind    | iteration  | level | column | factor      |
/// | Residual   | `"residual"`  | iteration  | —     | column | rel. resid. |
///
/// Unused numeric fields hold [`NO_ARG`] / `-1` / `0.0`.
#[derive(Clone, Copy, Debug)]
pub struct EventBody {
    pub tag: EventTag,
    /// Span kind for span events; `SpanKind::Region` otherwise.
    pub span_kind: SpanKind,
    pub name: &'static str,
    /// Kernel algorithm label; `""` for non-kernel events.
    pub algo: &'static str,
    /// Kernel phase label; `""` for non-kernel events.
    pub phase: &'static str,
    /// Precision label; `""` when not attributed.
    pub precision: &'static str,
    /// Hierarchy level; `-1` when not attributed.
    pub level: i64,
    /// Span label argument or iteration number; [`NO_ARG`] when absent.
    pub arg: u64,
    /// Batched-RHS column; `-1` for single-vector / batch-wide events.
    pub column: i64,
    /// Kernel simulated seconds / health factor / relative residual.
    pub value: f64,
}

impl EventBody {
    fn blank(tag: EventTag) -> EventBody {
        EventBody {
            tag,
            span_kind: SpanKind::Region,
            name: "",
            algo: "",
            phase: "",
            precision: "",
            level: -1,
            arg: NO_ARG,
            column: -1,
            value: 0.0,
        }
    }

    pub fn span_begin(kind: SpanKind, label: SpanLabel) -> EventBody {
        EventBody {
            span_kind: kind,
            name: label.name,
            arg: label.arg.unwrap_or(NO_ARG),
            ..EventBody::blank(EventTag::SpanBegin)
        }
    }

    pub fn span_end(kind: SpanKind, label: SpanLabel) -> EventBody {
        EventBody {
            span_kind: kind,
            name: label.name,
            arg: label.arg.unwrap_or(NO_ARG),
            ..EventBody::blank(EventTag::SpanEnd)
        }
    }

    pub fn kernel(
        kind: &'static str,
        algo: &'static str,
        phase: &'static str,
        level: u32,
        precision: &'static str,
        sim_seconds: f64,
    ) -> EventBody {
        EventBody {
            name: kind,
            algo,
            phase,
            precision,
            level: i64::from(level),
            value: sim_seconds,
            ..EventBody::blank(EventTag::Kernel)
        }
    }

    pub fn health(ev: &HealthEvent) -> EventBody {
        EventBody {
            name: ev.kind.label(),
            precision: ev.precision.unwrap_or(""),
            level: ev.level.map_or(-1, i64::from),
            arg: ev.iteration as u64,
            column: ev.column.map_or(-1, |c| c as i64),
            value: ev.factor,
            ..EventBody::blank(EventTag::Health)
        }
    }

    pub fn residual(iteration: usize, column: Option<usize>, relres: f64) -> EventBody {
        EventBody {
            name: "residual",
            arg: iteration as u64,
            column: column.map_or(-1, |c| c as i64),
            value: relres,
            ..EventBody::blank(EventTag::Residual)
        }
    }
}

/// One recorded flight event: identity + global order + simulated time
/// plus the packed [`EventBody`].
#[derive(Clone, Copy, Debug)]
pub struct FlightEvent {
    pub seq: u64,
    pub trace_id: TraceId,
    /// Simulated-device clock when the event was recorded, seconds.
    pub sim_ts: f64,
    pub body: EventBody,
}

impl FlightEvent {
    /// The rendered name of a span event (`"level 3"`), or the plain
    /// `name` field for everything else.
    pub fn render_name(&self) -> String {
        match self.body.tag {
            EventTag::SpanBegin | EventTag::SpanEnd if self.body.arg != NO_ARG => {
                format!("{} {}", self.body.name, self.body.arg)
            }
            _ => self.body.name.to_string(),
        }
    }
}

// Flat JSON: the body fields are inlined next to the envelope so a trace
// reads as one homogeneous event table.
impl Serialize for FlightEvent {
    fn serialize_json(&self, out: &mut String) {
        out.push('{');
        serde::write_key(out, "seq");
        self.seq.serialize_json(out);
        out.push(',');
        serde::write_key(out, "trace_id");
        self.trace_id.serialize_json(out);
        out.push(',');
        serde::write_key(out, "sim_ts");
        self.sim_ts.serialize_json(out);
        out.push(',');
        serde::write_key(out, "tag");
        self.body.tag.serialize_json(out);
        out.push(',');
        serde::write_key(out, "span_kind");
        self.body.span_kind.serialize_json(out);
        out.push(',');
        serde::write_key(out, "name");
        serde::write_str(out, self.body.name);
        out.push(',');
        serde::write_key(out, "algo");
        serde::write_str(out, self.body.algo);
        out.push(',');
        serde::write_key(out, "phase");
        serde::write_str(out, self.body.phase);
        out.push(',');
        serde::write_key(out, "precision");
        serde::write_str(out, self.body.precision);
        out.push(',');
        serde::write_key(out, "level");
        self.body.level.serialize_json(out);
        out.push(',');
        serde::write_key(out, "arg");
        if self.body.arg == NO_ARG {
            out.push_str("null");
        } else {
            self.body.arg.serialize_json(out);
        }
        out.push(',');
        serde::write_key(out, "column");
        self.body.column.serialize_json(out);
        out.push(',');
        serde::write_key(out, "value");
        self.body.value.serialize_json(out);
        out.push('}');
    }
}

// ---------------------------------------------------------------------------
// Per-thread ring shards behind one process-global gate
// ---------------------------------------------------------------------------

/// Per-thread ring capacity: 16 Ki events ≈ 1.5 MiB per worker, several
/// full V-cycle solves' worth of kernel charges.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 14;

struct Shard {
    events: VecDeque<FlightEvent>,
    dropped: u64,
}

impl Shard {
    fn push(&mut self, event: FlightEvent) {
        if self.events.len() == DEFAULT_RING_CAPACITY {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SEQ: AtomicU64 = AtomicU64::new(0);

/// Shards of every thread that ever recorded. Merged (never removed) at
/// snapshot time; a shard outlives its thread.
static REGISTRY: Mutex<Vec<Arc<Mutex<Shard>>>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: Arc<Mutex<Shard>> = {
        // Full capacity up front: after this one allocation the ring never
        // reallocates, keeping steady-state recording allocation-free (the
        // alloc-regression gate counts every heap call in the solve phase).
        let shard = Arc::new(Mutex::new(Shard {
            events: VecDeque::with_capacity(DEFAULT_RING_CAPACITY),
            dropped: 0,
        }));
        REGISTRY.lock().push(shard.clone());
        shard
    };
}

/// Turn flight recording on process-wide.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn flight recording off. In-flight [`record`] calls that already
/// passed the gate still land.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Is the flight recorder collecting? One relaxed load — the entire cost
/// of a disabled recording hook.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Drop every buffered event and drop counter (shards stay registered;
/// the sequence counter keeps climbing so old snapshots never collide).
pub fn reset() {
    for shard in REGISTRY.lock().iter() {
        let mut s = shard.lock();
        s.events.clear();
        s.dropped = 0;
    }
}

/// Record one event into the calling thread's ring. Gated: a disabled
/// recorder makes this a single relaxed load and an immediate return.
#[inline]
pub fn record(trace_id: TraceId, sim_ts: f64, body: EventBody) {
    if !is_enabled() {
        return;
    }
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    LOCAL.with(|shard| {
        shard.lock().push(FlightEvent {
            seq,
            trace_id,
            sim_ts,
            body,
        });
    });
}

/// Copy every buffered event belonging to `trace_id`, across all thread
/// shards, in global sequence order. Non-destructive: the rings keep
/// evicting naturally.
pub fn snapshot_trace(trace_id: TraceId) -> Vec<FlightEvent> {
    let mut out = Vec::new();
    for shard in REGISTRY.lock().iter() {
        out.extend(
            shard
                .lock()
                .events
                .iter()
                .filter(|e| e.trace_id == trace_id)
                .copied(),
        );
    }
    out.sort_by_key(|e| e.seq);
    out
}

/// Total events evicted from full rings since the last [`reset`].
pub fn dropped_events() -> u64 {
    REGISTRY.lock().iter().map(|s| s.lock().dropped).sum()
}

// ---------------------------------------------------------------------------
// Tail-based sampling
// ---------------------------------------------------------------------------

/// Why a trace was retained.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum RetainReason {
    /// Bad verdict: Divergence / NonFinite / Stagnation.
    Verdict,
    /// The job never ran: deadline miss, cancellation or invalid request.
    Rejection,
    /// Latency landed in the slowest decile of the recent window.
    SlowDecile,
    /// Healthy job promoted by the probabilistic sampler.
    Sampled,
}

impl RetainReason {
    pub fn label(self) -> &'static str {
        match self {
            RetainReason::Verdict => "verdict",
            RetainReason::Rejection => "rejection",
            RetainReason::SlowDecile => "slow-decile",
            RetainReason::Sampled => "sampled",
        }
    }
}

/// Tail-sampler tuning.
#[derive(Clone, Copy, Debug)]
pub struct SamplerConfig {
    /// Probability of retaining a healthy, fast job (default 1/1000).
    /// `0.0` disables probabilistic retention entirely, `1.0` keeps all.
    pub sample_probability: f64,
    /// Recent-latency window used for the slowest-decile rule.
    pub latency_window: usize,
    /// Observations required before the decile rule activates (avoids
    /// retaining every early job while the window is cold).
    pub min_latency_samples: usize,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            sample_probability: 1e-3,
            latency_window: 128,
            min_latency_samples: 16,
        }
    }
}

/// Decides at job completion whether to promote the ring contents into a
/// retained trace. Thread-safe; one instance per service.
pub struct TailSampler {
    config: SamplerConfig,
    /// xorshift64* state for the probabilistic rule. Deterministic seed:
    /// reproducibility matters more than unpredictability here.
    rng: AtomicU64,
    window: Mutex<VecDeque<f64>>,
}

impl TailSampler {
    pub fn new(config: SamplerConfig) -> TailSampler {
        TailSampler {
            config,
            rng: AtomicU64::new(0x2545_F491_4F6C_DD1D),
            window: Mutex::new(VecDeque::new()),
        }
    }

    pub fn config(&self) -> SamplerConfig {
        self.config
    }

    /// The retention decision for one completed job. `bad_verdict` covers
    /// Divergence / NonFinite / Stagnation; rejections never reach here
    /// (the caller retains them unconditionally with
    /// [`RetainReason::Rejection`]).
    pub fn decide(&self, bad_verdict: bool, wall_seconds: f64) -> Option<RetainReason> {
        let slow = self.observe_latency(wall_seconds);
        if bad_verdict {
            return Some(RetainReason::Verdict);
        }
        if slow {
            return Some(RetainReason::SlowDecile);
        }
        if self.config.sample_probability > 0.0 && self.next_unit() < self.config.sample_probability
        {
            return Some(RetainReason::Sampled);
        }
        None
    }

    /// Fold `wall_seconds` into the window; returns whether it lands
    /// strictly above the 90th percentile of the *previous* window
    /// contents (strict, so a uniform-latency window flags nothing).
    fn observe_latency(&self, wall_seconds: f64) -> bool {
        let mut w = self.window.lock();
        let slow = w.len() >= self.config.min_latency_samples && wall_seconds > p90(&w);
        w.push_back(wall_seconds);
        while w.len() > self.config.latency_window {
            w.pop_front();
        }
        slow
    }

    /// Uniform sample in [0, 1) from xorshift64*.
    fn next_unit(&self) -> f64 {
        let mut x = self.rng.load(Ordering::Relaxed);
        loop {
            let mut y = x;
            y ^= y >> 12;
            y ^= y << 25;
            y ^= y >> 27;
            match self
                .rng
                .compare_exchange_weak(x, y, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => {
                    let bits = y.wrapping_mul(0x2545_F491_4F6C_DD1D);
                    return (bits >> 11) as f64 / (1u64 << 53) as f64;
                }
                Err(actual) => x = actual,
            }
        }
    }
}

/// 90th percentile (nearest-rank) of an unsorted window.
fn p90(window: &VecDeque<f64>) -> f64 {
    let mut v: Vec<f64> = window.iter().copied().collect();
    v.sort_by(f64::total_cmp);
    let rank = ((v.len() as f64) * 0.9).ceil() as usize;
    v[rank.saturating_sub(1).min(v.len() - 1)]
}

// ---------------------------------------------------------------------------
// Retained traces
// ---------------------------------------------------------------------------

/// A promoted (retained) flight capture for one job: the most recent ring
/// window of its batch, plus the completion facts that justified keeping
/// it.
#[derive(Clone, Debug, Serialize)]
pub struct FlightTrace {
    pub trace_id: TraceId,
    /// Verdict label ("Converged", "Diverged", "rejected: ...", ...).
    pub verdict: String,
    pub reason: RetainReason,
    /// Wall-clock submission-to-completion latency, seconds.
    pub wall_seconds: f64,
    /// RHS columns coalesced into the batch this job solved in.
    pub batch_size: usize,
    /// Ring evictions observed process-wide at capture time — nonzero
    /// means the oldest events of long jobs may be missing.
    pub dropped_events: u64,
    pub events: Vec<FlightEvent>,
}

impl FlightTrace {
    /// Reconstruct a [`Recording`] from the compact events so the
    /// existing exporters (span tree, Chrome trace, folded stacks) apply
    /// unchanged. Kernel operation counts are not captured in flight
    /// events, so `flops`/`bytes` are zero in the result; health residual
    /// detail strings are likewise reduced to their structured fields.
    pub fn to_recording(&self) -> Recording {
        let rec = Recorder::new();
        let mut stack: Vec<u64> = Vec::new();
        let mut last_ts = 0.0f64;
        for e in &self.events {
            last_ts = e.sim_ts;
            match e.body.tag {
                EventTag::SpanBegin => {
                    stack.push(rec.open_span(e.body.span_kind, e.render_name(), e.sim_ts));
                }
                EventTag::SpanEnd => {
                    if let Some(id) = stack.pop() {
                        rec.close_span(id, e.sim_ts);
                    }
                }
                EventTag::Kernel => rec.record_kernel(KernelSample {
                    kind: e.body.name,
                    algo: e.body.algo,
                    phase: e.body.phase,
                    level: u32::try_from(e.body.level).unwrap_or(0),
                    precision: e.body.precision,
                    sim_start: e.sim_ts,
                    sim_seconds: e.body.value,
                    wall_ns: 0,
                    flops: 0.0,
                    int_ops: 0.0,
                    bytes: 0.0,
                    launches: 1,
                }),
                EventTag::Health => {
                    if let Some(kind) = HealthEventKind::from_label(e.body.name) {
                        rec.record_health(HealthEvent {
                            kind,
                            iteration: e.body.arg as usize,
                            factor: e.body.value,
                            level: u32::try_from(e.body.level).ok(),
                            precision: (!e.body.precision.is_empty()).then_some(e.body.precision),
                            column: usize::try_from(e.body.column).ok(),
                            detail: String::new(),
                            trace_id: e.trace_id.get(),
                        });
                    }
                }
                EventTag::Residual => {}
            }
        }
        // A ring that evicted its oldest events can hold unbalanced ends;
        // close whatever is left so the tree renders.
        while let Some(id) = stack.pop() {
            rec.close_span(id, last_ts);
        }
        rec.take()
    }

    /// Per-iteration relative residuals recorded for `column` (`None`
    /// matches single-vector / batch-wide residual events).
    pub fn residual_history(&self, column: Option<usize>) -> Vec<f64> {
        let want = column.map_or(-1, |c| c as i64);
        self.events
            .iter()
            .filter(|e| e.body.tag == EventTag::Residual && e.body.column == want)
            .map(|e| e.body.value)
            .collect()
    }

    /// Health events reconstructed from the capture.
    pub fn health_events(&self) -> Vec<HealthEvent> {
        self.events
            .iter()
            .filter(|e| e.body.tag == EventTag::Health)
            .filter_map(|e| {
                HealthEventKind::from_label(e.body.name).map(|kind| HealthEvent {
                    kind,
                    iteration: e.body.arg as usize,
                    factor: e.body.value,
                    level: u32::try_from(e.body.level).ok(),
                    precision: (!e.body.precision.is_empty()).then_some(e.body.precision),
                    column: usize::try_from(e.body.column).ok(),
                    detail: String::new(),
                    trace_id: e.trace_id.get(),
                })
            })
            .collect()
    }

    /// Serde JSON dump of the retained trace.
    pub fn to_json(&self) -> String {
        Serialize::to_json(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The gate, shards and sequence counter are process-global; serialize
    // the tests that touch them.
    static TEST_GUARD: Mutex<()> = Mutex::new(());

    fn span(kind: SpanKind, label: SpanLabel) -> EventBody {
        EventBody::span_begin(kind, label)
    }

    #[test]
    fn trace_ids_are_nonzero_unique_and_hex_round_trip() {
        let a = TraceId::generate();
        let b = TraceId::generate();
        assert_ne!(a.get(), 0);
        assert_ne!(a, b);
        assert_eq!(a.to_hex().len(), 16);
        assert_eq!(TraceId::parse_hex(&a.to_hex()), Some(a));
        assert_eq!(TraceId::parse_hex(&format!(" {b} ")), Some(b));
        assert_eq!(TraceId::from_raw(0), None);
        assert_eq!(TraceId::parse_hex("0"), None);
        assert_eq!(TraceId::parse_hex("not-hex"), None);
        assert_eq!(a.to_json(), format!("\"{}\"", a.to_hex()));
    }

    #[test]
    fn span_labels_render_with_and_without_arg() {
        assert_eq!(SpanLabel::named("solve").render(), "solve");
        assert_eq!(SpanLabel::with("level", 3).render(), "level 3");
    }

    #[test]
    fn disabled_gate_records_nothing() {
        let _g = TEST_GUARD.lock();
        reset();
        disable();
        let id = TraceId::generate();
        record(id, 0.0, EventBody::residual(1, None, 0.5));
        record(id, 0.0, span(SpanKind::Phase, SpanLabel::named("solve")));
        assert!(snapshot_trace(id).is_empty());
        assert_eq!(dropped_events(), 0);
    }

    #[test]
    fn events_record_in_sequence_and_filter_by_id() {
        let _g = TEST_GUARD.lock();
        reset();
        enable();
        let a = TraceId::generate();
        let b = TraceId::generate();
        record(a, 0.0, span(SpanKind::Phase, SpanLabel::named("solve")));
        record(b, 0.1, EventBody::residual(1, None, 0.9));
        record(a, 0.2, EventBody::residual(1, None, 0.5));
        record(
            a,
            0.3,
            EventBody::span_end(SpanKind::Phase, SpanLabel::named("solve")),
        );
        disable();
        let got = snapshot_trace(a);
        assert_eq!(got.len(), 3);
        assert!(got.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(got.iter().all(|e| e.trace_id == a));
        assert_eq!(got[1].body.tag, EventTag::Residual);
        assert_eq!(snapshot_trace(b).len(), 1);
        reset();
        assert!(snapshot_trace(a).is_empty(), "reset drops events");
    }

    #[test]
    fn full_ring_drops_oldest_and_counts() {
        let _g = TEST_GUARD.lock();
        reset();
        enable();
        let id = TraceId::generate();
        let extra = 10usize;
        for i in 0..DEFAULT_RING_CAPACITY + extra {
            record(id, 0.0, EventBody::residual(i, None, i as f64));
        }
        disable();
        let got = snapshot_trace(id);
        assert_eq!(got.len(), DEFAULT_RING_CAPACITY);
        assert_eq!(dropped_events(), extra as u64);
        // The *oldest* events were evicted: the first survivor is `extra`.
        assert_eq!(got[0].body.arg, extra as u64);
        reset();
    }

    #[test]
    fn event_json_is_flat_and_tagged() {
        let ev = FlightEvent {
            seq: 7,
            trace_id: TraceId::from_raw(0xabcd).unwrap(),
            sim_ts: 1.5e-6,
            body: EventBody::kernel("SpMV", "AmgT", "Solve", 2, "FP32", 3e-7),
        };
        let json = ev.to_json();
        assert!(json.contains("\"seq\":7"), "{json}");
        assert!(json.contains("\"trace_id\":\"000000000000abcd\""), "{json}");
        assert!(json.contains("\"tag\":\"Kernel\""), "{json}");
        assert!(json.contains("\"name\":\"SpMV\""), "{json}");
        assert!(json.contains("\"level\":2"), "{json}");
        assert!(json.contains("\"arg\":null"), "{json}");
    }

    #[test]
    fn sampler_always_retains_bad_verdicts() {
        let sampler = TailSampler::new(SamplerConfig {
            sample_probability: 0.0,
            ..SamplerConfig::default()
        });
        for _ in 0..100 {
            assert_eq!(sampler.decide(true, 1e-3), Some(RetainReason::Verdict));
        }
    }

    #[test]
    fn sampler_probability_zero_retains_no_healthy_jobs() {
        let sampler = TailSampler::new(SamplerConfig {
            sample_probability: 0.0,
            min_latency_samples: 1000,
            ..SamplerConfig::default()
        });
        for _ in 0..500 {
            assert_eq!(sampler.decide(false, 1e-3), None);
        }
    }

    #[test]
    fn sampler_probability_one_retains_every_healthy_job() {
        let sampler = TailSampler::new(SamplerConfig {
            sample_probability: 1.0,
            min_latency_samples: 1000,
            ..SamplerConfig::default()
        });
        assert_eq!(sampler.decide(false, 1e-3), Some(RetainReason::Sampled));
    }

    #[test]
    fn sampler_retains_slowest_decile() {
        let sampler = TailSampler::new(SamplerConfig {
            sample_probability: 0.0,
            latency_window: 128,
            min_latency_samples: 16,
        });
        // Warm the window with uniform fast jobs.
        for _ in 0..50 {
            assert_eq!(sampler.decide(false, 1e-3), None);
        }
        // A 100x outlier lands in the slowest decile.
        assert_eq!(sampler.decide(false, 0.1), Some(RetainReason::SlowDecile));
        // Back to typical latency: not retained.
        assert_eq!(sampler.decide(false, 1e-3), None);
    }

    #[test]
    fn sampler_rate_is_roughly_the_configured_probability() {
        let sampler = TailSampler::new(SamplerConfig {
            sample_probability: 0.1,
            min_latency_samples: 1_000_000,
            ..SamplerConfig::default()
        });
        let kept = (0..10_000)
            .filter(|_| sampler.decide(false, 1e-3).is_some())
            .count();
        assert!((500..2000).contains(&kept), "kept {kept} of 10000 at p=0.1");
    }

    #[test]
    fn retained_trace_reconstructs_recording_and_history() {
        let _g = TEST_GUARD.lock();
        reset();
        enable();
        let id = TraceId::generate();
        record(id, 0.0, span(SpanKind::Phase, SpanLabel::named("solve")));
        record(
            id,
            0.0,
            span(SpanKind::Iteration, SpanLabel::with("iteration", 1)),
        );
        record(id, 0.0, span(SpanKind::Level, SpanLabel::with("level", 0)));
        record(
            id,
            0.0,
            EventBody::kernel("SpMV", "AmgT", "Solve", 0, "FP64", 2e-6),
        );
        record(
            id,
            2e-6,
            EventBody::span_end(SpanKind::Level, SpanLabel::with("level", 0)),
        );
        record(id, 2e-6, EventBody::residual(1, None, 0.25));
        let health = HealthEvent {
            kind: HealthEventKind::Divergence,
            iteration: 1,
            factor: 4.0,
            level: Some(0),
            precision: Some("FP64"),
            column: None,
            detail: "residual grew".to_string(),
            trace_id: id.get(),
        };
        record(id, 2e-6, EventBody::health(&health));
        record(
            id,
            2e-6,
            EventBody::span_end(SpanKind::Iteration, SpanLabel::with("iteration", 1)),
        );
        record(
            id,
            2e-6,
            EventBody::span_end(SpanKind::Phase, SpanLabel::named("solve")),
        );
        disable();
        let trace = FlightTrace {
            trace_id: id,
            verdict: "Diverged".to_string(),
            reason: RetainReason::Verdict,
            wall_seconds: 1e-3,
            batch_size: 1,
            dropped_events: 0,
            events: snapshot_trace(id),
        };
        reset();

        let rec = trace.to_recording();
        assert_eq!(rec.spans.len(), 3);
        let tree = rec.render_span_tree();
        assert!(tree.contains("solve"), "{tree}");
        assert!(tree.contains("  iteration 1"), "{tree}");
        assert!(tree.contains("    level 0"), "{tree}");
        assert_eq!(rec.kernels.len(), 1);
        assert_eq!(rec.kernels[0].kind, "SpMV");
        assert_eq!(rec.health.len(), 1);
        assert_eq!(rec.health[0].kind, HealthEventKind::Divergence);
        assert_eq!(rec.health[0].level, Some(0));
        assert_eq!(rec.health[0].precision, Some("FP64"));
        assert_eq!(rec.health[0].trace_id, id.get());

        assert_eq!(trace.residual_history(None), vec![0.25]);
        assert_eq!(trace.health_events().len(), 1);
        let json = trace.to_json();
        assert!(
            json.contains(&format!("\"trace_id\":\"{}\"", id.to_hex())),
            "{json}"
        );
        assert!(json.contains("\"reason\":\"Verdict\""), "{json}");
        assert!(json.contains("\"tag\":\"Residual\""), "{json}");
    }

    #[test]
    fn unbalanced_capture_still_renders_a_tree() {
        // Simulate a ring that evicted the SpanBegin events' prefix: ends
        // without begins are ignored, leftover begins are closed.
        let id = TraceId::from_raw(42).unwrap();
        let mk = |seq, body| FlightEvent {
            seq,
            trace_id: id,
            sim_ts: seq as f64 * 1e-6,
            body,
        };
        let trace = FlightTrace {
            trace_id: id,
            verdict: "Converged".to_string(),
            reason: RetainReason::Sampled,
            wall_seconds: 0.0,
            batch_size: 1,
            dropped_events: 3,
            events: vec![
                mk(
                    0,
                    EventBody::span_end(SpanKind::Level, SpanLabel::with("level", 2)),
                ),
                mk(
                    1,
                    EventBody::span_begin(SpanKind::Phase, SpanLabel::named("solve")),
                ),
                mk(
                    2,
                    EventBody::kernel("Vector", "Shared", "Solve", 0, "FP64", 1e-9),
                ),
            ],
        };
        let rec = trace.to_recording();
        assert_eq!(rec.spans.len(), 1);
        assert!(rec.spans[0].closed, "dangling span closed at last ts");
        assert_eq!(rec.kernels.len(), 1);
    }

    #[test]
    fn concurrent_writers_snapshotter_and_promoter_lose_nothing() {
        let _g = TEST_GUARD.lock();
        reset();
        enable();
        const WRITERS: usize = 4;
        const EVENTS: usize = 2000;
        let ids: Vec<TraceId> = (0..WRITERS).map(|_| TraceId::generate()).collect();
        let stop = Arc::new(AtomicBool::new(false));

        // Writers: each thread records EVENTS residual events carrying a
        // self-describing payload (iteration == index, value == f(index)).
        let writers: Vec<_> = ids
            .iter()
            .map(|&id| {
                std::thread::spawn(move || {
                    for i in 0..EVENTS {
                        record(
                            id,
                            i as f64,
                            EventBody::residual(i, Some(7), i as f64 * 0.5),
                        );
                    }
                })
            })
            .collect();

        // Snapshotter: continuously merges shards while writers run.
        let snap_ids = ids.clone();
        let snap_stop = Arc::clone(&stop);
        let snapshotter = std::thread::spawn(move || {
            let mut max_seen = 0usize;
            while !snap_stop.load(Ordering::Relaxed) {
                for &id in &snap_ids {
                    let events = snapshot_trace(id);
                    max_seen = max_seen.max(events.len());
                    // Torn-event check: every observed event is internally
                    // consistent mid-flight, not only at the end.
                    for e in &events {
                        assert_eq!(e.body.tag, EventTag::Residual);
                        assert_eq!(e.body.column, 7);
                        assert_eq!(e.body.value, e.body.arg as f64 * 0.5);
                        assert_eq!(e.sim_ts, e.body.arg as f64);
                    }
                }
            }
            max_seen
        });

        // Promoter: builds retained traces (the sampler path) concurrently.
        let promote_id = ids[0];
        let promote_stop = Arc::clone(&stop);
        let promoter = std::thread::spawn(move || {
            let sampler = TailSampler::new(SamplerConfig {
                sample_probability: 1.0,
                ..SamplerConfig::default()
            });
            let mut retained = 0usize;
            // Do-while: writers can finish before this thread is even
            // scheduled, so always promote at least once.
            loop {
                if sampler.decide(false, 1e-3).is_some() {
                    let t = FlightTrace {
                        trace_id: promote_id,
                        verdict: "Converged".to_string(),
                        reason: RetainReason::Sampled,
                        wall_seconds: 1e-3,
                        batch_size: 1,
                        dropped_events: dropped_events(),
                        events: snapshot_trace(promote_id),
                    };
                    retained += 1;
                    assert!(t.events.len() <= EVENTS);
                }
                if promote_stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            retained
        });

        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        snapshotter.join().unwrap();
        let retained = promoter.join().unwrap();
        assert!(retained > 0, "promoter ran at least once");

        // EVENTS < ring capacity, so nothing was evicted: every writer's
        // events are all present, in order, with intact payloads.
        assert_eq!(dropped_events(), 0);
        for &id in &ids {
            let events = snapshot_trace(id);
            assert_eq!(events.len(), EVENTS, "no lost events for {id}");
            assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
            for (i, e) in events.iter().enumerate() {
                assert_eq!(e.body.arg, i as u64, "in-order, gapless payloads");
                assert_eq!(e.body.value, i as f64 * 0.5, "no torn events");
            }
        }
        disable();
        reset();
    }
}
