//! Flight recording: request identity, one bounded capture per device,
//! tail-based sampling.
//!
//! An installed [`Recorder`] answers "show me everything about the solve
//! I asked to trace". Flight recording answers the production question:
//! "one job in ten thousand went bad an hour ago — show me *that* job".
//! It is not a second event log but one use of the same recorder:
//!
//! * [`TraceId`] — a 64-bit request identity generated at enqueue time and
//!   threaded through the whole stack (request → worker → recorder → log
//!   events → health events → HTTP responses), so every artifact of one
//!   job can be joined after the fact.
//! * [`recorder`] — a [`Recorder`] preallocated to [`SPAN_CAPACITY`] spans
//!   and [`KERNEL_CAPACITY`] kernels. A long-lived worker installs one on
//!   its device for life, tags each batch with the leader's trace id via
//!   [`Recorder::set_trace_id`] and clears it in place between batches,
//!   so recording never allocates in steady state.
//! * a [`TailSampler`] deciding *at job completion* whether the capture is
//!   worth keeping: always on bad verdicts and rejections, always for the
//!   slowest-decile latency bucket, probabilistically (default 1/1000) on
//!   healthy jobs. Promoted captures become [`FlightTrace`]s, which share
//!   the batch's [`Recording`], so every exporter (span tree, Chrome
//!   trace, folded stacks) works on them unchanged.
//!
//! Bounded capture means bounded, counted loss: spans past the capacity
//! are dropped newest-first and kernels oldest-first (see [`Recorder`]),
//! and [`FlightTrace::dropped_events`] reports both.

use crate::recorder::{Recorder, Recording};
use parking_lot::Mutex;
use serde::Serialize;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

// ---------------------------------------------------------------------------
// TraceId
// ---------------------------------------------------------------------------

/// 64-bit request identity. Never zero, so a raw `0` can mean "no trace"
/// (as in [`Recording::trace_id`]). Rendered as 16 lowercase hex digits
/// everywhere.
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

/// Decides at job completion whether to promote the batch's capture into
/// a retained trace. Thread-safe; one instance per service.
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
// The bounded capture and retained traces
// ---------------------------------------------------------------------------

/// Span capacity of a flight [`recorder`]: several full V-cycle solves'
/// worth of phase, iteration and level spans.
pub const SPAN_CAPACITY: usize = 1 << 12;

/// Kernel-ring capacity of a flight [`recorder`]: 16 Ki kernel records,
/// about 2.4 MiB per worker.
pub const KERNEL_CAPACITY: usize = 1 << 14;

/// The bounded recorder a long-lived worker installs on its device: all
/// of its memory is reserved here, so recording allocates nothing after.
pub fn recorder() -> Recorder {
    Recorder::with_capacity(SPAN_CAPACITY, KERNEL_CAPACITY)
}

/// A promoted (retained) flight capture for one job: the recording of
/// the batch it solved in, plus the completion facts that justified
/// keeping it.
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
    /// The batch's capture, recorded under the batch leader's trace id and
    /// shared by every job of the batch that kept it. Empty for jobs that
    /// never ran.
    pub recording: Arc<Recording>,
}

impl FlightTrace {
    /// Records the capture lost to its bounds: spans past the span
    /// capacity plus kernels evicted from the ring. Nonzero means the
    /// newest spans or the oldest kernels of the batch are missing.
    pub fn dropped_events(&self) -> u64 {
        self.recording.dropped_spans + self.recording.dropped_kernels
    }

    /// Serde JSON dump of the retained trace.
    pub fn to_json(&self) -> String {
        Serialize::to_json(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn full_ring_drops_oldest_and_counts() {
        let rec = recorder();
        let extra = 10usize;
        for i in 0..KERNEL_CAPACITY + extra {
            rec.record_kernel(crate::KernelSample {
                kind: "SpMV",
                algo: "AmgT",
                phase: "Solve",
                level: 0,
                precision: "FP64",
                sim_start: i as f64,
                sim_seconds: 1e-9,
                wall_ns: 0,
                flops: 0.0,
                int_ops: 0.0,
                bytes: 0.0,
                launches: 1,
            });
        }
        let trace = FlightTrace {
            trace_id: TraceId::from_raw(7).unwrap(),
            verdict: "Converged".to_string(),
            reason: RetainReason::Sampled,
            wall_seconds: 0.0,
            batch_size: 1,
            recording: Arc::new(rec.snapshot()),
        };
        assert_eq!(trace.recording.kernels.len(), KERNEL_CAPACITY);
        assert_eq!(trace.dropped_events(), extra as u64);
        // The *oldest* kernels were evicted: the first survivor is `extra`.
        assert_eq!(trace.recording.kernels[0].seq, extra as u64);
    }

    #[test]
    fn retained_trace_shares_the_recording_and_its_history() {
        use crate::{HealthEvent, HealthEventKind, SpanKind, SpanLabel};
        let id = TraceId::generate();
        let rec = recorder();
        rec.set_trace_id(id.get());
        let solve = rec.open_span(SpanKind::Phase, SpanLabel::named("solve"), 0.0);
        rec.record_residual(1, None, 0.5);
        rec.record_residual(2, None, 0.25);
        rec.record_residual(1, Some(0), 0.75);
        rec.record_health(HealthEvent {
            kind: HealthEventKind::Divergence,
            iteration: 2,
            factor: 4.0,
            level: Some(0),
            precision: Some("FP64"),
            column: None,
            detail: "residual grew".to_string(),
            trace_id: id.get(),
        });
        rec.close_span(solve, 2e-6);
        let recording = Arc::new(rec.snapshot());
        let trace = FlightTrace {
            trace_id: id,
            verdict: "Diverged".to_string(),
            reason: RetainReason::Verdict,
            wall_seconds: 1e-3,
            batch_size: 1,
            recording: Arc::clone(&recording),
        };
        assert!(Arc::ptr_eq(&trace.clone().recording, &recording));
        assert_eq!(trace.recording.trace_id, id.get());
        assert_eq!(trace.recording.residual_history(None), vec![0.5, 0.25]);
        assert_eq!(trace.recording.residual_history(Some(0)), vec![0.75]);
        assert_eq!(trace.dropped_events(), 0);
        let json = trace.to_json();
        assert!(
            json.contains(&format!("\"trace_id\":\"{}\"", id.to_hex())),
            "{json}"
        );
        assert!(json.contains("\"reason\":\"Verdict\""), "{json}");
        assert!(json.contains("\"name\":\"solve\""), "{json}");
        assert!(json.contains("\"kind\":\"Divergence\""), "{json}");
        assert!(json.contains("\"residuals\":[{"), "{json}");
    }
}
