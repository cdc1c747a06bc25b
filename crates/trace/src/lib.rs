//! # amgt-trace — structured tracing, profiling and metrics for AmgT
//!
//! The paper's evidence is observability artifacts: Figure 1/2 phase
//! breakdowns, the Figure 8 kernel timeline, per-level precision
//! accounting. This crate is the layer those artifacts are produced from:
//!
//! * [`recorder`] — a thread-safe [`Recorder`] of [`SpanRecord`]s (phase /
//!   level / iteration / job regions) and [`KernelRecord`]s (one per
//!   simulated kernel launch), ring-buffer backed so memory stays bounded.
//!   It is the one trace capture of a device: when no recorder is
//!   installed the cost is one relaxed atomic load per kernel — the
//!   zero-cost-when-disabled path.
//! * [`flight`] — request identity ([`TraceId`]), the bounded recorder a
//!   long-lived worker installs for life, and the [`TailSampler`] that
//!   decides which finished jobs keep their capture as a [`FlightTrace`].
//! * [`metrics`] — [`Counter`] / [`Gauge`] / [`Histogram`] primitives and a
//!   [`Registry`] with Prometheus-style text exposition, used by
//!   `amgt-server` for its scrape endpoint.
//! * [`export`] — exporters over a finished [`Recording`]: Chrome
//!   `trace_event` JSON (load a solve into `chrome://tracing` and read the
//!   Figure 8 timeline directly), a per-phase/per-level [`Breakdown`]
//!   table reproducing Figures 1/2, and serde JSON dumps.
//!
//! The crate is deliberately foundational: it depends on nothing else in
//! the workspace, speaks string labels rather than solver enums, and is
//! wired in by `amgt-sim::Device` (kernel events + span guards), by the
//! `amgt` hierarchy/solve layers (phase/level/iteration spans) and by
//! `amgt-server` (service telemetry + per-job trace capture).

pub mod export;
pub mod flight;
pub mod health;
pub mod json;
pub mod log;
pub mod metrics;
pub mod profile;
pub mod recorder;

pub use export::{chrome_trace, folded_stacks, folded_total_ns, Breakdown, BreakdownRow};
pub use flight::{FlightTrace, RetainReason, SamplerConfig, TailSampler, TraceId};
pub use health::{HealthEvent, HealthEventKind, HierarchyDiagnostics, LevelStats};
pub use json::Json;
pub use metrics::{Counter, Gauge, Histogram, Registry};
pub use profile::{ClassProfile, FidelityReport, FidelityRow, KernelClass, WallAgg, WallProfile};
pub use recorder::{
    KernelRecord, KernelSample, PolicyNote, PolicyParam, Recorder, Recording, ResidualRecord,
    SpanKind, SpanLabel, SpanRecord,
};
