//! Simulated device: a [`GpuSpec`] plus an event ledger.
//!
//! Every kernel in the reproduction charges exactly one [`KernelEvent`] per
//! logical GPU kernel launch sequence. The ledger is the source of Figures
//! 1, 2 and 8: it records, in execution order, which kernel ran, in which
//! phase and level, at which precision, and for how many simulated seconds.

use crate::cost::{kernel_seconds, Algo, GpuSpec, KernelCost, KernelKind};
use crate::precision::Precision;
use amgt_trace::{KernelSample, Recorder, SpanKind, SpanLabel};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Phase of the AMG algorithm an event belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Format conversions and analysis ahead of the solver proper.
    Preprocess,
    Setup,
    Solve,
}

impl Phase {
    /// Stable string label used by the trace layer and exporters.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Preprocess => "Preprocess",
            Phase::Setup => "Setup",
            Phase::Solve => "Solve",
        }
    }
}

/// One entry of the simulated-time ledger.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct KernelEvent {
    /// Monotone sequence number (execution order — the x axis of Fig. 8).
    pub seq: u64,
    pub kind: KernelKind,
    pub algo: Algo,
    pub phase: Phase,
    /// AMG level the kernel ran on (0 = finest).
    pub level: u32,
    pub precision: Precision,
    /// Simulated duration in seconds.
    pub seconds: f64,
}

#[derive(Default)]
struct DeviceState {
    clock: f64,
    seq: u64,
    events: Vec<KernelEvent>,
}

/// A simulated GPU: immutable spec + mutable clock/ledger, plus an
/// optional [`Recorder`] the trace layer installs — the device's one
/// tracing hook. The request identity of the work being charged lives on
/// the recorder ([`Recorder::set_trace_id`]).
///
/// When no recorder is installed (the default), the only tracing cost on
/// the charge path is one relaxed atomic load.
pub struct Device {
    spec: GpuSpec,
    state: Mutex<DeviceState>,
    traced: AtomicBool,
    recorder: Mutex<Option<Arc<Recorder>>>,
}

/// RAII guard for a trace span opened on a [`Device`]. Closes the span at
/// the device's *current* simulated clock when dropped, so everything
/// charged while the guard lives falls inside the span's interval.
///
/// When the device has no recorder installed the guard is inert.
#[must_use = "the span closes when this guard drops"]
pub struct DeviceSpan<'a> {
    device: &'a Device,
    open: Option<(Arc<Recorder>, u64)>,
}

impl DeviceSpan<'_> {
    /// Span id, if a recorder observed the open.
    pub fn id(&self) -> Option<u64> {
        self.open.as_ref().map(|(_, id)| *id)
    }
}

impl Drop for DeviceSpan<'_> {
    fn drop(&mut self) {
        if let Some((recorder, id)) = self.open.take() {
            recorder.close_span(id, self.device.elapsed());
        }
    }
}

impl Device {
    pub fn new(spec: GpuSpec) -> Self {
        Device {
            spec,
            state: Mutex::new(DeviceState::default()),
            traced: AtomicBool::new(false),
            recorder: Mutex::new(None),
        }
    }

    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Install a recorder; every subsequent charge emits a kernel record
    /// and [`Device::span`] guards become live.
    pub fn install_recorder(&self, recorder: Arc<Recorder>) {
        *self.recorder.lock() = Some(recorder);
        self.traced.store(true, Ordering::Release);
    }

    /// Remove and return the installed recorder, disabling tracing.
    pub fn remove_recorder(&self) -> Option<Arc<Recorder>> {
        self.traced.store(false, Ordering::Release);
        self.recorder.lock().take()
    }

    /// The installed recorder, if tracing is enabled.
    pub fn recorder(&self) -> Option<Arc<Recorder>> {
        if !self.traced.load(Ordering::Acquire) {
            return None;
        }
        self.recorder.lock().clone()
    }

    /// Open a named span at the current simulated clock; the returned
    /// guard closes it on drop. The recorder stores the [`SpanLabel`]
    /// unrendered, so opening a span never allocates.
    pub fn span(&self, kind: SpanKind, label: SpanLabel) -> DeviceSpan<'_> {
        let open = self.recorder().map(|recorder| {
            let id = recorder.open_span(kind, label, self.elapsed());
            (recorder, id)
        });
        DeviceSpan { device: self, open }
    }

    /// Record one outer iteration's relative residual into the installed
    /// recorder, if any.
    pub fn record_residual(&self, iteration: usize, column: Option<usize>, relres: f64) {
        if let Some(recorder) = self.recorder() {
            recorder.record_residual(iteration, column, relres);
        }
    }

    /// Price a cost without recording it (pure query).
    pub fn price(
        &self,
        kind: KernelKind,
        algo: Algo,
        precision: Precision,
        cost: &KernelCost,
    ) -> f64 {
        kernel_seconds(&self.spec, kind, algo, precision, cost)
    }

    /// Record one kernel execution; returns its simulated duration.
    pub fn charge(
        &self,
        kind: KernelKind,
        algo: Algo,
        phase: Phase,
        level: u32,
        precision: Precision,
        cost: &KernelCost,
    ) -> f64 {
        self.charge_with_wall(kind, algo, phase, level, precision, cost, 0)
    }

    /// [`Device::charge`] carrying a measured host wall-clock duration
    /// (nanoseconds) for the launch, recorded into the trace when a
    /// recorder is installed. `0` means "not measured" — the profiler in
    /// `amgt-exec` was disabled for this launch.
    #[allow(clippy::too_many_arguments)]
    pub fn charge_with_wall(
        &self,
        kind: KernelKind,
        algo: Algo,
        phase: Phase,
        level: u32,
        precision: Precision,
        cost: &KernelCost,
        wall_ns: u64,
    ) -> f64 {
        let seconds = kernel_seconds(&self.spec, kind, algo, precision, cost);
        let sim_start = self.ledger_push(kind, algo, phase, level, precision, seconds);
        if self.traced.load(Ordering::Relaxed) {
            self.trace_kernel(
                kind, algo, phase, level, precision, sim_start, seconds, cost, wall_ns,
            );
        }
        seconds
    }

    /// Append to the ledger and advance the clock; returns the clock value
    /// *before* this event (its simulated start time).
    fn ledger_push(
        &self,
        kind: KernelKind,
        algo: Algo,
        phase: Phase,
        level: u32,
        precision: Precision,
        seconds: f64,
    ) -> f64 {
        let mut st = self.state.lock();
        let seq = st.seq;
        let sim_start = st.clock;
        st.seq += 1;
        st.clock += seconds;
        st.events.push(KernelEvent {
            seq,
            kind,
            algo,
            phase,
            level,
            precision,
            seconds,
        });
        sim_start
    }

    #[allow(clippy::too_many_arguments)]
    fn trace_kernel(
        &self,
        kind: KernelKind,
        algo: Algo,
        phase: Phase,
        level: u32,
        precision: Precision,
        sim_start: f64,
        seconds: f64,
        cost: &KernelCost,
        wall_ns: u64,
    ) {
        if let Some(recorder) = self.recorder.lock().as_ref() {
            recorder.record_kernel(KernelSample {
                kind: kind.label(),
                algo: algo.label(),
                phase: phase.label(),
                level,
                precision: precision.label(),
                sim_start,
                sim_seconds: seconds,
                wall_ns,
                flops: cost.tc_flops + cost.cuda_flops,
                int_ops: cost.int_ops,
                bytes: cost.bytes,
                launches: cost.launches,
            });
        }
    }

    /// Total simulated seconds elapsed on this device.
    pub fn elapsed(&self) -> f64 {
        self.state.lock().clock
    }

    /// Snapshot of the ledger in execution order.
    pub fn events(&self) -> Vec<KernelEvent> {
        self.state.lock().events.clone()
    }

    /// Clear the ledger and clock (e.g. between solver variants). The
    /// ledger keeps its capacity, so a device reset between jobs charges
    /// into the same allocation.
    pub fn reset(&self) {
        let mut st = self.state.lock();
        st.clock = 0.0;
        st.seq = 0;
        st.events.clear();
    }

    /// Reserve ledger capacity for `additional` more events, so steady-state
    /// charging does not reallocate the event vector mid-solve.
    pub fn reserve_events(&self, additional: usize) {
        self.state.lock().events.reserve(additional);
    }

    /// Sum of durations matching a predicate — the building block of the
    /// Figure 1/2 breakdowns.
    pub fn total_where(&self, pred: impl Fn(&KernelEvent) -> bool) -> f64 {
        self.state
            .lock()
            .events
            .iter()
            .filter(|e| pred(e))
            .map(|e| e.seconds)
            .sum()
    }
}

/// Inter-device link model for the multi-GPU experiments (Figure 9).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Interconnect {
    /// Per-link bandwidth, GB/s (NVLink-class for 8x A100).
    pub bw_gbs: f64,
    /// Per-message latency, microseconds.
    pub latency_us: f64,
}

impl Interconnect {
    /// NVLink 3.0-class all-to-all fabric of an 8x A100 HGX node.
    /// Latency is the per-round point-to-point cost (~2 us for NVLink P2P
    /// with NCCL small-message overhead).
    pub fn nvlink() -> Self {
        Interconnect {
            bw_gbs: 250.0,
            latency_us: 2.0,
        }
    }

    /// Time to move `bytes` in `messages` messages over one link.
    pub fn transfer_seconds(&self, bytes: f64, messages: u32) -> f64 {
        messages as f64 * self.latency_us * 1e-6 + bytes / (self.bw_gbs * 1e9)
    }
}

/// A group of simulated devices joined by an interconnect.
///
/// The cluster owns a *step clock*: distributed operations advance it by the
/// maximum per-device compute time plus the communication time, which is how
/// bulk-synchronous AMG actually behaves.
pub struct Cluster {
    pub devices: Vec<Device>,
    pub interconnect: Interconnect,
    clock: Mutex<f64>,
}

impl Cluster {
    pub fn new(spec: GpuSpec, n: usize, interconnect: Interconnect) -> Self {
        Cluster {
            devices: (0..n).map(|_| Device::new(spec.clone())).collect(),
            interconnect,
            clock: Mutex::new(0.0),
        }
    }

    pub fn n_devices(&self) -> usize {
        self.devices.len()
    }

    /// Advance the cluster clock by one bulk-synchronous step: the slowest
    /// device's compute time plus communication. Returns the step seconds.
    pub fn step(&self, per_device_seconds: &[f64], comm_bytes: f64, comm_messages: u32) -> f64 {
        assert_eq!(per_device_seconds.len(), self.devices.len());
        let compute = per_device_seconds.iter().cloned().fold(0.0, f64::max);
        let comm = if comm_bytes > 0.0 || comm_messages > 0 {
            self.interconnect
                .transfer_seconds(comm_bytes, comm_messages)
        } else {
            0.0
        };
        let step = compute + comm;
        *self.clock.lock() += step;
        step
    }

    pub fn elapsed(&self) -> f64 {
        *self.clock.lock()
    }

    pub fn reset(&self) {
        *self.clock.lock() = 0.0;
        for d in &self.devices {
            d.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost_bytes(b: f64) -> KernelCost {
        KernelCost {
            bytes: b,
            ..Default::default()
        }
    }

    #[test]
    fn ledger_records_in_order() {
        let dev = Device::new(GpuSpec::a100());
        let t1 = dev.charge(
            KernelKind::SpMV,
            Algo::AmgT,
            Phase::Solve,
            0,
            Precision::Fp64,
            &cost_bytes(1e6),
        );
        let t2 = dev.charge(
            KernelKind::SpGemmNumeric,
            Algo::AmgT,
            Phase::Setup,
            1,
            Precision::Fp32,
            &cost_bytes(2e6),
        );
        let events = dev.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[1].seq, 1);
        assert_eq!(events[0].kind, KernelKind::SpMV);
        assert_eq!(events[1].level, 1);
        assert!((dev.elapsed() - (t1 + t2)).abs() < 1e-15);
    }

    #[test]
    fn total_where_filters() {
        let dev = Device::new(GpuSpec::h100());
        dev.charge(
            KernelKind::SpMV,
            Algo::Vendor,
            Phase::Solve,
            0,
            Precision::Fp64,
            &cost_bytes(1e6),
        );
        dev.charge(
            KernelKind::Vector,
            Algo::Shared,
            Phase::Solve,
            0,
            Precision::Fp64,
            &cost_bytes(1e6),
        );
        let spmv = dev.total_where(|e| e.kind == KernelKind::SpMV);
        let all = dev.total_where(|_| true);
        assert!(spmv > 0.0 && spmv < all);
    }

    #[test]
    fn reset_clears() {
        let dev = Device::new(GpuSpec::a100());
        dev.charge(
            KernelKind::SpMV,
            Algo::AmgT,
            Phase::Solve,
            0,
            Precision::Fp64,
            &cost_bytes(1e6),
        );
        dev.reset();
        assert_eq!(dev.elapsed(), 0.0);
        assert!(dev.events().is_empty());
    }

    #[test]
    fn cluster_step_is_max_plus_comm() {
        let cluster = Cluster::new(
            GpuSpec::a100(),
            4,
            Interconnect {
                bw_gbs: 100.0,
                latency_us: 10.0,
            },
        );
        let step = cluster.step(&[1e-3, 2e-3, 0.5e-3, 1.5e-3], 1e8, 3);
        let comm = 3.0 * 10e-6 + 1e8 / 100e9;
        assert!((step - (2e-3 + comm)).abs() < 1e-12);
        assert!((cluster.elapsed() - step).abs() < 1e-15);
    }

    #[test]
    fn cluster_zero_comm_step() {
        let cluster = Cluster::new(GpuSpec::a100(), 2, Interconnect::nvlink());
        let step = cluster.step(&[1e-3, 2e-3], 0.0, 0);
        assert_eq!(step, 2e-3);
    }

    #[test]
    fn interconnect_latency_and_bandwidth() {
        let link = Interconnect {
            bw_gbs: 200.0,
            latency_us: 5.0,
        };
        let t = link.transfer_seconds(200e9, 2);
        assert!((t - (1.0 + 10e-6)).abs() < 1e-9);
    }

    #[test]
    fn recorder_captures_charges_and_spans() {
        let dev = Device::new(GpuSpec::a100());
        // Untraced charge: no recorder, nothing to capture.
        dev.charge(
            KernelKind::Vector,
            Algo::Shared,
            Phase::Preprocess,
            0,
            Precision::Fp64,
            &cost_bytes(1e6),
        );
        let recorder = Arc::new(Recorder::new());
        dev.install_recorder(recorder.clone());
        let t_before = dev.elapsed();
        {
            let _span = dev.span(SpanKind::Phase, SpanLabel::named("solve"));
            dev.charge(
                KernelKind::SpMV,
                Algo::AmgT,
                Phase::Solve,
                1,
                Precision::Fp32,
                &cost_bytes(1e6),
            );
        }
        let removed = dev.remove_recorder().expect("recorder was installed");
        assert!(Arc::ptr_eq(&removed, &recorder));
        let rec = recorder.take();
        // Only the traced charge shows up; its labels and clock match.
        assert_eq!(rec.kernels.len(), 1);
        let k = &rec.kernels[0];
        assert_eq!(k.kind, "SpMV");
        assert_eq!(k.algo, "AmgT");
        assert_eq!(k.phase, "Solve");
        assert_eq!(k.level, 1);
        assert_eq!(k.precision, "FP32");
        assert!((k.sim_start - t_before).abs() < 1e-18);
        assert_eq!(rec.spans.len(), 1);
        let span = &rec.spans[0];
        assert!(span.closed);
        assert!((span.sim_start - t_before).abs() < 1e-18);
        assert!((span.sim_end - dev.elapsed()).abs() < 1e-18);
        assert_eq!(k.parent, Some(span.id));
        // After removal the device is untraced again.
        dev.charge(
            KernelKind::Vector,
            Algo::Shared,
            Phase::Solve,
            0,
            Precision::Fp64,
            &cost_bytes(1e6),
        );
        assert!(recorder.take().is_empty());
    }

    #[test]
    fn untraced_span_is_inert() {
        let dev = Device::new(GpuSpec::a100());
        let span = dev.span(SpanKind::Phase, SpanLabel::named("inert"));
        assert_eq!(span.id(), None);
    }

    #[test]
    fn flight_hooks_attribute_to_the_attached_identity() {
        let dev = Device::new(GpuSpec::a100());
        // No recorder installed: residuals go nowhere.
        dev.record_residual(1, None, 0.5);
        let recorder = Arc::new(Recorder::new());
        recorder.set_trace_id(0xabcd);
        dev.install_recorder(recorder.clone());
        {
            let _span = dev.span(SpanKind::Level, SpanLabel::with("level", 2));
            dev.charge(
                KernelKind::SpMV,
                Algo::AmgT,
                Phase::Solve,
                2,
                Precision::Fp16,
                &cost_bytes(1e6),
            );
            dev.record_residual(1, Some(3), 0.25);
        }
        dev.remove_recorder();
        // Detached again: further residuals are unattributed.
        dev.record_residual(2, Some(3), 0.125);

        let rec = recorder.take();
        assert_eq!(rec.trace_id, 0xabcd);
        assert_eq!(rec.spans.len(), 1);
        assert_eq!(rec.spans[0].name, "level 2");
        assert_eq!(rec.kernels.len(), 1);
        assert_eq!(rec.kernels[0].precision, "FP16");
        assert_eq!(rec.kernels[0].parent, Some(rec.spans[0].id));
        assert_eq!(rec.residual_history(Some(3)), vec![0.25]);
        assert!(rec.residual_history(None).is_empty());
    }

    #[test]
    fn price_does_not_record() {
        let dev = Device::new(GpuSpec::a100());
        let p = dev.price(
            KernelKind::SpMV,
            Algo::AmgT,
            Precision::Fp64,
            &cost_bytes(1e6),
        );
        assert!(p > 0.0);
        assert!(dev.events().is_empty());
        assert_eq!(dev.elapsed(), 0.0);
    }
}
