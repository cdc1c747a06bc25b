//! Wall-clock kernel profiler: the runtime collector behind `amgt-prof`.
//!
//! The data model ([`WallProfile`], [`KernelClass`], the fidelity audit)
//! lives in `amgt-trace`; this module owns the *collection* machinery,
//! which has to sit below `amgt-kernels` so the kernel dispatch layer can
//! time its launches:
//!
//! * a global on/off gate — one relaxed atomic load on the disabled
//!   path, no clock reads, no allocation, so the solver's alloc-free and
//!   wall-clock gates are unaffected when profiling is off;
//! * [`KernelTimer`] — a monotonic-clock stopwatch started at kernel
//!   entry and finished when the launch charges its simulated cost;
//! * thread-local shards — each thread folds samples into its own
//!   [`WallProfile`] behind an uncontended mutex; shards register in a
//!   global list once per thread and [`snapshot`] merges them, so the
//!   steady-state record path never contends across threads.
//!
//! # Attribution with the work-stealing pool
//!
//! Kernels parallelized over the fork-join pool keep *one* timer on the
//! calling thread: leaves never record, the joining thread records a
//! single sample covering the whole parallel region. Pool workers that
//! call kernels directly (e.g. server request workers) record into their
//! own shards, which `snapshot` merges — samples are never lost or
//! double-counted. But spans of launches that are concurrently in flight
//! can overlap (a joiner may even execute stolen leaves of another
//! launch inside its own span), so summed per-class wall time is an
//! upper bound on exclusive time, not a partition of elapsed time.
//!
//! Typical use (what `amgt-cli --profile` does):
//!
//! ```
//! amgt_exec::prof::reset();
//! amgt_exec::prof::enable();
//! // ... run kernels through `Ctx::charge_timed` ...
//! amgt_exec::prof::disable();
//! let profile = amgt_exec::prof::snapshot();
//! let audit = amgt_trace::FidelityReport::from_profile(
//!     &profile,
//!     amgt_trace::FidelityReport::DEFAULT_FLAG_THRESHOLD,
//! );
//! assert!(profile.is_empty() || !audit.rows.is_empty());
//! ```

use amgt_trace::{KernelClass, WallProfile};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Shards of every thread that ever recorded a sample. Merged (never
/// removed) at snapshot time; a shard outlives its thread.
static REGISTRY: Mutex<Vec<Arc<Mutex<WallProfile>>>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: Arc<Mutex<WallProfile>> = {
        let shard = Arc::new(Mutex::new(WallProfile::default()));
        REGISTRY.lock().push(shard.clone());
        shard
    };
}

/// Turn sample collection on. Kernels dispatched after this call (on any
/// thread) start timing their launches.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn sample collection off. Already-started timers still record.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Is the profiler collecting? One relaxed load — this is the entire
/// cost of a disabled profiling hook.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Drop every sample collected so far (the shards stay registered).
pub fn reset() {
    for shard in REGISTRY.lock().iter() {
        *shard.lock() = WallProfile::default();
    }
}

/// Merge every thread's shard into one profile. Cheap relative to a
/// solve; safe to call while kernels are running (in-flight launches
/// land in the next snapshot).
pub fn snapshot() -> WallProfile {
    let mut out = WallProfile::default();
    for shard in REGISTRY.lock().iter() {
        out.merge(&shard.lock());
    }
    out
}

/// Fold one measured launch into the calling thread's shard.
pub fn record(class: KernelClass, wall_ns: u64, sim_seconds: f64) {
    LOCAL.with(|shard| shard.lock().record(class, wall_ns, sim_seconds));
}

/// Stopwatch for one kernel launch: started at kernel entry, finished at
/// charge time. Inert (no clock read) when the profiler is disabled, so
/// it can be created unconditionally on the hot path.
#[derive(Debug)]
#[must_use = "a timer that is never finished records nothing"]
pub struct KernelTimer(Option<Instant>);

impl KernelTimer {
    /// Start timing if the profiler is enabled; inert otherwise.
    #[inline]
    pub fn start() -> Self {
        if is_enabled() {
            KernelTimer(Some(Instant::now()))
        } else {
            KernelTimer(None)
        }
    }

    /// Elapsed nanoseconds, `None` when inert. Consumes the timer.
    #[inline]
    pub fn stop(self) -> Option<u64> {
        self.0.map(|t0| {
            let ns = t0.elapsed().as_nanos();
            u64::try_from(ns).unwrap_or(u64::MAX)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The gate and shards are process-global; serialize tests.
    static TEST_GUARD: Mutex<()> = Mutex::new(());

    fn class(kind: &'static str) -> KernelClass {
        KernelClass {
            kind,
            algo: "AmgT",
            phase: "Solve",
            level: 0,
            precision: "FP64",
            exec: "native",
        }
    }

    #[test]
    fn disabled_timer_is_inert() {
        let _g = TEST_GUARD.lock();
        disable();
        assert_eq!(KernelTimer::start().stop(), None);
    }

    #[test]
    fn enabled_timer_measures_and_records() {
        let _g = TEST_GUARD.lock();
        reset();
        enable();
        let t = KernelTimer::start();
        std::hint::black_box((0..1000).sum::<u64>());
        let ns = t.stop().expect("timer was live");
        record(class("SpMV"), ns, 1e-6);
        record(class("SpMV"), ns, 1e-6);
        record(class("Vector"), 1, 1e-9);
        disable();
        let p = snapshot();
        assert_eq!(p.total_count(), 3);
        assert_eq!(p.classes.len(), 2);
        let spmv = p
            .classes
            .iter()
            .find(|r| r.class.kind == "SpMV")
            .expect("SpMV class present");
        assert_eq!(spmv.agg.count, 2);
        assert!(spmv.agg.total_ns >= 2 * ns - 2, "both launches measured");
        reset();
        assert!(snapshot().is_empty(), "reset drops samples");
    }

    #[test]
    fn shards_merge_across_threads() {
        let _g = TEST_GUARD.lock();
        reset();
        enable();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    for _ in 0..10 {
                        record(class("SpMV"), 100 + i, 1e-6);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        disable();
        let p = snapshot();
        assert_eq!(p.total_count(), 40, "all four threads' shards merged");
        reset();
    }
}
