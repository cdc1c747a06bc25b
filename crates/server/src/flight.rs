//! Retained flight traces and the recently-completed-jobs ring.
//!
//! The tail-based sampler in `amgt_trace::flight` decides *whether* a
//! finished job's capture is worth keeping; this module is *where* it is
//! kept. [`FlightStore`] holds two bounded structures:
//!
//! * the **retained-trace store** — full [`FlightTrace`]s promoted at job
//!   completion, evicted oldest-first beyond a fixed capacity so a
//!   long-running service never grows without bound. Served by
//!   `/debug/flight` (index) and `/debug/flight/<trace_id>` (full trace,
//!   with `?format=chrome|folded` re-using the existing exporters).
//! * the **recent-jobs ring** — one compact [`CompletedJob`] line per
//!   finished job (success, panicked batch *or* pre-flight rejection), so
//!   `/jobs` can show what just happened, not only what is in flight.
//!
//! Both are plain mutex-guarded rings: they are touched once per job
//! completion, never on the per-kernel hot path.

use amgt_trace::{FlightTrace, RetainReason, TraceId};
use serde::Serialize;
use std::collections::VecDeque;
use std::path::Path;
use std::sync::Mutex;

/// Retained full traces kept before oldest-first eviction.
pub const DEFAULT_RETAIN_CAPACITY: usize = 32;

/// Completed-job lines kept in the `/jobs` ring.
pub const RECENT_JOBS_CAPACITY: usize = 64;

/// One line of the recently-completed ring: enough to find the job again
/// (`trace_id`) and to see at a glance how it went.
#[derive(Clone, Debug, Serialize)]
pub struct CompletedJob {
    /// Request identity (serialized as 16 hex digits).
    pub trace_id: TraceId,
    /// Terminal verdict label (`"Converged"`, `"Diverged"`, ...) or the
    /// rejection reason for jobs that failed pre-flight.
    pub verdict: String,
    /// Wall-clock seconds from submission to completion.
    pub wall_seconds: f64,
    /// RHS columns that shared the job's batched V-cycle (0 = rejected).
    pub batch_size: usize,
    /// Why the job's flight trace was retained, if it was.
    pub retained: Option<RetainReason>,
}

/// Index entry for `/debug/flight`: the retained trace minus its recording.
#[derive(Clone, Debug, Serialize)]
pub struct FlightTraceSummary {
    pub trace_id: TraceId,
    pub verdict: String,
    pub reason: RetainReason,
    pub wall_seconds: f64,
    pub batch_size: usize,
    /// Spans and kernels captured in the retained trace.
    pub events: usize,
    /// Spans and kernels the bounded capture dropped (see
    /// [`FlightTrace::dropped_events`]).
    pub dropped_events: u64,
}

/// Bounded store of promoted flight traces plus the recent-jobs ring.
pub struct FlightStore {
    retained: Mutex<VecDeque<FlightTrace>>,
    recent: Mutex<VecDeque<CompletedJob>>,
    capacity: usize,
}

impl FlightStore {
    pub fn new(capacity: usize) -> Self {
        FlightStore {
            retained: Mutex::new(VecDeque::new()),
            recent: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
        }
    }

    /// Keep a promoted trace; evicts the oldest beyond capacity. A second
    /// promotion of the same trace id replaces the first (a job is only
    /// promoted once, but replay paths should stay idempotent).
    pub fn retain(&self, trace: FlightTrace) {
        let mut r = self.retained.lock().unwrap();
        r.retain(|t| t.trace_id != trace.trace_id);
        r.push_back(trace);
        while r.len() > self.capacity {
            r.pop_front();
        }
    }

    /// The retained trace for `id`, if it has not been evicted.
    pub fn trace(&self, id: TraceId) -> Option<FlightTrace> {
        self.retained
            .lock()
            .unwrap()
            .iter()
            .find(|t| t.trace_id == id)
            .cloned()
    }

    /// Index of retained traces, newest last.
    pub fn summaries(&self) -> Vec<FlightTraceSummary> {
        self.retained
            .lock()
            .unwrap()
            .iter()
            .map(|t| FlightTraceSummary {
                trace_id: t.trace_id,
                verdict: t.verdict.clone(),
                reason: t.reason,
                wall_seconds: t.wall_seconds,
                batch_size: t.batch_size,
                events: t.recording.spans.len() + t.recording.kernels.len(),
                dropped_events: t.dropped_events(),
            })
            .collect()
    }

    /// Number of traces currently retained.
    pub fn retained_len(&self) -> usize {
        self.retained.lock().unwrap().len()
    }

    /// Append one completed-job line to the `/jobs` ring.
    pub fn record_completed(&self, job: CompletedJob) {
        let mut r = self.recent.lock().unwrap();
        r.push_back(job);
        while r.len() > RECENT_JOBS_CAPACITY {
            r.pop_front();
        }
    }

    /// Recently completed jobs, oldest first.
    pub fn recent(&self) -> Vec<CompletedJob> {
        self.recent.lock().unwrap().iter().cloned().collect()
    }

    /// Write every retained trace to `dir` as
    /// `amgt-flight-<trace_id>.json`; returns how many files were written.
    /// Creates `dir` if needed.
    pub fn dump_to_dir(&self, dir: &Path) -> std::io::Result<usize> {
        let traces: Vec<FlightTrace> = self.retained.lock().unwrap().iter().cloned().collect();
        if traces.is_empty() {
            return Ok(0);
        }
        std::fs::create_dir_all(dir)?;
        for t in &traces {
            let path = dir.join(format!("amgt-flight-{}.json", t.trace_id.to_hex()));
            std::fs::write(path, t.to_json())?;
        }
        Ok(traces.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(id: TraceId, verdict: &str) -> FlightTrace {
        FlightTrace {
            trace_id: id,
            verdict: verdict.to_string(),
            reason: RetainReason::Sampled,
            wall_seconds: 1e-3,
            batch_size: 1,
            recording: Default::default(),
        }
    }

    #[test]
    fn retain_evicts_oldest_beyond_capacity() {
        let store = FlightStore::new(2);
        let ids: Vec<TraceId> = (0..3).map(|_| TraceId::generate()).collect();
        for &id in &ids {
            store.retain(trace(id, "Converged"));
        }
        assert_eq!(store.retained_len(), 2);
        assert!(store.trace(ids[0]).is_none(), "oldest evicted");
        assert!(store.trace(ids[1]).is_some());
        assert!(store.trace(ids[2]).is_some());
        let summaries = store.summaries();
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].trace_id, ids[1]);
    }

    #[test]
    fn retain_same_id_replaces() {
        let store = FlightStore::new(4);
        let id = TraceId::generate();
        store.retain(trace(id, "Converged"));
        store.retain(trace(id, "Diverged"));
        assert_eq!(store.retained_len(), 1);
        assert_eq!(store.trace(id).unwrap().verdict, "Diverged");
    }

    #[test]
    fn recent_ring_is_bounded() {
        let store = FlightStore::new(1);
        for i in 0..(RECENT_JOBS_CAPACITY + 5) {
            store.record_completed(CompletedJob {
                trace_id: TraceId::generate(),
                verdict: "Converged".to_string(),
                wall_seconds: i as f64,
                batch_size: 1,
                retained: None,
            });
        }
        let recent = store.recent();
        assert_eq!(recent.len(), RECENT_JOBS_CAPACITY);
        assert_eq!(
            recent.last().unwrap().wall_seconds,
            (RECENT_JOBS_CAPACITY + 4) as f64
        );
    }

    #[test]
    fn completed_job_serializes_with_hex_id_and_reason() {
        let id = TraceId::generate();
        let job = CompletedJob {
            trace_id: id,
            verdict: "Diverged".to_string(),
            wall_seconds: 0.5,
            batch_size: 2,
            retained: Some(RetainReason::Verdict),
        };
        let json = Serialize::to_json(&job);
        assert!(
            json.contains(&format!("\"trace_id\":\"{}\"", id.to_hex())),
            "{json}"
        );
        assert!(json.contains("\"retained\":\"Verdict\""), "{json}");
    }

    #[test]
    fn dump_writes_one_file_per_trace() {
        let store = FlightStore::new(4);
        let id = TraceId::generate();
        store.retain(trace(id, "Converged"));
        let dir = std::env::temp_dir().join(format!("amgt-flight-test-{}", id.to_hex()));
        let written = store.dump_to_dir(&dir).unwrap();
        assert_eq!(written, 1);
        let file = dir.join(format!("amgt-flight-{}.json", id.to_hex()));
        let body = std::fs::read_to_string(&file).unwrap();
        assert!(body.contains("\"verdict\":\"Converged\""), "{body}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
