//! Service observability built on the `amgt-trace` metric primitives.
//!
//! [`ServiceTelemetry`] owns lock-free counters/gauges/histograms in an
//! `amgt_trace::Registry`; workers update them directly (no service-wide
//! metrics mutex). Two read paths exist over the same state:
//!
//! * [`ServiceTelemetry::snapshot`] — the serializable [`ServiceMetrics`]
//!   struct (JSON via `serde::Serialize::to_json`), with latency
//!   percentiles estimated **from the histograms** rather than a
//!   kept-forever sample vector, so memory is bounded no matter how many
//!   jobs the service completes.
//! * [`ServiceTelemetry::render_prometheus`] — Prometheus text exposition
//!   of every registered metric, ready to serve on a scrape endpoint.

use crate::cache::CacheStats;
use amgt_trace::{Counter, Gauge, Histogram, Registry};
use serde::Serialize;
use std::sync::Arc;

/// Maximum RHS columns one batched V-cycle coalesces (one tensor slab).
pub const MAX_BATCH: usize = 8;

/// Per-level hierarchy gauges are pre-registered up to this depth (the
/// paper's configuration caps hierarchies at 7 levels); deeper levels are
/// folded into the aggregate gauges only.
pub const MAX_TRACKED_LEVELS: usize = 8;

/// Point-in-time service metrics. Serializable so operators can scrape it
/// as JSON (`serde::Serialize::to_json`).
#[derive(Clone, Debug, Serialize)]
pub struct ServiceMetrics {
    /// Jobs waiting in the submission queue right now.
    pub queue_depth: usize,
    /// Jobs a worker has picked up but not yet completed.
    pub jobs_inflight: u64,
    pub jobs_completed: u64,
    pub jobs_failed: u64,
    pub cache_hits: u64,
    pub cache_refreshes: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    /// Fraction of lookups that skipped full setup (hits + refreshes).
    pub cache_hit_rate: f64,
    /// `batch_occupancy[k]` counts batches that solved `k + 1` RHS at once.
    pub batch_occupancy: [u64; MAX_BATCH],
    /// Wall-clock latency percentiles over completed jobs, in seconds,
    /// estimated from the latency histogram.
    pub p50_wall_seconds: f64,
    pub p99_wall_seconds: f64,
    /// Simulated-GPU latency percentiles over completed jobs, in seconds.
    pub p50_simulated_seconds: f64,
    pub p99_simulated_seconds: f64,
    /// Numerical-health events observed across all solves.
    pub solver_stagnations: u64,
    pub solver_divergences: u64,
    pub solver_nonfinite: u64,
    /// Flight traces promoted to the retained store by the tail sampler
    /// (bad verdicts, rejections, slow decile, probabilistic samples).
    pub flight_retained_total: u64,
    /// Shape of the most recently solved hierarchy (0 until the first
    /// batch completes).
    pub hierarchy_levels: u64,
    pub hierarchy_operator_complexity: f64,
    pub hierarchy_grid_complexity: f64,
    /// Rank count of the most recent distributed solve (0 = the service
    /// has only run single-device solves).
    pub dist_ranks: u64,
    /// Cumulative halo-exchange traffic across all distributed solves,
    /// in bytes.
    pub dist_halo_bytes_total: u64,
    /// Batches whose solve panicked. Their unresolved jobs failed with
    /// `JobError::Internal`, and the worker kept serving.
    pub worker_panics: u64,
}

/// The service's live metric state. Updates are lock-free; snapshots and
/// exposition read the same atomics.
pub struct ServiceTelemetry {
    registry: Registry,
    jobs_completed: Arc<Counter>,
    jobs_failed: Arc<Counter>,
    jobs_inflight: Arc<Gauge>,
    queue_depth: Arc<Gauge>,
    cache_hits: Arc<Gauge>,
    cache_refreshes: Arc<Gauge>,
    cache_misses: Arc<Gauge>,
    cache_evictions: Arc<Gauge>,
    batch_occupancy: Vec<Arc<Counter>>,
    wall_latency: Arc<Histogram>,
    simulated_latency: Arc<Histogram>,
    solver_stagnations: Arc<Counter>,
    solver_divergences: Arc<Counter>,
    solver_nonfinite: Arc<Counter>,
    flight_retained: Arc<Counter>,
    hierarchy_levels: Arc<Gauge>,
    hierarchy_operator_complexity: Arc<Gauge>,
    hierarchy_grid_complexity: Arc<Gauge>,
    hierarchy_level_rows: Vec<Arc<Gauge>>,
    dist_ranks: Arc<Gauge>,
    dist_halo_bytes: Arc<Counter>,
    worker_panics: Arc<Counter>,
}

impl Default for ServiceTelemetry {
    fn default() -> Self {
        ServiceTelemetry::new()
    }
}

impl ServiceTelemetry {
    pub fn new() -> Self {
        let registry = Registry::new();
        let jobs_completed =
            registry.counter("amgt_jobs_completed_total", "Jobs completed successfully.");
        let jobs_failed = registry.counter(
            "amgt_jobs_failed_total",
            "Jobs that failed: rejected before solving (cancelled, deadline, invalid) or failed by a panic.",
        );
        let jobs_inflight = registry.gauge(
            "amgt_jobs_inflight",
            "Jobs a worker has picked up but not yet completed.",
        );
        let queue_depth =
            registry.gauge("amgt_queue_depth", "Jobs waiting in the submission queue.");
        let cache_hits = registry.gauge("amgt_cache_hits", "Hierarchy cache hits.");
        let cache_refreshes = registry.gauge(
            "amgt_cache_refreshes",
            "Hierarchy cache value-refreshes (pattern reuse).",
        );
        let cache_misses = registry.gauge("amgt_cache_misses", "Hierarchy cache misses.");
        let cache_evictions = registry.gauge("amgt_cache_evictions", "Hierarchy cache evictions.");
        let batch_occupancy = (1..=MAX_BATCH)
            .map(|k| {
                registry.counter(
                    &format!("amgt_batches_size_{k}_total"),
                    &format!("Batches that coalesced exactly {k} RHS."),
                )
            })
            .collect();
        let wall_latency = registry.histogram(
            "amgt_job_wall_seconds",
            "Wall-clock latency from submission to completion.",
            Histogram::latency_seconds(),
        );
        let simulated_latency = registry.histogram(
            "amgt_job_simulated_seconds",
            "Simulated device seconds attributed to the job's batch.",
            Histogram::latency_seconds(),
        );
        let solver_stagnations = registry.counter(
            "amgt_solver_stagnations_total",
            "Solves whose convergence factor pinned near 1 (stagnation events).",
        );
        let solver_divergences = registry.counter(
            "amgt_solver_divergences_total",
            "Solves whose residual grew past the divergence threshold.",
        );
        let solver_nonfinite = registry.counter(
            "amgt_solver_nonfinite_total",
            "Solves that produced NaN/Inf values (non-finite events).",
        );
        let flight_retained = registry.counter(
            "amgt_flight_retained_total",
            "Flight traces promoted to the retained store by the tail sampler.",
        );
        let hierarchy_levels = registry.gauge(
            "amgt_hierarchy_levels",
            "Levels in the most recently solved hierarchy.",
        );
        let hierarchy_operator_complexity = registry.gauge(
            "amgt_hierarchy_operator_complexity",
            "Operator complexity (sum of level nnz / finest nnz) of the most recent hierarchy.",
        );
        let hierarchy_grid_complexity = registry.gauge(
            "amgt_hierarchy_grid_complexity",
            "Grid complexity (sum of level rows / finest rows) of the most recent hierarchy.",
        );
        let hierarchy_level_rows = (0..MAX_TRACKED_LEVELS)
            .map(|k| {
                registry.gauge(
                    &format!("amgt_hierarchy_level_rows_{k}"),
                    &format!("Rows on level {k} of the most recent hierarchy (0 = absent)."),
                )
            })
            .collect();
        let dist_ranks = registry.gauge(
            "amgt_dist_ranks",
            "Rank count of the most recent distributed solve (0 = single-device only).",
        );
        let dist_halo_bytes = registry.counter(
            "amgt_dist_halo_bytes_total",
            "Cumulative halo-exchange traffic across distributed solves, in bytes.",
        );
        let worker_panics = registry.counter(
            "amgt_worker_panics_total",
            "Batches whose solve panicked (their unresolved jobs failed as internal errors).",
        );
        ServiceTelemetry {
            registry,
            jobs_completed,
            jobs_failed,
            jobs_inflight,
            queue_depth,
            cache_hits,
            cache_refreshes,
            cache_misses,
            cache_evictions,
            batch_occupancy,
            wall_latency,
            simulated_latency,
            solver_stagnations,
            solver_divergences,
            solver_nonfinite,
            flight_retained,
            hierarchy_levels,
            hierarchy_operator_complexity,
            hierarchy_grid_complexity,
            hierarchy_level_rows,
            dist_ranks,
            dist_halo_bytes,
            worker_panics,
        }
    }

    /// Publish the shape of a distributed solve: the rank count it ran on
    /// and the halo traffic it moved (accumulated across solves).
    pub fn record_dist_solve(&self, ranks: usize, halo_bytes: f64) {
        self.dist_ranks.set(ranks as f64);
        self.dist_halo_bytes.add(halo_bytes.max(0.0).round() as u64);
    }

    /// One flight trace was promoted to the retained store.
    pub fn record_flight_retained(&self) {
        self.flight_retained.inc();
    }

    /// Count one solver health event by kind.
    pub fn record_health_event(&self, kind: amgt_trace::HealthEventKind) {
        match kind {
            amgt_trace::HealthEventKind::Stagnation => self.solver_stagnations.inc(),
            amgt_trace::HealthEventKind::Divergence => self.solver_divergences.inc(),
            amgt_trace::HealthEventKind::NonFinite => self.solver_nonfinite.inc(),
        }
    }

    /// Publish the shape of the hierarchy a batch just solved with.
    pub fn record_hierarchy(&self, diag: &amgt_trace::HierarchyDiagnostics) {
        self.hierarchy_levels.set(diag.levels.len() as f64);
        self.hierarchy_operator_complexity
            .set(diag.operator_complexity);
        self.hierarchy_grid_complexity.set(diag.grid_complexity);
        for (k, gauge) in self.hierarchy_level_rows.iter().enumerate() {
            let rows = diag.levels.get(k).map_or(0, |l| l.rows);
            gauge.set(rows as f64);
        }
    }

    /// One batch solved `occupancy` RHS together.
    pub fn record_batch(&self, occupancy: usize) {
        assert!((1..=MAX_BATCH).contains(&occupancy));
        self.batch_occupancy[occupancy - 1].inc();
    }

    /// `n` jobs passed pre-flight and entered a batch solve.
    pub fn jobs_started(&self, n: usize) {
        self.jobs_inflight.add(n as f64);
    }

    /// `n` in-flight jobs completed (their handles resolved).
    pub fn jobs_finished(&self, n: usize) {
        self.jobs_inflight.add(-(n as f64));
    }

    /// Jobs currently being solved.
    pub fn inflight(&self) -> u64 {
        self.jobs_inflight.get().max(0.0) as u64
    }

    /// One job completed successfully.
    pub fn record_job(&self, wall_seconds: f64, simulated_seconds: f64) {
        self.jobs_completed.inc();
        self.wall_latency.observe(wall_seconds);
        self.simulated_latency.observe(simulated_seconds);
    }

    /// One job failed: rejected before solving, or failed by a panic.
    pub fn record_failure(&self) {
        self.jobs_failed.inc();
    }

    /// One batch's solve panicked.
    pub fn record_worker_panic(&self) {
        self.worker_panics.inc();
    }

    /// Serializable snapshot; queue depth and cache state are sampled by
    /// the caller (they live outside the telemetry).
    pub fn snapshot(&self, queue_depth: usize, cache: CacheStats) -> ServiceMetrics {
        let mut batch_occupancy = [0u64; MAX_BATCH];
        for (slot, counter) in batch_occupancy.iter_mut().zip(&self.batch_occupancy) {
            *slot = counter.get();
        }
        ServiceMetrics {
            queue_depth,
            jobs_inflight: self.inflight(),
            jobs_completed: self.jobs_completed.get(),
            jobs_failed: self.jobs_failed.get(),
            cache_hits: cache.hits,
            cache_refreshes: cache.refreshes,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            cache_hit_rate: cache.hit_rate(),
            batch_occupancy,
            p50_wall_seconds: self.wall_latency.quantile(0.50),
            p99_wall_seconds: self.wall_latency.quantile(0.99),
            p50_simulated_seconds: self.simulated_latency.quantile(0.50),
            p99_simulated_seconds: self.simulated_latency.quantile(0.99),
            solver_stagnations: self.solver_stagnations.get(),
            solver_divergences: self.solver_divergences.get(),
            solver_nonfinite: self.solver_nonfinite.get(),
            flight_retained_total: self.flight_retained.get(),
            hierarchy_levels: self.hierarchy_levels.get() as u64,
            hierarchy_operator_complexity: self.hierarchy_operator_complexity.get(),
            hierarchy_grid_complexity: self.hierarchy_grid_complexity.get(),
            dist_ranks: self.dist_ranks.get() as u64,
            dist_halo_bytes_total: self.dist_halo_bytes.get(),
            worker_panics: self.worker_panics.get(),
        }
    }

    /// Prometheus text exposition of every registered metric. Queue depth
    /// and cache state are written into their gauges at scrape time.
    pub fn render_prometheus(&self, queue_depth: usize, cache: CacheStats) -> String {
        self.queue_depth.set(queue_depth as f64);
        self.cache_hits.set(cache.hits as f64);
        self.cache_refreshes.set(cache.refreshes as f64);
        self.cache_misses.set(cache.misses as f64);
        self.cache_evictions.set(cache.evictions as f64);
        self.registry.render_prometheus()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_computed_from_histogram_pin_known_samples() {
        // 100 jobs all at 1.5 ms wall / 150 us simulated. With the decade
        // 1-2-5 bounds, every wall sample lands in the (1e-3, 2e-3]
        // bucket, so rank interpolation gives exactly:
        //   p50 -> 1e-3 + 1e-3 * 0.50 = 1.5e-3
        //   p99 -> 1e-3 + 1e-3 * 0.99 = 1.99e-3
        let t = ServiceTelemetry::new();
        for _ in 0..100 {
            t.record_job(1.5e-3, 1.5e-4);
        }
        let m = t.snapshot(0, CacheStats::default());
        assert_eq!(m.jobs_completed, 100);
        assert!((m.p50_wall_seconds - 1.5e-3).abs() < 1e-12);
        assert!((m.p99_wall_seconds - 1.99e-3).abs() < 1e-12);
        // Simulated samples land in (1e-4, 2e-4].
        assert!((m.p50_simulated_seconds - 1.5e-4).abs() < 1e-13);
        assert!((m.p99_simulated_seconds - 1.99e-4).abs() < 1e-13);
        // Quantiles are monotone in q.
        assert!(m.p99_wall_seconds >= m.p50_wall_seconds);
    }

    #[test]
    fn percentiles_split_across_buckets() {
        // 90 fast jobs at 0.8 ms, 10 slow at 80 ms: p50 stays in the fast
        // bucket (rank 50 of 90 in (5e-4, 1e-3]), p99 lands in the slow
        // one (rank 99 -> 9th of 10 in (5e-2, 1e-1]).
        let t = ServiceTelemetry::new();
        for _ in 0..90 {
            t.record_job(8e-4, 1e-4);
        }
        for _ in 0..10 {
            t.record_job(8e-2, 1e-4);
        }
        let m = t.snapshot(0, CacheStats::default());
        let p50 = 5e-4 + (1e-3 - 5e-4) * (50.0 / 90.0);
        let p99 = 5e-2 + (1e-1 - 5e-2) * (9.0 / 10.0);
        assert!(
            (m.p50_wall_seconds - p50).abs() < 1e-12,
            "{}",
            m.p50_wall_seconds
        );
        assert!(
            (m.p99_wall_seconds - p99).abs() < 1e-12,
            "{}",
            m.p99_wall_seconds
        );
    }

    #[test]
    fn inflight_gauge_tracks_started_and_finished() {
        let t = ServiceTelemetry::new();
        assert_eq!(t.inflight(), 0);
        t.jobs_started(5);
        t.jobs_finished(2);
        assert_eq!(t.inflight(), 3);
        assert_eq!(t.snapshot(0, CacheStats::default()).jobs_inflight, 3);
        t.jobs_finished(3);
        assert_eq!(t.inflight(), 0);
        let text = t.render_prometheus(0, CacheStats::default());
        assert!(text.contains("# TYPE amgt_jobs_inflight gauge"));
        assert!(text.contains("amgt_jobs_inflight 0.0\n"));
    }

    #[test]
    fn empty_telemetry_snapshots_zeroes() {
        let t = ServiceTelemetry::new();
        let m = t.snapshot(0, CacheStats::default());
        assert_eq!(m.jobs_completed, 0);
        assert_eq!(m.p50_wall_seconds, 0.0);
        assert_eq!(m.p99_simulated_seconds, 0.0);
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let t = ServiceTelemetry::new();
        t.record_batch(8);
        t.record_batch(1);
        t.record_job(0.25, 1e-4);
        let m = t.snapshot(
            3,
            CacheStats {
                hits: 9,
                misses: 1,
                ..Default::default()
            },
        );
        let json = serde::Serialize::to_json(&m);
        assert!(json.contains("\"queue_depth\":3"), "{json}");
        assert!(json.contains("\"cache_hit_rate\":0.9"), "{json}");
        assert!(
            json.contains("\"batch_occupancy\":[1,0,0,0,0,0,0,1]"),
            "{json}"
        );
        assert!(json.contains("\"jobs_completed\":1"), "{json}");
    }

    #[test]
    fn dist_metrics_track_rank_count_and_accumulate_traffic() {
        let t = ServiceTelemetry::new();
        let m = t.snapshot(0, CacheStats::default());
        assert_eq!(m.dist_ranks, 0);
        assert_eq!(m.dist_halo_bytes_total, 0);

        t.record_dist_solve(4, 65_536.0);
        t.record_dist_solve(2, 1_024.0);
        let m = t.snapshot(0, CacheStats::default());
        // The gauge tracks the most recent solve; the counter accumulates.
        assert_eq!(m.dist_ranks, 2);
        assert_eq!(m.dist_halo_bytes_total, 66_560);

        let text = t.render_prometheus(0, CacheStats::default());
        assert!(text.contains("# TYPE amgt_dist_ranks gauge"));
        assert!(text.contains("amgt_dist_ranks 2.0\n"));
        assert!(text.contains("# TYPE amgt_dist_halo_bytes_total counter"));
        assert!(text.contains("amgt_dist_halo_bytes_total 66560\n"));
    }

    #[test]
    fn prometheus_exposition_covers_all_metrics() {
        let t = ServiceTelemetry::new();
        t.record_job(1.5e-3, 1.5e-4);
        t.record_batch(2);
        t.record_failure();
        let text = t.render_prometheus(
            4,
            CacheStats {
                hits: 3,
                refreshes: 1,
                misses: 2,
                evictions: 1,
            },
        );
        assert!(text.contains("# TYPE amgt_jobs_completed_total counter"));
        assert!(text.contains("amgt_jobs_completed_total 1\n"));
        assert!(text.contains("amgt_jobs_failed_total 1\n"));
        assert!(text.contains("amgt_queue_depth 4.0\n"));
        assert!(text.contains("amgt_cache_hits 3.0\n"));
        assert!(text.contains("amgt_batches_size_2_total 1\n"));
        assert!(text.contains("# TYPE amgt_job_wall_seconds histogram"));
        assert!(text.contains("amgt_job_wall_seconds_count 1\n"));
        assert!(text.contains("le=\"+Inf\"} 1\n"));
    }
}
