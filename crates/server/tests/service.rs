//! End-to-end tests of the solve service: backpressure, deadlines,
//! cancellation, graceful drain, cache behaviour, batching and metrics.

use amgt::prelude::*;
use amgt_server::{
    CacheOutcome, JobError, ServiceConfig, SolveRequest, SolverService, SubmitError,
};
use amgt_sparse::gen::{laplacian_2d, rhs_of_ones, Stencil2d};
use std::time::{Duration, Instant};

fn test_matrix() -> Csr {
    laplacian_2d(14, 14, Stencil2d::Five)
}

fn test_config() -> AmgConfig {
    let mut cfg = AmgConfig::amgt_fp64();
    cfg.tolerance = 1e-8;
    cfg.max_iterations = 40;
    cfg
}

/// Synchronous service: no workers, jobs queue until shutdown drains them.
fn sync_service(queue_capacity: usize) -> SolverService {
    SolverService::new(ServiceConfig {
        workers: 0,
        queue_capacity,
        batch_window: Duration::from_millis(1),
        ..Default::default()
    })
}

#[test]
fn queue_full_backpressure() {
    let service = sync_service(2);
    let a = test_matrix();
    let b = rhs_of_ones(&a);
    let cfg = test_config();
    let _h1 = service
        .submit(SolveRequest::new(a.clone(), b.clone(), cfg.clone()))
        .unwrap();
    let _h2 = service
        .submit(SolveRequest::new(a.clone(), b.clone(), cfg.clone()))
        .unwrap();
    let third = service.submit(SolveRequest::new(a, b, cfg));
    assert!(matches!(third, Err(SubmitError::QueueFull)));
    let m = service.metrics();
    assert_eq!(m.queue_depth, 2);
    service.shutdown();
}

#[test]
fn deadline_exceeded_before_processing() {
    let service = sync_service(8);
    let a = test_matrix();
    let b = rhs_of_ones(&a);
    let expired = service
        .submit(
            SolveRequest::new(a.clone(), b.clone(), test_config()).with_deadline(Duration::ZERO),
        )
        .unwrap();
    let healthy = service
        .submit(SolveRequest::new(a, b, test_config()))
        .unwrap();
    std::thread::sleep(Duration::from_millis(2));
    service.shutdown();
    assert_eq!(expired.wait().unwrap_err(), JobError::DeadlineExceeded);
    assert!(healthy.wait().unwrap().converged);
}

#[test]
fn cancellation_before_processing() {
    let service = sync_service(8);
    let a = test_matrix();
    let b = rhs_of_ones(&a);
    let job = service
        .submit(SolveRequest::new(a, b, test_config()))
        .unwrap();
    assert!(job.try_wait().is_none());
    job.cancel();
    service.shutdown();
    assert_eq!(job.wait().unwrap_err(), JobError::Cancelled);
}

#[test]
fn shutdown_drains_all_queued_jobs() {
    let service = sync_service(16);
    let a = test_matrix();
    let cfg = test_config();
    let handles: Vec<_> = (0..5)
        .map(|j| {
            let b: Vec<f64> = (0..a.nrows())
                .map(|i| ((i + j) as f64 * 0.7).cos())
                .collect();
            service
                .submit(SolveRequest::new(a.clone(), b, cfg.clone()))
                .unwrap()
        })
        .collect();
    service.shutdown();
    for h in &handles {
        let outcome = h.wait().unwrap();
        assert!(outcome.converged, "relres {}", outcome.relative_residual);
        assert!(outcome.relative_residual < 1e-8);
    }
}

#[test]
fn rejects_submit_after_shutdown_flag() {
    // Shutdown consumes the service, so test the invalid-request path that
    // shares the failure plumbing instead: a rectangular matrix.
    let service = sync_service(4);
    let bad = Csr::from_triplets(2, 3, &[(0, 0, 1.0), (1, 2, 2.0)]);
    let job = service
        .submit(SolveRequest::new(bad, vec![1.0, 1.0], test_config()))
        .unwrap();
    service.shutdown();
    assert!(matches!(job.wait(), Err(JobError::Invalid(_))));
}

#[test]
fn repeat_solves_hit_the_hierarchy_cache() {
    let service = sync_service(16);
    let a = test_matrix();
    let cfg = test_config();

    // Same system twice: miss then hit.
    let h1 = service
        .submit(SolveRequest::new(a.clone(), rhs_of_ones(&a), cfg.clone()))
        .unwrap();
    service.drain_pending();
    let h2 = service
        .submit(SolveRequest::new(a.clone(), rhs_of_ones(&a), cfg.clone()))
        .unwrap();
    service.drain_pending();

    // Same pattern, scaled values: refresh.
    let mut scaled = a.clone();
    for v in scaled.vals.iter_mut() {
        *v *= 1.25;
    }
    let h3 = service
        .submit(SolveRequest::new(scaled, rhs_of_ones(&a), cfg))
        .unwrap();
    service.drain_pending();

    let o1 = h1.wait().unwrap();
    let o2 = h2.wait().unwrap();
    let o3 = h3.wait().unwrap();
    assert_eq!(o1.cache, CacheOutcome::Miss);
    assert_eq!(o2.cache, CacheOutcome::Hit);
    assert_eq!(o3.cache, CacheOutcome::Refresh);
    assert!(o1.converged && o2.converged && o3.converged);
    // The cached solve skipped setup: strictly less simulated time.
    assert!(
        o2.simulated_seconds < o1.simulated_seconds,
        "hit {} vs miss {}",
        o2.simulated_seconds,
        o1.simulated_seconds
    );

    let m = service.metrics();
    assert_eq!((m.cache_misses, m.cache_hits, m.cache_refreshes), (1, 1, 1));
    assert!((m.cache_hit_rate - 2.0 / 3.0).abs() < 1e-12);
    service.shutdown();
}

#[test]
fn batching_coalesces_rhs_against_one_system() {
    let service = sync_service(16);
    let a = test_matrix();
    let cfg = test_config();
    let handles: Vec<_> = (0..8)
        .map(|j| {
            let b: Vec<f64> = (0..a.nrows())
                .map(|i| ((i * (j + 1)) as f64).sin())
                .collect();
            service
                .submit(SolveRequest::new(a.clone(), b, cfg.clone()))
                .unwrap()
        })
        .collect();
    service.shutdown();
    for h in &handles {
        let o = h.wait().unwrap();
        assert_eq!(o.batch_size, 8, "all eight RHS share one batched V-cycle");
        assert!(o.converged);
        assert!(o.relative_residual < 1e-8);
    }
}

#[test]
fn batched_service_solution_matches_direct_solve() {
    let a = test_matrix();
    let cfg = test_config();
    let columns: Vec<Vec<f64>> = (0..4)
        .map(|j| {
            (0..a.nrows())
                .map(|i| ((i + 3 * j) as f64 * 0.31).sin())
                .collect()
        })
        .collect();

    let service = sync_service(16);
    let handles: Vec<_> = columns
        .iter()
        .map(|b| {
            service
                .submit(SolveRequest::new(a.clone(), b.clone(), cfg.clone()))
                .unwrap()
        })
        .collect();
    service.shutdown();

    let device = Device::new(GpuSpec::a100());
    let h = setup(&device, &cfg, a.clone());
    for (b, handle) in columns.iter().zip(&handles) {
        let outcome = handle.wait().unwrap();
        let mut x = vec![0.0; a.nrows()];
        solve(&device, &cfg, &h, b, &mut x);
        for (got, want) in outcome.x.iter().zip(&x) {
            assert_eq!(got.to_bits(), want.to_bits(), "{got} vs {want}");
        }
    }
}

/// A service-wide `exec: Some(Native)` override must leave every solution
/// bitwise identical to the emulator path (the exec backends agree at every
/// precision, so the override is invisible to clients).
#[test]
fn native_exec_override_is_bitwise_invisible() {
    let a = test_matrix();
    let cfg = test_config(); // exec: Simulated — overridden service-side.
    let b = rhs_of_ones(&a);

    let native = SolverService::new(ServiceConfig {
        workers: 0,
        queue_capacity: 8,
        batch_window: Duration::from_millis(1),
        exec: Some(ExecMode::Native),
        ..Default::default()
    });
    let handle = native
        .submit(SolveRequest::new(a.clone(), b.clone(), cfg.clone()))
        .unwrap();
    native.shutdown();
    let outcome = handle.wait().unwrap();

    let device = Device::new(GpuSpec::a100());
    let h = setup(&device, &cfg, a.clone());
    let mut x = vec![0.0; a.nrows()];
    solve(&device, &cfg, &h, &b, &mut x);
    assert!(outcome.converged);
    for (got, want) in outcome.x.iter().zip(&x) {
        assert_eq!(got.to_bits(), want.to_bits(), "{got} vs {want}");
    }
}

#[test]
fn worker_pool_smoke() {
    let service = SolverService::new(ServiceConfig {
        workers: 2,
        queue_capacity: 64,
        batch_window: Duration::from_millis(5),
        ..Default::default()
    });
    let a = test_matrix();
    let cfg = test_config();
    let handles: Vec<_> = (0..12)
        .map(|j| {
            let b: Vec<f64> = (0..a.nrows())
                .map(|i| ((i + j) as f64 * 0.13).cos())
                .collect();
            service
                .submit(SolveRequest::new(a.clone(), b, cfg.clone()))
                .unwrap()
        })
        .collect();
    for h in &handles {
        let o = h.wait().unwrap();
        assert!(o.converged);
        assert!(o.batch_size >= 1);
    }
    let m = service.metrics();
    assert_eq!(m.jobs_completed, 12);
    assert_eq!(m.jobs_failed, 0);
    assert!(m.p50_wall_seconds > 0.0);
    assert!(m.p99_simulated_seconds >= m.p50_simulated_seconds);
    let jobs_in_batches: usize = m
        .batch_occupancy
        .iter()
        .enumerate()
        .map(|(i, &c)| (i + 1) * c as usize)
        .sum();
    assert_eq!(jobs_in_batches, 12);
    // Metrics snapshot is JSON-serializable for scraping.
    let json = serde::Serialize::to_json(&m);
    assert!(json.contains("\"jobs_completed\":12"), "{json}");
    service.shutdown();
}

#[test]
fn prometheus_exposition_reflects_service_state() {
    let service = sync_service(16);
    let a = test_matrix();
    let cfg = test_config();
    let h1 = service
        .submit(SolveRequest::new(a.clone(), rhs_of_ones(&a), cfg.clone()))
        .unwrap();
    let h2 = service
        .submit(SolveRequest::new(a.clone(), rhs_of_ones(&a), cfg.clone()))
        .unwrap();
    service.drain_pending();
    assert!(h1.wait().unwrap().converged && h2.wait().unwrap().converged);

    let text = service.metrics_prometheus();
    assert!(
        text.contains("# TYPE amgt_jobs_completed_total counter"),
        "{text}"
    );
    assert!(text.contains("amgt_jobs_completed_total 2\n"), "{text}");
    assert!(text.contains("amgt_jobs_failed_total 0\n"), "{text}");
    assert!(text.contains("amgt_queue_depth 0.0\n"), "{text}");
    // The two compatible jobs coalesced into one batch of two.
    assert!(text.contains("amgt_batches_size_2_total 1\n"), "{text}");
    assert!(text.contains("amgt_cache_misses 1.0\n"), "{text}");
    assert!(text.contains("amgt_cache_hits 0.0\n"), "{text}");
    // Latency histograms are exposed with cumulative buckets.
    assert!(
        text.contains("# TYPE amgt_job_wall_seconds histogram"),
        "{text}"
    );
    assert!(text.contains("amgt_job_wall_seconds_count 2\n"), "{text}");
    assert!(
        text.contains("amgt_job_simulated_seconds_bucket{le=\"+Inf\"} 2\n"),
        "{text}"
    );
    service.shutdown();
}

#[test]
fn per_job_trace_capture_returns_batch_recording() {
    let service = sync_service(16);
    let a = test_matrix();
    let cfg = test_config();
    // One traced job and one untraced job against the same system: they
    // coalesce into one batch, only the traced one gets the recording.
    let traced = service
        .submit(SolveRequest::new(a.clone(), rhs_of_ones(&a), cfg.clone()).with_trace())
        .unwrap();
    let plain = service
        .submit(SolveRequest::new(a.clone(), rhs_of_ones(&a), cfg.clone()))
        .unwrap();
    service.shutdown();

    let plain_outcome = plain.wait().unwrap();
    assert!(plain_outcome.trace.is_none());

    let outcome = traced.wait().unwrap();
    assert_eq!(outcome.batch_size, 2);
    let rec = outcome
        .trace
        .as_deref()
        .expect("traced job has a recording");
    assert!(!rec.is_empty());

    // The batch is one Job span rooting the solver's phase spans.
    let roots = rec.children(None);
    assert_eq!(roots.len(), 1, "one root span: {roots:?}");
    let job_span = roots[0];
    assert_eq!(job_span.kind, amgt_trace::SpanKind::Job);
    assert_eq!(job_span.name, "batch x2");
    assert!(job_span.closed);
    let phases: Vec<&str> = rec
        .children(Some(job_span.id))
        .iter()
        .map(|s| s.name.as_str())
        .collect();
    assert_eq!(phases, ["setup", "solve batched"], "cache miss: full setup");

    // Kernel time inside the recording matches the batch's simulated time.
    assert!(
        (rec.total_kernel_seconds() - outcome.simulated_seconds).abs()
            <= 1e-12 * outcome.simulated_seconds.max(1.0)
    );
    // And it exports.
    let json = amgt_trace::chrome_trace(rec);
    assert!(json.contains("\"traceEvents\":["));
    assert!(json.contains("batch x2"));
}

/// 2D Laplacian shifted to negative definiteness (`L - 9 I`): the L1-Jacobi
/// iteration matrix has spectral radius ~2, so plain V-cycles diverge.
fn divergent_matrix() -> Csr {
    let base = laplacian_2d(10, 10, Stencil2d::Five);
    let mut shift = Csr::identity(base.nrows());
    for v in shift.vals.iter_mut() {
        *v = -9.0;
    }
    base.add(&shift)
}

#[test]
fn divergent_solve_yields_diverged_verdict_and_health_metrics() {
    let service = sync_service(8);
    let a = divergent_matrix();
    let b = rhs_of_ones(&a);
    let mut cfg = AmgConfig::amgt_fp64();
    cfg.max_levels = 1; // Pure smoother iteration: guaranteed divergence.
    cfg.tolerance = 1e-10;
    cfg.max_iterations = 50;

    let handle = service.submit(SolveRequest::new(a, b, cfg)).unwrap();
    service.drain_pending();
    let outcome = handle.wait().unwrap();

    assert!(!outcome.converged);
    assert_eq!(outcome.verdict, amgt::SolveOutcome::Diverged);
    assert!(outcome.verdict.is_numerical_failure());
    assert!(outcome.convergence_factor > 1.0);
    assert!(
        outcome.iterations < 50,
        "divergence aborts early, ran {}",
        outcome.iterations
    );
    assert!(outcome
        .health_events
        .iter()
        .any(|e| e.kind == amgt_trace::HealthEventKind::Divergence));

    let m = service.metrics();
    assert_eq!(m.solver_divergences, 1);
    assert_eq!(m.solver_nonfinite, 0);
    assert_eq!(m.hierarchy_levels, 1);
    assert!(m.hierarchy_operator_complexity >= 1.0);

    let text = service.metrics_prometheus();
    assert!(text.contains("amgt_solver_divergences_total 1\n"), "{text}");
    assert!(text.contains("amgt_solver_stagnations_total 0\n"));
    assert!(text.contains("amgt_hierarchy_levels 1.0\n"));
    assert!(text.contains("amgt_hierarchy_level_rows_0 100.0\n"));
    service.shutdown();
}

#[test]
fn healthy_service_solve_reports_converged_verdict() {
    let service = sync_service(8);
    let a = test_matrix();
    let b = rhs_of_ones(&a);
    let handle = service
        .submit(SolveRequest::new(a, b, test_config()))
        .unwrap();
    service.drain_pending();
    let outcome = handle.wait().unwrap();
    assert!(outcome.converged);
    assert_eq!(outcome.verdict, amgt::SolveOutcome::Converged);
    assert!(outcome.verdict.is_converged());
    assert!(outcome.convergence_factor > 0.0 && outcome.convergence_factor < 1.0);
    assert!(outcome.health_events.is_empty());
    let m = service.metrics();
    assert_eq!(m.solver_divergences, 0);
    assert_eq!(m.solver_stagnations, 0);
    assert!(m.hierarchy_levels >= 2);
    assert!(m.hierarchy_operator_complexity >= 1.0);
    service.shutdown();
}

/// A batch whose solve panics (a 3x3 matrix whose public `col_idx` names
/// column 7: neither `submit` nor the pre-flight checks read columns, so
/// the solve indexes out of range) fails its job with
/// `JobError::Internal` instead of killing the worker: the handle resolves
/// within a second, the panic is counted, and a healthy job submitted next
/// on the same 1-worker service succeeds.
#[test]
fn panicking_batch_fails_its_jobs_and_the_worker_keeps_serving() {
    let service = SolverService::new(ServiceConfig {
        workers: 1,
        batch_window: Duration::from_millis(1),
        ..Default::default()
    });
    let cfg = test_config();
    let mut out_of_range = Csr::identity(3);
    out_of_range.col_idx[2] = 7;
    let start = Instant::now();
    let bad = service
        .submit(SolveRequest::new(out_of_range, vec![1.0; 3], cfg.clone()))
        .unwrap();
    let result = loop {
        if let Some(r) = bad.try_wait() {
            break r;
        }
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "the panicking job is still unresolved after 1 s"
        );
        std::thread::yield_now();
    };
    match result {
        Err(JobError::Internal(why)) => assert!(why.contains("out of range"), "{why}"),
        Err(e) => panic!("expected an internal error, got {e}"),
        Ok(_) => panic!("a column out of range cannot solve"),
    }

    let a = test_matrix();
    let b = rhs_of_ones(&a);
    let good = service
        .submit(SolveRequest::new(a, b, cfg))
        .unwrap()
        .wait()
        .expect("the worker survived the panic");
    assert!(good.converged);
    let m = service.metrics();
    assert_eq!(m.worker_panics, 1);
    assert_eq!(m.jobs_failed, 1);
    assert_eq!(m.jobs_completed, 1);
    assert_eq!(m.jobs_inflight, 0);
    assert!(service
        .metrics_prometheus()
        .contains("amgt_worker_panics_total 1\n"));
    service.shutdown();
}
