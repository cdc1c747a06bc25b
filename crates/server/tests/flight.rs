//! End-to-end post-mortem tests for the flight recorder: a deliberately
//! divergent job submitted through the service must leave a retained
//! trace fetchable by its trace id over real HTTP, carrying the span
//! tree, the Divergence health event and the residual history — while a
//! healthy job under sampling probability 0 retains nothing.

use amgt::prelude::*;
use amgt_server::{IntrospectionServer, ServiceConfig, SolveRequest, SolverService};
use amgt_sparse::gen::{laplacian_2d, rhs_of_ones, Stencil2d};
use amgt_trace::{EventTag, HealthEventKind, RetainReason, SamplerConfig, SpanKind};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Synchronous service with deterministic tail sampling: probability 0, so
/// ONLY bad verdicts / rejections / slow-decile can retain (and the decile
/// rule needs more samples than these tests produce).
fn flight_service() -> SolverService {
    SolverService::new(ServiceConfig {
        workers: 0,
        flight_sampler: SamplerConfig {
            sample_probability: 0.0,
            ..SamplerConfig::default()
        },
        ..Default::default()
    })
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

fn divergent_config() -> AmgConfig {
    let mut cfg = AmgConfig::amgt_fp64();
    cfg.max_levels = 1; // Pure smoother iteration: guaranteed divergence.
    cfg.tolerance = 1e-10;
    cfg.max_iterations = 50;
    cfg
}

/// Plain-std HTTP GET: returns (status, body).
fn http_get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to introspection endpoint");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (_, body) = raw.split_once("\r\n\r\n").expect("response has a head");
    let status: u16 = raw
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    (status, body.to_string())
}

#[test]
fn divergent_job_leaves_a_post_mortem_trace_fetchable_by_id() {
    let service = flight_service();
    let a = divergent_matrix();
    let b = rhs_of_ones(&a);

    let handle = service
        .submit(SolveRequest::new(a, b, divergent_config()))
        .unwrap();
    let submitted_id = handle.trace_id();
    service.drain_pending();
    let outcome = handle.wait().unwrap();

    // The job's identity is stable from submission to outcome, and the
    // bad verdict forced retention.
    assert_eq!(outcome.trace_id, submitted_id);
    assert_eq!(outcome.verdict, amgt::SolveOutcome::Diverged);
    assert_eq!(outcome.flight_retained, Some(RetainReason::Verdict));

    // Structured inspection straight off the service.
    let trace = service
        .flight_trace(submitted_id)
        .expect("bad verdict retains a trace");
    assert_eq!(trace.trace_id, submitted_id);
    assert_eq!(trace.verdict, "Diverged");
    assert_eq!(trace.reason, RetainReason::Verdict);
    assert_eq!(trace.batch_size, 1);
    assert!(trace.wall_seconds >= 0.0);

    // Span tree: a Job root span with phase spans inside, all captured as
    // begin/end pairs in the ring.
    let begins: Vec<_> = trace
        .events
        .iter()
        .filter(|e| e.body.tag == EventTag::SpanBegin)
        .collect();
    assert!(
        begins
            .iter()
            .any(|e| e.body.span_kind == SpanKind::Job && e.body.name == "batch"),
        "no Job root span in {begins:?}"
    );
    assert!(
        begins
            .iter()
            .any(|e| e.body.span_kind == SpanKind::Phase && e.body.name.starts_with("solve")),
        "no solve phase span in {begins:?}"
    );
    let n_ends = trace
        .events
        .iter()
        .filter(|e| e.body.tag == EventTag::SpanEnd)
        .count();
    assert_eq!(begins.len(), n_ends, "unbalanced span events");

    // The Divergence health event arrived with level + precision
    // attribution intact.
    let health = trace.health_events();
    let div = health
        .iter()
        .find(|e| e.kind == HealthEventKind::Divergence)
        .expect("Divergence health event in the trace");
    assert_eq!(div.level, Some(0));
    assert_eq!(div.precision, Some("FP64"));
    assert_eq!(div.trace_id, submitted_id.get());

    // The residual history matches what the solve reported, iteration by
    // iteration. The service always runs the batched path, so this job's
    // residuals live under its batch column (0 — it rode alone).
    let residuals = trace.residual_history(Some(0));
    assert_eq!(residuals.len(), outcome.iterations);
    assert!(
        residuals.last().copied().unwrap() > 1.0,
        "diverged run must end above the initial residual: {residuals:?}"
    );

    // And every event in the trace belongs to this job.
    assert!(trace.events.iter().all(|e| e.trace_id == submitted_id));

    // The same trace over real HTTP, by id.
    let server = {
        let service = Arc::new(service);
        let s = IntrospectionServer::bind("127.0.0.1:0", Arc::clone(&service)).unwrap();
        (s, service)
    };
    let (http, service) = server;
    let hex = submitted_id.to_hex();

    let (status, body) = http_get(http.addr(), "/debug/flight");
    assert_eq!(status, 200);
    assert!(body.contains(&hex), "index missing the retained id: {body}");
    assert!(body.contains("\"reason\":\"Verdict\""), "{body}");

    let (status, body) = http_get(http.addr(), &format!("/debug/flight/{hex}"));
    assert_eq!(status, 200);
    assert!(body.contains(&format!("\"trace_id\":\"{hex}\"")), "{body}");
    assert!(body.contains("\"verdict\":\"Diverged\""), "{body}");
    assert!(body.contains("\"name\":\"Divergence\""), "{body}");
    assert!(body.contains("\"tag\":\"Residual\""), "{body}");

    // The exporters reconstruct a Recording from the same events.
    let (status, body) = http_get(http.addr(), &format!("/debug/flight/{hex}?format=chrome"));
    assert_eq!(status, 200);
    assert!(body.contains("\"traceEvents\":["), "{body}");
    let (status, body) = http_get(http.addr(), &format!("/debug/flight/{hex}?format=folded"));
    assert_eq!(status, 200);
    assert!(body.contains("batch"), "{body}");

    // Unknown and malformed ids miss cleanly.
    let (status, _) = http_get(http.addr(), "/debug/flight/0000000000000001");
    assert_eq!(status, 404);
    let (status, _) = http_get(http.addr(), "/debug/flight/zzz");
    assert_eq!(status, 404);
    let (status, _) = http_get(http.addr(), &format!("/debug/flight/{hex}?format=yaml"));
    assert_eq!(status, 400);

    http.stop();
    Arc::try_unwrap(service).ok().unwrap().shutdown();
}

#[test]
fn healthy_job_with_probability_zero_retains_nothing() {
    let service = flight_service();
    let a = laplacian_2d(16, 16, Stencil2d::Five);
    let b = rhs_of_ones(&a);
    let mut cfg = AmgConfig::amgt_fp64();
    cfg.tolerance = 1e-8;

    let handle = service.submit(SolveRequest::new(a, b, cfg)).unwrap();
    let id = handle.trace_id();
    service.drain_pending();
    let outcome = handle.wait().unwrap();

    assert!(outcome.converged);
    assert_eq!(outcome.flight_retained, None);
    assert!(service.flight_trace(id).is_none());
    assert!(service.flight_summaries().is_empty());

    // But the completed-jobs ring still remembers the job's identity and
    // verdict — identity is always-on even when the trace is not kept.
    let recent = service.recent_jobs();
    assert_eq!(recent.len(), 1);
    assert_eq!(recent[0].trace_id, id);
    assert_eq!(recent[0].verdict, "Converged");
    assert_eq!(recent[0].retained, None);
    assert_eq!(recent[0].batch_size, 1);

    service.shutdown();
}

#[test]
fn shutdown_dumps_retained_traces_to_flight_dir() {
    let dir = std::env::temp_dir().join(format!("amgt-flight-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let service = SolverService::new(ServiceConfig {
        workers: 0,
        flight_sampler: SamplerConfig {
            sample_probability: 0.0,
            ..SamplerConfig::default()
        },
        flight_dir: Some(dir.clone()),
        ..Default::default()
    });
    let a = divergent_matrix();
    let b = rhs_of_ones(&a);
    let handle = service
        .submit(SolveRequest::new(a, b, divergent_config()))
        .unwrap();
    let id = handle.trace_id();
    service.drain_pending();
    handle.wait().unwrap();
    service.shutdown();

    let path = dir.join(format!("amgt-flight-{}.json", id.to_hex()));
    let text = std::fs::read_to_string(&path).expect("shutdown dumped the retained trace");
    assert!(text.contains("\"verdict\":\"Diverged\""));
    assert!(text.contains(&format!("\"trace_id\":\"{}\"", id.to_hex())));
    let _ = std::fs::remove_dir_all(&dir);
}
