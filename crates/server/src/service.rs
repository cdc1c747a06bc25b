//! The solve service: bounded job queue, worker pool over simulated
//! devices, fingerprint-keyed hierarchy cache and batched-RHS V-cycles.
//!
//! Data flow:
//!
//! ```text
//! submit() --bounded queue--> worker (one simulated Device each)
//!                               |- coalesce <= MAX_BATCH compatible jobs
//!                               |- hierarchy cache: hit / refresh / miss
//!                               |- solve_batched (fused SpMM V-cycles)
//!                               '- complete JobHandles, record metrics
//! ```
//!
//! Jobs are *compatible* (batchable) when they share the exact system —
//! structural fingerprint, value hash and solver config — so a single
//! hierarchy and one batched V-cycle serves all of them. With `workers: 0`
//! the service runs synchronously: nothing drains the queue until
//! [`SolverService::shutdown`], which processes the backlog inline — the
//! deterministic mode the backpressure/cancellation/drain tests rely on.

use crate::cache::{CacheKey, CacheOutcome, HierarchyCache};
use crate::fingerprint::{config_hash, of_csr, value_hash};
use crate::flight::{CompletedJob, FlightStore, FlightTraceSummary, DEFAULT_RETAIN_CAPACITY};
use crate::metrics::{ServiceMetrics, ServiceTelemetry, MAX_BATCH};
use amgt::prelude::*;
use amgt::{resetup, setup, solve_batched_with_workspace, Hierarchy, KernelPolicy, SolveWorkspace};
use amgt_trace::flight;
use amgt_trace::{
    FlightTrace, Recorder, Recording, RetainReason, SamplerConfig, SpanKind, SpanLabel,
    TailSampler, TraceId,
};
use amgt_tune::PolicyStore;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Service construction parameters.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads, each owning one simulated device. `0` = synchronous
    /// mode: jobs queue up and are drained by [`SolverService::shutdown`].
    ///
    /// Composition with the kernel thread pool: with a global `rayon` pool
    /// of width 2 or more, each worker's set-ups and solves run on the
    /// pool (the worker waits for them), so at most the pool's width of
    /// compute threads run at once; without one, each worker computes on
    /// its own thread. Oversubscription of the host is detected at
    /// construction and warned about, never fatal — results are bitwise
    /// identical at any width, only latency suffers.
    pub workers: usize,
    /// Bounded submission-queue capacity; a full queue rejects submits.
    pub queue_capacity: usize,
    /// Upper bound on RHS coalesced into one batched V-cycle (<= 8).
    pub batch_max: usize,
    /// How long a worker waits for more compatible jobs before solving an
    /// under-full batch.
    pub batch_window: Duration,
    /// Hierarchies retained in the LRU cache.
    pub cache_capacity: usize,
    /// Simulated GPU each worker models.
    pub spec: GpuSpec,
    /// Optional `amgt-tune` policy cache (JSON file). When set, each batch
    /// whose request leaves the kernel policy at the paper default consults
    /// the cache by structural fingerprint and adopts the tuned
    /// [`KernelPolicy`] on a hit. Requests that carry an explicit
    /// non-default policy are never overridden. The file is read once at
    /// service construction; a missing or corrupt file degrades to "no
    /// tuned policies" without failing.
    pub policy_store: Option<PathBuf>,
    /// Execution backend forced service-wide. `None` honors each request's
    /// [`AmgConfig::exec`]; `Some` overrides every batch (results are
    /// bitwise identical either way, so the override only changes host
    /// wall clock and never observable solver behaviour).
    pub exec: Option<ExecMode>,
    /// Tail-sampling policy for the always-on flight recorder (one bounded
    /// recorder per worker device): bad verdicts, panicked batches and
    /// pre-flight rejections are always retained; healthy jobs are
    /// retained at `sample_probability` or when they land in the slowest
    /// latency decile.
    pub flight_sampler: SamplerConfig,
    /// Retained flight traces kept before oldest-first eviction.
    pub flight_retain: usize,
    /// Dump every retained flight trace into this directory at shutdown
    /// (`amgt-flight-<trace_id>.json`, one file per trace).
    pub flight_dir: Option<PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            batch_max: MAX_BATCH,
            batch_window: Duration::from_millis(2),
            cache_capacity: 8,
            spec: GpuSpec::a100(),
            policy_store: None,
            exec: None,
            flight_sampler: SamplerConfig::default(),
            flight_retain: DEFAULT_RETAIN_CAPACITY,
            flight_dir: None,
        }
    }
}

/// One solve request: a system, a right-hand side and a solver config.
#[derive(Clone, Debug)]
pub struct SolveRequest {
    pub matrix: Csr,
    pub rhs: Vec<f64>,
    pub config: AmgConfig,
    /// Give up if the job has not *started* within this budget of its
    /// submission (checked when a worker picks the job up).
    pub deadline: Option<Duration>,
    /// Return the structured trace of the batch this job solves in on
    /// [`JobOutcome::trace`] (the worker's recorder captures every batch;
    /// this asks for its [`Recording`]).
    pub capture_trace: bool,
}

impl SolveRequest {
    pub fn new(matrix: Csr, rhs: Vec<f64>, config: AmgConfig) -> Self {
        SolveRequest {
            matrix,
            rhs,
            config,
            deadline: None,
            capture_trace: false,
        }
    }

    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Request per-job trace capture (span tree + kernel events).
    pub fn with_trace(mut self) -> Self {
        self.capture_trace = true;
        self
    }
}

/// A completed solve.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// Request identity: generated at enqueue, threaded through the
    /// recorder, log fields, health events and the retained-trace store.
    pub trace_id: TraceId,
    /// Why this job's flight trace was retained, if the tail sampler
    /// promoted it (fetch it at `/debug/flight/<trace_id>`).
    pub flight_retained: Option<RetainReason>,
    pub x: Vec<f64>,
    pub relative_residual: f64,
    pub iterations: usize,
    pub converged: bool,
    /// Numerical-health verdict for this job's column: distinguishes
    /// "ran out of iterations" from "diverged" or "went non-finite".
    pub verdict: amgt::SolveOutcome,
    /// Geometric-mean residual reduction per iteration for this column.
    pub convergence_factor: f64,
    /// Health events attributed to this job's column (plus batch-wide
    /// events carrying no column).
    pub health_events: Vec<amgt_trace::HealthEvent>,
    /// How the hierarchy was obtained.
    pub cache: CacheOutcome,
    /// RHS columns that shared this job's batched V-cycle (>= 1).
    pub batch_size: usize,
    /// Simulated device time attributed to this job's batch.
    pub simulated_seconds: f64,
    /// Wall-clock time from submission to completion.
    pub wall_seconds: f64,
    /// Structured trace of the batch, when the request asked for one.
    /// Shared (`Arc`) across jobs coalesced into the same batch, and with
    /// the retained flight traces of the batch.
    pub trace: Option<Arc<Recording>>,
    /// The kernel policy the solve actually ran under.
    pub policy: KernelPolicy,
    /// Whether `policy` was adopted from the tuned-policy cache (as opposed
    /// to coming from the request's configuration).
    pub policy_tuned: bool,
}

/// Why a job failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobError {
    /// The deadline elapsed before a worker picked the job up.
    DeadlineExceeded,
    /// The handle was cancelled before processing started.
    Cancelled,
    /// The matrix was rejected (non-square, RHS length mismatch, or a
    /// malformed CSR structure).
    Invalid(String),
    /// Solving the job's batch panicked (the message is the panic's). The
    /// worker that ran it keeps serving.
    Internal(String),
}

/// Why a submission was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// Backpressure: the bounded queue is full.
    QueueFull,
    /// The service is shutting down.
    Shutdown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "submission queue is full"),
            SubmitError::Shutdown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::DeadlineExceeded => write!(f, "deadline exceeded before processing"),
            JobError::Cancelled => write!(f, "job cancelled"),
            JobError::Invalid(why) => write!(f, "invalid request: {why}"),
            JobError::Internal(why) => write!(f, "internal error: {why}"),
        }
    }
}

impl std::error::Error for JobError {}

/// One-shot completion slot shared between a worker and a [`JobHandle`].
struct JobState {
    result: Mutex<Option<Result<JobOutcome, JobError>>>,
    done: Condvar,
    cancelled: AtomicBool,
}

/// Caller-side handle to a submitted job.
pub struct JobHandle {
    state: Arc<JobState>,
    trace_id: TraceId,
}

impl JobHandle {
    /// The job's request identity, assigned at enqueue. Quote it when
    /// reporting a problem: the service's flight recorder indexes retained
    /// traces by it.
    pub fn trace_id(&self) -> TraceId {
        self.trace_id
    }

    /// Block until the job completes (or fails).
    pub fn wait(&self) -> Result<JobOutcome, JobError> {
        let mut slot = self.state.result.lock().unwrap();
        while slot.is_none() {
            slot = self.state.done.wait(slot).unwrap();
        }
        slot.as_ref().unwrap().clone()
    }

    /// Non-blocking probe; `None` while the job is still queued or running.
    pub fn try_wait(&self) -> Option<Result<JobOutcome, JobError>> {
        self.state.result.lock().unwrap().clone()
    }

    /// Request cancellation. Effective until a worker starts the job;
    /// already-started solves run to completion.
    pub fn cancel(&self) {
        self.state.cancelled.store(true, Ordering::SeqCst);
    }
}

/// Batching identity: jobs with equal keys solve the same system under the
/// same config and may share one hierarchy and one batched V-cycle.
#[derive(Clone, Copy, PartialEq, Eq)]
struct BatchKey {
    cache_key: CacheKey,
    value_hash: u64,
}

struct Job {
    request: SolveRequest,
    key: BatchKey,
    submitted: Instant,
    state: Arc<JobState>,
    trace_id: TraceId,
}

impl Job {
    fn complete(&self, result: Result<JobOutcome, JobError>) {
        let mut slot = self.state.result.lock().unwrap();
        *slot = Some(result);
        self.state.done.notify_all();
    }
}

// The slot is a plain `Option` written in one step, so a guard poisoned by
// a panic elsewhere still holds a valid value.
impl JobState {
    fn is_resolved(&self) -> bool {
        self.result
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .is_some()
    }

    fn fail(&self, error: JobError) {
        let mut slot = self.result.lock().unwrap_or_else(PoisonError::into_inner);
        *slot = Some(Err(error));
        self.done.notify_all();
    }
}

struct Shared {
    cache: Mutex<HierarchyCache>,
    telemetry: ServiceTelemetry,
    shutdown: AtomicBool,
    /// Tuned-policy cache, loaded once at construction (read-only after).
    policies: PolicyStore,
    /// Service-wide execution-backend override (see [`ServiceConfig::exec`]).
    exec_override: Option<ExecMode>,
    /// Retained flight traces + the recently-completed-jobs ring.
    flight: FlightStore,
    /// Tail sampler deciding which finished jobs keep their flight trace.
    sampler: TailSampler,
}

/// The in-process multi-tenant solve service.
pub struct SolverService {
    config: ServiceConfig,
    tx: Sender<Job>,
    /// Retained for synchronous drain (`workers == 0`) and queue-depth
    /// metrics; workers hold clones.
    rx: Receiver<Job>,
    shared: Arc<Shared>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl SolverService {
    pub fn new(config: ServiceConfig) -> Self {
        assert!(config.queue_capacity >= 1);
        assert!(
            (1..=MAX_BATCH).contains(&config.batch_max),
            "batch_max must be 1..=8"
        );
        // Best-effort oversubscription check: workers compute on the
        // shared kernel pool when there is one and on their own threads
        // otherwise, so warn (and proceed) when that count clearly exceeds
        // the host.
        let pool_width = rayon::current_num_threads();
        let compute = if pool_width > 1 {
            pool_width
        } else {
            config.workers
        };
        let cores = thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        if compute > 2 * cores {
            eprintln!(
                "amgt-server: {} worker(s) on a kernel pool of width {} run {} compute \
                 threads, which oversubscribes {} core(s); results are unaffected but \
                 latency will suffer — shrink `workers` or `--threads`",
                config.workers, pool_width, compute, cores
            );
        }
        let (tx, rx) = bounded::<Job>(config.queue_capacity);
        let policies = match &config.policy_store {
            Some(path) => PolicyStore::open(path),
            None => PolicyStore::in_memory(),
        };
        let shared = Arc::new(Shared {
            cache: Mutex::new(HierarchyCache::new(config.cache_capacity)),
            telemetry: ServiceTelemetry::new(),
            shutdown: AtomicBool::new(false),
            policies,
            exec_override: config.exec,
            flight: FlightStore::new(config.flight_retain),
            sampler: TailSampler::new(config.flight_sampler),
        });
        let workers = (0..config.workers)
            .map(|_| {
                let rx = rx.clone();
                let shared = Arc::clone(&shared);
                let cfg = config.clone();
                thread::spawn(move || worker_loop(&cfg, &rx, &shared))
            })
            .collect();
        SolverService {
            config,
            tx,
            rx,
            shared,
            workers,
        }
    }

    /// Enqueue a solve. Returns immediately with a handle; rejects with
    /// [`SubmitError::QueueFull`] when the bounded queue is at capacity.
    pub fn submit(&self, request: SolveRequest) -> Result<JobHandle, SubmitError> {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return Err(SubmitError::Shutdown);
        }
        let key = BatchKey {
            cache_key: CacheKey {
                fingerprint: of_csr(&request.matrix),
                config_hash: config_hash(&request.config),
            },
            value_hash: value_hash(&request.matrix),
        };
        let state = Arc::new(JobState {
            result: Mutex::new(None),
            done: Condvar::new(),
            cancelled: AtomicBool::new(false),
        });
        let trace_id = TraceId::generate();
        let job = Job {
            request,
            key,
            submitted: Instant::now(),
            state: Arc::clone(&state),
            trace_id,
        };
        match self.tx.try_send(job) {
            Ok(()) => Ok(JobHandle { state, trace_id }),
            Err(TrySendError::Full(_)) => Err(SubmitError::QueueFull),
            Err(TrySendError::Disconnected(_)) => Err(SubmitError::Shutdown),
        }
    }

    /// Index of retained flight traces (newest last).
    pub fn flight_summaries(&self) -> Vec<FlightTraceSummary> {
        self.shared.flight.summaries()
    }

    /// The retained flight trace for `id`, if the tail sampler promoted it
    /// and it has not been evicted.
    pub fn flight_trace(&self, id: TraceId) -> Option<FlightTrace> {
        self.shared.flight.trace(id)
    }

    /// Recently completed jobs (bounded ring, oldest first).
    pub fn recent_jobs(&self) -> Vec<CompletedJob> {
        self.shared.flight.recent()
    }

    /// Write every retained flight trace into `dir`; returns how many
    /// files were written.
    pub fn dump_flight(&self, dir: &std::path::Path) -> std::io::Result<usize> {
        self.shared.flight.dump_to_dir(dir)
    }

    /// The configuration the service was constructed with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Current metrics snapshot.
    pub fn metrics(&self) -> ServiceMetrics {
        let cache = self.shared.cache.lock().unwrap().stats();
        self.shared.telemetry.snapshot(self.rx.len(), cache)
    }

    /// Prometheus text exposition of the service metrics, ready to serve
    /// on a scrape endpoint.
    pub fn metrics_prometheus(&self) -> String {
        let cache = self.shared.cache.lock().unwrap().stats();
        self.shared
            .telemetry
            .render_prometheus(self.rx.len(), cache)
    }

    /// Process everything currently queued on the caller's thread, batching
    /// compatible jobs exactly like a worker would. The synchronous mode
    /// (`workers: 0`) uses this between submissions; with live workers it
    /// merely competes with them for queued jobs.
    pub fn drain_pending(&self) {
        let (device, recorder) = worker_device(&self.config.spec);
        let mut stash: VecDeque<Job> = VecDeque::new();
        while let Ok(job) = self.rx.try_recv() {
            stash.push_back(job);
        }
        while let Some(first) = stash.pop_front() {
            let mut batch = vec![first];
            let mut i = 0;
            while i < stash.len() && batch.len() < self.config.batch_max {
                if stash[i].key == batch[0].key {
                    batch.push(stash.remove(i).unwrap());
                } else {
                    i += 1;
                }
            }
            process_batch(&device, &recorder, &self.shared, batch);
        }
    }

    /// Stop accepting new jobs, drain everything already queued, and join
    /// the workers. Every outstanding [`JobHandle`] resolves before this
    /// returns. Consumes the service.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Synchronous mode (or jobs the workers never observed).
        self.drain_pending();
        if let Some(dir) = &self.config.flight_dir {
            match self.shared.flight.dump_to_dir(dir) {
                Ok(n) => amgt_trace::log::info(
                    "amgt::server",
                    "flight traces dumped",
                    &[
                        ("dir", dir.display().to_string()),
                        ("traces", n.to_string()),
                    ],
                ),
                Err(e) => amgt_trace::log::warn(
                    "amgt::server",
                    "flight dump failed",
                    &[("dir", dir.display().to_string()), ("error", e.to_string())],
                ),
            }
        }
    }
}

/// A worker's simulated device with its flight recorder installed for as
/// long as the worker owns the device: the recorder is always on, and
/// bounded and preallocated so recording costs no allocation.
fn worker_device(spec: &GpuSpec) -> (Device, Arc<Recorder>) {
    let device = Device::new(spec.clone());
    let recorder = Arc::new(flight::recorder());
    device.install_recorder(Arc::clone(&recorder));
    (device, recorder)
}

fn worker_loop(cfg: &ServiceConfig, rx: &Receiver<Job>, shared: &Shared) {
    let (device, recorder) = worker_device(&cfg.spec);
    // Jobs pulled while assembling a batch that belong to a *different*
    // system wait here and seed the next batch.
    let mut stash: VecDeque<Job> = VecDeque::new();
    loop {
        let first = match stash.pop_front() {
            Some(job) => job,
            None => match rx.recv_timeout(Duration::from_millis(20)) {
                Ok(job) => job,
                Err(RecvTimeoutError::Timeout) => {
                    if shared.shutdown.load(Ordering::SeqCst) && rx.is_empty() {
                        return;
                    }
                    continue;
                }
                Err(RecvTimeoutError::Disconnected) => return,
            },
        };

        let mut batch = vec![first];
        let window_end = Instant::now() + cfg.batch_window;
        while batch.len() < cfg.batch_max {
            if let Some(pos) = stash.iter().position(|j| j.key == batch[0].key) {
                batch.push(stash.remove(pos).unwrap());
                continue;
            }
            let Some(remaining) = window_end.checked_duration_since(Instant::now()) else {
                break;
            };
            match rx.recv_timeout(remaining) {
                Ok(job) if job.key == batch[0].key => batch.push(job),
                Ok(job) => stash.push_back(job),
                Err(_) => break,
            }
        }
        process_batch(&device, &recorder, shared, batch);
    }
}

/// Solve one batch of compatible jobs on `device`, completing every handle.
/// `recorder` is the one installed on `device`; it captures the batch
/// under the leader's trace id.
///
/// A panic while solving does not reach the caller (a worker thread, or
/// the thread draining the queue): every job of the batch still
/// unresolved fails with [`JobError::Internal`] and keeps the capture up
/// to the panic as a retained flight trace, and the panic is counted in
/// [`ServiceMetrics::worker_panics`].
fn process_batch(device: &Device, recorder: &Recorder, shared: &Shared, batch: Vec<Job>) {
    // A batch reads only clock deltas of its own, so the ledger restarts
    // per batch and a long-lived worker's device stays one batch long.
    device.reset();
    let live = preflight(shared, batch);
    if live.is_empty() {
        return;
    }
    recorder.clear();
    recorder.set_trace_id(live[0].trace_id.get());
    shared.telemetry.jobs_started(live.len());
    let pending: Vec<(TraceId, Instant, Arc<JobState>)> = live
        .iter()
        .map(|j| (j.trace_id, j.submitted, Arc::clone(&j.state)))
        .collect();
    let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| {
        solve_batch(device, recorder, shared, live);
    })) else {
        return;
    };
    let why = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic with a non-string payload".to_string());
    shared.telemetry.record_worker_panic();
    // The span guards closed as the panic unwound through them, so the
    // capture up to the panic is a well-formed tree.
    let recording = Arc::new(recorder.snapshot());
    let batch_size = pending.len();
    for (trace_id, submitted, state) in pending {
        // Only this thread resolves the batch's jobs, so a job unresolved
        // here stays so until `fail` below: its trace and `/jobs` line are
        // in place before its handle resolves.
        if state.is_resolved() {
            continue;
        }
        let error = JobError::Internal(why.clone());
        amgt_trace::log::warn(
            "amgt::server",
            "batch panicked",
            &[
                ("trace_id", trace_id.to_hex()),
                ("reason", error.to_string()),
            ],
        );
        let wall = submitted.elapsed().as_secs_f64();
        shared.flight.retain(FlightTrace {
            trace_id,
            verdict: error.to_string(),
            reason: RetainReason::Verdict,
            wall_seconds: wall,
            batch_size,
            recording: Arc::clone(&recording),
        });
        shared.telemetry.record_flight_retained();
        shared.flight.record_completed(CompletedJob {
            trace_id,
            verdict: error.to_string(),
            wall_seconds: wall,
            batch_size,
            retained: Some(RetainReason::Verdict),
        });
        shared.telemetry.jobs_finished(1);
        shared.telemetry.record_failure();
        state.fail(error);
    }
}

/// Pre-flight: cancellation, deadlines and request validation. Completes
/// every rejected job and returns the rest.
fn preflight(shared: &Shared, batch: Vec<Job>) -> Vec<Job> {
    let mut live: Vec<Job> = Vec::with_capacity(batch.len());
    for job in batch {
        let err = if job.state.cancelled.load(Ordering::SeqCst) {
            Some(JobError::Cancelled)
        } else if job
            .request
            .deadline
            .is_some_and(|d| job.submitted.elapsed() > d)
        {
            Some(JobError::DeadlineExceeded)
        } else if job.request.matrix.nrows() != job.request.matrix.ncols() {
            Some(JobError::Invalid(format!(
                "AMG needs a square system; got {} x {}",
                job.request.matrix.nrows(),
                job.request.matrix.ncols()
            )))
        } else if job.request.rhs.len() != job.request.matrix.nrows() {
            Some(JobError::Invalid(format!(
                "RHS length {} does not match matrix order {}",
                job.request.rhs.len(),
                job.request.matrix.nrows()
            )))
        } else {
            None
        };
        match err {
            Some(e) => reject(shared, job, e),
            None => live.push(job),
        }
    }
    live
}

/// Fail `job` with the validation error `e` before it runs.
fn reject(shared: &Shared, job: Job, e: JobError) {
    shared.telemetry.record_failure();
    amgt_trace::log::warn(
        "amgt::server",
        "job rejected",
        &[
            ("trace_id", job.trace_id.to_hex()),
            ("reason", e.to_string()),
        ],
    );
    // Rejections are always retained: the recording is empty (the job
    // never ran), but the verdict, latency and identity survive for
    // post-mortems.
    let wall = job.submitted.elapsed().as_secs_f64();
    shared.flight.retain(FlightTrace {
        trace_id: job.trace_id,
        verdict: e.to_string(),
        reason: RetainReason::Rejection,
        wall_seconds: wall,
        batch_size: 0,
        recording: Arc::default(),
    });
    shared.telemetry.record_flight_retained();
    shared.flight.record_completed(CompletedJob {
        trace_id: job.trace_id,
        verdict: e.to_string(),
        wall_seconds: wall,
        batch_size: 0,
        retained: Some(RetainReason::Rejection),
    });
    job.complete(Err(e));
}

/// Solve the jobs that passed [`preflight`] as one batch.
fn solve_batch(device: &Device, recorder: &Recorder, shared: &Shared, live: Vec<Job>) {
    let mut amg_cfg = live[0].request.config.clone();
    if let Some(exec) = shared.exec_override {
        amg_cfg.exec = exec;
    }
    // Tuned-policy adoption: a request that leaves the policy at the paper
    // default opts into whatever the tuning cache knows about this system on
    // this GPU; an explicit policy in the request always wins.
    let mut policy_tuned = false;
    if amg_cfg.policy == KernelPolicy::paper_default() && !shared.policies.is_empty() {
        let key = amgt_tune::policy_key(&live[0].request.matrix, device.spec(), &amg_cfg);
        if let Some(hit) = shared.policies.lookup(&key) {
            amg_cfg.policy = hit.policy;
            policy_tuned = true;
        }
    }
    let sim_start = device.elapsed();

    // The whole batch records under one Job span, in the worker's
    // recorder, tagged with the leader's trace id.
    let batch_id = live[0].trace_id;
    let job_span = device.span(SpanKind::Job, SpanLabel::with("batch", live.len() as u64));

    // Hierarchy: cache hit / value refresh / full setup. Setup and refresh
    // are charged to the same device, so `simulated_seconds` honestly
    // includes them on a miss and excludes them on a hit.
    let cache_key = live[0].key.cache_key;
    let vhash = live[0].key.value_hash;
    let (outcome, cached) = shared.cache.lock().unwrap().lookup(&cache_key, vhash);
    let (hierarchy, workspace): (Arc<Hierarchy>, Arc<Mutex<SolveWorkspace>>) =
        match (outcome, cached) {
            (CacheOutcome::Hit, Some(c)) => (c.hierarchy, c.workspace),
            (CacheOutcome::Refresh, Some(c)) => {
                let mut h = (*c.hierarchy).clone();
                resetup(device, &amg_cfg, &mut h, live[0].request.matrix.clone());
                let h = Arc::new(h);
                let ws = shared
                    .cache
                    .lock()
                    .unwrap()
                    .insert(cache_key, vhash, Arc::clone(&h));
                (h, ws)
            }
            _ => {
                // A new structure: check it once here, so hits and
                // refreshes (which share a checked structure) pay nothing.
                // The batch's jobs share the structure and its verdict.
                if let Err(why) = live[0].request.matrix.check_structure() {
                    drop(job_span);
                    for job in live {
                        shared.telemetry.jobs_finished(1);
                        let e = JobError::Invalid(format!("malformed CSR matrix: {why}"));
                        reject(shared, job, e);
                    }
                    return;
                }
                let h = Arc::new(setup(device, &amg_cfg, live[0].request.matrix.clone()));
                let ws = shared
                    .cache
                    .lock()
                    .unwrap()
                    .insert(cache_key, vhash, Arc::clone(&h));
                (h, ws)
            }
        };

    // One batched V-cycle sequence over all coalesced RHS, reusing the
    // cached entry's solve workspace when it is free. If another worker is
    // mid-solve on the same entry, fall back to a batch-local workspace
    // rather than serializing the two solves on the pool mutex.
    let columns: Vec<Vec<f64>> = live.iter().map(|j| j.request.rhs.clone()).collect();
    let b = MultiVector::from_columns(&columns);
    let mut x = MultiVector::zeros(b.nrows, b.ncols);
    let mut local_ws;
    let mut guard;
    let ws: &mut SolveWorkspace = match workspace.try_lock() {
        Ok(g) => {
            guard = g;
            &mut guard
        }
        Err(std::sync::TryLockError::Poisoned(p)) => {
            guard = p.into_inner();
            &mut guard
        }
        Err(std::sync::TryLockError::WouldBlock) => {
            local_ws = SolveWorkspace::for_hierarchy(&hierarchy);
            &mut local_ws
        }
    };
    let report = solve_batched_with_workspace(device, &amg_cfg, &hierarchy, &b, &mut x, ws);
    let simulated = device.elapsed() - sim_start;
    drop(job_span);
    // One capture per batch, taken at most once: every job that keeps it
    // (retained by the sampler, or asked for on `capture_trace`) shares it.
    let mut capture: Option<Arc<Recording>> = None;
    let mut shared_capture =
        || Arc::clone(capture.get_or_insert_with(|| Arc::new(recorder.snapshot())));

    let batch_size = live.len();
    shared.telemetry.record_batch(batch_size);
    shared.telemetry.record_hierarchy(hierarchy.diagnostics());
    amgt_trace::log::info(
        "amgt::server",
        "batch solved",
        &[
            ("trace_id", batch_id.to_hex()),
            ("batch", batch_size.to_string()),
            ("cache", format!("{outcome:?}")),
            ("simulated_seconds", format!("{simulated:.3e}")),
            (
                "converged",
                report.converged.iter().filter(|&&c| c).count().to_string(),
            ),
        ],
    );
    for ev in &report.health_events {
        shared.telemetry.record_health_event(ev.kind);
    }
    for (c, job) in live.into_iter().enumerate() {
        let wall = job.submitted.elapsed().as_secs_f64();
        shared.telemetry.record_job(wall, simulated);
        let health_events: Vec<_> = report
            .health_events
            .iter()
            .filter(|ev| ev.column.is_none() || ev.column == Some(c))
            .cloned()
            .collect();
        // Tail-based retention: decided now that the verdict and latency
        // are known. Bad verdicts always keep their trace; healthy jobs
        // keep it probabilistically or when they land in the slowest
        // decile of recent latencies.
        let verdict = report.column_outcomes[c];
        let bad = matches!(
            verdict,
            amgt::SolveOutcome::Stagnated
                | amgt::SolveOutcome::Diverged
                | amgt::SolveOutcome::NonFinite
        );
        let flight_retained = shared.sampler.decide(bad, wall);
        if let Some(reason) = flight_retained {
            // Coalesced jobs share the batch's capture (recorded under the
            // leader's id) but are indexed by their own id.
            shared.flight.retain(FlightTrace {
                trace_id: job.trace_id,
                verdict: verdict.label().to_string(),
                reason,
                wall_seconds: wall,
                batch_size,
                recording: shared_capture(),
            });
            shared.telemetry.record_flight_retained();
            amgt_trace::log::info(
                "amgt::server",
                "flight trace retained",
                &[
                    ("trace_id", job.trace_id.to_hex()),
                    ("reason", reason.label().to_string()),
                    ("verdict", verdict.label().to_string()),
                ],
            );
        }
        shared.flight.record_completed(CompletedJob {
            trace_id: job.trace_id,
            verdict: verdict.label().to_string(),
            wall_seconds: wall,
            batch_size,
            retained: flight_retained,
        });
        // Decrement in-flight before resolving the handle: once a
        // caller's `wait()` returns, the gauge has already dropped.
        shared.telemetry.jobs_finished(1);
        job.complete(Ok(JobOutcome {
            trace_id: job.trace_id,
            flight_retained,
            x: x.col(c).to_vec(),
            relative_residual: report.final_relative_residuals[c],
            iterations: report.column_iterations[c],
            converged: report.converged[c],
            verdict: report.column_outcomes[c],
            convergence_factor: report.column_convergence_factors[c],
            health_events,
            cache: outcome,
            batch_size,
            simulated_seconds: simulated,
            wall_seconds: wall,
            trace: job.request.capture_trace.then(&mut shared_capture),
            policy: amg_cfg.policy,
            policy_tuned,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amgt_sparse::gen::{laplacian_2d, rhs_of_ones, Stencil2d};

    /// A device serving batch after batch (as a worker's does for the life
    /// of the service) holds at most one batch's ledger events.
    #[test]
    fn device_ledger_stays_one_batch_long_across_batches() {
        let service = SolverService::new(ServiceConfig {
            workers: 0,
            ..Default::default()
        });
        let a = laplacian_2d(12, 12, Stencil2d::Five);
        let b = rhs_of_ones(&a);
        let mut cfg = AmgConfig::amgt_fp64();
        cfg.max_iterations = 5;
        cfg.tolerance = 0.0;
        let (device, recorder) = worker_device(&service.config.spec);
        let mut first_batch = 0;
        for i in 0..50 {
            let request = SolveRequest::new(a.clone(), b.clone(), cfg.clone());
            let handle = service.submit(request).expect("the queue has room");
            let job = service.rx.try_recv().expect("the job is queued");
            process_batch(&device, &recorder, &service.shared, vec![job]);
            assert!(handle.wait().is_ok(), "batch {i} failed");
            if i == 0 {
                // The first batch also sets the hierarchy up: the longest.
                first_batch = device.events().len();
            }
        }
        assert!(first_batch > 0);
        assert!(
            device.events().len() <= first_batch,
            "{} ledger events after 50 batches, {first_batch} after the first",
            device.events().len()
        );
    }
}
