//! The three workloads. Each one builds its inputs from the seed, takes one
//! set-up sample (a timed AMG setup) per operator, which also warms the
//! process up, then runs a closed loop of requests for the given number of
//! seconds, checking every answer and taking further set-up samples.
//!
//! Every request runs once per lane on that lane's own solver state, and
//! its latency is the faster run's. A lane is one pinned CPU (see
//! [`cpus`]), except in `parallel_stream`, whose two lanes both run
//! unpinned on the whole fork-join pool, one after the other.
//!
//! [`cpus`]: crate::cpus

use crate::cpus;
use crate::inputs::{jitter, relative_residual, rhs, sub_seed, suite_matrix};
use crate::layers::{self, KernelSplit, Span, Tracer};
use crate::stats::Sample;
use amgt::{AmgConfig, BackendKind, ExecMode, Hierarchy, PrecisionPolicy, SolveWorkspace};
use amgt_bench::alloc;
use amgt_server::{ServiceConfig, SolveRequest, SolverService};
use amgt_sim::{Device, GpuSpec};
use amgt_sparse::Csr;
use std::time::{Duration, Instant};

/// Relative-residual target of the FP64 solves, and of the mixed-precision
/// ones (whose FP16 coarse levels stall some right-hand sides near 3e-8).
const TOLERANCE_FP64: f64 = 1e-8;
const TOLERANCE_MIXED: f64 = 1e-6;

pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Everything one run measured.
#[derive(Default)]
pub struct Record {
    /// Class and wall seconds of each request (its faster lane).
    pub latencies: Vec<Sample>,
    /// Wall seconds of every lane run of every request, summed.
    pub busy_s: f64,
    /// Wall seconds of the measured loop.
    pub window_s: f64,
    /// Request runs (one per request and lane), the answers they checked
    /// (one per right-hand side), and the wrong ones.
    pub requests: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Operator index and wall seconds of each set-up sample (its faster
    /// lane), the sample's lane runs, and their seconds summed.
    pub setup_s: Vec<Sample>,
    pub build_runs: u64,
    pub build_busy_s: f64,
    /// Operator complexity of each set-up sample's hierarchy.
    pub complexity: Vec<f64>,
    /// Over all executions: right-hand sides solved, V-cycles run over
    /// them, solver calls (a batched call counts once), and solver calls
    /// that reused an existing hierarchy with no setup or resetup.
    pub rhs: u64,
    pub cycles: u64,
    pub batches: u64,
    pub reused: u64,
    /// Kernel split (traced runs only) and allocations (on every thread)
    /// of the set-up samples and of the requests over all lanes, and every
    /// span (traced runs only).
    pub build: KernelSplit,
    pub build_allocs: u64,
    pub run: KernelSplit,
    pub run_allocs: u64,
    pub spans: Vec<Span>,
}

fn config(precision: PrecisionPolicy) -> AmgConfig {
    let mut cfg = AmgConfig::paper(BackendKind::AmgT, precision);
    cfg.exec = ExecMode::Native;
    cfg.tolerance = match precision {
        PrecisionPolicy::Uniform64 => TOLERANCE_FP64,
        PrecisionPolicy::Mixed => TOLERANCE_MIXED,
    };
    cfg.max_iterations = 100;
    cfg
}

/// A solve is correct when the solver says it converged and an independent
/// residual check agrees with it.
fn solved(cfg: &AmgConfig, a: &Csr, x: &[f64], b: &[f64], converged: bool) -> bool {
    converged && relative_residual(a, x, b) <= 2.0 * cfg.tolerance
}

/// The fastest of `runs` (emptying it), with all of them summed.
fn fastest(runs: &mut Vec<f64>) -> (f64, f64) {
    let sum = runs.iter().sum();
    (runs.drain(..).fold(f64::INFINITY, f64::min), sum)
}

/// How often the loop pauses for one more set-up sample.
const SETUP_EVERY: Duration = Duration::from_millis(400);

/// Shared plumbing: the lanes with their devices, the tracer, the set-up
/// samples and the single-client loop.
struct Harness<'p> {
    p: &'p Params,
    lanes: Vec<Option<usize>>,
    devices: Vec<Device>,
    tracer: Tracer,
    rec: Record,
    /// Latencies of the current request, one per lane run so far.
    runs: Vec<f64>,
    /// Operators and configuration of the set-up samples, the next one to
    /// set up, and when it is due.
    setup_ops: Vec<Csr>,
    setup_cfg: AmgConfig,
    setup_next: usize,
    setup_due: Instant,
}

impl<'p> Harness<'p> {
    /// A harness on `lanes` whose set-up samples cycle over `ops`; the
    /// set-up phase takes one sample of each before any request runs.
    fn new(
        p: &'p Params,
        lanes: Vec<Option<usize>>,
        ops: Vec<Csr>,
        cfg: &AmgConfig,
    ) -> Harness<'p> {
        if p.trace {
            layers::enable();
        }
        let mut h = Harness {
            p,
            devices: lanes.iter().map(|_| Device::new(GpuSpec::a100())).collect(),
            lanes,
            tracer: Tracer::new(p.trace, Instant::now()),
            rec: Record::default(),
            runs: Vec::new(),
            setup_ops: ops,
            setup_cfg: cfg.clone(),
            setup_next: 0,
            setup_due: Instant::now(),
        };
        for _ in 0..h.setup_ops.len() {
            h.setup_sample();
        }
        h
    }

    /// Pin to `lane`'s CPU and label its spans.
    fn enter(&mut self, lane: usize) {
        cpus::pin(self.lanes[lane]);
        self.tracer.set_thread(lane as u32);
    }

    /// One set-up sample: `amgt::setup` of the next operator on each lane.
    /// Samples are spread over the whole run, so a stretch of host noise
    /// reaches only some of them.
    fn setup_sample(&mut self) {
        let class = self.setup_next % self.setup_ops.len();
        let before = layers::kernels(self.p.trace);
        for lane in 0..self.lanes.len() {
            self.enter(lane);
            let a = self.setup_ops[class].clone();
            let cfg = self.setup_cfg.clone();
            let allocs = alloc::snapshot().allocs;
            let t = Instant::now();
            let h = self.call("setup", 0, lane, |d| amgt::setup(d, &cfg, a));
            self.runs.push(t.elapsed().as_secs_f64());
            self.rec.build_allocs += alloc::snapshot().allocs - allocs;
            self.rec.complexity.push(h.stats.operator_complexity);
            self.devices[lane].reset();
        }
        cpus::pin(None);
        let (best, sum) = fastest(&mut self.runs);
        self.rec.setup_s.push((class as u32, best));
        self.rec.build_busy_s += sum;
        self.rec.build_runs += self.lanes.len() as u64;
        self.rec.build += layers::kernels(self.p.trace).minus(&before);
        self.setup_next += 1;
        self.setup_due = Instant::now() + SETUP_EVERY;
    }

    /// Take a set-up sample if one is due.
    fn between_requests(&mut self) {
        if Instant::now() >= self.setup_due {
            self.setup_sample();
        }
    }

    /// Start of the measured loop: the kernel totals it starts from.
    fn loop_start(&self) -> (Instant, KernelSplit, KernelSplit) {
        (
            Instant::now(),
            layers::kernels(self.p.trace),
            self.rec.build.clone(),
        )
    }

    /// End of the measured loop: its wall time, and its kernel time net of
    /// the set-up samples taken during it.
    fn loop_end(&mut self, (start, kernels, build): (Instant, KernelSplit, KernelSplit)) {
        self.rec.window_s = start.elapsed().as_secs_f64();
        let samples = self.rec.build.minus(&build);
        self.rec.run = layers::kernels(self.p.trace)
            .minus(&kernels)
            .minus(&samples);
    }

    /// Run requests in a closed loop until the run's time is up. For each
    /// request `k` and lane, `request` prepares the inputs, makes the solver
    /// calls inside [`Harness::timed`] and returns whether the answer was
    /// correct; `class(k)` labels the request's kind.
    fn run(
        &mut self,
        class: impl Fn(u64) -> u32,
        mut request: impl FnMut(&mut Self, u64, usize) -> bool,
    ) {
        let start = self.loop_start();
        let mut k = 0u64;
        while start.0.elapsed().as_secs_f64() < self.p.seconds {
            for lane in 0..self.lanes.len() {
                self.enter(lane);
                let ok = request(self, k, lane);
                self.rec.requests += 1;
                self.rec.attempted += 1;
                self.rec.failed += u64::from(!ok);
                self.devices[lane].reset();
            }
            cpus::pin(None);
            let (best, sum) = fastest(&mut self.runs);
            self.rec.latencies.push((class(k), best));
            self.rec.busy_s += sum;
            self.between_requests();
            k += 1;
        }
        self.loop_end(start);
    }

    /// The solver calls of request `k`: timed as one lane run, recorded as
    /// a `request` span, with the allocations they made.
    fn timed<R>(&mut self, k: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        let span = self.tracer.begin("request", k);
        let allocs = alloc::snapshot().allocs;
        let t = Instant::now();
        let out = f(self);
        self.runs.push(t.elapsed().as_secs_f64());
        self.rec.run_allocs += alloc::snapshot().allocs - allocs;
        self.tracer.end(span);
        out
    }

    /// One call into the solver on `lane`'s device, as a span named `name`.
    fn call<R>(
        &mut self,
        name: &'static str,
        k: u64,
        lane: usize,
        f: impl FnOnce(&Device) -> R,
    ) -> R {
        let span = self.tracer.begin(name, k);
        let out = f(&self.devices[lane]);
        self.tracer.end(span);
        out
    }

    fn count_solve(&mut self, iterations: usize, reused: bool) {
        self.rec.rhs += 1;
        self.rec.batches += 1;
        self.rec.cycles += iterations as u64;
        self.rec.reused += u64::from(reused);
    }

    fn finish(mut self) -> Record {
        self.rec.spans = self.tracer.into_spans();
        self.rec
    }
}

/// Every request sets up from scratch and solves once, cycling over five
/// suite matrices of different character.
pub fn cold_solve(p: &Params) -> Record {
    let names = [
        "cant",
        "venkat25",
        "thermal1",
        "parabolic_fem",
        "Pres_Poisson",
    ];
    // The systems are the same for every seed (value perturbations shift
    // coarsening, and with it the cost, by several percent); the seed draws
    // the right-hand sides.
    let ops: Vec<Csr> = names.into_iter().map(suite_matrix).collect();
    let cfg = config(PrecisionPolicy::Uniform64);
    let mut h = Harness::new(p, cpus::lanes(), ops.clone(), &cfg);
    let family = |k: u64| (k % ops.len() as u64) as u32;
    h.run(family, |h, k, lane| {
        let a = &ops[family(k) as usize];
        let b = rhs(a.nrows(), sub_seed(p.seed, 1000 + k));
        let owned = a.clone();
        let mut x = vec![0.0; a.nrows()];
        let rep = h.timed(k, |h| {
            let hier = h.call("setup", k, lane, |d| amgt::setup(d, &cfg, owned));
            h.call("solve", k, lane, |d| {
                amgt::solve(d, &cfg, &hier, &b, &mut x)
            })
        });
        h.count_solve(rep.iterations, false);
        solved(&cfg, a, &x, &b, rep.converged)
    });
    h.finish()
}

/// Right-hand sides solved one after another (mixed precision, reused
/// solve workspace) against the current operator's hierarchy, with the
/// global fork-join pool built at the host's width (as `amgt-cli --threads`
/// does) so the kernels run in parallel. The operator changes every
/// `STREAM` requests, whose first request sets it up. Both lanes run
/// unpinned on the whole pool.
pub fn parallel_stream(p: &Params) -> Record {
    let width = std::thread::available_parallelism().map_or(1, usize::from);
    if let Err(e) = rayon::ThreadPoolBuilder::new()
        .num_threads(width)
        .build_global()
    {
        eprintln!("perfbench: cannot build the thread pool: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "perfbench: pool of {} thread(s)",
        rayon::current_num_threads()
    );
    const STREAM: u64 = 32;
    // The operators are the same for every seed; the seed draws the stream.
    let a = suite_matrix("venkat25");
    let ops: Vec<Csr> = (0..4).map(|i| jitter(&a, i)).collect();
    let cfg = config(PrecisionPolicy::Mixed);
    let mut h = Harness::new(p, vec![None, None], ops.clone(), &cfg);
    let mut current: Vec<Option<(Hierarchy, SolveWorkspace)>> = vec![None, None];
    let op = |k: u64| (k / STREAM) % ops.len() as u64;
    // Class: the operator, and whether the request sets it up.
    let class = |k: u64| (2 * op(k) + u64::from(k.is_multiple_of(STREAM))) as u32;
    h.run(class, |h, k, lane| {
        let a = &ops[op(k) as usize];
        let b = rhs(a.nrows(), sub_seed(p.seed, 1000 + k));
        let fresh = k.is_multiple_of(STREAM).then(|| a.clone());
        let reused = fresh.is_none();
        let mut x = vec![0.0; a.nrows()];
        let current = &mut current[lane];
        let rep = h.timed(k, |h| {
            if let Some(owned) = fresh {
                let hier = h.call("setup", k, lane, |d| amgt::setup(d, &cfg, owned));
                let ws = SolveWorkspace::for_hierarchy(&hier);
                *current = Some((hier, ws));
            }
            let (hier, ws) = current.as_mut().expect("a stream's first request sets up");
            h.call("solve", k, lane, |d| {
                amgt::solve_with_workspace(d, &cfg, hier, &b, &mut x, ws)
            })
        });
        h.count_solve(rep.iterations, reused);
        solved(&cfg, a, &x, &b, rep.converged)
    });
    h.finish()
}

/// The solve service, one instance per lane (its worker pinned with it),
/// under one closed-loop client that owns two systems. A request is a burst
/// of `BURST` right-hand sides against one system, submitted together (so
/// they batch) and done when the last answer is back. Every `EPOCH` bursts
/// the systems' values change, so the cached hierarchies refresh.
pub fn service(p: &Params) -> Record {
    const BURST: usize = 4;
    const EPOCH: u64 = 8;
    let names = ["venkat25", "thermal1"];
    // Two value versions of each system (same pattern, the same for every
    // seed) and a pool of right-hand sides drawn from the seed.
    let systems: Vec<([Csr; 2], Vec<Vec<f64>>)> = (0..)
        .zip(names)
        .map(|(i, name)| {
            let a = suite_matrix(name);
            let b = jitter(&a, 100 + i);
            let pool = (0..4 * BURST as u64)
                .map(|j| rhs(a.nrows(), sub_seed(p.seed, 1000 * (i + 1) + j)))
                .collect();
            ([a, b], pool)
        })
        .collect();
    let cfg = config(PrecisionPolicy::Uniform64);
    let first: Vec<Csr> = systems.iter().map(|(s, _)| s[0].clone()).collect();
    let mut h = Harness::new(p, cpus::lanes(), first.clone(), &cfg);

    // One worker per instance; the cache is warmed with every system's
    // first version before the measured loop.
    let services: Vec<SolverService> = (0..h.lanes.len())
        .map(|lane| {
            h.enter(lane);
            let service = SolverService::new(ServiceConfig {
                workers: 1,
                exec: Some(ExecMode::Native),
                ..Default::default()
            });
            for s in &first {
                let job = service
                    .submit(SolveRequest::new(s.clone(), rhs(s.nrows(), 0), cfg.clone()))
                    .expect("an empty queue accepts a job");
                assert!(job.wait().is_ok(), "warm-up job must succeed");
            }
            service
        })
        .collect();
    cpus::pin(None);

    let allocs = (alloc::snapshot().allocs, h.rec.build_allocs);
    let before: Vec<_> = services.iter().map(SolverService::metrics).collect();
    let start = h.loop_start();
    let mut k = 0u64;
    while start.0.elapsed().as_secs_f64() < p.seconds {
        let system = k % systems.len() as u64;
        let (sys, pool) = &systems[system as usize];
        let a = &sys[((k / EPOCH) % 2) as usize];
        // The first burst on a system after its values change refreshes it.
        let class = (2 * system + u64::from(k % EPOCH < systems.len() as u64)) as u32;
        for (lane, service) in services.iter().enumerate() {
            h.enter(lane);
            let burst: Vec<(&Vec<f64>, SolveRequest)> = (0..BURST)
                .map(|j| {
                    let b = &pool[(k as usize * BURST + j) % pool.len()];
                    (b, SolveRequest::new(a.clone(), b.clone(), cfg.clone()))
                })
                .collect();
            let req = h.tracer.begin("request", k);
            let t = Instant::now();
            let span = h.tracer.begin("submit", k);
            let handles: Vec<_> = burst
                .into_iter()
                .map(|(b, request)| (b, service.submit(request)))
                .collect();
            h.tracer.end(span);
            let span = h.tracer.begin("wait", k);
            let outcomes: Vec<_> = handles
                .into_iter()
                .map(|(b, handle)| {
                    let outcome = handle
                        .map_err(|e| e.to_string())
                        .and_then(|job| job.wait().map_err(|e| e.to_string()));
                    (b, outcome)
                })
                .collect();
            h.runs.push(t.elapsed().as_secs_f64());
            h.tracer.end(span);
            h.tracer.end(req);
            h.rec.requests += 1;
            for (b, outcome) in outcomes {
                h.rec.attempted += 1;
                match outcome {
                    Ok(o) => {
                        h.rec.cycles += o.iterations as u64;
                        h.rec.failed += u64::from(!solved(&cfg, a, &o.x, b, o.converged));
                    }
                    Err(e) => {
                        eprintln!("perfbench: service job failed: {e}");
                        h.rec.failed += 1;
                    }
                }
            }
        }
        cpus::pin(None);
        let (best, sum) = fastest(&mut h.runs);
        h.rec.latencies.push((class, best));
        h.rec.busy_s += sum;
        h.between_requests();
        k += 1;
    }
    h.loop_end(start);
    // Allocations of the requests, on every thread (the client's building
    // of them included), less those of the set-up samples in the loop.
    h.rec.run_allocs = (alloc::snapshot().allocs - allocs.0) - (h.rec.build_allocs - allocs.1);
    for (service, before) in services.into_iter().zip(before) {
        let after = service.metrics();
        let occupancy = after.batch_occupancy.iter().zip(before.batch_occupancy);
        h.rec.batches += occupancy.map(|(a, b)| a - b).sum::<u64>();
        h.rec.reused += after.cache_hits - before.cache_hits;
        service.shutdown();
    }
    h.rec.rhs = h.rec.attempted;
    h.finish()
}
