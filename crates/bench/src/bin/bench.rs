//! `bench` — the perf-baseline runner behind `BENCH_report.json`.
//!
//! Executes the Figure 1/2-style end-to-end reproductions (setup + solve
//! per solver variant) plus standalone SpMV/SpGEMM kernel microbenches, and
//! writes a schema-versioned [`BenchReport`] with per-case simulated
//! seconds, iteration counts, convergence factors and hierarchy
//! complexities. The GPU clock is simulated, so the numbers are exactly
//! reproducible — `--compare` against a stored baseline is a hard
//! regression gate.
//!
//! ```text
//! bench --smoke --out BENCH_report.json          # fast generated systems
//! bench --suite --small                          # Table II suite matrices
//! bench --smoke --compare BENCH_baseline.json    # exit 1 on regression
//! bench --validate BENCH_report.json             # schema check only
//! bench --smoke --tuned-vs-default               # autotuner gain per matrix
//! ```

use amgt::prelude::*;
use amgt::Operator;
use amgt_bench::alloc::{snapshot, CountingAlloc};
use amgt_bench::report::{
    compare, BenchCase, BenchReport, CompareThresholds, DistInfo, FidelityInfo, FlightOverheadCase,
    FlightOverheadInfo, ParStats, PolicyInfo, WallStats, SCHEMA_VERSION,
};
use amgt_bench::Variant;
use amgt_dist::dist_solve;
use amgt_kernels::spgemm_mbsr::spgemm_mbsr;
use amgt_kernels::vendor::spgemm_csr;
use amgt_kernels::Ctx;
use amgt_sim::{Cluster, Interconnect, Phase};
use amgt_sparse::gen::{laplacian_2d, laplacian_3d, rhs_of_ones, Stencil2d, Stencil3d};
use amgt_sparse::suite::{self, Scale};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Count every heap allocation so `--wallclock` can report per-phase
/// allocation traffic alongside host timings.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Options {
    /// Generated smoke systems instead of the Table II suite.
    smoke: bool,
    scale: Scale,
    iters: usize,
    only: Option<String>,
    gpu: GpuSpec,
    out: PathBuf,
    baseline: Option<PathBuf>,
    validate: Option<PathBuf>,
    thresholds: CompareThresholds,
    /// Tuner-gain mode: per matrix, score the paper-default policy against
    /// the autotuned one (shared `amgt-tune` scorer) instead of the
    /// standard e2e/kernel sweep.
    tuned_vs_default: bool,
    tune_budget: usize,
    /// Also measure host wall-clock time and allocation counts per phase
    /// (written as the v3 `wall` object on each e2e case).
    wallclock: bool,
    /// Rayon pool width to pin before any parallel work (`None` = leave
    /// the pool at its default).
    threads: Option<usize>,
    /// Execution backend the kernels compute on (`--exec sim|native`).
    /// Simulated-seconds figures are identical either way; wall-clock
    /// numbers are only comparable at equal exec modes.
    exec: ExecMode,
    /// Record per-kernel wall-clock samples during the sweep and attach a
    /// cost-model fidelity audit (the v5 `fidelity` object) to the report.
    profile: bool,
    /// Flight-recorder overhead mode: time the solve phase with the flight
    /// recorder off vs on (interleaved, best-of-N) and self-gate on the
    /// geomean ratio (the v6 `flight_overhead` object).
    flight_overhead: bool,
    /// Maximum tolerated recorder-on/off solve-wall ratio before
    /// `--flight-overhead` fails the run.
    flight_budget: f64,
    /// Distributed mode (`--ranks N`, N > 1): run each e2e case through
    /// the domain-decomposed solver over N in-process ranks and attach the
    /// v7 `dist` block (comm/compute split, halo traffic, collectives).
    ranks: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: bench [--smoke | --suite] [--small|--medium|--full] [--iters N]\n\
         \x20      [--matrix NAME] [--gpu a100|h100|mi210] [--out FILE]\n\
         \x20      [--compare BASELINE.json] [--time-ratio X] [--iter-slack N]\n\
         \x20      [--alloc-ratio X] [--alloc-slack N] [--wallclock] [--threads N]\n\
         \x20      [--exec sim|native] [--profile] [--validate FILE]\n\
         \x20      [--flight-overhead] [--flight-budget X] [--ranks N]\n\
         \x20      [--tuned-vs-default] [--tune-budget N]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opt = Options {
        smoke: false,
        scale: Scale::Small,
        iters: 50,
        only: None,
        gpu: GpuSpec::a100(),
        out: PathBuf::from("BENCH_report.json"),
        baseline: None,
        validate: None,
        thresholds: CompareThresholds::default(),
        tuned_vs_default: false,
        tune_budget: amgt_tune::TuneBudget::default().max_evaluations,
        wallclock: false,
        threads: None,
        exec: ExecMode::Simulated,
        profile: false,
        flight_overhead: false,
        flight_budget: 1.05,
        ranks: 1,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut next = || args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--smoke" => opt.smoke = true,
            "--suite" => opt.smoke = false,
            "--small" => opt.scale = Scale::Small,
            "--medium" => opt.scale = Scale::Medium,
            "--full" => opt.scale = Scale::Paper,
            "--iters" => opt.iters = next().parse().unwrap_or_else(|_| usage()),
            "--matrix" => opt.only = Some(next()),
            "--gpu" => {
                opt.gpu = match next().as_str() {
                    "a100" => GpuSpec::a100(),
                    "h100" => GpuSpec::h100(),
                    "mi210" => GpuSpec::mi210(),
                    _ => usage(),
                }
            }
            "--out" => opt.out = PathBuf::from(next()),
            "--compare" => opt.baseline = Some(PathBuf::from(next())),
            "--time-ratio" => {
                opt.thresholds.time_ratio = next().parse().unwrap_or_else(|_| usage());
            }
            "--iter-slack" => {
                opt.thresholds.iteration_slack = next().parse().unwrap_or_else(|_| usage());
            }
            "--alloc-ratio" => {
                opt.thresholds.alloc_ratio = next().parse().unwrap_or_else(|_| usage());
            }
            "--alloc-slack" => {
                opt.thresholds.alloc_slack = next().parse().unwrap_or_else(|_| usage());
            }
            "--wallclock" => opt.wallclock = true,
            "--threads" => opt.threads = Some(next().parse().unwrap_or_else(|_| usage())),
            "--exec" => opt.exec = ExecMode::parse(&next()).unwrap_or_else(|| usage()),
            "--profile" => opt.profile = true,
            "--flight-overhead" => opt.flight_overhead = true,
            "--flight-budget" => {
                opt.flight_budget = next().parse().unwrap_or_else(|_| usage());
            }
            "--ranks" => {
                opt.ranks = next().parse().unwrap_or_else(|_| usage());
                if opt.ranks == 0 {
                    usage();
                }
            }
            "--validate" => opt.validate = Some(PathBuf::from(next())),
            "--tuned-vs-default" => opt.tuned_vs_default = true,
            "--tune-budget" => opt.tune_budget = next().parse().unwrap_or_else(|_| usage()),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    opt
}

/// A smoke-system generator.
type GenFn = fn() -> Csr;

/// The benchmark inputs: (case id stem, matrix).
fn systems(opt: &Options) -> Vec<(String, Csr)> {
    let mut out = Vec::new();
    if opt.smoke {
        let gen: [(&str, GenFn); 3] = [
            ("poisson2d-32", || laplacian_2d(32, 32, Stencil2d::Five)),
            ("poisson2d-48n", || laplacian_2d(48, 48, Stencil2d::Nine)),
            ("poisson3d-10", || {
                laplacian_3d(10, 10, 10, Stencil3d::Seven)
            }),
        ];
        for (name, f) in gen {
            if opt.only.as_deref().is_none_or(|n| n == name) {
                out.push((name.to_string(), f()));
            }
        }
    } else {
        for entry in suite::entries() {
            if opt.only.as_deref().is_some_and(|n| n != entry.name) {
                continue;
            }
            match suite::generate(entry.name, opt.scale) {
                Ok(a) => out.push((entry.name.to_string(), a)),
                Err(e) => eprintln!("skipping {}: {e}", entry.name),
            }
        }
    }
    out
}

fn variant_slug(v: Variant) -> &'static str {
    match v {
        Variant::HypreFp64 => "hypre-fp64",
        Variant::AmgtFp64 => "amgt-fp64",
        Variant::AmgtMixed => "amgt-mixed",
    }
}

/// One end-to-end case: setup + `iters` V-cycles of one variant.
fn e2e_case(opt: &Options, stem: &str, a: &Csr, variant: Variant) -> BenchCase {
    let device = Device::new(opt.gpu.clone());
    let b = rhs_of_ones(a);
    let mut cfg = variant.config(opt.iters);
    // The paper's figures run a fixed 50 cycles (tolerance 0); the
    // regression gate instead wants iteration counts that carry signal, so
    // solve to a tolerance and let `iterations` measure convergence speed.
    cfg.tolerance = 1e-8;
    cfg.exec = opt.exec;
    let (_x, h, rep) = amgt::run_amg(&device, &cfg, a.clone(), &b);
    let diag = h.diagnostics();
    // Wall-clock mode re-runs the phases separately on a fresh device with
    // the host clock and the counting allocator around each: `run_amg`
    // above already warmed every lazy cost (page faults, suite data), so
    // this second pass measures steady-state host behaviour.
    let measured = opt.wallclock.then(|| {
        let device = Device::new(opt.gpu.clone());
        let a2 = a.clone();
        let mut x = vec![0.0; b.len()];
        let setup_t0 = Instant::now();
        let setup_a0 = snapshot();
        let h = amgt::setup(&device, &cfg, a2);
        let setup_wall_ns = setup_t0.elapsed().as_nanos() as u64;
        let setup_allocs = snapshot().since(&setup_a0);
        let solve_t0 = Instant::now();
        let solve_a0 = snapshot();
        let srep = amgt::solve(&device, &cfg, &h, &b, &mut x);
        let solve_wall_ns = solve_t0.elapsed().as_nanos() as u64;
        let solve_allocs = snapshot().since(&solve_a0);
        let wall = WallStats {
            setup_wall_ns,
            solve_wall_ns,
            setup_allocs: setup_allocs.allocs,
            setup_bytes: setup_allocs.bytes,
            solve_allocs: solve_allocs.allocs,
            solve_bytes: solve_allocs.bytes,
            solve_allocs_per_iteration: solve_allocs.allocs as f64 / srep.iterations.max(1) as f64,
        };
        // v8 `par` block: re-time the same solve at the active pool width
        // and inside a private 1-thread pool. The solutions are bitwise
        // identical at every width (the fork-join topology is fixed), so
        // only the walls differ; best-of-N discards scheduler noise.
        let threads = rayon::current_num_threads();
        let par = (threads > 1).then(|| {
            const REPS: usize = 3;
            let mut time_solve = || {
                x.iter_mut().for_each(|v| *v = 0.0);
                let t0 = Instant::now();
                let _ = amgt::solve(&device, &cfg, &h, &b, &mut x);
                t0.elapsed().as_nanos() as u64
            };
            let mut nt_ns = solve_wall_ns;
            for _ in 0..REPS {
                nt_ns = nt_ns.min(time_solve());
            }
            let one = rayon::ThreadPoolBuilder::new()
                .num_threads(1)
                .build()
                .expect("owned pool construction is infallible");
            let mut t1_ns = u64::MAX;
            for _ in 0..REPS {
                t1_ns = t1_ns.min(one.install(&mut time_solve));
            }
            let speedup = t1_ns as f64 / nt_ns.max(1) as f64;
            ParStats {
                threads,
                solve_wall_1t_ns: t1_ns,
                solve_wall_nt_ns: nt_ns,
                speedup,
                efficiency: speedup / threads as f64,
            }
        });
        (wall, par)
    });
    let (wall, par) = match measured {
        Some((w, p)) => (Some(w), p),
        None => (None, None),
    };
    BenchCase {
        name: format!("e2e:{stem}:{}", variant_slug(variant)),
        variant: variant.label().to_string(),
        n: a.nrows(),
        nnz: a.nnz(),
        levels: h.n_levels(),
        iterations: rep.solve_report.iterations,
        setup_seconds: rep.setup.total,
        solve_seconds: rep.solve.total,
        total_seconds: rep.total_seconds(),
        final_relative_residual: rep.solve_report.final_relative_residual(),
        convergence_factor: rep.solve_report.convergence_factor,
        operator_complexity: diag.operator_complexity,
        grid_complexity: diag.grid_complexity,
        outcome: rep.solve_report.outcome.label().to_string(),
        wall,
        dist: None,
        par,
    }
}

/// One distributed end-to-end case: partitioned setup + solve over
/// `ranks` in-process ranks, with the comm/compute split and halo
/// traffic recorded in the v7 `dist` block. The hierarchy lives rank-local,
/// so the complexity fields (which would need the gathered global
/// hierarchy) are zeroed like the kernel microbenches.
fn dist_case(opt: &Options, stem: &str, a: &Csr, variant: Variant, ranks: usize) -> BenchCase {
    let cluster = Cluster::new(opt.gpu.clone(), ranks, Interconnect::nvlink());
    let b = rhs_of_ones(a);
    let mut cfg = variant.config(opt.iters);
    cfg.tolerance = 1e-8;
    cfg.exec = opt.exec;
    let (_x, rep) = dist_solve(&cluster, &cfg, a.clone(), &b);
    for r in &rep.per_rank {
        println!(
            "    rank {}: {:>8} rows {:>9} nnz  compute {:>10.3e} s  comm {:>10.3e} s  \
             halo {:>10.0} B",
            r.rank, r.rows, r.nnz, r.compute_seconds, r.comm_seconds, r.halo_bytes
        );
    }
    BenchCase {
        name: format!("dist:{stem}:{}:p{ranks}", variant_slug(variant)),
        variant: variant.label().to_string(),
        n: a.nrows(),
        nnz: a.nnz(),
        levels: rep.levels,
        iterations: rep.solve_report.iterations,
        setup_seconds: rep.setup_seconds,
        solve_seconds: rep.solve_seconds,
        total_seconds: rep.total_seconds(),
        final_relative_residual: rep.solve_report.final_relative_residual(),
        convergence_factor: rep.solve_report.convergence_factor,
        operator_complexity: 0.0,
        grid_complexity: 0.0,
        outcome: rep.solve_report.outcome.label().to_string(),
        wall: None,
        par: None,
        dist: Some(DistInfo {
            ranks: rep.ranks,
            gathered_levels: rep.gathered_levels,
            edge_cut: rep.edge_cut as u64,
            imbalance: rep.imbalance,
            comm_seconds: rep.comm_seconds,
            halo_bytes: rep.halo_bytes,
            halo_messages: rep.halo_messages,
            allreduce_count: rep.allreduce_count,
        }),
    }
}

/// Standalone SpMV / SpGEMM microbenches on the finest operator, vendor
/// CSR path vs the AmgT mBSR path. Timing fields carry the signal; the
/// solver fields are zeroed.
fn kernel_cases(opt: &Options, stem: &str, a: &Csr) -> Vec<BenchCase> {
    const SPMV_REPS: usize = 10;
    let mut out = Vec::new();
    for (backend, slug) in [(BackendKind::Vendor, "vendor"), (BackendKind::AmgT, "amgt")] {
        let device = Device::new(opt.gpu.clone());
        let ctx = Ctx::new(&device, Phase::Solve, 0, Precision::Fp64).with_exec(opt.exec);
        let op = Operator::prepare(&ctx, backend, a.clone());
        let x = vec![1.0; a.nrows()];

        let t0 = device.elapsed();
        for _ in 0..SPMV_REPS {
            let _ = op.spmv(&ctx, &x);
        }
        let spmv_seconds = device.elapsed() - t0;

        let t0 = device.elapsed();
        match backend {
            BackendKind::Vendor => {
                let _ = spgemm_csr(&ctx, &op.csr, &op.csr);
            }
            BackendKind::AmgT => {
                let m = op.mbsr.as_ref().expect("AmgT operator has mBSR");
                let _ = spgemm_mbsr(&ctx, m, m);
            }
        }
        let spgemm_seconds = device.elapsed() - t0;

        let blank = |name: String, secs: f64| BenchCase {
            name,
            variant: slug.to_string(),
            n: a.nrows(),
            nnz: a.nnz(),
            levels: 0,
            iterations: 0,
            setup_seconds: 0.0,
            solve_seconds: secs,
            total_seconds: secs,
            final_relative_residual: 0.0,
            convergence_factor: 0.0,
            operator_complexity: 0.0,
            grid_complexity: 0.0,
            outcome: "Converged".to_string(),
            wall: None,
            dist: None,
            par: None,
        };
        out.push(blank(
            format!("kernel:spmv-x{SPMV_REPS}:{stem}:{slug}"),
            spmv_seconds,
        ));
        out.push(blank(
            format!("kernel:spgemm-aa:{stem}:{slug}"),
            spgemm_seconds,
        ));
    }
    out
}

/// Measure the flight recorder's solve-phase wall overhead on one system:
/// the same converged solve, recorder off vs on, strictly interleaved so
/// thermal/frequency drift hits both sides equally, best-of-N so scheduler
/// noise cancels. Also returns a normal bench case (from the warmup run)
/// so the written report has solver coverage.
fn flight_overhead_case(opt: &Options, stem: &str, a: &Csr) -> (FlightOverheadCase, BenchCase) {
    const REPS: usize = 9;
    let device = Device::new(opt.gpu.clone());
    let b = rhs_of_ones(a);
    let mut cfg = Variant::AmgtFp64.config(opt.iters);
    cfg.tolerance = 1e-8;
    cfg.exec = opt.exec;
    let h = amgt::setup(&device, &cfg, a.clone());
    let mut x = vec![0.0; b.len()];
    // Warm page faults and lazy costs out of the measured region.
    let sim0 = device.elapsed();
    let warm = amgt::solve(&device, &cfg, &h, &b, &mut x);
    let warm_seconds = device.elapsed() - sim0;

    let trace_id = amgt_sim::TraceId::generate();
    // Warm the recorder path too: the first enabled solve registers the
    // thread shard and allocates its full-capacity ring — one-time costs
    // that must not land inside a timed rep.
    amgt_trace::flight::enable();
    device.set_flight(Some(trace_id));
    x.iter_mut().for_each(|v| *v = 0.0);
    let _ = amgt::solve(&device, &cfg, &h, &b, &mut x);

    let mut off_ns = u64::MAX;
    let mut on_ns = u64::MAX;
    let timed = |device: &Device, x: &mut Vec<f64>, enabled: bool| {
        if enabled {
            amgt_trace::flight::enable();
            device.set_flight(Some(trace_id));
        } else {
            amgt_trace::flight::disable();
            device.set_flight(None);
        }
        x.iter_mut().for_each(|v| *v = 0.0);
        let t0 = Instant::now();
        let _ = amgt::solve(device, &cfg, &h, &b, x);
        t0.elapsed().as_nanos() as u64
    };
    for rep in 0..REPS {
        // Alternate which side is measured first so slow frequency or
        // thermal drift cannot systematically bias one of them; min-of-N
        // then discards the noise floor on both sides.
        if rep % 2 == 0 {
            off_ns = off_ns.min(timed(&device, &mut x, false));
            on_ns = on_ns.min(timed(&device, &mut x, true));
        } else {
            on_ns = on_ns.min(timed(&device, &mut x, true));
            off_ns = off_ns.min(timed(&device, &mut x, false));
        }
    }
    device.set_flight(None);
    amgt_trace::flight::disable();
    amgt_trace::flight::reset();

    let diag = h.diagnostics();
    let flight = FlightOverheadCase {
        name: format!("flight:{stem}:{}", variant_slug(Variant::AmgtFp64)),
        off_ns,
        on_ns,
        ratio: on_ns as f64 / off_ns.max(1) as f64,
    };
    let case = BenchCase {
        name: format!("e2e:{stem}:{}", variant_slug(Variant::AmgtFp64)),
        variant: Variant::AmgtFp64.label().to_string(),
        n: a.nrows(),
        nnz: a.nnz(),
        levels: h.n_levels(),
        iterations: warm.iterations,
        setup_seconds: 0.0,
        solve_seconds: warm_seconds,
        total_seconds: warm_seconds,
        final_relative_residual: warm.final_relative_residual(),
        convergence_factor: warm.convergence_factor,
        operator_complexity: diag.operator_complexity,
        grid_complexity: diag.grid_complexity,
        outcome: warm.outcome.label().to_string(),
        wall: None,
        dist: None,
        par: None,
    };
    (flight, case)
}

fn main() -> ExitCode {
    let opt = parse_args();

    // Pin the rayon pool before any parallel work so wall-clock numbers
    // are reproducible run-to-run.
    if let Some(n) = opt.threads {
        if let Err(e) = rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global()
        {
            eprintln!("cannot pin thread pool to {n}: {e}");
            return ExitCode::FAILURE;
        }
    }

    if let Some(path) = &opt.validate {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        return match BenchReport::from_json(&text).and_then(|r| r.validate().map(|()| r)) {
            Ok(r) => {
                println!(
                    "{}: schema v{} OK, {} cases ({} on {})",
                    path.display(),
                    r.schema_version,
                    r.cases.len(),
                    r.scale,
                    r.gpu
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{}: INVALID: {e}", path.display());
                ExitCode::FAILURE
            }
        };
    }

    let systems = systems(&opt);
    if systems.is_empty() {
        eprintln!("no benchmark systems selected");
        return ExitCode::FAILURE;
    }

    // Profiling wraps the whole sweep: every kernel dispatch below records
    // a wall-clock sample, collapsed into the fidelity audit at the end.
    if opt.profile {
        amgt_exec::prof::reset();
        amgt_exec::prof::enable();
    }

    let mut cases = Vec::new();
    let mut policy_info = PolicyInfo::paper_default();
    let mut flight_overhead = None;
    if opt.flight_overhead {
        let mut fcases = Vec::new();
        for (stem, a) in &systems {
            let (f, case) = flight_overhead_case(&opt, stem, a);
            println!(
                "flight {stem}: off {:.3} ms, on {:.3} ms (x{:.4})",
                f.off_ns as f64 / 1e6,
                f.on_ns as f64 / 1e6,
                f.ratio
            );
            fcases.push(f);
            cases.push(case);
        }
        let geomean_ratio = geomean(&fcases.iter().map(|f| f.ratio).collect::<Vec<_>>());
        flight_overhead = Some(FlightOverheadInfo {
            geomean_ratio,
            cases: fcases,
        });
    } else if opt.tuned_vs_default {
        // Tuner-gain mode: per matrix, two cases scored by the *same*
        // `amgt-tune` objective the search minimized — so "tuned never
        // loses" is checked against the exact quantity the tuner optimized.
        let mut store = amgt_tune::PolicyStore::in_memory();
        let budget = amgt_tune::TuneBudget {
            max_evaluations: opt.tune_budget,
            ..amgt_tune::TuneBudget::default()
        };
        let mut regressed = 0usize;
        let mut improved = 0usize;
        for (stem, a) in &systems {
            let mut cfg = Variant::AmgtFp64.config(opt.iters);
            cfg.tolerance = 1e-8;
            let r = amgt_tune::tune(&opt.gpu, &cfg, a, &budget, &mut store);
            let speedup = r.predicted_speedup();
            println!(
                "tune {stem}: default {:.3e} s -> tuned {:.3e} s ({:.3}x, {} evaluations)",
                r.default_score, r.score, speedup, r.evaluations
            );
            let tune_case = |tag: &str, secs: f64| BenchCase {
                name: format!("tune:{stem}:{tag}"),
                variant: tag.to_string(),
                n: a.nrows(),
                nnz: a.nnz(),
                levels: 0,
                iterations: 0,
                setup_seconds: 0.0,
                solve_seconds: secs,
                total_seconds: secs,
                final_relative_residual: 0.0,
                convergence_factor: 0.0,
                operator_complexity: 0.0,
                grid_complexity: 0.0,
                outcome: "Converged".to_string(),
                wall: None,
                dist: None,
                par: None,
            };
            cases.push(tune_case("default", r.default_score));
            cases.push(tune_case("tuned", r.score));
            if r.score > r.default_score {
                eprintln!("tune {stem}: TUNED POLICY REGRESSED over the paper default");
                regressed += 1;
            }
            if speedup > 1.0005 {
                improved += 1;
            }
            if speedup > policy_info.predicted_speedup {
                policy_info = PolicyInfo {
                    source: "tuned".to_string(),
                    policy: r.policy,
                    predicted_speedup: speedup,
                };
            }
        }
        println!(
            "tune summary: {}/{} matrices improved, best predicted speedup {:.3}x",
            improved,
            systems.len(),
            policy_info.predicted_speedup
        );
        if regressed > 0 {
            eprintln!("{regressed} matrices regressed under tuning");
            return ExitCode::FAILURE;
        }
    } else {
        for (stem, a) in &systems {
            println!("bench {stem}: n = {}, nnz = {}", a.nrows(), a.nnz());
            for variant in Variant::ALL {
                let case = e2e_case(&opt, stem, a, variant);
                println!(
                    "  {:<28} {:>3} iters  {:>10.3e} s  factor {:.4}  {}",
                    case.name,
                    case.iterations,
                    case.total_seconds,
                    case.convergence_factor,
                    case.outcome
                );
                cases.push(case);
            }
            cases.extend(kernel_cases(&opt, stem, a));
        }
        // Distributed sweep (`--ranks N`, N > 1): every system through
        // every variant at P = 1 and P = N, so one report carries the
        // single-rank baseline next to the scaled run.
        if opt.ranks > 1 {
            for (stem, a) in &systems {
                println!(
                    "dist {stem}: n = {}, nnz = {}, ranks 1 and {}",
                    a.nrows(),
                    a.nnz(),
                    opt.ranks
                );
                for variant in Variant::ALL {
                    for ranks in [1, opt.ranks] {
                        let case = dist_case(&opt, stem, a, variant, ranks);
                        let d = case.dist.as_ref().expect("dist case carries dist info");
                        println!(
                            "  {:<32} {:>3} iters  {:>10.3e} s  comm {:>10.3e} s  \
                             halo {:.0} B  {}",
                            case.name,
                            case.iterations,
                            case.total_seconds,
                            d.comm_seconds,
                            d.halo_bytes,
                            case.outcome
                        );
                        cases.push(case);
                    }
                }
            }
        }
    }

    let fidelity = opt.profile.then(|| {
        amgt_exec::prof::disable();
        let profile = amgt_exec::prof::snapshot();
        let audit = amgt_trace::FidelityReport::from_profile(
            &profile,
            amgt_trace::FidelityReport::DEFAULT_FLAG_THRESHOLD,
        );
        print!("{}", audit.render());
        FidelityInfo::from_report(&audit)
    });

    let report = BenchReport {
        schema_version: SCHEMA_VERSION,
        gpu: opt.gpu.name.to_string(),
        scale: if opt.smoke {
            "smoke".to_string()
        } else {
            format!("{:?}", opt.scale).to_lowercase()
        },
        policy: Some(policy_info),
        // Observed pool width (the width joins actually fan out to), not
        // the requested `--threads`: a report must state what ran.
        threads: opt.wallclock.then(rayon::current_num_threads),
        exec: Some(opt.exec.label().to_string()),
        simd: Some(amgt_kernels::simd_level().label().to_string()),
        fidelity,
        flight_overhead,
        cases,
    };
    if let Err(e) = report.validate() {
        eprintln!("generated report failed validation: {e}");
        return ExitCode::FAILURE;
    }
    if opt.wallclock {
        let walls: Vec<&WallStats> = report
            .cases
            .iter()
            .filter_map(|c| c.wall.as_ref())
            .collect();
        if !walls.is_empty() {
            let g = |f: fn(&WallStats) -> f64| {
                geomean(&walls.iter().map(|w| f(w).max(1.0)).collect::<Vec<_>>())
            };
            println!(
                "wallclock geomean over {} cases: setup {:.3} ms, solve {:.3} ms, \
                 {:.1} solve allocs/iter",
                walls.len(),
                g(|w| w.setup_wall_ns as f64) / 1e6,
                g(|w| w.solve_wall_ns as f64) / 1e6,
                walls
                    .iter()
                    .map(|w| w.solve_allocs_per_iteration)
                    .sum::<f64>()
                    / walls.len() as f64
            );
        }
        let pars: Vec<&ParStats> = report.cases.iter().filter_map(|c| c.par.as_ref()).collect();
        if !pars.is_empty() {
            let speedups: Vec<f64> = pars.iter().map(|p| p.speedup.max(1e-9)).collect();
            let s = geomean(&speedups);
            println!(
                "parallel scaling at {} threads over {} cases: geomean solve \
                 speedup {:.2}x, efficiency {:.2} (host had {} core(s))",
                pars[0].threads,
                pars.len(),
                s,
                s / pars[0].threads as f64,
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            );
        }
    }
    if let Err(e) = std::fs::write(&opt.out, report.to_json()) {
        eprintln!("cannot write {}: {e}", opt.out.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {} ({} cases)", opt.out.display(), report.cases.len());

    // Self-gating: the flight recorder's whole contract is "always on,
    // negligible cost", so the overhead mode fails the run (after writing
    // the report for inspection) when the geomean ratio breaches budget.
    if let Some(fo) = &report.flight_overhead {
        println!(
            "flight overhead: geomean x{:.4} over {} case(s) (budget x{:.2})",
            fo.geomean_ratio,
            fo.cases.len(),
            opt.flight_budget
        );
        if fo.geomean_ratio > opt.flight_budget {
            eprintln!(
                "flight recorder overhead x{:.4} exceeds budget x{:.2}",
                fo.geomean_ratio, opt.flight_budget
            );
            return ExitCode::FAILURE;
        }
    }

    if let Some(path) = &opt.baseline {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read baseline {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        let baseline = match BenchReport::from_json(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("baseline {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        let regressions = compare(&report, &baseline, &opt.thresholds);
        if regressions.is_empty() {
            println!(
                "compare vs {}: no regressions across {} baseline cases",
                path.display(),
                baseline.cases.len()
            );
        } else {
            eprintln!(
                "compare vs {}: {} regression(s):",
                path.display(),
                regressions.len()
            );
            for r in &regressions {
                eprintln!("  {r}");
            }
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
