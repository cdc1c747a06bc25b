//! `amgt-cli` — solve a sparse linear system with the AmgT reproduction.
//!
//! ```text
//! amgt-cli --mtx system.mtx                       # Matrix Market input
//! amgt-cli --suite venkat25                       # synthetic suite matrix
//! amgt-cli --poisson2d 256                        # generated Laplacian
//! amgt-cli --suite cant --backend vendor          # HYPRE baseline kernels
//! amgt-cli --suite cant --mixed --gpu h100        # mixed precision on H100
//! amgt-cli --suite cant --pcg --tol 1e-8          # AMG-preconditioned CG
//! amgt-cli --suite cant --ranks 4                  # domain-decomposed solve
//!                                                  # over 4 in-process ranks
//! amgt-cli --suite cant --trace run.json           # Chrome trace export
//! amgt-cli --suite cant --profile prof.json        # wall-clock kernel profile
//!                                                  # + cost-model fidelity audit
//! amgt-cli --suite cant --folded stacks.txt        # folded stacks (flamegraph)
//! amgt-cli --suite cant --diagnose                 # hierarchy quality + health
//! amgt-cli --suite cant --flight                   # flight-record; dump on bad verdict
//! amgt-cli --version --verbose                     # build identity block
//! amgt-cli --suite cant --tune                     # autotune the kernel policy
//! amgt-cli --suite cant --tune \
//!          --policy-cache policies.json            # ... with a persistent cache
//! amgt-cli --suite cant --policy tuned.json        # run an explicit policy file
//! ```
//!
//! Prints the hierarchy, the convergence history and the simulated-GPU
//! phase breakdown.

use amgt::pcg::pcg_solve;
use amgt::prelude::*;
use amgt_sparse::gen::{laplacian_2d, rhs_of_ones, Stencil2d};
use amgt_sparse::mm::read_matrix_market_path;
use amgt_sparse::suite::{self, Scale};
use amgt_tune::{PolicyStore, TuneBudget};
use std::path::PathBuf;

struct Options {
    matrix: MatrixSource,
    backend: BackendKind,
    exec_mode: ExecMode,
    precision: PrecisionPolicy,
    gpu: GpuSpec,
    pcg: bool,
    info: bool,
    tol: f64,
    iters: usize,
    verbose_history: bool,
    trace: Option<PathBuf>,
    profile: Option<PathBuf>,
    folded: Option<PathBuf>,
    diagnose: bool,
    flight: bool,
    tune: bool,
    tune_budget: usize,
    policy_cache: Option<PathBuf>,
    policy: Option<PathBuf>,
    threads: Option<usize>,
    /// Rank count for the domain-decomposed solver (`--ranks N`, N > 1);
    /// 1 keeps the single-device path.
    ranks: usize,
}

enum MatrixSource {
    Mtx(PathBuf),
    Suite(String),
    Poisson2d(usize),
}

fn usage() -> ! {
    eprintln!(
        "usage: amgt-cli (--mtx FILE | --suite NAME | --poisson2d N)\n\
         \x20      [--backend amgt|vendor] [--exec sim|native] [--mixed]\n\
         \x20      [--gpu a100|h100|mi210]\n\
         \x20      [--pcg] [--info] [--tol T] [--iters N] [--threads N] [--ranks N]\n\
         \x20      [--history]\n\
         \x20      [--trace FILE.json] [--profile FILE.json] [--folded FILE.txt]\n\
         \x20      [--diagnose] [--flight]\n\
         \x20      [--version [--verbose]]\n\
         \x20      [--tune] [--tune-budget N] [--policy-cache FILE.json]\n\
         \x20      [--policy FILE.json]\n\n\
         suite names: {}",
        suite::entries()
            .iter()
            .map(|e| e.name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut matrix = None;
    let mut backend = BackendKind::AmgT;
    let mut exec_mode = ExecMode::Simulated;
    let mut precision = PrecisionPolicy::Uniform64;
    let mut gpu = GpuSpec::a100();
    let mut pcg = false;
    let mut info = false;
    let mut tol = 1e-8;
    let mut iters = 50;
    let mut verbose_history = false;
    let mut trace = None;
    let mut profile = None;
    let mut folded = None;
    let mut diagnose = false;
    let mut flight = false;
    let mut version = false;
    let mut verbose = false;
    let mut tune = false;
    let mut tune_budget = TuneBudget::default().max_evaluations;
    let mut policy_cache = None;
    let mut policy = None;
    let mut threads = None;
    let mut ranks = 1usize;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut next = || args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--mtx" => matrix = Some(MatrixSource::Mtx(PathBuf::from(next()))),
            "--suite" => matrix = Some(MatrixSource::Suite(next())),
            "--poisson2d" => {
                matrix = Some(MatrixSource::Poisson2d(
                    next().parse().unwrap_or_else(|_| usage()),
                ));
            }
            "--backend" => {
                backend = match next().as_str() {
                    "amgt" => BackendKind::AmgT,
                    "vendor" => BackendKind::Vendor,
                    _ => usage(),
                }
            }
            "--exec" => {
                exec_mode = ExecMode::parse(&next()).unwrap_or_else(|| usage());
            }
            "--mixed" => precision = PrecisionPolicy::Mixed,
            "--gpu" => {
                gpu = match next().as_str() {
                    "a100" => GpuSpec::a100(),
                    "h100" => GpuSpec::h100(),
                    "mi210" => GpuSpec::mi210(),
                    _ => usage(),
                }
            }
            "--pcg" => pcg = true,
            "--info" => info = true,
            "--tol" => tol = next().parse().unwrap_or_else(|_| usage()),
            "--iters" => iters = next().parse().unwrap_or_else(|_| usage()),
            "--threads" => threads = Some(next().parse().unwrap_or_else(|_| usage())),
            "--ranks" => {
                ranks = next().parse().unwrap_or_else(|_| usage());
                if ranks == 0 {
                    usage();
                }
            }
            "--history" => verbose_history = true,
            "--trace" => trace = Some(PathBuf::from(next())),
            "--profile" => profile = Some(PathBuf::from(next())),
            "--folded" => folded = Some(PathBuf::from(next())),
            "--diagnose" => diagnose = true,
            "--flight" => flight = true,
            "--version" => version = true,
            "--verbose" => verbose = true,
            "--tune" => tune = true,
            "--tune-budget" => tune_budget = next().parse().unwrap_or_else(|_| usage()),
            "--policy-cache" => policy_cache = Some(PathBuf::from(next())),
            "--policy" => policy = Some(PathBuf::from(next())),
            _ => usage(),
        }
    }
    if version {
        print_version(verbose, exec_mode);
        std::process::exit(0);
    }
    if tune && policy.is_some() {
        eprintln!("--tune and --policy are mutually exclusive");
        usage();
    }
    Options {
        matrix: matrix.unwrap_or_else(|| usage()),
        backend,
        exec_mode,
        precision,
        gpu,
        pcg,
        info,
        tol,
        iters,
        verbose_history,
        trace,
        profile,
        folded,
        diagnose,
        flight,
        tune,
        tune_budget,
        policy_cache,
        policy,
        threads,
        ranks,
    }
}

/// Resolve the kernel policy the run executes under: explicit `--policy`
/// file beats `--tune`, which beats the paper default baked into the
/// configuration. Returns the trace-ready provenance note.
fn apply_policy(opt: &Options, cfg: &mut AmgConfig, a: &Csr) -> amgt_trace::PolicyNote {
    if let Some(path) = &opt.policy {
        let policy = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| amgt_tune::parse_policy(&text))
            .unwrap_or_else(|e| {
                eprintln!("failed to load policy {}: {e}", path.display());
                std::process::exit(1);
            });
        cfg.policy = policy;
        println!("policy: loaded from {}", path.display());
        return amgt_tune::policy_note("file", 1.0, policy);
    }
    if !opt.tune {
        return amgt_tune::policy_note("paper-default", 1.0, cfg.policy);
    }

    let mut store = match &opt.policy_cache {
        Some(path) => PolicyStore::open(path),
        None => PolicyStore::in_memory(),
    };
    if let Some(err) = &store.load_error {
        eprintln!("warning: ignoring unusable policy cache: {err}");
    }
    let budget = TuneBudget {
        max_evaluations: opt.tune_budget,
        ..TuneBudget::default()
    };
    let result = amgt_tune::tune(&opt.gpu, cfg, a, &budget, &mut store);
    cfg.policy = result.policy;
    let source = if result.from_cache {
        "tuned-cache"
    } else {
        "tuned-search"
    };
    println!(
        "tune: {} ({} evaluations), predicted speedup {:.3}x over paper default",
        if result.from_cache {
            "policy-cache hit".to_string()
        } else {
            format!("searched (budget {})", opt.tune_budget)
        },
        result.evaluations,
        result.predicted_speedup(),
    );
    println!("tune: policy {:?}", result.policy);
    if opt.policy_cache.is_some() {
        if let Err(e) = store.save() {
            eprintln!("warning: failed to write policy cache: {e}");
        }
    }
    amgt_tune::policy_note(source, result.predicted_speedup(), result.policy)
}

/// `--version`: one line by default; `--verbose` adds the same build
/// identity block the server's `/version` route reports.
fn print_version(verbose: bool, exec_mode: ExecMode) {
    println!(
        "amgt-cli {} ({})",
        env!("CARGO_PKG_VERSION"),
        env!("AMGT_GIT_DESCRIBE")
    );
    if verbose {
        println!("  version: {}", env!("CARGO_PKG_VERSION"));
        println!("  git:     {}", env!("AMGT_GIT_DESCRIBE"));
        println!("  exec:    {}", exec_mode.label());
        println!("  simd:    {}", amgt_exec::simd_level().label());
    }
}

/// `--flight` epilogue: mirror the server's tail-sampling contract for a
/// single interactive run — a bad verdict dumps the run's recording as
/// `amgt-flight-<trace_id>.json` in the working directory, anything else
/// retains nothing.
fn finish_flight(
    id: amgt_sim::TraceId,
    outcome: SolveOutcome,
    wall_seconds: f64,
    recording: std::sync::Arc<amgt_sim::Recording>,
) {
    let bad = matches!(
        outcome,
        SolveOutcome::Stagnated | SolveOutcome::Diverged | SolveOutcome::NonFinite
    );
    if !bad {
        println!("flight: verdict {} -- trace not retained", outcome.label());
        return;
    }
    let trace = amgt_trace::FlightTrace {
        trace_id: id,
        verdict: outcome.label().to_string(),
        reason: amgt_trace::RetainReason::Verdict,
        wall_seconds,
        batch_size: 1,
        recording,
    };
    let path = format!("amgt-flight-{}.json", id.to_hex());
    match std::fs::write(&path, trace.to_json()) {
        Ok(()) => println!(
            "flight: verdict {} -> dumped {} span(s), {} kernel event(s) to {path}",
            outcome.label(),
            trace.recording.spans.len(),
            trace.recording.kernels.len()
        ),
        Err(e) => {
            eprintln!("failed to write flight dump {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// `--ranks N` path: domain-decomposed setup + solve over N in-process
/// ranks, printing the per-rank comm/compute breakdown. The per-device
/// exporters (trace, flight, profile) stay on the single-device path.
fn run_dist(opt: &Options, a: Csr, b: &[f64]) {
    use amgt_dist::{dist_pcg, dist_solve};

    let mut cfg = AmgConfig::paper(opt.backend, opt.precision);
    cfg.max_iterations = opt.iters;
    cfg.tolerance = opt.tol;
    cfg.exec = opt.exec_mode;
    let _ = apply_policy(opt, &mut cfg, &a);

    println!(
        "solver: kernel format {:?}, precision {:?}, {} x {}, {} (exec: {})",
        opt.backend,
        opt.precision,
        opt.ranks,
        opt.gpu.name,
        if opt.pcg {
            "distributed AMG-PCG"
        } else {
            "distributed V-cycles"
        },
        cfg.exec.label()
    );

    let t0 = std::time::Instant::now();
    let cluster =
        amgt_sim::Cluster::new(opt.gpu.clone(), opt.ranks, amgt_sim::Interconnect::nvlink());
    let (_x, rep) = if opt.pcg {
        dist_pcg(&cluster, &cfg, a, b, opt.tol, opt.iters)
    } else {
        dist_solve(&cluster, &cfg, a, b)
    };

    println!(
        "hierarchy: {} levels per rank, {} gathered below the coarse boundary",
        rep.levels, rep.gathered_levels
    );
    println!(
        "partition: edge cut {} nnz, row imbalance {:.3}x",
        rep.edge_cut, rep.imbalance
    );
    println!(
        "solve: {} iterations, relres {:.3e}, converged = {}",
        rep.solve_report.iterations,
        rep.solve_report.final_relative_residual(),
        rep.solve_report.converged
    );
    if opt.verbose_history {
        for (i, r) in rep.solve_report.history.iter().enumerate() {
            println!("  iter {:>3}: relres {r:.3e}", i + 1);
        }
    }
    for r in &rep.per_rank {
        println!(
            "  rank {}: {:>8} rows {:>9} nnz  compute {:>10.3e} s  comm {:>10.3e} s  \
             halo {:>10.0} B",
            r.rank, r.rows, r.nnz, r.compute_seconds, r.comm_seconds, r.halo_bytes
        );
    }
    println!(
        "simulated {} x {}: setup {:.1} us, solve {:.1} us (comm {:.1} us, {:.0} halo B \
         in {} msgs, {} all-reduces)",
        opt.ranks,
        opt.gpu.name,
        rep.setup_seconds * 1e6,
        rep.solve_seconds * 1e6,
        rep.comm_seconds * 1e6,
        rep.halo_bytes,
        rep.halo_messages,
        rep.allreduce_count
    );
    println!("wall time: {:.2?}", t0.elapsed());
}

fn print_health(events: &[amgt_sim::HealthEvent]) {
    if events.is_empty() {
        println!("health: no events");
    } else {
        println!("health: {} event(s)", events.len());
        for ev in events {
            println!("  {}", ev.summary());
        }
    }
}

fn main() {
    let opt = parse_args();
    // Pin the rayon pool before any parallel work so wall times are
    // reproducible run-to-run.
    if let Some(n) = opt.threads {
        if let Err(e) = rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global()
        {
            eprintln!("cannot pin thread pool to {n}: {e}");
            std::process::exit(1);
        }
    }
    let a: Csr = match &opt.matrix {
        MatrixSource::Mtx(path) => match read_matrix_market_path(path) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("failed to read {}: {e}", path.display());
                std::process::exit(1);
            }
        },
        MatrixSource::Suite(name) => match suite::generate(name, Scale::Small) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        },
        MatrixSource::Poisson2d(n) => laplacian_2d(*n, *n, Stencil2d::Five),
    };
    if a.nrows() != a.ncols() {
        eprintln!(
            "AMG needs a square system; got {} x {}",
            a.nrows(),
            a.ncols()
        );
        std::process::exit(1);
    }
    if opt.info {
        println!("{}", amgt_sparse::stats::matrix_stats(&a));
        return;
    }
    let b = rhs_of_ones(&a);
    println!("system: n = {}, nnz = {}", a.nrows(), a.nnz());

    if opt.ranks > 1 {
        run_dist(&opt, a, &b);
        return;
    }

    let device = Device::new(opt.gpu.clone());
    // `--trace`, `--folded` and `--flight` all read one recording; capture
    // whenever any of them was requested. `--flight` also tags it with
    // this run's identity.
    let flight_id = opt.flight.then(amgt_sim::TraceId::generate);
    let recorder = (opt.trace.is_some() || opt.folded.is_some() || opt.flight).then(|| {
        let r = std::sync::Arc::new(amgt_sim::Recorder::new());
        if let Some(id) = flight_id {
            r.set_trace_id(id.get());
            println!("flight: recording under trace id {}", id.to_hex());
        }
        device.install_recorder(r.clone());
        r
    });
    if opt.profile.is_some() {
        amgt_exec::prof::reset();
        amgt_exec::prof::enable();
    }
    let mut cfg = AmgConfig::paper(opt.backend, opt.precision);
    cfg.max_iterations = opt.iters;
    cfg.tolerance = opt.tol;
    cfg.exec = opt.exec_mode;

    let note = apply_policy(&opt, &mut cfg, &a);
    if let Some(r) = &recorder {
        r.set_policy(note);
        // Observed pool width, not the requested one: if the pool could
        // not be pinned we exited above, and with no --threads this
        // reports the actual (sequential) width instead of a guess.
        r.set_threads(rayon::current_num_threads());
        r.set_exec(cfg.exec.label());
    }

    println!(
        "solver: kernel format {:?}, precision {:?}, GPU {}, {} (exec: {})",
        opt.backend,
        opt.precision,
        opt.gpu.name,
        if opt.pcg { "AMG-PCG" } else { "V-cycles" },
        cfg.exec.label()
    );

    let t0 = std::time::Instant::now();
    let solve_outcome;
    if opt.pcg {
        let h = setup(&device, &cfg, a);
        println!(
            "hierarchy: {} levels {:?}",
            h.n_levels(),
            h.stats.grid_sizes
        );
        if opt.diagnose {
            print!("{}", h.diagnostics().render());
        }
        let mut x = vec![0.0; b.len()];
        let rep = pcg_solve(&device, &cfg, &h, &b, &mut x, opt.tol, opt.iters);
        solve_outcome = rep.outcome;
        println!(
            "PCG: {} iterations, converged = {}",
            rep.iterations, rep.converged
        );
        if opt.diagnose {
            println!(
                "outcome: {} (convergence factor {:.4})",
                rep.outcome.label(),
                rep.convergence_factor
            );
            print_health(&rep.health_events);
        }
        if opt.verbose_history {
            for (i, r) in rep.history.iter().enumerate() {
                println!("  iter {:>3}: relres {r:.3e}", i + 1);
            }
        }
    } else {
        let (_x, h, rep) = run_amg(&device, &cfg, a, &b);
        solve_outcome = rep.solve_report.outcome;
        println!(
            "hierarchy: {} levels {:?}",
            h.n_levels(),
            rep.setup_stats.grid_sizes
        );
        if opt.diagnose {
            print!("{}", h.diagnostics().render());
        }
        println!(
            "solve: {} cycles, relres {:.3e}, converged = {}",
            rep.solve_report.iterations,
            rep.solve_report.final_relative_residual(),
            rep.solve_report.converged
        );
        if opt.diagnose {
            println!(
                "outcome: {} (convergence factor {:.4})",
                rep.solve_report.outcome.label(),
                rep.solve_report.convergence_factor
            );
            print_health(&rep.solve_report.health_events);
        }
        if opt.verbose_history {
            for (i, r) in rep.solve_report.history.iter().enumerate() {
                println!("  cycle {:>3}: relres {r:.3e}", i + 1);
            }
        }
        println!(
            "simulated {}: setup {:.1} us (SpGEMM {:.0}%), solve {:.1} us (SpMV {:.0}%)",
            opt.gpu.name,
            rep.setup.total * 1e6,
            100.0 * rep.setup.share(rep.setup.spgemm),
            rep.solve.total * 1e6,
            100.0 * rep.solve.share(rep.solve.spmv),
        );
    }
    if let Some(recorder) = &recorder {
        device.remove_recorder();
        let recording = std::sync::Arc::new(recorder.take());
        if let Some(id) = flight_id {
            finish_flight(
                id,
                solve_outcome,
                t0.elapsed().as_secs_f64(),
                recording.clone(),
            );
        }
        if let Some(path) = &opt.trace {
            let json = amgt_trace::chrome_trace(&recording);
            match std::fs::write(path, &json) {
                Ok(()) => println!(
                    "trace: {} spans, {} kernel events -> {} (load into chrome://tracing)",
                    recording.spans.len(),
                    recording.kernels.len(),
                    path.display()
                ),
                Err(e) => {
                    eprintln!("failed to write trace {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
        }
        if let Some(path) = &opt.folded {
            let folded = amgt_trace::folded_stacks(&recording);
            match std::fs::write(path, &folded) {
                Ok(()) => println!(
                    "folded: {} stack line(s), {:.1} ms total -> {} (feed to flamegraph.pl)",
                    folded.lines().count(),
                    amgt_trace::folded_total_ns(&folded) as f64 / 1e6,
                    path.display()
                ),
                Err(e) => {
                    eprintln!("failed to write folded stacks {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
        }
    }
    if let Some(path) = &opt.profile {
        let profile = amgt_exec::prof::snapshot();
        amgt_exec::prof::disable();
        let fidelity = amgt_trace::FidelityReport::from_profile(
            &profile,
            amgt_trace::FidelityReport::DEFAULT_FLAG_THRESHOLD,
        );
        print!("{}", fidelity.render());
        let json = format!(
            "{{\"profile\":{},\"fidelity\":{}}}",
            profile.to_json(),
            fidelity.to_json()
        );
        match std::fs::write(path, &json) {
            Ok(()) => println!(
                "profile: {} kernel class(es), {} sample(s) -> {}",
                profile.classes.len(),
                profile.total_count(),
                path.display()
            ),
            Err(e) => {
                eprintln!("failed to write profile {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    println!("wall time: {:.2?}", t0.elapsed());
}
