//! Host wall-clock benchmark of the AmgT solver.
//!
//! ```text
//! amgt-perfbench --workload <cold_solve|parallel_stream|service>
//!                --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//! ```
//!
//! Builds the workload's inputs from the seed, times the AMG set-up phase,
//! then runs requests in a closed loop for `--seconds`, checking every
//! answer against an independent residual. The last line of standard output
//! is one JSON object: with `--trace 0` the end-to-end metrics, with
//! `--trace 1` the per-layer metrics of a run with the kernel profiler,
//! allocation counting and benchmark spans on (written as a Chrome trace to
//! `--trace-out` when given).

mod cpus;
mod inputs;
mod layers;
mod stats;
mod workloads;

use stats::typical;
use workloads::{Params, Record};

#[global_allocator]
static ALLOC: amgt_bench::alloc::CountingAlloc = amgt_bench::alloc::CountingAlloc;

const WORKLOADS: [&str; 3] = ["cold_solve", "parallel_stream", "service"];

struct Args {
    workload: String,
    params: Params,
    trace_out: Option<std::path::PathBuf>,
}

fn usage(problem: &str) -> ! {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: amgt-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--trace-out <file>]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--trace-out" => trace_out = Some(value.into()),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    Args {
        workload,
        params: Params {
            seed: seed.unwrap_or_else(|| usage("--seed must be a whole number")),
            seconds: seconds.unwrap_or_else(|| usage("--seconds must be positive")),
            trace: trace.unwrap_or_else(|| usage("--trace must be 0 or 1")),
        },
        trace_out,
    }
}

/// The quantile that summarizes latencies and set-up times: the median of
/// each request class (of each request's faster lane run), so a slowdown of
/// half the requests moves it.
const LATENCY_QUANTILE: f64 = 0.5;

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// `(name, value, unit)` rows of the end-to-end metrics.
fn end_to_end(r: &Record) -> Vec<(&'static str, f64, &'static str)> {
    vec![
        (
            "latency_ms",
            1e3 * typical(&r.latencies, LATENCY_QUANTILE),
            "ms",
        ),
        ("setup_s", typical(&r.setup_s, LATENCY_QUANTILE), "s"),
    ]
}

/// `(name, value, unit)` rows of the per-layer metrics. `request.*`,
/// `setup.*`, `solve.*` and the counts are per request run in the loop
/// (setup and resetup inside requests count as `setup`); `build.*` are per
/// set-up sample `amgt::setup` run.
fn per_layer(r: &Record) -> Vec<(&'static str, f64, &'static str)> {
    use layers::Slot::*;
    let req = r.requests.max(1) as f64;
    let reps = r.build_runs.max(1) as f64;
    let ms = |ns: u64, per: f64| ns as f64 / 1e6 / per;
    let (k, b) = (&r.run, &r.build);
    let per_batch = |n: u64| n as f64 / r.batches.max(1) as f64;
    vec![
        ("request.p10_ms", 1e3 * typical(&r.latencies, 0.1), "ms"),
        ("request.p50_ms", 1e3 * typical(&r.latencies, 0.5), "ms"),
        ("request.p90_ms", 1e3 * typical(&r.latencies, 0.9), "ms"),
        (
            "request.unattributed_ms",
            1e3 * r.busy_s / req - ms(k.total_ns(), req),
            "ms",
        ),
        ("request.allocs", r.run_allocs as f64 / req, "count"),
        ("request.kernel_launches", k.launches as f64 / req, "count"),
        ("setup.spgemm_ms", ms(k.ns(SetupSpgemm), req), "ms"),
        ("setup.convert_ms", ms(k.ns(SetupConvert), req), "ms"),
        ("setup.other_ms", ms(k.ns(SetupOther), req), "ms"),
        ("solve.spmv_fine_ms", ms(k.ns(SolveSpmvFine), req), "ms"),
        ("solve.spmv_coarse_ms", ms(k.ns(SolveSpmvCoarse), req), "ms"),
        ("solve.other_ms", ms(k.ns(SolveOther), req), "ms"),
        (
            "solve.cycles",
            r.cycles as f64 / r.rhs.max(1) as f64,
            "count",
        ),
        ("hierarchy.reuse_pct", 100.0 * per_batch(r.reused), "%"),
        ("server.batch_rhs", per_batch(r.rhs), "count"),
        ("build.spgemm_ms", ms(b.ns(SetupSpgemm), reps), "ms"),
        (
            "build.other_ms",
            ms(b.total_ns() - b.ns(SetupSpgemm), reps),
            "ms",
        ),
        (
            "build.unattributed_ms",
            1e3 * r.build_busy_s / reps - ms(b.total_ns(), reps),
            "ms",
        ),
        ("build.allocs", r.build_allocs as f64 / reps, "count"),
        ("build.operator_complexity", mean(&r.complexity), "ratio"),
    ]
}

fn main() {
    let args = parse_args();
    let p = &args.params;
    let rec = match args.workload.as_str() {
        "cold_solve" => workloads::cold_solve(p),
        "parallel_stream" => workloads::parallel_stream(p),
        _ => workloads::service(p),
    };
    let rows = if p.trace {
        per_layer(&rec)
    } else {
        end_to_end(&rec)
    };
    if let Some(path) = &args.trace_out {
        if let Err(e) = layers::write_chrome_trace(path, &rec.spans) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    let correct = rec.attempted > 0 && rec.failed == 0;
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    eprintln!(
        "perfbench: {} seed {} on {threads} CPU(s): {} request runs in {:.2} s, \
         {} answers checked, {} wrong, {} set-up samples",
        args.workload,
        p.seed,
        rec.requests,
        rec.window_s,
        rec.attempted,
        rec.failed,
        rec.setup_s.len()
    );
    let metrics: Vec<String> = rows
        .iter()
        .map(|(name, value, unit)| {
            eprintln!("perfbench:   {name:<24} {value:>14.6} {unit}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rec.attempted,
        rec.failed,
        metrics.join(", ")
    );
}
