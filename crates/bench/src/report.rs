//! Schema-versioned perf-baseline reports (`BENCH_report.json`).
//!
//! The bench runner (`src/bin/bench.rs`) executes the figure reproductions
//! and kernel microbenches on the suite generators and serializes one
//! [`BenchReport`]: per-case simulated seconds, iteration counts,
//! convergence factors and hierarchy complexities. Because the GPU clock is
//! simulated, re-running the same cases on the same code produces *bitwise
//! identical* numbers — so [`compare`] against a stored baseline is an
//! exact regression gate, with thresholds only to absorb intentional
//! small drifts when the cost model is recalibrated.

use amgt_kernels::KernelPolicy;
use amgt_trace::Json;
use serde::Serialize;

/// Bump when the report layout changes shape (not when numbers move).
///
/// * v1 — original layout.
/// * v2 — adds the optional top-level `policy` object (the active
///   [`KernelPolicy`] plus tuner provenance).
/// * v3 — adds the optional top-level `threads` count and per-case `wall`
///   object (`--wallclock` host timings + allocation counters).
/// * v4 — adds the optional top-level `exec` (execution-backend label,
///   `"sim"`/`"native"`) and `simd` (SIMD level detected at runtime,
///   `"avx2"`/`"neon"`/`"scalar"`) strings. Simulated-seconds figures are
///   exec-independent; wall timings are only comparable between reports
///   with equal `exec`/`simd`/`threads`.
/// * v5 — adds the optional top-level `fidelity` object (cost-model
///   fidelity audit from a `--profile` run: per-kernel-class simulated
///   charge vs measured host wall, drift ratios, flagged classes).
/// * v6 — adds the optional top-level `flight_overhead` object (per-case
///   solve-phase wall with the flight recorder off vs on and the geomean
///   ratio, written by the `--flight-overhead` mode that gates recorder
///   cost in CI).
/// * v7 — adds the optional per-case `dist` object (rank count, finest
///   partition edge cut and imbalance, comm/compute split, halo traffic
///   and collective counters from a `--ranks N` distributed run).
/// * v8 — adds the optional per-case `par` object (pool width, 1-thread
///   vs N-thread solve wall, speedup, parallel efficiency) written by
///   `--wallclock` runs at `--threads > 1`. Results are bitwise
///   thread-count-invariant, so only the walls differ between widths.
pub const SCHEMA_VERSION: u64 = 8;

/// Oldest schema [`BenchReport::from_json`] still reads: the current one.
/// Both shipped baselines are v8. The optional blocks stay optional within
/// v8, since each bench mode writes only its own.
pub const MIN_SCHEMA_VERSION: u64 = 8;

/// The kernel policy a report's cases ran under, plus where it came from.
#[derive(Clone, Debug, Serialize)]
pub struct PolicyInfo {
    /// `"paper-default"`, `"tuned"`, or a future source tag.
    pub source: String,
    pub policy: KernelPolicy,
    /// Tuner-predicted simulated-seconds speedup over the paper default
    /// (1.0 when the default itself ran).
    pub predicted_speedup: f64,
}

impl PolicyInfo {
    /// The v1-equivalent report header: paper default, no predicted gain.
    pub fn paper_default() -> PolicyInfo {
        PolicyInfo {
            source: "paper-default".to_string(),
            policy: KernelPolicy::paper_default(),
            predicted_speedup: 1.0,
        }
    }
}

/// Host-side wall-clock timings and allocation counters for one case
/// (v3+, written only by the `--wallclock` bench mode). All counters come
/// from the bench binary's counting global allocator, so they include
/// every heap call the phase performed on the measuring thread.
#[derive(Clone, Debug, Serialize)]
pub struct WallStats {
    pub setup_wall_ns: u64,
    pub solve_wall_ns: u64,
    pub setup_allocs: u64,
    pub setup_bytes: u64,
    pub solve_allocs: u64,
    pub solve_bytes: u64,
    /// `solve_allocs / iterations` — the number the alloc-regression gate
    /// compares. Steady-state allocation-free solves keep this near zero.
    pub solve_allocs_per_iteration: f64,
}

/// One kernel class of the cost-model fidelity audit (v5+), owned-string
/// mirror of `amgt_trace::FidelityRow` so parsed reports need no
/// `&'static str` labels.
#[derive(Clone, Debug, Serialize)]
pub struct FidelityRowInfo {
    /// Class label, e.g. `SpMV/AmgT FP64 native`.
    pub class: String,
    /// Measured kernel invocations in the class.
    pub count: u64,
    /// Total simulated charge, seconds.
    pub simulated_seconds: f64,
    /// Total measured host wall, nanoseconds.
    pub measured_ns: u64,
    /// measured / simulated (seconds over seconds).
    pub drift_ratio: f64,
    /// `drift_ratio` divided by the report-wide geometric mean, so a
    /// constant host-vs-GPU clock factor cancels.
    pub normalized_drift: f64,
    /// Whether the class breached the flag threshold ("the model lies
    /// here").
    pub flagged: bool,
}

/// Cost-model fidelity summary of a `--profile` bench run (v5+).
#[derive(Clone, Debug, Serialize)]
pub struct FidelityInfo {
    /// Geometric mean of measured/simulated across classes — the global
    /// host-clock-to-simulated-clock scale.
    pub overall_ratio: f64,
    /// Normalized-drift threshold beyond which a class is flagged.
    pub flag_threshold: f64,
    /// Labels of flagged classes, in row order.
    pub flagged: Vec<String>,
    pub rows: Vec<FidelityRowInfo>,
}

impl FidelityInfo {
    /// Owned snapshot of a live `amgt_trace::FidelityReport`.
    pub fn from_report(rep: &amgt_trace::FidelityReport) -> FidelityInfo {
        FidelityInfo {
            overall_ratio: rep.overall_ratio,
            flag_threshold: rep.flag_threshold,
            flagged: rep.flagged.clone(),
            rows: rep
                .rows
                .iter()
                .map(|r| FidelityRowInfo {
                    class: format!("{}/{} {} {}", r.kind, r.algo, r.precision, r.exec),
                    count: r.count,
                    simulated_seconds: r.simulated_seconds,
                    measured_ns: r.measured_ns,
                    drift_ratio: r.drift_ratio,
                    normalized_drift: r.normalized_drift,
                    flagged: r.flagged,
                })
                .collect(),
        }
    }
}

/// One case of the flight-recorder overhead measurement (v6+): the same
/// solve timed with the recorder disabled and enabled.
#[derive(Clone, Debug, Serialize)]
pub struct FlightOverheadCase {
    /// Case id, e.g. `flight:cant:amgt-fp64`.
    pub name: String,
    /// Best-of-N solve-phase wall with the recorder disabled, nanoseconds.
    pub off_ns: u64,
    /// Best-of-N solve-phase wall with the recorder enabled, nanoseconds.
    pub on_ns: u64,
    /// `on_ns / off_ns` — 1.00 means the recorder is free.
    pub ratio: f64,
}

/// Flight-recorder overhead summary (v6+, `--flight-overhead` runs only).
/// Wall-derived, so only comparable between equal `exec`/`simd`/`threads`
/// reports; CI gates on `geomean_ratio` staying under its budget rather
/// than comparing across baselines.
#[derive(Clone, Debug, Serialize)]
pub struct FlightOverheadInfo {
    /// Geometric mean of per-case on/off ratios — the headline overhead.
    pub geomean_ratio: f64,
    pub cases: Vec<FlightOverheadCase>,
}

/// Distributed-run summary of one case (v7+, written only by `--ranks N`
/// runs). Simulated-clock-derived like the timing fields, so exactly
/// reproducible and safe to gate on.
#[derive(Clone, Debug, Serialize)]
pub struct DistInfo {
    /// Ranks the solve ran over.
    pub ranks: usize,
    /// Trailing hierarchy levels gathered and solved redundantly.
    pub gathered_levels: usize,
    /// Nonzeros coupling rows across rank boundaries on the finest level.
    pub edge_cut: u64,
    /// `max / mean` nonzeros per rank on the finest level (1.0 = perfect).
    pub imbalance: f64,
    /// Slowest rank's interconnect time inside the solve phase; the
    /// compute share is `solve_seconds - comm_seconds` of the case.
    pub comm_seconds: f64,
    /// Total precision-scaled halo payload across ranks, bytes.
    pub halo_bytes: f64,
    /// Point-to-point halo messages across ranks.
    pub halo_messages: u64,
    /// Scalar all-reduces issued during the solve.
    pub allreduce_count: u64,
}

/// Parallel-scaling measurement for one case (v8+, written only by
/// `--wallclock` runs at `--threads > 1`): the same solve re-timed inside
/// a private 1-thread pool as the reference. Wall-derived, so only
/// comparable between reports with equal `exec`/`simd` and equal
/// `threads`; the solutions themselves are bitwise identical at every
/// width, so this block carries *only* timing.
#[derive(Clone, Debug, Serialize)]
pub struct ParStats {
    /// Pool width the main (`solve_wall_nt_ns`) measurement ran at.
    pub threads: usize,
    /// Best-of-N solve-phase wall inside a 1-thread pool, nanoseconds.
    pub solve_wall_1t_ns: u64,
    /// Best-of-N solve-phase wall at `threads` workers, nanoseconds.
    pub solve_wall_nt_ns: u64,
    /// `solve_wall_1t_ns / solve_wall_nt_ns`.
    pub speedup: f64,
    /// `speedup / threads` — 1.0 is perfect scaling. Values near
    /// `1 / threads` mean the pool had only one core to run on.
    pub efficiency: f64,
}

/// One benchmark case: a (matrix, solver-variant) end-to-end run or a
/// kernel microbench (where only the timing fields are meaningful).
#[derive(Clone, Debug, Serialize)]
pub struct BenchCase {
    /// Unique case id, e.g. `e2e:cant:amgt-mixed` or `kernel:spmv:amgt`.
    pub name: String,
    pub variant: String,
    /// System order (rows).
    pub n: usize,
    pub nnz: usize,
    pub levels: usize,
    pub iterations: usize,
    pub setup_seconds: f64,
    pub solve_seconds: f64,
    pub total_seconds: f64,
    pub final_relative_residual: f64,
    pub convergence_factor: f64,
    pub operator_complexity: f64,
    pub grid_complexity: f64,
    /// `SolveOutcome` label: Converged / MaxIterations / Stagnated /
    /// Diverged / NonFinite.
    pub outcome: String,
    /// Wall-clock + allocation measurements (v3+, `--wallclock` runs only).
    pub wall: Option<WallStats>,
    /// Distributed-run summary (v7+, `--ranks N` runs only).
    pub dist: Option<DistInfo>,
    /// Parallel-scaling measurement (v8+, `--wallclock --threads N>1`
    /// runs only).
    pub par: Option<ParStats>,
}

/// The full report: schema header plus all cases from one runner pass.
#[derive(Clone, Debug, Serialize)]
pub struct BenchReport {
    pub schema_version: u64,
    pub gpu: String,
    pub scale: String,
    /// Active kernel policy (v2+).
    pub policy: Option<PolicyInfo>,
    /// Rayon worker-thread count the run used (v3+, wall-clock runs; wall
    /// timings are only comparable between runs with equal thread counts).
    pub threads: Option<usize>,
    /// Execution-backend label (`"sim"`/`"native"`; v4+).
    pub exec: Option<String>,
    /// SIMD level detected at runtime on the recording host (v4+).
    pub simd: Option<String>,
    /// Cost-model fidelity audit (v5+, `--profile` runs only; wall-derived
    /// like `wall`, so only comparable between equal `exec`/`simd`/
    /// `threads` reports).
    pub fidelity: Option<FidelityInfo>,
    /// Flight-recorder overhead measurement (v6+, `--flight-overhead`
    /// runs only).
    pub flight_overhead: Option<FlightOverheadInfo>,
    pub cases: Vec<BenchCase>,
}

impl BenchReport {
    pub fn to_json(&self) -> String {
        Serialize::to_json(self)
    }

    /// Parse a report previously written by [`BenchReport::to_json`].
    ///
    /// # Errors
    /// Malformed JSON, missing fields or a wrong `schema_version` all
    /// return a message naming the first problem found.
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let root = Json::parse(text)?;
        let schema_version = field_u64(&root, "schema_version")?;
        if !(MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&schema_version) {
            return Err(format!(
                "schema_version {schema_version} outside supported \
                 {MIN_SCHEMA_VERSION}..={SCHEMA_VERSION}"
            ));
        }
        let gpu = field_str(&root, "gpu")?;
        let scale = field_str(&root, "scale")?;
        let policy = match root.get("policy") {
            Some(p) if !p.is_null() => Some(parse_policy_info(p)?),
            _ => None,
        };
        let threads = match root.get("threads") {
            Some(t) if !t.is_null() => Some(
                t.as_f64()
                    .map(|f| f as usize)
                    .ok_or("field `threads` is not a number")?,
            ),
            _ => None,
        };
        let exec = match root.get("exec") {
            Some(e) if !e.is_null() => Some(
                e.as_str()
                    .ok_or("field `exec` is not a string")?
                    .to_string(),
            ),
            _ => None,
        };
        let simd = match root.get("simd") {
            Some(e) if !e.is_null() => Some(
                e.as_str()
                    .ok_or("field `simd` is not a string")?
                    .to_string(),
            ),
            _ => None,
        };
        let fidelity = match root.get("fidelity") {
            Some(f) if !f.is_null() => Some(parse_fidelity(f)?),
            _ => None,
        };
        let flight_overhead = match root.get("flight_overhead") {
            Some(f) if !f.is_null() => Some(parse_flight_overhead(f)?),
            _ => None,
        };
        let cases_json = root
            .get("cases")
            .and_then(Json::as_array)
            .ok_or("missing `cases` array")?;
        let mut cases = Vec::with_capacity(cases_json.len());
        for (i, c) in cases_json.iter().enumerate() {
            cases.push(parse_case(c).map_err(|e| format!("case {i}: {e}"))?);
        }
        Ok(BenchReport {
            schema_version,
            gpu,
            scale,
            policy,
            threads,
            exec,
            simd,
            fidelity,
            flight_overhead,
            cases,
        })
    }

    /// Structural sanity: unique case names, finite non-negative timings,
    /// at least one case.
    ///
    /// # Errors
    /// Returns a message naming the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if !(MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&self.schema_version) {
            return Err(format!("schema_version {}", self.schema_version));
        }
        if let Some(p) = &self.policy {
            p.policy
                .validate()
                .map_err(|e| format!("report policy: {e}"))?;
            if !p.predicted_speedup.is_finite() || p.predicted_speedup <= 0.0 {
                return Err(format!("predicted_speedup {}", p.predicted_speedup));
            }
        }
        if let Some(f) = &self.fidelity {
            if !f.flag_threshold.is_finite() || f.flag_threshold <= 1.0 {
                return Err(format!("fidelity flag_threshold {}", f.flag_threshold));
            }
            for r in &f.rows {
                if r.count == 0 {
                    return Err(format!("fidelity class `{}` has zero samples", r.class));
                }
                if !r.simulated_seconds.is_finite() || r.simulated_seconds < 0.0 {
                    return Err(format!(
                        "fidelity class `{}`: simulated_seconds = {}",
                        r.class, r.simulated_seconds
                    ));
                }
            }
            let flagged_rows: Vec<&str> = f
                .rows
                .iter()
                .filter(|r| r.flagged)
                .map(|r| r.class.as_str())
                .collect();
            if flagged_rows.len() != f.flagged.len() {
                return Err(format!(
                    "fidelity flagged list ({}) disagrees with flagged rows ({})",
                    f.flagged.len(),
                    flagged_rows.len()
                ));
            }
        }
        if let Some(fo) = &self.flight_overhead {
            if !fo.geomean_ratio.is_finite() || fo.geomean_ratio <= 0.0 {
                return Err(format!(
                    "flight_overhead geomean_ratio {}",
                    fo.geomean_ratio
                ));
            }
            if fo.cases.is_empty() {
                return Err("flight_overhead has no cases".into());
            }
            for c in &fo.cases {
                if c.off_ns == 0 {
                    return Err(format!("flight_overhead case `{}`: off_ns = 0", c.name));
                }
                if !c.ratio.is_finite() || c.ratio <= 0.0 {
                    return Err(format!(
                        "flight_overhead case `{}`: ratio = {}",
                        c.name, c.ratio
                    ));
                }
            }
        }
        if self.cases.is_empty() {
            return Err("report has no cases".into());
        }
        let mut seen = std::collections::BTreeSet::new();
        for c in &self.cases {
            if !seen.insert(c.name.as_str()) {
                return Err(format!("duplicate case name `{}`", c.name));
            }
            for (what, v) in [
                ("setup_seconds", c.setup_seconds),
                ("solve_seconds", c.solve_seconds),
                ("total_seconds", c.total_seconds),
            ] {
                if !v.is_finite() || v < 0.0 {
                    return Err(format!("case `{}`: {what} = {v}", c.name));
                }
            }
            if c.total_seconds + 1e-15 < c.setup_seconds + c.solve_seconds - 1e-12 {
                return Err(format!(
                    "case `{}`: total {} < setup + solve",
                    c.name, c.total_seconds
                ));
            }
            if let Some(w) = &c.wall {
                if !w.solve_allocs_per_iteration.is_finite() || w.solve_allocs_per_iteration < 0.0 {
                    return Err(format!(
                        "case `{}`: solve_allocs_per_iteration = {}",
                        c.name, w.solve_allocs_per_iteration
                    ));
                }
            }
            if let Some(p) = &c.par {
                if p.threads < 2 {
                    return Err(format!("case `{}`: par.threads = {}", c.name, p.threads));
                }
                if p.solve_wall_1t_ns == 0 || p.solve_wall_nt_ns == 0 {
                    return Err(format!("case `{}`: par wall is zero", c.name));
                }
                for (what, v) in [("par.speedup", p.speedup), ("par.efficiency", p.efficiency)] {
                    if !v.is_finite() || v <= 0.0 {
                        return Err(format!("case `{}`: {what} = {v}", c.name));
                    }
                }
            }
            if let Some(d) = &c.dist {
                if d.ranks == 0 {
                    return Err(format!("case `{}`: dist.ranks = 0", c.name));
                }
                if !d.imbalance.is_finite() || d.imbalance < 1.0 {
                    return Err(format!(
                        "case `{}`: dist.imbalance = {}",
                        c.name, d.imbalance
                    ));
                }
                for (what, v) in [
                    ("dist.comm_seconds", d.comm_seconds),
                    ("dist.halo_bytes", d.halo_bytes),
                ] {
                    if !v.is_finite() || v < 0.0 {
                        return Err(format!("case `{}`: {what} = {v}", c.name));
                    }
                }
            }
        }
        Ok(())
    }

    pub fn case(&self, name: &str) -> Option<&BenchCase> {
        self.cases.iter().find(|c| c.name == name)
    }
}

fn field_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .map(|f| f as u64)
        .ok_or_else(|| format!("missing numeric `{key}`"))
}

fn field_f64(v: &Json, key: &str) -> Result<f64, String> {
    // The serializer writes non-finite floats as `null`; read them back as
    // NaN so validation (not parsing) is what rejects them.
    match v.get(key) {
        Some(j) if j.is_null() => Ok(f64::NAN),
        Some(j) => j
            .as_f64()
            .ok_or_else(|| format!("field `{key}` is not a number")),
        None => Err(format!("missing numeric `{key}`")),
    }
}

fn field_usize(v: &Json, key: &str) -> Result<usize, String> {
    field_u64(v, key).map(|u| u as usize)
}

fn field_str(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string `{key}`"))
}

fn parse_policy_info(v: &Json) -> Result<PolicyInfo, String> {
    let p = v.get("policy").ok_or("policy: missing `policy` object")?;
    Ok(PolicyInfo {
        source: field_str(v, "source")?,
        policy: KernelPolicy {
            tc_popcount_threshold: field_u64(p, "tc_popcount_threshold")? as u32,
            spmv_variation_threshold: field_f64(p, "spmv_variation_threshold")?,
            spmv_warp_capacity: field_usize(p, "spmv_warp_capacity")?,
            spgemm_bin_base: field_usize(p, "spgemm_bin_base")?,
            spgemm_bin_count: field_usize(p, "spgemm_bin_count")?,
            mixed_fp32_level: field_usize(p, "mixed_fp32_level")?,
            mixed_fp16_level: field_usize(p, "mixed_fp16_level")?,
        },
        predicted_speedup: field_f64(v, "predicted_speedup")?,
    })
}

fn parse_wall(v: &Json) -> Result<WallStats, String> {
    Ok(WallStats {
        setup_wall_ns: field_u64(v, "setup_wall_ns")?,
        solve_wall_ns: field_u64(v, "solve_wall_ns")?,
        setup_allocs: field_u64(v, "setup_allocs")?,
        setup_bytes: field_u64(v, "setup_bytes")?,
        solve_allocs: field_u64(v, "solve_allocs")?,
        solve_bytes: field_u64(v, "solve_bytes")?,
        solve_allocs_per_iteration: field_f64(v, "solve_allocs_per_iteration")?,
    })
}

fn parse_fidelity(v: &Json) -> Result<FidelityInfo, String> {
    let flagged = v
        .get("flagged")
        .and_then(Json::as_array)
        .ok_or("fidelity: missing `flagged` array")?
        .iter()
        .map(|f| {
            f.as_str()
                .map(str::to_string)
                .ok_or_else(|| "fidelity: non-string entry in `flagged`".to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let rows = v
        .get("rows")
        .and_then(Json::as_array)
        .ok_or("fidelity: missing `rows` array")?
        .iter()
        .enumerate()
        .map(|(i, r)| parse_fidelity_row(r).map_err(|e| format!("fidelity row {i}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(FidelityInfo {
        overall_ratio: field_f64(v, "overall_ratio")?,
        flag_threshold: field_f64(v, "flag_threshold")?,
        flagged,
        rows,
    })
}

fn parse_fidelity_row(v: &Json) -> Result<FidelityRowInfo, String> {
    Ok(FidelityRowInfo {
        class: field_str(v, "class")?,
        count: field_u64(v, "count")?,
        simulated_seconds: field_f64(v, "simulated_seconds")?,
        measured_ns: field_u64(v, "measured_ns")?,
        drift_ratio: field_f64(v, "drift_ratio")?,
        normalized_drift: field_f64(v, "normalized_drift")?,
        flagged: v
            .get("flagged")
            .and_then(Json::as_bool)
            .ok_or("missing boolean `flagged`")?,
    })
}

fn parse_flight_overhead(v: &Json) -> Result<FlightOverheadInfo, String> {
    let cases = v
        .get("cases")
        .and_then(Json::as_array)
        .ok_or("flight_overhead: missing `cases` array")?
        .iter()
        .enumerate()
        .map(|(i, c)| parse_flight_case(c).map_err(|e| format!("flight_overhead case {i}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(FlightOverheadInfo {
        geomean_ratio: field_f64(v, "geomean_ratio")?,
        cases,
    })
}

fn parse_flight_case(v: &Json) -> Result<FlightOverheadCase, String> {
    Ok(FlightOverheadCase {
        name: field_str(v, "name")?,
        off_ns: field_u64(v, "off_ns")?,
        on_ns: field_u64(v, "on_ns")?,
        ratio: field_f64(v, "ratio")?,
    })
}

fn parse_dist(v: &Json) -> Result<DistInfo, String> {
    Ok(DistInfo {
        ranks: field_usize(v, "ranks")?,
        gathered_levels: field_usize(v, "gathered_levels")?,
        edge_cut: field_u64(v, "edge_cut")?,
        imbalance: field_f64(v, "imbalance")?,
        comm_seconds: field_f64(v, "comm_seconds")?,
        halo_bytes: field_f64(v, "halo_bytes")?,
        halo_messages: field_u64(v, "halo_messages")?,
        allreduce_count: field_u64(v, "allreduce_count")?,
    })
}

fn parse_case(v: &Json) -> Result<BenchCase, String> {
    let wall = match v.get("wall") {
        Some(w) if !w.is_null() => Some(parse_wall(w)?),
        _ => None,
    };
    let dist = match v.get("dist") {
        Some(d) if !d.is_null() => Some(parse_dist(d)?),
        _ => None,
    };
    let par = match v.get("par") {
        Some(p) if !p.is_null() => Some(parse_par(p)?),
        _ => None,
    };
    Ok(BenchCase {
        name: field_str(v, "name")?,
        variant: field_str(v, "variant")?,
        n: field_usize(v, "n")?,
        nnz: field_usize(v, "nnz")?,
        levels: field_usize(v, "levels")?,
        iterations: field_usize(v, "iterations")?,
        setup_seconds: field_f64(v, "setup_seconds")?,
        solve_seconds: field_f64(v, "solve_seconds")?,
        total_seconds: field_f64(v, "total_seconds")?,
        final_relative_residual: field_f64(v, "final_relative_residual")?,
        convergence_factor: field_f64(v, "convergence_factor")?,
        operator_complexity: field_f64(v, "operator_complexity")?,
        grid_complexity: field_f64(v, "grid_complexity")?,
        outcome: field_str(v, "outcome")?,
        wall,
        dist,
        par,
    })
}

fn parse_par(v: &Json) -> Result<ParStats, String> {
    Ok(ParStats {
        threads: field_usize(v, "threads")?,
        solve_wall_1t_ns: field_u64(v, "solve_wall_1t_ns")?,
        solve_wall_nt_ns: field_u64(v, "solve_wall_nt_ns")?,
        speedup: field_f64(v, "speedup")?,
        efficiency: field_f64(v, "efficiency")?,
    })
}

/// Regression tolerances for [`compare`].
#[derive(Clone, Copy, Debug)]
pub struct CompareThresholds {
    /// A case regresses when `current.total_seconds` exceeds
    /// `baseline.total_seconds * time_ratio` (and the absolute slack).
    pub time_ratio: f64,
    /// Absolute simulated-seconds slack under which time drift is ignored
    /// (guards against ratio noise on near-zero microbench timings).
    pub time_slack_seconds: f64,
    /// Extra iterations tolerated over the baseline.
    pub iteration_slack: usize,
    /// A case's solve phase regresses when its allocations-per-iteration
    /// exceed `baseline * alloc_ratio + alloc_slack` (only checked when
    /// both reports carry wall stats for the case). Wall-clock *time* is
    /// deliberately not gated: it is too noisy on shared CI runners, while
    /// allocation counts are deterministic.
    pub alloc_ratio: f64,
    /// Absolute allocations-per-iteration slack (absorbs one-off warmup
    /// growth attributed to the first measured iteration).
    pub alloc_slack: f64,
    /// A distributed case regresses when its halo traffic (bytes) or its
    /// collective count exceeds `baseline * dist_comm_ratio` plus the
    /// absolute slack (only checked when both reports carry a `dist` block
    /// for the case with the same rank count). Halo bytes and collective
    /// counts are deterministic functions of the partition and iteration
    /// count, so drift means the communication pattern itself changed.
    pub dist_comm_ratio: f64,
    /// Absolute halo-byte slack under which traffic drift is ignored.
    pub dist_halo_slack_bytes: f64,
    /// Extra collective operations (all-reduce + all-gather rounds)
    /// tolerated over the baseline.
    pub dist_collective_slack: u64,
    /// A case's parallel efficiency regresses when it falls below
    /// `baseline.efficiency * par_efficiency_ratio - par_efficiency_slack`
    /// (only checked when both reports carry a `par` block for the case
    /// with the same thread count — wall-derived numbers are meaningless
    /// across widths or hosts). Lenient by design: solve walls are short
    /// and shared CI runners are noisy.
    pub par_efficiency_ratio: f64,
    /// Absolute parallel-efficiency slack.
    pub par_efficiency_slack: f64,
}

impl Default for CompareThresholds {
    fn default() -> Self {
        CompareThresholds {
            time_ratio: 1.10,
            time_slack_seconds: 1e-9,
            iteration_slack: 2,
            alloc_ratio: 1.10,
            alloc_slack: 4.0,
            dist_comm_ratio: 1.10,
            dist_halo_slack_bytes: 1024.0,
            dist_collective_slack: 4,
            par_efficiency_ratio: 0.75,
            par_efficiency_slack: 0.05,
        }
    }
}

/// One detected regression against the baseline.
#[derive(Clone, Debug, Serialize)]
pub struct Regression {
    pub case: String,
    pub detail: String,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.case, self.detail)
    }
}

/// Compare a fresh report against a stored baseline. Returns every
/// regression found (empty = gate passes). Cases present only in the
/// current report are new coverage, not regressions; cases that *vanished*
/// relative to the baseline are flagged.
pub fn compare(
    current: &BenchReport,
    baseline: &BenchReport,
    t: &CompareThresholds,
) -> Vec<Regression> {
    let mut out = Vec::new();
    for base in &baseline.cases {
        let Some(cur) = current.case(&base.name) else {
            out.push(Regression {
                case: base.name.clone(),
                detail: "case present in baseline but missing from current report".into(),
            });
            continue;
        };
        let budget = base.total_seconds * t.time_ratio + t.time_slack_seconds;
        if cur.total_seconds > budget {
            out.push(Regression {
                case: base.name.clone(),
                detail: format!(
                    "total {:.3e}s exceeds baseline {:.3e}s x{:.2}",
                    cur.total_seconds, base.total_seconds, t.time_ratio
                ),
            });
        }
        if cur.iterations > base.iterations + t.iteration_slack {
            out.push(Regression {
                case: base.name.clone(),
                detail: format!(
                    "iterations {} exceed baseline {} + {}",
                    cur.iterations, base.iterations, t.iteration_slack
                ),
            });
        }
        let was_healthy = matches!(base.outcome.as_str(), "Converged" | "MaxIterations");
        let now_unhealthy = matches!(cur.outcome.as_str(), "Diverged" | "NonFinite");
        if was_healthy && now_unhealthy {
            out.push(Regression {
                case: base.name.clone(),
                detail: format!("outcome degraded: {} -> {}", base.outcome, cur.outcome),
            });
        }
        if base.outcome == "Converged" && cur.outcome != "Converged" {
            out.push(Regression {
                case: base.name.clone(),
                detail: format!("no longer converges (was Converged, now {})", cur.outcome),
            });
        }
        if let (Some(bw), Some(cw)) = (&base.wall, &cur.wall) {
            let alloc_budget = bw.solve_allocs_per_iteration * t.alloc_ratio + t.alloc_slack;
            if cw.solve_allocs_per_iteration > alloc_budget {
                out.push(Regression {
                    case: base.name.clone(),
                    detail: format!(
                        "solve allocations per iteration {:.1} exceed baseline {:.1} \
                         x{:.2} + {:.0}",
                        cw.solve_allocs_per_iteration,
                        bw.solve_allocs_per_iteration,
                        t.alloc_ratio,
                        t.alloc_slack
                    ),
                });
            }
        }
        if let (Some(bp), Some(cp)) = (&base.par, &cur.par) {
            if bp.threads == cp.threads {
                let floor = bp.efficiency * t.par_efficiency_ratio - t.par_efficiency_slack;
                if cp.efficiency < floor {
                    out.push(Regression {
                        case: base.name.clone(),
                        detail: format!(
                            "parallel efficiency {:.3} at {} threads fell below \
                             baseline {:.3} x{:.2} - {:.2}",
                            cp.efficiency,
                            cp.threads,
                            bp.efficiency,
                            t.par_efficiency_ratio,
                            t.par_efficiency_slack
                        ),
                    });
                }
            }
        }
        if let (Some(bd), Some(cd)) = (&base.dist, &cur.dist) {
            if bd.ranks == cd.ranks {
                let halo_budget = bd.halo_bytes * t.dist_comm_ratio + t.dist_halo_slack_bytes;
                if cd.halo_bytes > halo_budget {
                    out.push(Regression {
                        case: base.name.clone(),
                        detail: format!(
                            "halo traffic {:.0} bytes exceeds baseline {:.0} x{:.2} + {:.0}",
                            cd.halo_bytes,
                            bd.halo_bytes,
                            t.dist_comm_ratio,
                            t.dist_halo_slack_bytes
                        ),
                    });
                }
                if cd.allreduce_count > bd.allreduce_count + t.dist_collective_slack {
                    out.push(Regression {
                        case: base.name.clone(),
                        detail: format!(
                            "all-reduce count {} exceeds baseline {} + {}",
                            cd.allreduce_count, bd.allreduce_count, t.dist_collective_slack
                        ),
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(name: &str, total: f64, iters: usize, outcome: &str) -> BenchCase {
        BenchCase {
            name: name.into(),
            variant: "AmgT (FP64)".into(),
            n: 100,
            nnz: 460,
            levels: 3,
            iterations: iters,
            setup_seconds: total * 0.4,
            solve_seconds: total * 0.6,
            total_seconds: total,
            final_relative_residual: 1e-9,
            convergence_factor: 0.2,
            operator_complexity: 1.5,
            grid_complexity: 1.3,
            outcome: outcome.into(),
            wall: None,
            dist: None,
            par: None,
        }
    }

    fn par_stats(threads: usize, wall_1t: u64, wall_nt: u64) -> ParStats {
        let speedup = wall_1t as f64 / wall_nt as f64;
        ParStats {
            threads,
            solve_wall_1t_ns: wall_1t,
            solve_wall_nt_ns: wall_nt,
            speedup,
            efficiency: speedup / threads as f64,
        }
    }

    fn dist_info(ranks: usize, halo_bytes: f64, allreduce_count: u64) -> DistInfo {
        DistInfo {
            ranks,
            gathered_levels: 2,
            edge_cut: 128,
            imbalance: 1.02,
            comm_seconds: 1e-5,
            halo_bytes,
            halo_messages: 96,
            allreduce_count,
        }
    }

    fn wall(solve_allocs_per_iteration: f64) -> WallStats {
        WallStats {
            setup_wall_ns: 1_000_000,
            solve_wall_ns: 2_000_000,
            setup_allocs: 500,
            setup_bytes: 80_000,
            solve_allocs: (solve_allocs_per_iteration * 10.0) as u64,
            solve_bytes: 10_000,
            solve_allocs_per_iteration,
        }
    }

    fn report(cases: Vec<BenchCase>) -> BenchReport {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            gpu: "A100".into(),
            scale: "small".into(),
            policy: Some(PolicyInfo::paper_default()),
            threads: None,
            exec: None,
            simd: None,
            fidelity: None,
            flight_overhead: None,
            cases,
        }
    }

    fn fidelity() -> FidelityInfo {
        FidelityInfo {
            overall_ratio: 700.0,
            flag_threshold: 2.0,
            flagged: vec!["SpMV/AmgT FP64 native".into()],
            rows: vec![
                FidelityRowInfo {
                    class: "SpMV/AmgT FP64 native".into(),
                    count: 133,
                    simulated_seconds: 8.7e-5,
                    measured_ns: 204_469_000,
                    drift_ratio: 2350.0,
                    normalized_drift: 3.41,
                    flagged: true,
                },
                FidelityRowInfo {
                    class: "Vector/Shared FP64 native".into(),
                    count: 129,
                    simulated_seconds: 6.9e-5,
                    measured_ns: 3_823_000,
                    drift_ratio: 55.4,
                    normalized_drift: 0.99,
                    flagged: false,
                },
            ],
        }
    }

    #[test]
    fn json_round_trip_preserves_cases() {
        let r = report(vec![
            case("e2e:a:amgt-fp64", 1.25e-4, 11, "Converged"),
            case("kernel:spmv", 3.0e-6, 0, "Converged"),
        ]);
        let json = r.to_json();
        let back = BenchReport::from_json(&json).unwrap();
        assert_eq!(back.schema_version, SCHEMA_VERSION);
        assert_eq!(back.gpu, "A100");
        assert_eq!(back.cases.len(), 2);
        assert_eq!(back.cases[0].name, "e2e:a:amgt-fp64");
        assert_eq!(back.cases[0].iterations, 11);
        assert!((back.cases[0].total_seconds - 1.25e-4).abs() < 1e-19);
        assert_eq!(back.cases[1].outcome, "Converged");
        back.validate().unwrap();
    }

    #[test]
    fn wrong_schema_version_rejected() {
        for version in [99, 7] {
            let mut r = report(vec![case("x", 1.0, 1, "Converged")]);
            r.schema_version = version;
            let json = r.to_json();
            let err = BenchReport::from_json(&json).unwrap_err();
            assert!(err.contains(&format!("schema_version {version}")), "{err}");
        }
    }

    #[test]
    fn report_without_optional_blocks_parses() {
        // A v8 report from a plain run: no top-level or per-case optional
        // block at all.
        let mut r = report(vec![case("a", 1.0e-4, 10, "Converged")]);
        r.policy = None;
        let back = BenchReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back.schema_version, SCHEMA_VERSION);
        assert!(back.policy.is_none() && back.threads.is_none());
        assert!(back.exec.is_none() && back.simd.is_none());
        assert!(back.fidelity.is_none() && back.flight_overhead.is_none());
        let c = &back.cases[0];
        assert!(c.wall.is_none() && c.dist.is_none() && c.par.is_none());
        back.validate().unwrap();
    }

    #[test]
    fn v2_policy_round_trips() {
        let mut r = report(vec![case("a", 1.0e-4, 10, "Converged")]);
        let mut p = PolicyInfo::paper_default();
        p.source = "tuned".into();
        p.policy.tc_popcount_threshold = 6;
        p.predicted_speedup = 1.07;
        r.policy = Some(p);
        let back = BenchReport::from_json(&r.to_json()).unwrap();
        let bp = back.policy.unwrap();
        assert_eq!(bp.source, "tuned");
        assert_eq!(bp.policy.tc_popcount_threshold, 6);
        assert!((bp.predicted_speedup - 1.07).abs() < 1e-12);
    }

    #[test]
    fn v3_wall_stats_and_threads_round_trip() {
        let mut c = case("a", 1.0e-4, 10, "Converged");
        c.wall = Some(wall(3.0));
        let mut r = report(vec![c]);
        r.threads = Some(8);
        let back = BenchReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back.threads, Some(8));
        let w = back.cases[0].wall.as_ref().unwrap();
        assert_eq!(w.setup_wall_ns, 1_000_000);
        assert_eq!(w.solve_allocs, 30);
        assert!((w.solve_allocs_per_iteration - 3.0).abs() < 1e-12);
        back.validate().unwrap();
    }

    #[test]
    fn v4_exec_and_simd_round_trip() {
        let mut r = report(vec![case("a", 1.0e-4, 10, "Converged")]);
        r.exec = Some("native".into());
        r.simd = Some("avx2".into());
        let back = BenchReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back.exec.as_deref(), Some("native"));
        assert_eq!(back.simd.as_deref(), Some("avx2"));
        back.validate().unwrap();
    }

    #[test]
    fn v5_fidelity_round_trips() {
        let mut r = report(vec![case("a", 1.0e-4, 10, "Converged")]);
        r.exec = Some("native".into());
        r.fidelity = Some(fidelity());
        let back = BenchReport::from_json(&r.to_json()).unwrap();
        let f = back.fidelity.as_ref().unwrap();
        assert!((f.overall_ratio - 700.0).abs() < 1e-9);
        assert_eq!(f.flagged, vec!["SpMV/AmgT FP64 native".to_string()]);
        assert_eq!(f.rows.len(), 2);
        assert_eq!(f.rows[0].class, "SpMV/AmgT FP64 native");
        assert_eq!(f.rows[0].count, 133);
        assert_eq!(f.rows[0].measured_ns, 204_469_000);
        assert!(f.rows[0].flagged);
        assert!(!f.rows[1].flagged);
        back.validate().unwrap();
    }

    fn flight_overhead() -> FlightOverheadInfo {
        FlightOverheadInfo {
            geomean_ratio: 1.012,
            cases: vec![
                FlightOverheadCase {
                    name: "flight:cant:amgt-fp64".into(),
                    off_ns: 2_000_000,
                    on_ns: 2_030_000,
                    ratio: 1.015,
                },
                FlightOverheadCase {
                    name: "flight:venkat25:amgt-fp64".into(),
                    off_ns: 3_000_000,
                    on_ns: 3_027_000,
                    ratio: 1.009,
                },
            ],
        }
    }

    #[test]
    fn v6_flight_overhead_round_trips() {
        let mut r = report(vec![case("a", 1.0e-4, 10, "Converged")]);
        r.flight_overhead = Some(flight_overhead());
        let back = BenchReport::from_json(&r.to_json()).unwrap();
        let fo = back.flight_overhead.as_ref().unwrap();
        assert!((fo.geomean_ratio - 1.012).abs() < 1e-12);
        assert_eq!(fo.cases.len(), 2);
        assert_eq!(fo.cases[0].name, "flight:cant:amgt-fp64");
        assert_eq!(fo.cases[0].off_ns, 2_000_000);
        assert_eq!(fo.cases[1].on_ns, 3_027_000);
        assert!((fo.cases[1].ratio - 1.009).abs() < 1e-12);
        back.validate().unwrap();
    }

    #[test]
    fn v7_dist_round_trips() {
        let mut c = case("dist:a:amgt-fp64", 1.0e-4, 10, "Converged");
        c.dist = Some(dist_info(4, 65_536.0, 40));
        let back = BenchReport::from_json(&report(vec![c]).to_json()).unwrap();
        let d = back.cases[0].dist.as_ref().unwrap();
        assert_eq!(d.ranks, 4);
        assert_eq!(d.gathered_levels, 2);
        assert_eq!(d.edge_cut, 128);
        assert!((d.imbalance - 1.02).abs() < 1e-12);
        assert!((d.halo_bytes - 65_536.0).abs() < 1e-9);
        assert_eq!(d.halo_messages, 96);
        assert_eq!(d.allreduce_count, 40);
        back.validate().unwrap();
    }

    #[test]
    fn v8_par_round_trips() {
        let mut c = case("e2e:a:amgt-fp64", 1.0e-4, 10, "Converged");
        c.wall = Some(wall(0.0));
        c.par = Some(par_stats(4, 8_000_000, 2_500_000));
        let mut r = report(vec![c]);
        r.threads = Some(4);
        r.exec = Some("native".into());
        let back = BenchReport::from_json(&r.to_json()).unwrap();
        let p = back.cases[0].par.as_ref().unwrap();
        assert_eq!(p.threads, 4);
        assert_eq!(p.solve_wall_1t_ns, 8_000_000);
        assert_eq!(p.solve_wall_nt_ns, 2_500_000);
        assert!((p.speedup - 3.2).abs() < 1e-12);
        assert!((p.efficiency - 0.8).abs() < 1e-12);
        back.validate().unwrap();
    }

    #[test]
    fn par_efficiency_regression_detected() {
        let t = CompareThresholds::default();
        let mut b = case("a", 1.0e-4, 10, "Converged");
        b.par = Some(par_stats(4, 8_000_000, 2_500_000)); // efficiency 0.80
        let baseline = report(vec![b]);

        // Efficiency collapse past ratio + slack: flagged.
        let mut worse = case("a", 1.0e-4, 10, "Converged");
        worse.par = Some(par_stats(4, 8_000_000, 8_000_000)); // efficiency 0.25
        let regs = compare(&report(vec![worse]), &baseline, &t);
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(regs[0].detail.contains("parallel efficiency"), "{regs:?}");

        // Different thread count: not comparable, gate skipped.
        let mut other_w = case("a", 1.0e-4, 10, "Converged");
        other_w.par = Some(par_stats(8, 8_000_000, 8_000_000));
        assert!(compare(&report(vec![other_w]), &baseline, &t).is_empty());

        // Small drift within the lenient floor: passes.
        let mut drift = case("a", 1.0e-4, 10, "Converged");
        drift.par = Some(par_stats(4, 8_000_000, 2_900_000)); // efficiency ~0.69
        assert!(compare(&report(vec![drift]), &baseline, &t).is_empty());

        // Better scaling than baseline: improvement, passes.
        let mut better = case("a", 1.0e-4, 10, "Converged");
        better.par = Some(par_stats(4, 8_000_000, 2_100_000));
        assert!(compare(&report(vec![better]), &baseline, &t).is_empty());
    }

    #[test]
    fn par_validation_catches_bad_values() {
        let mut c = case("a", 1.0e-4, 10, "Converged");
        c.par = Some(par_stats(1, 1_000_000, 1_000_000));
        assert!(report(vec![c])
            .validate()
            .unwrap_err()
            .contains("par.threads"));

        let mut c = case("a", 1.0e-4, 10, "Converged");
        let mut p = par_stats(4, 1_000_000, 250_000);
        p.solve_wall_nt_ns = 0;
        c.par = Some(p);
        assert!(report(vec![c])
            .validate()
            .unwrap_err()
            .contains("par wall is zero"));

        let mut c = case("a", 1.0e-4, 10, "Converged");
        let mut p = par_stats(4, 1_000_000, 250_000);
        p.efficiency = f64::NAN;
        c.par = Some(p);
        assert!(report(vec![c])
            .validate()
            .unwrap_err()
            .contains("par.efficiency"));
    }

    #[test]
    fn dist_comm_regression_detected() {
        let t = CompareThresholds::default();
        let mut b = case("dist:a:amgt-fp64", 1.0e-4, 10, "Converged");
        b.dist = Some(dist_info(4, 50_000.0, 40));
        let baseline = report(vec![b]);

        // Halo traffic well past ratio + slack: flagged.
        let mut worse = case("dist:a:amgt-fp64", 1.0e-4, 10, "Converged");
        worse.dist = Some(dist_info(4, 80_000.0, 40));
        let regs = compare(&report(vec![worse]), &baseline, &t);
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(regs[0].detail.contains("halo traffic"), "{regs:?}");

        // Collective-count blowup: flagged.
        let mut chatty = case("dist:a:amgt-fp64", 1.0e-4, 10, "Converged");
        chatty.dist = Some(dist_info(4, 50_000.0, 60));
        let regs = compare(&report(vec![chatty]), &baseline, &t);
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(regs[0].detail.contains("all-reduce count"), "{regs:?}");

        // Different rank count: not comparable, gate skipped.
        let mut other_p = case("dist:a:amgt-fp64", 1.0e-4, 10, "Converged");
        other_p.dist = Some(dist_info(8, 200_000.0, 100));
        assert!(compare(&report(vec![other_p]), &baseline, &t).is_empty());

        // Less traffic than baseline: improvement, passes.
        let mut better = case("dist:a:amgt-fp64", 1.0e-4, 10, "Converged");
        better.dist = Some(dist_info(4, 20_000.0, 30));
        assert!(compare(&report(vec![better]), &baseline, &t).is_empty());
    }

    #[test]
    fn dist_validation_catches_bad_values() {
        let mut c = case("dist:a:amgt-fp64", 1.0e-4, 10, "Converged");
        c.dist = Some(dist_info(0, 1.0, 1));
        assert!(report(vec![c])
            .validate()
            .unwrap_err()
            .contains("dist.ranks = 0"));

        let mut c = case("dist:a:amgt-fp64", 1.0e-4, 10, "Converged");
        let mut d = dist_info(2, 1.0, 1);
        d.imbalance = 0.5; // max/mean rows cannot be below 1
        c.dist = Some(d);
        assert!(report(vec![c])
            .validate()
            .unwrap_err()
            .contains("dist.imbalance"));

        let mut c = case("dist:a:amgt-fp64", 1.0e-4, 10, "Converged");
        let mut d = dist_info(2, 1.0, 1);
        d.halo_bytes = f64::NAN;
        c.dist = Some(d);
        assert!(report(vec![c])
            .validate()
            .unwrap_err()
            .contains("dist.halo_bytes"));
    }

    #[test]
    fn flight_overhead_validation_catches_bad_ratios() {
        let mut r = report(vec![case("a", 1.0e-4, 10, "Converged")]);
        let mut fo = flight_overhead();
        fo.cases[0].off_ns = 0;
        r.flight_overhead = Some(fo);
        assert!(r.validate().unwrap_err().contains("off_ns = 0"));

        let mut r = report(vec![case("a", 1.0e-4, 10, "Converged")]);
        let mut fo = flight_overhead();
        fo.geomean_ratio = f64::NAN;
        r.flight_overhead = Some(fo);
        assert!(r.validate().unwrap_err().contains("geomean_ratio"));
    }

    #[test]
    fn fidelity_validation_catches_inconsistencies() {
        let mut r = report(vec![case("a", 1.0e-4, 10, "Converged")]);
        let mut f = fidelity();
        f.flagged.clear(); // disagrees with the flagged row
        r.fidelity = Some(f);
        assert!(r.validate().unwrap_err().contains("flagged list"));

        let mut r = report(vec![case("a", 1.0e-4, 10, "Converged")]);
        let mut f = fidelity();
        f.rows[0].count = 0;
        r.fidelity = Some(f);
        assert!(r.validate().unwrap_err().contains("zero samples"));
    }

    #[test]
    fn alloc_regression_detected_and_improvement_passes() {
        let t = CompareThresholds::default();
        let mut b = case("a", 1.0e-4, 10, "Converged");
        b.wall = Some(wall(10.0));
        let baseline = report(vec![b]);

        let mut worse = case("a", 1.0e-4, 10, "Converged");
        worse.wall = Some(wall(40.0));
        let regs = compare(&report(vec![worse]), &baseline, &t);
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(
            regs[0].detail.contains("allocations per iteration"),
            "{regs:?}"
        );

        let mut better = case("a", 1.0e-4, 10, "Converged");
        better.wall = Some(wall(0.0));
        assert!(compare(&report(vec![better]), &baseline, &t).is_empty());
    }

    #[test]
    fn invalid_policy_fails_validation() {
        let mut r = report(vec![case("a", 1.0e-4, 10, "Converged")]);
        let mut p = PolicyInfo::paper_default();
        p.policy.spgemm_bin_count = 99;
        r.policy = Some(p);
        assert!(r.validate().unwrap_err().contains("report policy"));
    }

    #[test]
    fn validate_catches_duplicates_and_nonfinite() {
        let r = report(vec![
            case("same", 1.0, 1, "Converged"),
            case("same", 2.0, 1, "Converged"),
        ]);
        assert!(r.validate().unwrap_err().contains("duplicate"));

        let mut bad = case("t", 1.0, 1, "Converged");
        bad.total_seconds = f64::NAN;
        let r = report(vec![bad]);
        assert!(r.validate().unwrap_err().contains("total_seconds"));

        assert!(report(vec![]).validate().unwrap_err().contains("no cases"));
    }

    #[test]
    fn self_compare_has_zero_regressions() {
        let r = report(vec![
            case("a", 1.0e-4, 10, "Converged"),
            case("b", 2.0e-4, 12, "MaxIterations"),
        ]);
        assert!(compare(&r, &r, &CompareThresholds::default()).is_empty());
    }

    #[test]
    fn inflated_baseline_triggers_time_regression() {
        // Baseline claims the run used to be much faster -> current run
        // must be flagged as a time regression.
        let current = report(vec![case("a", 1.0e-4, 10, "Converged")]);
        let baseline = report(vec![case("a", 0.5e-4, 10, "Converged")]);
        let regs = compare(&current, &baseline, &CompareThresholds::default());
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(regs[0].detail.contains("exceeds baseline"), "{regs:?}");
    }

    #[test]
    fn iteration_and_outcome_regressions_detected() {
        let t = CompareThresholds::default();
        let baseline = report(vec![case("a", 1.0e-4, 10, "Converged")]);
        let more_iters = report(vec![case("a", 1.0e-4, 13, "Converged")]);
        let regs = compare(&more_iters, &baseline, &t);
        assert!(regs.iter().any(|r| r.detail.contains("iterations")));

        let diverged = report(vec![case("a", 1.0e-4, 10, "Diverged")]);
        let regs = compare(&diverged, &baseline, &t);
        assert!(regs.iter().any(|r| r.detail.contains("outcome degraded")));

        let missing = report(vec![]);
        // An empty current report fails validation, but compare still flags
        // the vanished case independently.
        let regs = compare(&missing, &baseline, &t);
        assert!(regs.iter().any(|r| r.detail.contains("missing")));
    }

    #[test]
    fn small_time_drift_within_ratio_passes() {
        let baseline = report(vec![case("a", 1.00e-4, 10, "Converged")]);
        let current = report(vec![case("a", 1.05e-4, 10, "Converged")]);
        assert!(compare(&current, &baseline, &CompareThresholds::default()).is_empty());
    }
}
