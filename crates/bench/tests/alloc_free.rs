//! Allocation-freedom gates for the hot paths, measured with the counting
//! global allocator from `amgt_bench::alloc`.
//!
//! All checks run inside ONE `#[test]` so no sibling test thread can
//! allocate while exact counter deltas are being read (the counters are
//! process-global, and this file is its own test binary). The one other
//! thread, libtest's main thread, is waited for before the first window
//! (see [`wait_for_other_threads_to_sleep`]).

use amgt::prelude::*;
use amgt::{solve_batched_with_workspace, solve_with_workspace, CycleType, SolveWorkspace};
use amgt_bench::alloc::{snapshot, CountingAlloc};
use amgt_server::{CacheOutcome, ServiceConfig, SolveRequest, SolverService};
use amgt_sparse::gen::{laplacian_2d, rhs_of_ones, Stencil2d};
use amgt_sparse::suite::{generate, Scale};
use amgt_trace::flight::{self, TraceId};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn hot_paths_are_allocation_free() {
    wait_for_other_threads_to_sleep();
    steady_state_solve_has_zero_allocs_per_iteration();
    recorded_native_solve_has_zero_allocs_per_iteration();
    mixed_native_solve_has_zero_allocs_per_iteration();
    batched_native_solve_has_zero_allocs_per_iteration();
    server_cache_hit_reuses_cached_workspace();
    trace_id_hex_allocation_is_value_independent();
    native_setup_allocations_stay_bounded();
    vendor_setup_allocations_stay_bounded();
}

/// Block until every other thread of the process is asleep.
///
/// libtest's main thread records this test only after spawning the
/// thread that runs it (four allocations with the current toolchain). On
/// a busy host that thread can be scheduled late enough for them to land
/// inside the first measured window. It then sleeps on the result channel until
/// the test ends, so waiting for it to sleep moves its allocations before
/// every window. Reads `/proc` (Linux); elsewhere it returns at once, and
/// after 10 s it gives up rather than hang.
fn wait_for_other_threads_to_sleep() {
    let Ok(me) = std::fs::read_link("/proc/thread-self") else {
        return;
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
            return;
        };
        // `stat` is `tid (comm) state ...`; `S` is an interruptible sleep.
        let busy = tasks.flatten().any(|t| {
            Some(t.file_name().as_os_str()) != me.file_name()
                && std::fs::read_to_string(t.path().join("stat")).is_ok_and(|stat| {
                    stat.rsplit_once(") ")
                        .is_some_and(|(_, rest)| !rest.starts_with('S'))
                })
        });
        if !busy {
            return;
        }
        std::thread::yield_now();
    }
}

/// Allocation counts of a 4-iteration and an 8-iteration solve through one
/// reused workspace, after one warm 8-iteration solve has grown every
/// buffer. Each call pays the same fixed cost (the report's history
/// vector, and nothing else), so any per-iteration allocation makes the
/// two differ.
fn solve_alloc_deltas(
    dev: &Device,
    cfg: &AmgConfig,
    h: &Hierarchy,
    b: &[f64],
    ws: &mut SolveWorkspace,
) -> (u64, u64) {
    let n = b.len();
    let mut cfg8 = cfg.clone();
    cfg8.tolerance = 0.0; // fixed iteration counts
    cfg8.max_iterations = 8;
    let mut x = vec![0.0; n];
    solve_with_workspace(dev, &cfg8, h, b, &mut x, ws);

    // Everything the measured region needs, allocated up front: configs,
    // solution vectors, and headroom in the device's event ledger.
    let mut cfg4 = cfg8.clone();
    cfg4.max_iterations = 4;
    let mut x4 = vec![0.0; n];
    let mut x8 = vec![0.0; n];
    dev.reserve_events(4_000_000);

    let s0 = snapshot();
    solve_with_workspace(dev, &cfg4, h, b, &mut x4, ws);
    let s1 = snapshot();
    solve_with_workspace(dev, &cfg8, h, b, &mut x8, ws);
    let s2 = snapshot();
    let (d4, d8) = (s1.since(&s0).allocs, s2.since(&s1).allocs);
    // The report's history vector is the one allocation of a warm call:
    // the outer loop's per-column state lives in the workspace.
    assert!(d4 <= 1, "a warm solve allocates {d4} times per call");
    (d4, d8)
}

/// Acceptance gate: after one warm solve has grown every buffer, the solve
/// phase performs ZERO heap allocations per V-cycle iteration on the AmgT
/// backend — under BOTH execution backends (the native rayon + SIMD path
/// must stay as allocation-clean as the emulator; any thread-pool warmup
/// happens outside the measured region).
fn steady_state_solve_has_zero_allocs_per_iteration() {
    let a = laplacian_2d(24, 24, Stencil2d::Five);
    let b = rhs_of_ones(&a);
    let dev = Device::new(GpuSpec::a100());
    let mut cfg = AmgConfig::amgt_fp64();
    let h = setup(&dev, &cfg, a);
    let mut ws = SolveWorkspace::for_hierarchy(&h);

    for (exec, cycle) in [ExecMode::Simulated, ExecMode::Native]
        .into_iter()
        .flat_map(|e| [CycleType::V, CycleType::W, CycleType::F].map(|c| (e, c)))
    {
        cfg.exec = exec;
        cfg.cycle = cycle;
        let (d4, d8) = solve_alloc_deltas(&dev, &cfg, &h, &b, &mut ws);
        assert_eq!(
            d8,
            d4,
            "{cycle:?}-cycle solve ({}) allocates per iteration: 4 iters cost {d4} \
             allocs, 8 iters cost {d8} (per-iteration leak = {} allocs)",
            exec.label(),
            (d8 as f64 - d4 as f64) / 4.0
        );
    }
}

/// The same gate with the bounded flight recorder installed, sized as a
/// service worker sizes it: recording every span, kernel and residual of
/// a steady-state native FP64 solve allocates nothing per V-cycle (spans
/// are stored as unrendered labels, and every store is reserved up front).
fn recorded_native_solve_has_zero_allocs_per_iteration() {
    let a = laplacian_2d(24, 24, Stencil2d::Five);
    let b = rhs_of_ones(&a);
    let dev = Device::new(GpuSpec::a100());
    let mut cfg = AmgConfig::amgt_fp64();
    cfg.exec = ExecMode::Native;
    let h = setup(&dev, &cfg, a);
    let mut ws = SolveWorkspace::for_hierarchy(&h);
    let recorder = Arc::new(flight::recorder());
    recorder.set_trace_id(TraceId::generate().get());
    dev.install_recorder(Arc::clone(&recorder));
    let (d4, d8) = solve_alloc_deltas(&dev, &cfg, &h, &b, &mut ws);
    dev.remove_recorder();
    let rec = recorder.take();
    assert!(rec.kernels.len() > 100 && !rec.residuals.is_empty());
    assert_eq!(rec.dropped_spans, 0, "the spans of three solves fit");
    assert_eq!(
        d8, d4,
        "recorded native solve allocates per iteration: 4 iters cost {d4} \
         allocs, 8 iters cost {d8}"
    );
}

/// The same gate for native mixed-precision solves, on both tile-image
/// paths of the FP32/FP16 SpMV: a natively set-up hierarchy whose plans
/// carry the images, and an emulator-built one whose plans carry none (the
/// kernels then build them into their grow-only scratch on every call).
fn mixed_native_solve_has_zero_allocs_per_iteration() {
    let a = laplacian_2d(24, 24, Stencil2d::Five);
    let b = rhs_of_ones(&a);
    let dev = Device::new(GpuSpec::a100());
    for setup_exec in [ExecMode::Native, ExecMode::Simulated] {
        let mut cfg = AmgConfig::amgt_mixed();
        cfg.exec = setup_exec;
        let h = setup(&dev, &cfg, a.clone());
        assert!(h.levels.iter().any(|l| l.precision != Precision::Fp64));
        cfg.exec = ExecMode::Native;
        let mut ws = SolveWorkspace::for_hierarchy(&h);
        let (d4, d8) = solve_alloc_deltas(&dev, &cfg, &h, &b, &mut ws);
        assert_eq!(
            d8,
            d4,
            "mixed native solve on a {}-built hierarchy allocates per iteration: \
             4 iters cost {d4} allocs, 8 iters cost {d8}",
            setup_exec.label()
        );
    }
}

/// The same gate for a warm 4-column native FP64 batched solve (the
/// service's burst shape): every V-cycle runs the column-chunk SpMV on
/// every level, and none of it may allocate per leaf or per iteration.
fn batched_native_solve_has_zero_allocs_per_iteration() {
    let a = laplacian_2d(24, 24, Stencil2d::Five);
    let cols: Vec<Vec<f64>> = (0..4)
        .map(|j| {
            (0..a.nrows())
                .map(|i| ((i + 7 * j) as f64 * 0.37).sin())
                .collect()
        })
        .collect();
    let b = MultiVector::from_columns(&cols);
    let dev = Device::new(GpuSpec::a100());
    let mut cfg = AmgConfig::amgt_fp64();
    cfg.exec = ExecMode::Native;
    cfg.tolerance = 0.0; // fixed iteration counts
    let h = setup(&dev, &cfg, a);
    let mut ws = SolveWorkspace::for_hierarchy(&h);

    cfg.max_iterations = 8;
    let mut x = MultiVector::zeros(b.nrows, b.ncols);
    solve_batched_with_workspace(&dev, &cfg, &h, &b, &mut x, &mut ws);
    let mut cfg4 = cfg.clone();
    cfg4.max_iterations = 4;
    let mut x4 = MultiVector::zeros(b.nrows, b.ncols);
    let mut x8 = MultiVector::zeros(b.nrows, b.ncols);
    dev.reserve_events(4_000_000);

    let s0 = snapshot();
    let r4 = solve_batched_with_workspace(&dev, &cfg4, &h, &b, &mut x4, &mut ws);
    let s1 = snapshot();
    let r8 = solve_batched_with_workspace(&dev, &cfg, &h, &b, &mut x8, &mut ws);
    let s2 = snapshot();
    assert_eq!((r4.iterations, r8.iterations), (4, 8));
    let (d4, d8) = (s1.since(&s0).allocs, s2.since(&s1).allocs);
    assert_eq!(
        d8, d4,
        "batched native solve allocates per iteration: 4 iters cost {d4} allocs, \
         8 iters cost {d8}"
    );
}

/// A second job on the same fingerprint must HIT the hierarchy cache and
/// reuse the entry's grown `SolveWorkspace`: its allocation bill collapses
/// to per-job plumbing (request clone, result column), a small fraction of
/// the miss that built the hierarchy — and stays flat from hit to hit.
fn server_cache_hit_reuses_cached_workspace() {
    let a = laplacian_2d(20, 20, Stencil2d::Five);
    let b = rhs_of_ones(&a);
    let mut cfg = AmgConfig::amgt_fp64();
    cfg.max_iterations = 6;
    cfg.tolerance = 0.0;

    // Synchronous mode: the caller drains the queue, so job ordering and
    // the measured allocation windows are deterministic.
    let service = SolverService::new(ServiceConfig {
        workers: 0,
        ..ServiceConfig::default()
    });

    let run_job = || {
        let handle = service
            .submit(SolveRequest::new(a.clone(), b.clone(), cfg.clone()))
            .expect("queue has room");
        let s0 = snapshot();
        service.drain_pending();
        let d = snapshot().since(&s0);
        (handle.wait().expect("job succeeds"), d)
    };

    let (miss, d_miss) = run_job();
    let (hit1, d_hit1) = run_job();
    let (hit2, d_hit2) = run_job();
    service.shutdown();

    assert_eq!(miss.cache, CacheOutcome::Miss);
    assert_eq!(hit1.cache, CacheOutcome::Hit);
    assert_eq!(hit2.cache, CacheOutcome::Hit);
    assert_eq!(miss.iterations, hit1.iterations);

    // The hit skipped setup AND workspace construction: well under a fifth
    // of the miss's allocation traffic.
    assert!(
        d_hit1.allocs * 5 < d_miss.allocs,
        "cache hit allocated {} vs miss {}",
        d_hit1.allocs,
        d_miss.allocs
    );
    // Steady state: the second hit allocates no more than the first (the
    // cached workspace is already grown; nothing accumulates).
    assert!(
        d_hit2.allocs <= d_hit1.allocs,
        "workspace not reused across hits: {} then {}",
        d_hit1.allocs,
        d_hit2.allocs
    );
}

/// Rendering a trace id costs the same allocations whatever its value:
/// an id with a leading zero nibble must not pay for zero padding (the
/// server renders one per job, inside the cache-hit windows above).
fn trace_id_hex_allocation_is_value_independent() {
    let count = |raw: u64| {
        let id = TraceId::from_raw(raw).expect("nonzero id");
        let s0 = snapshot();
        let hex = id.to_hex();
        let d = snapshot().since(&s0);
        assert_eq!(hex.len(), 16, "{hex}");
        d.allocs
    };
    let low = count(0x0000_0000_0000_0001);
    let mid = count(0x0123_4567_89ab_cdef);
    let high = count(0xf000_0000_0000_0000);
    assert_eq!((low, mid), (high, high), "to_hex allocations by id value");
}

/// Allocations of one FP64 AmgT native setup of `cant` (Small scale),
/// after a warm setup has grown the per-thread kernel scratch. Setup
/// builds its operators row by row into preallocated CSR/mBSR arrays, so
/// what remains is a bounded number of arrays per level, not one per row
/// or tile. The ceiling sits at a tenth of the count before the row-wise
/// interpolation and the range-granular SpGEMM numeric (21,002).
fn native_setup_allocations_stay_bounded() {
    const CEILING: u64 = 2_100;
    let allocs = cant_setup_allocations(BackendKind::AmgT);
    eprintln!("native FP64 setup of cant: {allocs} allocations");
    assert!(
        allocs <= CEILING,
        "FP64 native setup of cant allocated {allocs} times (ceiling {CEILING})"
    );
}

/// Allocations of one FP64 native setup of `cant` (Small scale) on
/// `backend`, measured after a warm setup has grown the per-thread kernel
/// scratch.
fn cant_setup_allocations(backend: BackendKind) -> u64 {
    let a = generate("cant", Scale::Small).expect("suite matrix");
    let mut cfg = AmgConfig::paper(backend, PrecisionPolicy::Uniform64);
    cfg.exec = ExecMode::Native;
    let dev = Device::new(GpuSpec::a100());
    drop(setup(&dev, &cfg, a.clone()));
    let a2 = a.clone();
    dev.reserve_events(100_000);
    let s0 = snapshot();
    let h = setup(&dev, &cfg, a2);
    let d = snapshot().since(&s0);
    drop(h);
    d.allocs
}

/// Allocations of one FP64 vendor (HYPRE-baseline) native setup of `cant`
/// (Small scale), after a warm setup. The vendor SpGEMM's symbolic pass
/// counts each row's columns and fills one flat column array, so a
/// product allocates a bounded number of arrays, not one per row. The
/// ceiling sits at a tenth of the count when the symbolic pass built one
/// `Vec` per row (21,206).
fn vendor_setup_allocations_stay_bounded() {
    const CEILING: u64 = 2_120;
    let allocs = cant_setup_allocations(BackendKind::Vendor);
    eprintln!("vendor FP64 setup of cant: {allocs} allocations");
    assert!(
        allocs <= CEILING,
        "vendor FP64 setup of cant allocated {allocs} times (ceiling {CEILING})"
    );
}
