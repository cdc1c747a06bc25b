//! Allocation-freedom gates for the hot paths, measured with the counting
//! global allocator from `amgt_bench::alloc`.
//!
//! All checks run inside ONE `#[test]` so no sibling test thread can
//! allocate while exact counter deltas are being read (the counters are
//! process-global, and this file is its own test binary). The one other
//! thread, libtest's main thread, is waited for before the first window
//! (see [`wait_for_other_threads_to_sleep`]).

use amgt::prelude::*;
use amgt::{solve_with_workspace, CycleType, SolveWorkspace};
use amgt_bench::alloc::{snapshot, CountingAlloc};
use amgt_server::{CacheOutcome, ServiceConfig, SolveRequest, SolverService};
use amgt_sparse::gen::{laplacian_2d, rhs_of_ones, Stencil2d};
use amgt_trace::flight::TraceId;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn hot_paths_are_allocation_free() {
    wait_for_other_threads_to_sleep();
    steady_state_solve_has_zero_allocs_per_iteration();
    mixed_native_solve_has_zero_allocs_per_iteration();
    server_cache_hit_reuses_cached_workspace();
    trace_id_hex_allocation_is_value_independent();
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
/// vector), so any per-iteration allocation makes the two differ.
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
    (s1.since(&s0).allocs, s2.since(&s1).allocs)
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
