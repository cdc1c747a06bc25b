//! Cross-backend execution equivalence: the native (rayon + SIMD) backend
//! must reproduce the warp emulator BITWISE — same result bits at every
//! [`Precision`], same simulated-GPU charges — for every kernel family and
//! for whole multigrid solves. These tests are the contract that lets the
//! native path stand in for the emulator on wall-clock runs while the
//! emulator stays the source of truth for cost-model figures.

use amgt::prelude::*;
use amgt::{run_amg, setup, solve, solve_with_workspace, ExecMode, SolveWorkspace};
use amgt_exec::native::Native;
use amgt_exec::simulated::Simulated;
use amgt_exec::{ExecBackend, SpgemmRows};
use amgt_kernels::convert::csr_to_mbsr;
use amgt_kernels::spgemm_mbsr::{spgemm_mbsr, SpgemmCounters};
use amgt_kernels::spmm_mbsr::{spmm_mbsr, MultiVector};
use amgt_kernels::spmv_mbsr::{analyze_spmv_with, spmv_mbsr, SpmvCounters, SpmvPath, SpmvPlan};
use amgt_kernels::vendor::{quantize_csr, spmv_csr};
use amgt_kernels::Ctx;
use amgt_kernels::KernelPolicy;
use amgt_sim::{Device, GpuSpec, Precision};
use amgt_sparse::gen::{laplacian_2d, random_sparse, rhs_of_ones, Stencil2d};
use amgt_sparse::{Csr, Mbsr};
use proptest::prelude::*;

const PRECISIONS: [Precision; 3] = [Precision::Fp64, Precision::Fp32, Precision::Fp16];

fn arb_matrix(max_n: usize) -> impl Strategy<Value = Csr> {
    (2..max_n, 0u64..1_000_000).prop_map(move |(n, seed)| {
        let nnz_per_row = 1 + (seed % 9) as usize;
        random_sparse(n, nnz_per_row, seed)
    })
}

fn arb_vector(len: usize, seed: u64) -> Vec<f64> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(-10.0..10.0)).collect()
}

fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits(),
            "{what}: element {i} differs bitwise: native {g:e} vs sim {w:e}"
        );
    }
}

/// Run `op` once per [`ExecMode`], each on a fresh device, and check the
/// simulated charges agree: the exec substrate must not change what the
/// cost model sees.
fn per_mode<R>(prec: Precision, mut op: impl FnMut(&Ctx) -> R) -> (R, R) {
    let dev_s = Device::new(GpuSpec::a100());
    let dev_n = Device::new(GpuSpec::a100());
    let sim = op(&Ctx::standalone(&dev_s, prec).with_exec(ExecMode::Simulated));
    let nat = op(&Ctx::standalone(&dev_n, prec).with_exec(ExecMode::Native));
    assert_eq!(
        dev_s.elapsed(),
        dev_n.elapsed(),
        "simulated charges diverge across exec modes ({prec:?})"
    );
    assert_eq!(dev_s.events().len(), dev_n.events().len());
    (nat, sim)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn spmv_native_matches_sim_bitwise((a, seed) in (arb_matrix(90), 0u64..u64::MAX)) {
        let m = Mbsr::from_csr(&a);
        let x = arb_vector(a.ncols(), seed);
        for prec in PRECISIONS {
            // Force BOTH kernel paths regardless of what the heuristic picks:
            // density threshold 0.0 routes every warp through tensor cores,
            // 1e9 routes every warp through the CUDA-core path.
            for (density, path) in [(0.0, SpmvPath::TensorCore), (1e9, SpmvPath::CudaCore)] {
                let (nat, sim) = per_mode(prec, |ctx| {
                    let plan = analyze_spmv_with(ctx, &m, 1.0, density);
                    assert_eq!(plan.path, path);
                    spmv_mbsr(ctx, &m, &plan, &x)
                });
                assert_bits_eq(&nat, &sim, &format!("spmv {prec:?} {path:?}"));
            }
        }
    }

    #[test]
    fn spmm_native_matches_sim_bitwise((a, seed) in (arb_matrix(70), 0u64..u64::MAX)) {
        let m = Mbsr::from_csr(&a);
        let nrhs = 1 + (seed % 11) as usize;
        let cols: Vec<Vec<f64>> = (0..nrhs)
            .map(|j| arb_vector(a.ncols(), seed.wrapping_add(j as u64)))
            .collect();
        let x = MultiVector::from_columns(&cols);
        for prec in PRECISIONS {
            for (density, path) in [(0.0, SpmvPath::TensorCore), (1e9, SpmvPath::CudaCore)] {
                let (nat, sim) = per_mode(prec, |ctx| {
                    let plan = analyze_spmv_with(ctx, &m, 1.0, density);
                    assert_eq!(plan.path, path);
                    spmm_mbsr(ctx, &m, &plan, &x)
                });
                assert_bits_eq(&nat.data, &sim.data, &format!("spmm {prec:?} {path:?}"));
            }
        }
    }

    /// The column-generic SpMV kernel through `spmm_mbsr`, native against
    /// the emulator: every output column bitwise equals the emulator's
    /// SpMV of that column, at every precision, on both paths, under the
    /// plain and the load-balanced schedule (warp capacity 16, so long
    /// rows split mid-row), for 1 to 9 right-hand sides (full column
    /// chunks, remainders, and the 8-wide `RHS_TILE` slab boundary). In a
    /// third of the cases one column holds `+/-inf` entries, which routes
    /// the whole call through the emulator; it still matches.
    #[test]
    fn spmm_columns_native_match_emulator_spmv(
        (a, nrhs, seed) in (arb_matrix(70), 1usize..=9, 0u64..u64::MAX)
    ) {
        let m = Mbsr::from_csr(&a);
        let mut cols: Vec<Vec<f64>> = (0..nrhs)
            .map(|j| arb_vector(a.ncols(), seed.wrapping_add(j as u64)))
            .collect();
        let inf_col = (seed % 3 == 0).then(|| (seed / 3) as usize % nrhs);
        if let Some(j) = inf_col {
            for (i, v) in cols[j].iter_mut().enumerate().step_by(5) {
                *v = if i % 2 == 0 { f64::INFINITY } else { f64::NEG_INFINITY };
            }
        }
        let x = MultiVector::from_columns(&cols);
        let mut pol = KernelPolicy::paper_default();
        pol.spmv_warp_capacity = 16;
        for prec in PRECISIONS {
            for (variation, density) in [
                (f64::INFINITY, 0.0),
                (f64::INFINITY, 1e9),
                (f64::NEG_INFINITY, 0.0),
                (f64::NEG_INFINITY, 1e9),
            ] {
                let plan_for = |ctx: &Ctx| {
                    analyze_spmv_with(&ctx.with_policy(pol), &m, variation, density)
                };
                let (nat, sim) = per_mode(prec, |ctx| spmm_mbsr(ctx, &m, &plan_for(ctx), &x));
                let dev = Device::new(GpuSpec::a100());
                let ctx = Ctx::standalone(&dev, prec).with_exec(ExecMode::Simulated);
                let plan = plan_for(&ctx);
                let what = format!(
                    "{prec:?} {:?} load-balanced {} nrhs {nrhs} inf column {inf_col:?}",
                    plan.path, plan.load_balanced
                );
                for (j, col) in cols.iter().enumerate() {
                    let want = spmv_mbsr(&ctx, &m, &plan, col);
                    assert_bits_eq(nat.col(j), &want, &format!("native column {j} {what}"));
                    assert_bits_eq(sim.col(j), &want, &format!("emulator column {j} {what}"));
                }
            }
        }
    }

    /// The counters the plan takes from the bitmaps equal the emulator's
    /// lane-level counts summed over every warp job of the schedule, on
    /// both the one-warp-per-row and the load-balanced schedule (warp
    /// capacity 16, so long rows split mid-row).
    #[test]
    fn plan_counters_match_emulator_lane_counts(a in arb_matrix(90)) {
        let m = Mbsr::from_csr(&a);
        let dev = Device::new(GpuSpec::a100());
        let mut pol = KernelPolicy::paper_default();
        pol.spmv_warp_capacity = 16;
        let ctx = Ctx::standalone(&dev, Precision::Fp64).with_policy(pol);
        for variation in [f64::INFINITY, f64::NEG_INFINITY] {
            for density in [0.0, 1e9] {
                let plan = analyze_spmv_with(&ctx, &m, variation, density);
                prop_assert_eq!(plan.counters(), lane_counts(&plan, &m));
            }
        }
    }

    #[test]
    fn spgemm_native_matches_sim_bitwise(a in arb_matrix(60)) {
        let m = Mbsr::from_csr(&a);
        for prec in PRECISIONS {
            let (nat, sim) = per_mode(prec, |ctx| spgemm_mbsr(ctx, &m, &m));
            let (cn, sn) = nat;
            let (cs, ss) = sim;
            prop_assert_eq!(&cn.blc_ptr, &cs.blc_ptr);
            prop_assert_eq!(&cn.blc_idx, &cs.blc_idx);
            prop_assert_eq!(&cn.blc_map, &cs.blc_map);
            assert_bits_eq(&cn.blc_val, &cs.blc_val, &format!("spgemm {prec:?}"));
            prop_assert_eq!(sn.counters, ss.counters);
            prop_assert_eq!(sn.result_blocks, ss.result_blocks);
        }
    }

    /// SpGEMM numeric straight through `ExecBackend::spgemm_rows` on
    /// random mBSR pairs: the native backend (called on two row ranges)
    /// and the emulator's range method reproduce the emulator's
    /// fragment-level steps bitwise at every precision and popcount
    /// threshold (1: every A block on tensor cores; 10: the paper's split;
    /// 17: every block on CUDA cores), and the counters the symbolic pass
    /// takes from the bitmaps equal the counts of those steps.
    #[test]
    fn spgemm_rows_native_matches_emulator_and_counters(
        (a, b) in (arb_matrix(60), 1usize..17, 0u64..1_000_000)
            .prop_map(|(a, k, seed)| {
                let b = random_sparse(a.nrows(), k, seed);
                (a, b)
            })
    ) {
        let (ma, mb) = (Mbsr::from_csr(&a), Mbsr::from_csr(&b));
        let rows = ma.blk_rows();
        for threshold in [1, 10, 17] {
            let mut pol = KernelPolicy::paper_default();
            pol.tc_popcount_threshold = threshold;
            let dev = Device::new(GpuSpec::a100());
            let ctx = Ctx::standalone(&dev, Precision::Fp64).with_policy(pol);
            // The product's pattern and the bitmap-derived counters.
            let (c, stats) = spgemm_mbsr(&ctx, &ma, &mb);
            let n = c.n_blocks();
            for prec in PRECISIONS {
                let (map_e, val_e, counts) = emulator_spgemm(prec, threshold, &ma, &mb, &c);
                prop_assert_eq!(counts, stats.counters, "threshold {}", threshold);
                let (mut map_s, mut val_s) = (vec![0u16; n], vec![0.0; n * 16]);
                let (a, b, c_ptr, mid) = (&ma, &mb, &c.blc_ptr[..], rows / 2);
                let job = |rows: std::ops::Range<usize>| {
                    let c_idx = &c.blc_idx[c_ptr[rows.start]..];
                    SpgemmRows { a, b, tc_threshold: threshold, rows, c_ptr, c_idx }
                };
                Simulated.spgemm_rows(prec, &job(0..rows), &mut map_s, &mut val_s);
                let (mut map_n, mut val_n) = (vec![0u16; n], vec![0.0; n * 16]);
                let (map_lo, map_hi) = map_n.split_at_mut(c_ptr[mid]);
                let (val_lo, val_hi) = val_n.split_at_mut(c_ptr[mid] * 16);
                Native.spgemm_rows(prec, &job(0..mid), map_lo, val_lo);
                Native.spgemm_rows(prec, &job(mid..rows), map_hi, val_hi);
                prop_assert_eq!(&map_s, &map_e);
                prop_assert_eq!(&map_n, &map_e);
                let what = format!("spgemm_rows {prec:?} threshold {threshold}");
                assert_bits_eq(&val_s, &val_e, &format!("sim {what}"));
                assert_bits_eq(&val_n, &val_e, &format!("native {what}"));
            }
        }
    }

    #[test]
    fn vendor_csr_native_matches_sim_bitwise((a, seed) in (arb_matrix(90), 0u64..u64::MAX)) {
        let x = arb_vector(a.ncols(), seed);
        for prec in PRECISIONS {
            let (nat, sim) = per_mode(prec, |ctx| {
                let y = spmv_csr(ctx, &a, &x);
                let mut q = a.clone();
                quantize_csr(ctx, &mut q);
                (y, q)
            });
            assert_bits_eq(&nat.0, &sim.0, &format!("vendor spmv {prec:?}"));
            assert_bits_eq(&nat.1.vals, &sim.1.vals, &format!("quantize {prec:?}"));
        }
    }

    #[test]
    fn convert_native_matches_sim(a in arb_matrix(90)) {
        for prec in PRECISIONS {
            let (nat, sim) = per_mode(prec, |ctx| csr_to_mbsr(ctx, &a));
            prop_assert_eq!(&nat.blc_ptr, &sim.blc_ptr);
            prop_assert_eq!(&nat.blc_idx, &sim.blc_idx);
            prop_assert_eq!(&nat.blc_map, &sim.blc_map);
            assert_bits_eq(&nat.blc_val, &sim.blc_val, &format!("convert {prec:?}"));
        }
    }
}

/// `C = A * B`'s numeric phase on the pattern of `c`, walked here block by
/// block through the emulator's fragment-level steps, with the counts the
/// modeled kernel accrues: per tensor-core A block one `spgemm_mma` per
/// pair of valid B tiles and a 16-slot read per tile; per CUDA-core block
/// one `spgemm_cuda_tile` (which returns its flops) per valid B tile and
/// 4-slot reads of nonempty tile rows; one C-slot search per valid product.
fn emulator_spgemm(
    prec: Precision,
    threshold: u32,
    a: &Mbsr,
    b: &Mbsr,
    c: &Mbsr,
) -> (Vec<u16>, Vec<f64>, SpgemmCounters) {
    use amgt_sparse::bitmap::{bitmap_multiply, nonempty_rows, popcount};
    let (mut map, mut val) = (vec![0u16; c.n_blocks()], vec![0.0; c.n_blocks() * 16]);
    let mut n = SpgemmCounters::default();
    let rows_read = |m: u16| 4 * u64::from(nonempty_rows(m));
    for br in 0..a.blk_rows() {
        let (lo, hi) = (c.blc_ptr[br], c.blc_ptr[br + 1]);
        for p in a.blc_ptr[br]..a.blc_ptr[br + 1] {
            let (a_tile, map_a, k) = (a.tile(p), a.blc_map[p], a.blc_idx[p] as usize);
            let mut targets = Vec::new();
            for q in b.blc_ptr[k]..b.blc_ptr[k + 1] {
                let map_c = bitmap_multiply(map_a, b.blc_map[q]);
                if map_c != 0 {
                    let slot = c.blc_idx[lo..hi].binary_search(&b.blc_idx[q]).unwrap();
                    map[lo + slot] |= map_c;
                    targets.push((q, slot));
                }
            }
            n.searches += targets.len() as u64;
            let (row_map, row_val) = (&map[lo..hi], &mut val[lo * 16..hi * 16]);
            if popcount(map_a) >= threshold {
                n.tc_blocks += 1;
                n.val_slots_read += 16 * (1 + targets.len() as u64);
                for pair in targets.chunks(2) {
                    Simulated::spgemm_mma(prec, a_tile, b, row_map, row_val, pair);
                    n.mma += 1;
                }
            } else {
                n.cuda_blocks += 1;
                n.val_slots_read += rows_read(map_a);
                for &(q, slot) in &targets {
                    n.val_slots_read += rows_read(b.blc_map[q]);
                    let out = &mut row_val[slot * 16..(slot + 1) * 16];
                    n.cuda_flops += Simulated::spgemm_cuda_tile(
                        prec,
                        a_tile,
                        map_a,
                        b.tile(q),
                        b.blc_map[q],
                        out,
                    );
                }
            }
        }
    }
    (map, val, n)
}

/// The emulator's own operation counts for one SpMV under `plan`: each
/// warp job's `mma` issues from the tensor-core warp, flops and nonempty
/// tile rows from the CUDA-core warp (the counts do not depend on the
/// operand's values).
fn lane_counts(plan: &SpmvPlan, m: &Mbsr) -> SpmvCounters {
    let xp = vec![0.0; m.blk_cols() * 4];
    let xp = &xp[..];
    let mut c = SpmvCounters::default();
    for br in 0..m.blk_rows() {
        for (start, len) in plan.jobs_for_row(m, br) {
            c.mma += Simulated::tc_warp(Precision::Fp64, m, start, len, xp).1;
            let (_, flops, rows) = Simulated::cuda_warp(Precision::Fp64, m, start, len, xp);
            c.cuda_flops += flops;
            c.tile_rows += rows;
        }
    }
    c
}

/// Load-balanced schedules (variation threshold 0, warp capacity 16) on
/// matrices with long block-rows next to short ones: SpMV and SpMM with
/// 1, 3 and 9 right-hand sides on both compute paths agree bitwise and
/// charge the same under either backend, and the plan's counters match
/// the emulator's lane counts.
#[test]
fn load_balanced_spmv_and_spmm_agree() {
    use amgt_sparse::gen::{block_cliques, network_laplacian};
    let mut pol = KernelPolicy::paper_default();
    pol.spmv_warp_capacity = 16;
    pol.spmv_variation_threshold = 0.0;
    for (name, a) in [
        ("block_cliques", block_cliques(300, 160, 3)),
        ("network_laplacian", network_laplacian(400, 3, 12, 5)),
    ] {
        let m = Mbsr::from_csr(&a);
        let x = arb_vector(a.ncols(), 17);
        for prec in PRECISIONS {
            for (density, path) in [(0.0, SpmvPath::TensorCore), (1e9, SpmvPath::CudaCore)] {
                let plan_for = |ctx: &Ctx| {
                    let ctx = ctx.with_policy(pol);
                    let plan = analyze_spmv_with(&ctx, &m, pol.spmv_variation_threshold, density);
                    assert!(plan.load_balanced, "{name}: variation {}", plan.variation);
                    assert_eq!(plan.path, path);
                    assert!(m.blc_ptr.windows(2).any(|w| w[1] - w[0] > 16), "{name}");
                    plan
                };
                let what = format!("{name} {prec:?} {path:?}");
                let (nat, sim) = per_mode(prec, |ctx| spmv_mbsr(ctx, &m, &plan_for(ctx), &x));
                assert_bits_eq(&nat, &sim, &format!("spmv {what}"));
                for nrhs in [1usize, 3, 9] {
                    let cols: Vec<Vec<f64>> = (0..nrhs)
                        .map(|j| arb_vector(a.ncols(), 100 + j as u64))
                        .collect();
                    let mv = MultiVector::from_columns(&cols);
                    let (nat, sim) = per_mode(prec, |ctx| spmm_mbsr(ctx, &m, &plan_for(ctx), &mv));
                    assert_bits_eq(&nat.data, &sim.data, &format!("spmm {what} nrhs {nrhs}"));
                }
                let dev = Device::new(GpuSpec::a100());
                let plan = plan_for(&Ctx::standalone(&dev, prec));
                assert_eq!(plan.counters(), lane_counts(&plan, &m), "{what}");
            }
        }
    }
}

/// Tile-shape extremes the random strategy rarely hits: fully dense 4x4
/// tiles (popcount 16, the pure-MMA regime), popcount-1 scattered tiles,
/// and block rows with no tiles at all.
#[test]
fn tile_popcount_extremes_agree() {
    // Dense-16: an 8x8 matrix of two fully dense 4x4 diagonal blocks plus
    // one dense off-diagonal block.
    let mut trips = Vec::new();
    for i in 0..8usize {
        for j in 0..8usize {
            if i / 4 == j / 4 || (i / 4 == 0 && j / 4 == 1) {
                trips.push((i, j, 1.0 + 0.37 * (i * 8 + j) as f64));
            }
        }
    }
    let dense = Csr::from_triplets(8, 8, &trips);
    // Sparse: popcount-1 tiles on scattered lanes, plus EMPTY block rows
    // (rows 4..8 hold nothing).
    let sparse = Csr::from_triplets(
        12,
        12,
        &[
            (0, 0, 2.0),
            (1, 5, -3.5),
            (3, 11, 0.25),
            (8, 2, 7.0),
            (11, 11, -1.0),
        ],
    );
    for a in [dense, sparse] {
        let m = Mbsr::from_csr(&a);
        let x: Vec<f64> = (0..a.ncols()).map(|i| 0.5 + i as f64 * 0.3).collect();
        for prec in PRECISIONS {
            for density in [0.0, 1e9] {
                let (nat, sim) = per_mode(prec, |ctx| {
                    let plan = analyze_spmv_with(ctx, &m, 1.0, density);
                    spmv_mbsr(ctx, &m, &plan, &x)
                });
                assert_bits_eq(&nat, &sim, &format!("popcount extreme {prec:?}"));
            }
            let (nat, sim) = per_mode(prec, |ctx| spgemm_mbsr(ctx, &m, &m).0);
            assert_bits_eq(&nat.blc_val, &sim.blc_val, "popcount extreme spgemm");
        }
    }
}

/// Operands the native dense sweeps cannot take as they stand: infinite
/// entries (an unmapped `+/-0.0` slot times `inf` is NaN, where the
/// emulator skips the slot) and finite entries past the FP16 range (they
/// quantize to `inf`). SpMV and SpMM route such calls through the
/// emulator, so both modes agree bitwise and charge the same, on the
/// CUDA-core path (5-point Laplacian) and the tensor-core path
/// (`elasticity_3d`), at every precision.
#[test]
fn non_finite_and_fp16_overflow_operands_agree() {
    use amgt_kernels::spmv_mbsr::analyze_spmv;
    use amgt_sparse::gen::{elasticity_3d, NeighborSet};
    let cases = [
        (laplacian_2d(13, 17, Stencil2d::Five), SpmvPath::CudaCore),
        (
            elasticity_3d(3, 3, 3, 4, NeighborSet::Face, 1),
            SpmvPath::TensorCore,
        ),
    ];
    for (a, path) in cases {
        let m = Mbsr::from_csr(&a);
        let base = arb_vector(a.ncols(), 7);
        let spiked = |v: f64| -> Vec<f64> {
            let mut x = base.clone();
            for (i, xi) in x.iter_mut().enumerate().step_by(7) {
                *xi = if i % 2 == 0 { v } else { -v };
            }
            x
        };
        let (x_inf, x_big) = (spiked(f64::INFINITY), spiked(1e6));
        for prec in PRECISIONS {
            for (what, x) in [("inf", &x_inf), ("1e6", &x_big)] {
                let (nat, sim) = per_mode(prec, |ctx| {
                    let plan = analyze_spmv(ctx, &m);
                    assert_eq!(plan.path, path);
                    spmv_mbsr(ctx, &m, &plan, x)
                });
                assert_bits_eq(&nat, &sim, &format!("spmv {what} {prec:?} {path:?}"));
                if what == "inf" || prec == Precision::Fp16 {
                    assert!(sim.iter().any(|v| !v.is_finite()), "{what} {prec:?}");
                }
            }
            let mv = MultiVector::from_columns(&[base.clone(), x_inf.clone(), x_big.clone()]);
            let (nat, sim) = per_mode(prec, |ctx| {
                let plan = analyze_spmv(ctx, &m);
                spmm_mbsr(ctx, &m, &plan, &mv)
            });
            assert_bits_eq(&nat.data, &sim.data, &format!("spmm {prec:?} {path:?}"));
        }
    }
}

/// SpGEMM on operands that overflow when rounded: a Laplacian (all
/// blocks sparse) and an elasticity matrix (dense blocks) with every 7th
/// stored value set to `+/-inf` or to `+/-1e6` (`inf` once rounded to
/// binary16). At FP32/FP16, under every popcount-threshold regime, native
/// and emulator agree bitwise with equal charges, and the native product
/// keeps `+/-0.0` in the slots whose bitmap bit is clear. A CUDA-core
/// chain that multiplied unmapped slots would turn `inf * 0.0` into NaN.
#[test]
fn non_finite_spgemm_operands_agree() {
    use amgt_sparse::gen::{elasticity_3d, NeighborSet};
    let spiked = |mut a: Csr, v: f64| {
        for (i, x) in a.vals.iter_mut().enumerate().step_by(7) {
            *x = if i % 2 == 0 { v } else { -v };
        }
        Mbsr::from_csr(&a)
    };
    for a in [
        laplacian_2d(13, 17, Stencil2d::Five),
        elasticity_3d(3, 3, 3, 4, NeighborSet::Face, 1),
    ] {
        for (what, v) in [("inf", f64::INFINITY), ("1e6", 1e6)] {
            let m = spiked(a.clone(), v);
            for prec in [Precision::Fp32, Precision::Fp16] {
                for threshold in [1, 10, 17] {
                    let mut pol = KernelPolicy::paper_default();
                    pol.tc_popcount_threshold = threshold;
                    let run = |exec| {
                        let dev = Device::new(GpuSpec::a100());
                        let ctx = Ctx::standalone(&dev, prec).with_policy(pol);
                        let (c, _) = spgemm_mbsr(&ctx.with_exec(exec), &m, &m);
                        (c, dev.elapsed())
                    };
                    let ((cn, tn), (cs, ts)) = (run(ExecMode::Native), run(ExecMode::Simulated));
                    let case = format!("{what} {prec:?} threshold {threshold}");
                    assert_eq!(cn.blc_map, cs.blc_map, "{case}");
                    assert_bits_eq(&cn.blc_val, &cs.blc_val, &format!("spgemm {case}"));
                    assert_eq!(tn, ts, "{case}");
                    cn.validate();
                    if what == "inf" || prec == Precision::Fp16 {
                        assert!(cs.blc_val.iter().any(|v| !v.is_finite()), "{case}");
                    }
                }
            }
        }
    }
}

/// A whole AMG run — setup's SpGEMM-built hierarchy plus the solve-phase
/// cycles — lands on bitwise-identical solutions under either backend, for
/// both the uniform-FP64 and the mixed-precision config.
#[test]
fn full_solve_native_matches_sim_bitwise() {
    let a = laplacian_2d(14, 14, Stencil2d::Five);
    let b = rhs_of_ones(&a);
    for mut cfg in [AmgConfig::amgt_fp64(), AmgConfig::amgt_mixed()] {
        let dev_s = Device::new(GpuSpec::a100());
        cfg.exec = ExecMode::Simulated;
        let (x_sim, _, rep_sim) = run_amg(&dev_s, &cfg, a.clone(), &b);
        let dev_n = Device::new(GpuSpec::a100());
        cfg.exec = ExecMode::Native;
        let (x_nat, _, rep_nat) = run_amg(&dev_n, &cfg, a.clone(), &b);
        assert_bits_eq(&x_nat, &x_sim, "full solve");
        assert_eq!(
            rep_nat.solve_report.iterations,
            rep_sim.solve_report.iterations
        );
        assert_eq!(dev_s.elapsed(), dev_n.elapsed(), "cost model diverged");
    }
}

/// `(FNV-1a over the solution bits, iterations, Device::elapsed() bits)`
/// of the capped `amgt_mixed` venkat25 (Small) setup + solve below, as the
/// emulator computes them (`Device::elapsed()` = 2.0533e-4 s).
const VENKAT25_MIXED_GOLDEN: (u64, usize, u64) = (0x53ce_c457_ed8e_de87, 3, 0x3f2a_e9b0_87e0_eb8f);

/// A real mixed hierarchy: venkat25 (Small) under `amgt_mixed` has an
/// FP32 CUDA-core level 1, an FP16 CUDA-core level 2 and an FP16
/// tensor-core level 3. Native and emulator setup + solve agree bitwise
/// (solution, iterations, ledger), and so does a native solve on the
/// emulator-built hierarchy, whose plans carry no tile images (the
/// kernels build them into their scratch). The result is pinned, so the
/// native kernels can change only without moving a bit.
#[test]
fn venkat25_mixed_solve_native_matches_sim_bitwise() {
    use amgt_kernels::spmv_mbsr::SpmvPath;
    use amgt_sparse::fingerprint::Fnv;
    use amgt_sparse::suite::{generate, Scale};
    let a = generate("venkat25", Scale::Small).expect("suite matrix");
    let b = rhs_of_ones(&a);
    let mut cfg = AmgConfig::amgt_mixed();
    cfg.max_iterations = 3;
    let run = |setup_exec: ExecMode, solve_exec: ExecMode| {
        let dev = Device::new(GpuSpec::a100());
        let mut cfg = cfg.clone();
        cfg.exec = setup_exec;
        let h = setup(&dev, &cfg, a.clone());
        cfg.exec = solve_exec;
        let mut x = vec![0.0; b.len()];
        let rep = solve(&dev, &cfg, &h, &b, &mut x);
        (h, x, rep.iterations, dev.elapsed())
    };
    let (h, x_sim, it_sim, t_sim) = run(ExecMode::Simulated, ExecMode::Simulated);
    let paths: Vec<_> = h.levels[1..4]
        .iter()
        .map(|l| (l.precision, l.a.plan.as_ref().expect("plan").path))
        .collect();
    assert_eq!(
        paths,
        [
            (Precision::Fp32, SpmvPath::CudaCore),
            (Precision::Fp16, SpmvPath::CudaCore),
            (Precision::Fp16, SpmvPath::TensorCore),
        ]
    );
    for (setup_exec, what) in [
        (ExecMode::Native, "native setup + solve"),
        (ExecMode::Simulated, "emulator setup, native solve"),
    ] {
        let (_, x, it, t) = run(setup_exec, ExecMode::Native);
        assert_bits_eq(&x, &x_sim, what);
        assert_eq!(it, it_sim, "{what}");
        assert_eq!(t.to_bits(), t_sim.to_bits(), "{what}: cost model diverged");
    }
    let mut fnv = Fnv::new();
    for v in &x_sim {
        fnv.write_u64(v.to_bits());
    }
    let got = (fnv.finish(), it_sim, t_sim.to_bits());
    println!("venkat25 mixed: {got:#x?}");
    assert_eq!(got, VENKAT25_MIXED_GOLDEN);
}

/// Under the native backend, re-solving through one reused workspace gives
/// the same bits as a fresh solve — buffer reuse leaks no state.
#[test]
fn reused_workspace_native_solve_identity() {
    let a = laplacian_2d(12, 12, Stencil2d::Five);
    let b = rhs_of_ones(&a);
    let dev = Device::new(GpuSpec::a100());
    let mut cfg = AmgConfig::amgt_fp64();
    cfg.exec = ExecMode::Native;
    let h = setup(&dev, &cfg, a);
    let mut fresh = vec![0.0; b.len()];
    solve(&dev, &cfg, &h, &b, &mut fresh);
    let mut ws = SolveWorkspace::for_hierarchy(&h);
    for round in 0..2 {
        let mut x = vec![0.0; b.len()];
        solve_with_workspace(&dev, &cfg, &h, &b, &mut x, &mut ws);
        assert_bits_eq(&x, &fresh, &format!("workspace round {round}"));
    }
}
