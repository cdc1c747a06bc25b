//! The AmgT SpMV on the mBSR format (Section IV.D, Algorithm 5).
//!
//! A preprocessing pass measures two properties of the matrix:
//!
//! * the **variation** of blocks per block-row, which decides whether the
//!   load-balanced schedule (fixed 64 blocks per warp, long rows split
//!   across warps) replaces the plain one-warp-per-row schedule; and
//! * **`avg_nnz_blc`**, the average tile population, which selects the
//!   compute path: >= 10 runs on tensor cores (two tiles per `mma`, result
//!   on the accumulator diagonal), below that a CUDA-core path where four
//!   threads cooperate on a tile and finish with a warp-level sum.

use crate::ctx::{Ctx, ExecBackend, ExecMode};
use amgt_sim::mma::{mma_8x8x4, FragA, FragB, FragC, MMA_FLOPS, TILE};
use amgt_sim::precision::Precision;
use amgt_sim::{Algo, KernelCost, KernelKind};
use amgt_sparse::Mbsr;

/// Fixed workload per warp in the load-balanced schedule (Section IV.D.1).
/// Paper default; the live value comes from [`Ctx::policy`]
/// (see [`crate::policy`]).
pub const WARP_CAPACITY: usize = crate::policy::PAPER_SPMV_WARP_CAPACITY;

/// Fork-join leaf size, in block-rows, for the SpMV output sweep. Small
/// enough to expose parallelism on mid-size levels, large enough that the
/// per-leaf bookkeeping is negligible next to the tile math.
const SPMV_JOIN_GRAIN: usize = 256;

/// Variation threshold above which the load-balanced schedule is selected.
/// The paper does not publish the constant; 0.5 (a moderately skewed row
/// distribution) reproduces its qualitative behaviour and is swept in the
/// ablation bench. Paper default; the live value comes from [`Ctx::policy`].
pub const VARIATION_THRESHOLD: f64 = crate::policy::PAPER_SPMV_VARIATION_THRESHOLD;

pub use amgt_exec::SpmvPath;

/// The operation counters one SpMV charges. They depend only on the matrix
/// and the warp schedule, so [`analyze_spmv_with`] computes them once from
/// the bitmaps instead of every call counting them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpmvCounters {
    /// Tensor-core `mma` instructions: one per tile pair of each warp job.
    pub mma: u64,
    /// CUDA-core flops: 2 per mapped tile slot.
    pub cuda_flops: u64,
    /// Nonempty tile rows (4-value rows with at least one mapped slot).
    pub tile_rows: u64,
}

/// The preprocessing result: schedule + adaptive-selection decisions, the
/// per-call operation counters, and the backend's reduced-precision tile
/// image of the matrix.
#[derive(Clone, Debug)]
pub struct SpmvPlan {
    pub load_balanced: bool,
    pub path: SpmvPath,
    pub avg_nnz_blc: f64,
    pub variation: f64,
    /// Tiles per warp job: the warp capacity under the load-balanced
    /// schedule, unbounded (one job per nonempty block-row) otherwise.
    pub(crate) job_len: usize,
    pub n_warps: usize,
    counters: SpmvCounters,
    /// `ExecBackend::spmv_tile_image` of the matrix at `image_prec` (empty
    /// when the backend that analyzed the matrix builds none).
    image: Vec<f32>,
    image_prec: Precision,
}

impl SpmvPlan {
    /// Block-row `br`'s warp jobs as `(first tile, tile count)`, in order.
    pub fn jobs_for_row<'a>(
        &self,
        a: &'a Mbsr,
        br: usize,
    ) -> impl Iterator<Item = (usize, usize)> + 'a {
        amgt_exec::warp_jobs(a.blc_ptr[br], a.blc_ptr[br + 1], self.job_len)
    }

    /// The operation counters one SpMV under this plan charges.
    pub fn counters(&self) -> SpmvCounters {
        self.counters
    }

    /// The tile image to hand the SpMV kernels at `prec`: the plan's own
    /// when it was built at `prec`, otherwise one built by `be` into
    /// `scratch` (grow-only, so steady-state calls do not allocate).
    pub(crate) fn tile_image<'s>(
        &'s self,
        be: &dyn ExecBackend,
        prec: Precision,
        a: &Mbsr,
        scratch: &'s mut Vec<f32>,
    ) -> &'s [f32] {
        if self.image_prec == prec && !self.image.is_empty() {
            debug_assert_eq!(self.image.len(), a.n_blocks() * TILE * TILE);
            &self.image
        } else {
            be.spmv_tile_image(prec, a, scratch);
            scratch
        }
    }
}

/// Preprocess the matrix: compute the selection parameters, the warp
/// schedule and its operation counters (charged as a preprocessing
/// kernel). Thresholds come from the context's [`crate::KernelPolicy`].
pub fn analyze_spmv(ctx: &Ctx, a: &Mbsr) -> SpmvPlan {
    analyze_spmv_with(
        ctx,
        a,
        ctx.policy.spmv_variation_threshold,
        f64::from(ctx.policy.tc_popcount_threshold),
    )
}

/// [`analyze_spmv`] with explicit thresholds (used by the ablation bench).
pub fn analyze_spmv_with(
    ctx: &Ctx,
    a: &Mbsr,
    variation_threshold: f64,
    density_threshold: f64,
) -> SpmvPlan {
    let timer = ctx.timer();
    let variation = a.block_row_variation();
    let avg = a.avg_nnz_per_block();
    let load_balanced = variation > variation_threshold;
    let path = if avg >= density_threshold {
        SpmvPath::TensorCore
    } else {
        SpmvPath::CudaCore
    };
    let job_len = if load_balanced {
        ctx.policy.spmv_warp_capacity
    } else {
        usize::MAX
    };

    // The warp count and `mma` pairs follow the schedule; flops and
    // nonempty tile rows follow the bitmaps alone.
    let (mut n_warps, mut mma) = (0usize, 0u64);
    for br in 0..a.blk_rows() {
        for (_, len) in amgt_exec::warp_jobs(a.blc_ptr[br], a.blc_ptr[br + 1], job_len) {
            n_warps += 1;
            mma += len.div_ceil(2) as u64;
        }
    }
    let (mut bits, mut tile_rows) = (0u64, 0u64);
    for &map in &a.blc_map {
        bits += u64::from(map.count_ones());
        // Fold each 4-bit row onto its lowest bit, then count rows.
        let m = map | (map >> 1);
        tile_rows += u64::from(((m | (m >> 2)) & 0x1111).count_ones());
    }

    let mut image = Vec::new();
    ctx.backend().spmv_tile_image(ctx.precision, a, &mut image);

    let cost = KernelCost {
        int_ops: a.n_blocks() as f64 + a.blk_rows() as f64 * 4.0,
        bytes: a.blk_rows() as f64 * 8.0 + a.n_blocks() as f64 * 2.0,
        launches: 1,
        ..Default::default()
    };
    ctx.charge_timed(KernelKind::Graph, Algo::AmgT, &cost, timer);

    SpmvPlan {
        load_balanced,
        path,
        avg_nnz_blc: avg,
        variation,
        job_len,
        n_warps,
        counters: SpmvCounters {
            mma,
            cuda_flops: 2 * bits,
            tile_rows,
        },
        image,
        image_prec: ctx.precision,
    }
}

/// Reusable scratch for [`spmv_mbsr_into`]: holds the padded, quantized
/// copy of `x` so repeated products against same-shaped operands perform no
/// heap allocation. Capacity grows monotonically and is retained across
/// calls (and across operands of different sizes).
#[derive(Clone, Debug, Default)]
pub struct SpmvScratch {
    xp: Vec<f64>,
    /// Reduced-precision operand image from `ExecBackend::spmv_quantize_x`
    /// (empty whenever the active backend needs none).
    x32: Vec<f32>,
    /// Tile image for a plan that carries none at the call's precision.
    a32: Vec<f32>,
}

/// `y = A x` with the AmgT algorithm under a precomputed plan.
pub fn spmv_mbsr(ctx: &Ctx, a: &Mbsr, plan: &SpmvPlan, x: &[f64]) -> Vec<f64> {
    let mut scratch = SpmvScratch::default();
    let mut y = Vec::new();
    spmv_mbsr_into(ctx, a, plan, x, &mut scratch, &mut y);
    y
}

/// [`spmv_mbsr`] writing into a caller-owned output vector, reusing
/// `scratch` for the padded operand. Bitwise-identical to [`spmv_mbsr`]
/// (same accumulation order, same kernel charge); allocation-free once
/// `scratch` and `y` have grown to the operand size.
pub fn spmv_mbsr_into(
    ctx: &Ctx,
    a: &Mbsr,
    plan: &SpmvPlan,
    x: &[f64],
    scratch: &mut SpmvScratch,
    y: &mut Vec<f64>,
) {
    assert_eq!(x.len(), a.ncols());
    let timer = ctx.timer();
    let prec = ctx.precision;

    // Pad x to a multiple of the tile size so tile-column slices are easy.
    // The pad region is re-zeroed each call: the scratch may carry stale
    // values from a differently-shaped previous operand. The same sweep
    // checks the operand is finite; if not, the call runs on the emulator
    // (see `amgt_exec::operand_is_finite`).
    let padded_cols = a.blk_cols() * TILE;
    scratch.xp.resize(padded_cols, 0.0);
    let xp = &mut scratch.xp[..padded_cols];
    let mut finite = true;
    for (dst, &src) in xp.iter_mut().zip(x.iter()) {
        *dst = prec.quantize(src);
        finite &= amgt_exec::operand_is_finite(prec, *dst);
    }
    xp[x.len()..].fill(0.0);
    let xp = &scratch.xp[..padded_cols];

    let nrows = a.nrows();
    y.resize(nrows, 0.0);
    let be = if finite {
        ctx.backend()
    } else {
        amgt_exec::backend(ExecMode::Simulated)
    };
    be.spmv_quantize_x(prec, xp, &mut scratch.x32);
    let x32 = &scratch.x32[..];
    let a32 = plan.tile_image(be, prec, a, &mut scratch.a32);

    // One pass over block-rows, writing straight into `y`. Block-rows are
    // independent, so the pass fans out as a fork-join tree over disjoint
    // 4-row output chunks with one backend call per leaf; inside it each
    // row's warp jobs run in order, so the accumulation order (and hence
    // the rounding) is fixed and the output is bitwise identical at any
    // pool width. The charge comes from the plan's counters.
    amgt_exec::par::join_block_chunks(
        &mut y[..],
        0,
        a.blk_rows(),
        TILE,
        SPMV_JOIN_GRAIN,
        &|br0, n_blocks, chunk| {
            be.spmv_rows(
                prec,
                plan.path,
                a,
                a32,
                plan.job_len,
                br0..br0 + n_blocks,
                xp,
                x32,
                chunk,
            );
        },
        &|(), ()| (),
    );

    let counters = plan.counters;
    let vb = prec.bytes() as f64;
    let nb = a.n_blocks() as f64;
    let cost = match plan.path {
        SpmvPath::TensorCore => KernelCost {
            tc_flops: counters.mma as f64 * MMA_FLOPS,
            // Shuffle extraction (8/warp) + final adds.
            cuda_flops: plan.n_warps as f64 * 16.0,
            int_ops: nb * 2.0, // Index decode + x segment addressing.
            // Tiles are streamed whole on the tensor path.
            bytes: nb * (4.0 + 2.0 + 16.0 * vb) + nb * 4.0 * vb /* x segments */
                + a.nrows() as f64 * vb,
            launches: 1,
        },
        SpmvPath::CudaCore => KernelCost {
            cuda_flops: counters.cuda_flops as f64,
            int_ops: nb * (2.0 + 16.0), // Bitmap bit tests per tile.
            // Row-granular tile reads: only nonempty 4-value tile rows hit
            // DRAM (one 32-byte transaction each at FP64). The x segments
            // of vertically adjacent tiles overlap and mostly hit L1
            // (factor 0.6).
            bytes: nb * (4.0 + 2.0)
                + counters.tile_rows as f64 * 4.0 * vb
                + 0.6 * nb * 4.0 * vb
                + a.nrows() as f64 * vb,
            launches: 1,
            ..Default::default()
        },
    };
    ctx.charge_timed(KernelKind::SpMV, Algo::AmgT, &cost, timer);
}

/// Reference implementation of one tensor-core warp over the tiles
/// `[start, start + len)` using the *full* fragment emulation (packs real
/// fragments, issues [`mma_8x8x4`], extracts the diagonal). Used by tests
/// to prove the emulator backend's scalar transcription
/// (`amgt_exec::simulated::Simulated::tc_warp`) is arithmetic-identical.
pub fn tc_warp_fragments(
    prec: Precision,
    a: &Mbsr,
    start: usize,
    len: usize,
    xp: &[f64],
) -> ([f64; TILE], u64) {
    let zero_tile = [0.0f64; 16];
    let zero_x = [0.0f64; TILE];
    let mut frag_c = FragC::ZERO;
    let mut mma_n = 0u64;
    let mut b = start;
    let end = start + len;
    while b < end {
        let t0 = *a.tile(b);
        let bc0 = a.blc_idx[b] as usize;
        let x0: [f64; TILE] = std::array::from_fn(|k| xp[bc0 * TILE + k]);
        let (t1, x1) = if b + 1 < end {
            let bc1 = a.blc_idx[b + 1] as usize;
            (*a.tile(b + 1), std::array::from_fn(|k| xp[bc1 * TILE + k]))
        } else {
            (zero_tile, zero_x)
        };
        let frag_a = FragA::pack_tiles(&t0, &t1);
        let frag_b = FragB::pack_spmv(&x0, &x1);
        mma_8x8x4(&mut frag_c, &frag_a, &frag_b, prec);
        mma_n += 1;
        b += 2;
    }
    let (diag, _shuffles) = frag_c.extract_diagonal();
    let mut out = [0.0f64; TILE];
    for r in 0..TILE {
        out[r] = prec.round_accum(diag[r] + diag[TILE + r]);
    }
    (out, mma_n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use amgt_exec::simulated::Simulated;
    use amgt_sim::{Device, GpuSpec, Phase};
    use amgt_sparse::gen::{
        block_cliques, elasticity_3d, laplacian_2d, network_laplacian, random_sparse, NeighborSet,
        Stencil2d,
    };
    use amgt_sparse::Csr;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ctx(dev: &Device) -> Ctx<'_> {
        Ctx::new(dev, Phase::Solve, 0, Precision::Fp64)
    }

    fn check_spmv(a: &Csr, tol: f64) -> SpmvPlan {
        let dev = Device::new(GpuSpec::a100());
        let m = Mbsr::from_csr(a);
        let plan = analyze_spmv(&ctx(&dev), &m);
        let mut rng = StdRng::seed_from_u64(99);
        let x: Vec<f64> = (0..a.ncols()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let y = spmv_mbsr(&ctx(&dev), &m, &plan, &x);
        let expect = a.matvec(&x);
        for (i, (u, v)) in y.iter().zip(&expect).enumerate() {
            assert!((u - v).abs() < tol, "row {i}: {u} vs {v}");
        }
        plan
    }

    #[test]
    fn dense_blocks_select_tensor_path() {
        let a = elasticity_3d(3, 3, 3, 4, NeighborSet::Face, 1);
        let plan = check_spmv(&a, 1e-10);
        assert_eq!(plan.path, SpmvPath::TensorCore);
    }

    #[test]
    fn stencil_selects_cuda_path() {
        let a = laplacian_2d(13, 17, Stencil2d::Five);
        let plan = check_spmv(&a, 1e-12);
        assert_eq!(plan.path, SpmvPath::CudaCore);
    }

    #[test]
    fn skewed_rows_select_load_balancing() {
        let a = network_laplacian(600, 3, 30, 3);
        let plan = check_spmv(&a, 1e-10);
        assert!(plan.variation > VARIATION_THRESHOLD);
        assert!(plan.load_balanced);
    }

    #[test]
    fn uniform_rows_skip_load_balancing() {
        let a = laplacian_2d(20, 20, Stencil2d::Five);
        let dev = Device::new(GpuSpec::a100());
        let m = Mbsr::from_csr(&a);
        let plan = analyze_spmv(&ctx(&dev), &m);
        assert!(!plan.load_balanced, "variation {}", plan.variation);
        // One warp per nonempty block-row.
        assert_eq!(plan.n_warps, m.blk_rows());
    }

    #[test]
    fn long_rows_split_into_capacity_chunks() {
        let a = block_cliques(512, 512, 1); // One dense block-row band.
        let dev = Device::new(GpuSpec::a100());
        let m = Mbsr::from_csr(&a);
        let plan = analyze_spmv_with(&ctx(&dev), &m, -1.0, 10.0); // Force balanced.
        assert!(plan.load_balanced);
        let jobs: Vec<_> = plan.jobs_for_row(&m, 0).collect();
        assert!(jobs.len() > 1);
        assert!(jobs.iter().all(|&(_, len)| len <= WARP_CAPACITY));
        let total: usize = jobs.iter().map(|&(_, len)| len).sum();
        assert_eq!(total, m.blc_ptr[1] - m.blc_ptr[0]);
        // Result still correct under the split schedule.
        let mut rng = StdRng::seed_from_u64(5);
        let x: Vec<f64> = (0..a.ncols()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let y = spmv_mbsr(&ctx(&dev), &m, &plan, &x);
        let expect = a.matvec(&x);
        for (u, v) in y.iter().zip(&expect) {
            assert!((u - v).abs() < 1e-9);
        }
    }

    #[test]
    fn random_matrices_correct_both_paths() {
        for seed in 0..5 {
            let a = random_sparse(70 + seed as usize * 13, 7, seed);
            check_spmv(&a, 1e-10);
        }
    }

    #[test]
    fn fast_tc_warp_matches_full_fragment_emulation() {
        let a = elasticity_3d(2, 3, 2, 4, NeighborSet::Face, 8);
        let m = Mbsr::from_csr(&a);
        let mut rng = StdRng::seed_from_u64(17);
        let xp: Vec<f64> = (0..m.blk_cols() * TILE)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        for prec in [Precision::Fp64, Precision::Fp32, Precision::Fp16] {
            for br in 0..m.blk_rows() {
                let (lo, hi) = (m.blc_ptr[br], m.blc_ptr[br + 1]);
                if lo == hi {
                    continue;
                }
                let (fast, m1) = Simulated::tc_warp(prec, &m, lo, hi - lo, &xp);
                let (full, m2) = tc_warp_fragments(prec, &m, lo, hi - lo, &xp);
                assert_eq!(m1, m2);
                for r in 0..TILE {
                    assert_eq!(
                        fast[r].to_bits(),
                        full[r].to_bits(),
                        "prec {prec:?} row {br}.{r}: {} vs {}",
                        fast[r],
                        full[r]
                    );
                }
            }
        }
    }

    #[test]
    fn fp16_spmv_error_bounded() {
        let a = laplacian_2d(16, 16, Stencil2d::Five);
        let dev = Device::new(GpuSpec::a100());
        let m = Mbsr::from_csr(&a);
        let x: Vec<f64> = (0..a.ncols())
            .map(|i| ((i * 37) % 97) as f64 / 97.0)
            .collect();
        let plan = analyze_spmv(&ctx(&dev), &m);
        let y64 = spmv_mbsr(
            &Ctx::new(&dev, Phase::Solve, 0, Precision::Fp64),
            &m,
            &plan,
            &x,
        );
        let y16 = spmv_mbsr(
            &Ctx::new(&dev, Phase::Solve, 0, Precision::Fp16),
            &m,
            &plan,
            &x,
        );
        let err = y64
            .iter()
            .zip(&y16)
            .map(|(u, v)| (u - v).abs())
            .fold(0.0f64, f64::max);
        assert!(err > 0.0);
        assert!(err < 0.05, "err {err}");
    }

    #[test]
    fn charges_one_spmv_event_per_call() {
        let a = laplacian_2d(8, 8, Stencil2d::Five);
        let dev = Device::new(GpuSpec::h100());
        let m = Mbsr::from_csr(&a);
        let plan = analyze_spmv(&ctx(&dev), &m);
        let before = dev.events().len(); // analyze charged one Graph event.
        let x = vec![1.0; a.ncols()];
        spmv_mbsr(&ctx(&dev), &m, &plan, &x);
        spmv_mbsr(&ctx(&dev), &m, &plan, &x);
        let evs = dev.events();
        assert_eq!(evs.len(), before + 2);
        assert!(evs[before..]
            .iter()
            .all(|e| e.kind == amgt_sim::KernelKind::SpMV && e.algo == amgt_sim::Algo::AmgT));
    }

    #[test]
    fn empty_rows_produce_zero() {
        let a = Csr::from_triplets(10, 10, &[(0, 0, 2.0), (9, 9, 3.0)]);
        check_spmv(&a, 1e-15);
    }

    #[test]
    fn policy_warp_capacity_drives_job_split() {
        // One 512-wide clique plus a short tail: long dense block-rows next
        // to near-empty ones, so the block-row variation is nonzero.
        let a = block_cliques(520, 512, 1);
        let dev = Device::new(GpuSpec::a100());
        let m = Mbsr::from_csr(&a);
        let mut pol = crate::policy::KernelPolicy::paper_default();
        pol.spmv_warp_capacity = 16;
        pol.spmv_variation_threshold = 0.0;
        let c = ctx(&dev).with_policy(pol);
        let plan = analyze_spmv(&c, &m);
        assert!(plan.load_balanced);
        let jobs: Vec<_> = plan.jobs_for_row(&m, 0).collect();
        assert!(jobs.len() > 1);
        assert!(jobs.iter().all(|&(_, len)| len <= 16));
        // The schedule change must not change the result.
        let mut rng = StdRng::seed_from_u64(11);
        let x: Vec<f64> = (0..a.ncols()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let y = spmv_mbsr(&c, &m, &plan, &x);
        let expect = a.matvec(&x);
        for (u, v) in y.iter().zip(&expect) {
            assert!((u - v).abs() < 1e-9);
        }
    }

    #[test]
    fn policy_tc_threshold_flips_compute_path() {
        // The 5-point stencil averages well below 10 nnz/tile: CUDA path
        // under the paper policy, tensor path once the cutoff drops to 1.
        let a = laplacian_2d(13, 17, Stencil2d::Five);
        let dev = Device::new(GpuSpec::a100());
        let m = Mbsr::from_csr(&a);
        assert_eq!(analyze_spmv(&ctx(&dev), &m).path, SpmvPath::CudaCore);
        let mut pol = crate::policy::KernelPolicy::paper_default();
        pol.tc_popcount_threshold = 1;
        let c = ctx(&dev).with_policy(pol);
        let plan = analyze_spmv(&c, &m);
        assert_eq!(plan.path, SpmvPath::TensorCore);
        // Both paths compute the same product.
        let mut rng = StdRng::seed_from_u64(23);
        let x: Vec<f64> = (0..a.ncols()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let y = spmv_mbsr(&c, &m, &plan, &x);
        let expect = a.matvec(&x);
        for (u, v) in y.iter().zip(&expect) {
            assert!((u - v).abs() < 1e-10);
        }
    }
}
