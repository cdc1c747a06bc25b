//! The AmgT SpGEMM on the mBSR format (Sections IV.C, Algorithms 3 and 4).
//!
//! Pipeline, exactly as in Figure 4 of the paper:
//!
//! 1. **Data analysis** — upper-bound intermediate block products per
//!    block-row of `C` (`Cub_per_row`).
//! 2. **Binning** — block-rows grouped into eight bins by `Cub_per_row`
//!    (thresholds 128 doubling to 8192), which sizes the per-row hash
//!    tables.
//! 3. **Two-step symbolic** — hash-count the blocks of each `C` block-row
//!    (step 1), prefix-sum into `blc_ptr`, then hash-fill, compress and
//!    sort the column ids (step 2). A block exists in `C` iff some
//!    `BITMAPMULTIPLY(mapA, mapB)` is nonzero.
//! 4. **Numeric** — one warp per block-row. Per `blockA`:
//!    `popcount(mapA) >= 10` takes the tensor-core path (fragA = blockA
//!    replicated, two valid blockBs per `mma.m8n8k4`, shuffle extraction,
//!    half the 8x8 product discarded); sparser blocks take the thread-level
//!    CUDA-core path over bitmap positions.
//!
//! The dispatch constants above — the tensor-core popcount cutoff and the
//! bin base/count — are the paper's defaults; the kernel reads them from
//! [`Ctx::policy`](crate::Ctx) (see [`crate::policy`]) so the `amgt-tune`
//! search can vary them per matrix.

use crate::ctx::Ctx;
use crate::policy::KernelPolicy;
use amgt_exec::SpgemmRows;
use amgt_sim::mma::MMA_FLOPS;
use amgt_sim::{Algo, KernelCost, KernelKind};
use amgt_sparse::bitmap::{self, TILE_AREA};
use amgt_sparse::Mbsr;

/// Paper-default number of bins; thresholds 128 * 2^k, k = 0..6, plus the
/// final `>= 8192` bin. Kept as the capacity of [`SpgemmMbsrStats::bins`];
/// the live bin count comes from [`KernelPolicy::spgemm_bin_count`].
pub const N_BINS: usize = crate::policy::PAPER_SPGEMM_BIN_COUNT;
/// Paper-default smallest bin bound (see [`crate::policy`]).
pub const BIN_BASE: usize = crate::policy::PAPER_SPGEMM_BIN_BASE;
/// Paper-default largest bin bound; rows at or above it go to the last bin.
pub const BIN_MAX: usize = BIN_BASE << (N_BINS - 2);

/// Bin index for an intermediate-product upper bound under the paper
/// defaults (Section IV.C.1). The kernel itself uses
/// [`KernelPolicy::spgemm_bin_index`] from the context's policy.
pub fn bin_index(cub_per_row: usize) -> usize {
    KernelPolicy::paper_default().spgemm_bin_index(cub_per_row)
}

/// The operation counts of one SpGEMM numeric phase, the raw material of
/// its simulated charge. The symbolic pass computes them from the bitmaps
/// and the popcount threshold; tests compare them with the counts of the
/// emulator's fragment-level steps.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpgemmCounters {
    /// A blocks routed to the tensor-core path.
    pub tc_blocks: u64,
    /// A blocks routed to the CUDA-core path.
    pub cuda_blocks: u64,
    /// `mma` instructions: one per pair of valid B tiles of a tensor-core
    /// A block, the odd tail padded.
    pub mma: u64,
    /// CUDA-core flops: 2 per `(i, k, j)` with both the A bit `(i, k)` and
    /// the B bit `(k, j)` set.
    pub cuda_flops: u64,
    /// Value slots read: whole 16-slot tiles on the tensor-core path,
    /// nonempty 4-slot tile rows on the CUDA-core path.
    pub val_slots_read: u64,
    /// C-slot searches: one per valid product.
    pub searches: u64,
}

/// Statistics reported by one SpGEMM execution.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpgemmMbsrStats {
    /// Block-rows per bin after the analysis step.
    pub bins: [usize; N_BINS],
    /// Total intermediate block products (the `Cub` bound actually visited).
    pub intermediate_blocks: u64,
    /// Intermediate block products that produced a nonzero bitmap.
    pub valid_blocks: u64,
    /// The numeric phase's operation counters (path split, `mma` issues,
    /// flops, value slots read, slot searches), from the bitmaps.
    pub counters: SpgemmCounters,
    /// Blocks stored in the result.
    pub result_blocks: u64,
    /// Scalar nonzeros (bitmap population) of the result.
    pub result_nnz: u64,
}

/// Open-addressing hash table with linear probing, sized per bin like the
/// shared-memory tables of the paper; counts probes for the cost model.
///
/// A row's table is the first `capacity()` slots of a slab that only
/// grows. Every slab slot is `EMPTY` between rows: a row remembers the
/// slots it filled and [`Self::drain_sorted_into`] empties exactly those,
/// so resetting and compressing cost O(keys), not O(capacity). Probe
/// sequences depend only on the capacity and the keys, never on the slab
/// length, so `probes` is what a freshly cleared table would count.
#[derive(Debug, Default)]
struct HashTable {
    slots: Vec<u32>,
    /// Slab positions filled by the current row, in insertion order.
    filled: Vec<u32>,
    mask: usize,
    probes: u64,
}

const EMPTY: u32 = u32::MAX;

impl HashTable {
    #[cfg(test)]
    fn with_bound(distinct_bound: usize) -> Self {
        let mut t = HashTable::default();
        t.reset(distinct_bound);
        t
    }

    /// Size the table for a new row bound; the slab is already all
    /// `EMPTY` (see the type docs), so only a larger bound touches it.
    fn reset(&mut self, distinct_bound: usize) {
        let cap = (2 * distinct_bound.max(4)).next_power_of_two();
        if self.slots.len() < cap {
            self.slots.resize(cap, EMPTY);
        }
        self.mask = cap - 1;
        self.probes = 0;
    }

    /// Slots of the current row's table (the modeled table size).
    fn capacity(&self) -> usize {
        self.mask + 1
    }

    #[inline]
    fn insert(&mut self, key: u32) {
        let mut h = (key as usize).wrapping_mul(0x9E37_79B1) & self.mask;
        loop {
            self.probes += 1;
            let slot = self.slots[h];
            if slot == key {
                return;
            }
            if slot == EMPTY {
                self.slots[h] = key;
                self.filled.push(h as u32);
                return;
            }
            h = (h + 1) & self.mask;
        }
    }

    /// Compress the row's keys into `out`, sorted (symbolic step 2 tail),
    /// and empty their slots for the next row. Returns the number of keys.
    fn drain_sorted_into(&mut self, out: &mut Vec<u32>) -> usize {
        let start = out.len();
        for &h in &self.filled {
            out.push(std::mem::replace(&mut self.slots[h as usize], EMPTY));
        }
        self.filled.clear();
        out[start..].sort_unstable();
        out.len() - start
    }
}

/// Reusable scratch for [`spgemm_mbsr_with_workspace`]: the hash-table slab,
/// the flat symbolic column storage and the per-`B`-row bitmap sums of the
/// counters. Capacities grow monotonically, so one workspace serves every
/// product of a hierarchy setup and is still warm across `resetup` calls.
#[derive(Debug, Default)]
pub struct SpgemmWorkspace {
    cub_per_row: Vec<usize>,
    table: HashTable,
    /// Compressed symbolic block columns of all rows, concatenated; row
    /// `br`'s slice is addressed by the result's `blc_ptr`.
    row_cols: Vec<u32>,
    /// Per `B` block-row, the sums the CUDA-core counters start from.
    b_row_stats: Vec<BRowStats>,
}

/// Bitmap sums over the tiles of one `B` block-row.
#[derive(Clone, Copy, Debug, Default)]
struct BRowStats {
    /// Set bits in tile row `r`, summed over the tiles.
    row_bits: [u64; 4],
    /// Nonempty tile rows, summed over the tiles.
    nonempty_rows: u64,
}

/// `C = A * B` on mBSR with the AmgT algorithm. Returns the product and the
/// execution statistics. Charges one symbolic and one numeric ledger event.
pub fn spgemm_mbsr(ctx: &Ctx, a: &Mbsr, b: &Mbsr) -> (Mbsr, SpgemmMbsrStats) {
    let mut ws = SpgemmWorkspace::default();
    spgemm_mbsr_with_workspace(ctx, a, b, &mut ws)
}

/// [`spgemm_mbsr`] reusing a caller-owned [`SpgemmWorkspace`] for the
/// symbolic hash tables and column storage. Bitwise-identical result and
/// identical stats/charges; the only intermediate heap traffic left is the
/// result arrays themselves.
pub fn spgemm_mbsr_with_workspace(
    ctx: &Ctx,
    a: &Mbsr,
    b: &Mbsr,
    ws: &mut SpgemmWorkspace,
) -> (Mbsr, SpgemmMbsrStats) {
    assert_eq!(a.ncols(), b.nrows(), "inner dimension mismatch");
    assert_eq!(a.blk_cols(), b.blk_rows(), "inner tile-grid mismatch");
    let sym_timer = ctx.timer();
    let prec = ctx.precision;
    let policy = ctx.policy;
    let blk_rows = a.blk_rows();

    // ---- Step 1+2: data analysis and binning. ----
    ws.cub_per_row.clear();
    ws.cub_per_row.extend((0..blk_rows).map(|br| {
        a.block_row(br)
            .0
            .iter()
            .map(|&k| b.blc_ptr[k as usize + 1] - b.blc_ptr[k as usize])
            .sum::<usize>()
    }));
    let cub_per_row = &ws.cub_per_row;
    let mut bins = [0usize; N_BINS];
    for &cub in cub_per_row {
        bins[policy.spgemm_bin_index(cub)] += 1;
    }
    let total_cub: u64 = cub_per_row.iter().map(|&c| c as u64).sum();

    // ---- Two-step symbolic computation. ----
    // One hash-table slab serves every block-row in turn (one warp's
    // shared-memory table, re-initialised per row); compressed columns land
    // in the workspace's flat storage, addressed by `blc_ptr` afterwards.
    // The same pass over every (blockA, blockB) pair computes the numeric
    // phase's operation counters from the bitmaps and the popcount
    // dispatch (rows without products still count their A blocks).
    let mut probes = 0u64;
    let mut table_slots = 0u64;
    let mut counters = SpgemmCounters::default();
    let mut blc_ptr = vec![0usize; blk_rows + 1];
    ws.row_cols.clear();
    // Per B block-row: its tiles' row popcounts summed by row, and their
    // nonempty rows. A CUDA-core A block's counters are these sums less
    // what its unreached B tiles would have added (see below).
    ws.b_row_stats.clear();
    ws.b_row_stats.extend((0..b.blk_rows()).map(|k| {
        let mut stats = BRowStats::default();
        for &m in &b.blc_map[b.blc_ptr[k]..b.blc_ptr[k + 1]] {
            for r in 0..4 {
                stats.row_bits[r] += pop4(bitmap::row_mask(m, r));
            }
            stats.nonempty_rows += u64::from(bitmap::nonempty_rows(m));
        }
        stats
    }));
    for br in 0..blk_rows {
        let has_products = cub_per_row[br] != 0;
        // Tables are sized by the row's bin bound — the per-bin
        // shared-memory tables of the paper — so the bin geometry is a
        // real capacity/collision tradeoff, not just a statistic.
        let table = &mut ws.table;
        if has_products {
            table.reset(policy.spgemm_table_bound(cub_per_row[br]));
        }
        let (acols, amaps) = a.block_row(br);
        for (&k, &map_a) in acols.iter().zip(amaps) {
            let k = k as usize;
            let tc = bitmap::popcount(map_a) >= policy.tc_popcount_threshold;
            let mut valid = 0u64;
            // Nonempty rows of the B tiles this block does not reach.
            let mut missed_rows = 0u64;
            let (lo, hi) = (b.blc_ptr[k], b.blc_ptr[k + 1]);
            for (&bj, &map_b) in b.blc_idx[lo..hi].iter().zip(&b.blc_map[lo..hi]) {
                if bitmap::bitmap_multiply(map_a, map_b) != 0 {
                    table.insert(bj);
                    valid += 1;
                } else if !tc {
                    missed_rows += u64::from(bitmap::nonempty_rows(map_b));
                }
            }
            counters.searches += valid; // One C-slot search per valid product.
            if tc {
                counters.tc_blocks += 1;
                counters.val_slots_read += TILE_AREA as u64 * (1 + valid);
                counters.mma += valid.div_ceil(2);
            } else {
                // One product per (i, c, j) with A(i, c) and B(c, j): an
                // unreached B tile has no such triple, so A's column counts
                // times the B block-row's summed row counts give the flops.
                let b_row = &ws.b_row_stats[k];
                let terms: u64 = (0..4)
                    .map(|c| pop4(bitmap::col_mask(map_a, c)) * b_row.row_bits[c])
                    .sum();
                counters.cuda_blocks += 1;
                counters.cuda_flops += 2 * terms;
                counters.val_slots_read += 4
                    * (u64::from(bitmap::nonempty_rows(map_a)) + b_row.nonempty_rows - missed_rows);
            }
        }
        let len = if has_products {
            probes += 2 * table.probes; // Steps 1 and 2.
            table_slots += 2 * table.capacity() as u64;
            table.drain_sorted_into(&mut ws.row_cols)
        } else {
            0
        };
        blc_ptr[br + 1] = blc_ptr[br] + len;
    }
    let n_blocks = blc_ptr[blk_rows];

    let sym_cost = KernelCost {
        // Bitmap multiply ~8 ops + hash probes, executed twice (both steps);
        // table initialisation (zeroing every slot) once per step; the
        // binning/analysis adds one op per A block.
        int_ops: 2.0 * 8.0 * total_cub as f64
            + probes as f64 * 2.0
            + table_slots as f64
            + a.n_blocks() as f64
            + n_blocks as f64 * (n_blocks.max(2) as f64).log2() / blk_rows.max(1) as f64,
        // Index/bitmap traffic: A and B (idx+map = 6 B per block) touched in
        // both steps; C index written once.
        bytes: 2.0 * (a.n_blocks() as f64 * 6.0 + total_cub as f64 * 6.0)
            + n_blocks as f64 * 4.0
            + (blk_rows as f64) * 16.0,
        launches: 3, // Analysis/binning + symbolic step 1 + step 2.
        ..Default::default()
    };
    ctx.charge_timed(KernelKind::SpGemmSymbolic, Algo::AmgT, &sym_cost, sym_timer);

    // ---- Numeric computation (warp per block-row). ----
    let num_timer = ctx.timer();
    let blc_idx = ws.row_cols.clone();
    let mut blc_map = vec![0u16; n_blocks];
    let mut blc_val = vec![0.0f64; n_blocks * TILE_AREA];
    let be = ctx.backend();
    numeric_rows(
        NumericArgs {
            a,
            b,
            blc_ptr: &blc_ptr,
            blc_idx: &blc_idx,
            policy,
            prec,
            be,
        },
        0,
        blk_rows,
        &mut blc_map,
        &mut blc_val,
    );

    // Storage quantization of the result at the level's precision.
    be.quantize(prec, &mut blc_val);

    let mma_n = counters.mma;
    let vb = prec.bytes() as f64;
    let result_nnz: u64 = blc_map.iter().map(|&m| m.count_ones() as u64).sum();
    let valid = counters.searches;
    // C accumulation is row-granular too.
    let c_rows: u64 = blc_map
        .iter()
        .map(|&m| u64::from(bitmap::nonempty_rows(m)))
        .sum();
    let num_cost = KernelCost {
        tc_flops: mma_n as f64 * MMA_FLOPS,
        // Shuffle extraction (32 per MMA) + accumulate adds (32 per MMA),
        // plus the CUDA-path scalar products.
        cuda_flops: mma_n as f64 * 64.0 + counters.cuda_flops as f64,
        int_ops: 8.0 * total_cub as f64 // Bitmap multiplies revisited.
            + counters.searches as f64 * 8.0 // Binary searches.
            + a.n_blocks() as f64, // popcount dispatch.
        // Value traffic measured per path (whole tiles on the tensor path,
        // nonempty tile rows on the CUDA path); operand re-reads hit L2 for
        // B tiles shared across block-rows (0.35 residency factor folded in
        // by charging each read once below at measured granularity). Index
        // and bitmap arrays stream once per operand; C accumulates in and
        // out at row granularity.
        bytes: (a.n_blocks() as f64 + 0.35 * valid as f64) * 6.0
            + 0.45 * counters.val_slots_read as f64 * vb
            + n_blocks as f64 * 6.0
            + c_rows as f64 * 4.0 * vb * 2.0,
        launches: 1,
    };
    ctx.charge_timed(KernelKind::SpGemmNumeric, Algo::AmgT, &num_cost, num_timer);

    let c = mbsr_from_parts(
        a.nrows(),
        b.ncols(),
        blk_rows,
        b.blk_cols(),
        blc_ptr,
        blc_idx,
        blc_map,
        blc_val,
    );

    let stats = SpgemmMbsrStats {
        bins,
        intermediate_blocks: total_cub,
        valid_blocks: valid,
        counters,
        result_blocks: n_blocks as u64,
        result_nnz,
    };
    (c, stats)
}

/// Set bits of a 4-bit row or column mask, by table: the hot symbolic
/// loop needs four per valid CUDA-core product, and the baseline x86-64
/// target has no popcount instruction.
#[inline]
fn pop4(mask: u16) -> u64 {
    const POP4: [u8; 16] = [0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4];
    u64::from(POP4[usize::from(mask & 0xF)])
}

/// Block-rows per leaf of the numeric-phase fork-join tree. Rows vary
/// widely in cost (bins span 128..8192 intermediate products), so a
/// smallish grain lets the work-stealing pool rebalance; the tree shape
/// itself depends only on the row count, keeping results bitwise
/// identical at any pool width.
const NUMERIC_GRAIN: usize = 8;

/// Read-only inputs of the numeric phase, bundled so the recursion below
/// stays legible.
#[derive(Clone, Copy)]
struct NumericArgs<'a> {
    a: &'a Mbsr,
    b: &'a Mbsr,
    blc_ptr: &'a [usize],
    blc_idx: &'a [u32],
    policy: KernelPolicy,
    prec: amgt_sim::Precision,
    be: &'static dyn amgt_exec::ExecBackend,
}

/// Numeric phase over block-rows `[r0, r1)`, writing the rows'
/// `blc_ptr`-delimited slices of `map`/`val` (passed already offset so
/// `map[0]` is row `r0`'s first block). Block-rows write disjoint slices
/// (one warp per block-row), so the range splits in half — and the output
/// slices at the matching `blc_ptr` boundary — until at most
/// [`NUMERIC_GRAIN`] rows remain; each leaf is one backend call. The tree
/// shape depends only on the row count and grain, so the product is
/// bitwise identical at any pool width.
fn numeric_rows(args: NumericArgs<'_>, r0: usize, r1: usize, map: &mut [u16], val: &mut [f64]) {
    if r1 - r0 > NUMERIC_GRAIN {
        let mid = r0 + (r1 - r0) / 2;
        let cut = args.blc_ptr[mid] - args.blc_ptr[r0];
        let (map_lo, map_hi) = map.split_at_mut(cut);
        let (val_lo, val_hi) = val.split_at_mut(cut * TILE_AREA);
        rayon::join(
            || numeric_rows(args, r0, mid, map_lo, val_lo),
            || numeric_rows(args, mid, r1, map_hi, val_hi),
        );
        return;
    }
    let NumericArgs {
        a,
        b,
        blc_ptr,
        blc_idx,
        policy,
        prec,
        be,
    } = args;
    let job = SpgemmRows {
        a,
        b,
        tc_threshold: policy.tc_popcount_threshold,
        rows: r0..r1,
        c_ptr: blc_ptr,
        c_idx: &blc_idx[blc_ptr[r0]..],
    };
    be.spgemm_rows(prec, &job, map, val);
}

/// Assemble an [`Mbsr`] from raw parts via the CSR constructor invariants.
#[allow(clippy::too_many_arguments)]
fn mbsr_from_parts(
    nrows: usize,
    ncols: usize,
    blk_rows: usize,
    blk_cols: usize,
    blc_ptr: Vec<usize>,
    blc_idx: Vec<u32>,
    blc_map: Vec<u16>,
    blc_val: Vec<f64>,
) -> Mbsr {
    // The Mbsr type does not expose a raw constructor publicly for safety;
    // rebuild through CSR would lose bitmap/value agreement on cancelled
    // entries, so we reconstitute through the crate-provided builder.
    Mbsr::from_raw_parts(
        nrows, ncols, blk_rows, blk_cols, blc_ptr, blc_idx, blc_map, blc_val,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use amgt_sim::{Device, GpuSpec, Phase, Precision};
    use amgt_sparse::gen::{
        block_cliques, elasticity_3d, laplacian_2d, random_sparse, NeighborSet, Stencil2d,
    };
    use amgt_sparse::Csr;

    fn ctx(dev: &Device) -> Ctx<'_> {
        Ctx::new(dev, Phase::Setup, 0, Precision::Fp64)
    }

    fn check_product(a: &Csr, b: &Csr, tol: f64) {
        let dev = Device::new(GpuSpec::a100());
        let ma = Mbsr::from_csr(a);
        let mb = Mbsr::from_csr(b);
        let (mc, stats) = spgemm_mbsr(&ctx(&dev), &ma, &mb);
        mc.validate();
        let expect = a.matmul(b);
        let got = mc.to_csr();
        // Patterns may differ only by explicit zeros; compare values.
        assert!(
            got.max_abs_diff(&expect) < tol,
            "value mismatch {} > {tol}",
            got.max_abs_diff(&expect)
        );
        assert_eq!(stats.result_blocks as usize, mc.n_blocks());
        assert_eq!(dev.events().len(), 2);
    }

    #[test]
    fn bin_thresholds_match_paper() {
        assert_eq!(bin_index(0), 0);
        assert_eq!(bin_index(127), 0);
        assert_eq!(bin_index(128), 1);
        assert_eq!(bin_index(255), 1);
        assert_eq!(bin_index(256), 2);
        assert_eq!(bin_index(4095), 5);
        assert_eq!(bin_index(4096), 6);
        assert_eq!(bin_index(8191), 6);
        assert_eq!(bin_index(8192), 7);
        assert_eq!(bin_index(1_000_000), 7);
    }

    #[test]
    fn identity_times_identity() {
        let i = Csr::identity(16);
        check_product(&i, &i, 1e-14);
    }

    #[test]
    fn small_dense_blocks_use_tensor_path() {
        let a = elasticity_3d(3, 3, 3, 4, NeighborSet::Face, 1);
        let dev = Device::new(GpuSpec::a100());
        let ma = Mbsr::from_csr(&a);
        let (_, stats) = spgemm_mbsr(&ctx(&dev), &ma, &ma);
        assert!(
            stats.counters.tc_blocks > 0,
            "dense tiles must route to tensor cores"
        );
        assert!(stats.counters.mma > 0);
    }

    #[test]
    fn sparse_stencil_uses_cuda_path() {
        let a = laplacian_2d(12, 12, Stencil2d::Five);
        let dev = Device::new(GpuSpec::a100());
        let ma = Mbsr::from_csr(&a);
        let (_, stats) = spgemm_mbsr(&ctx(&dev), &ma, &ma);
        assert!(stats.counters.cuda_blocks > 0);
    }

    #[test]
    fn product_correct_dense_blocks() {
        let a = elasticity_3d(3, 3, 2, 4, NeighborSet::Face, 2);
        check_product(&a, &a, 1e-8);
    }

    #[test]
    fn product_correct_stencil() {
        let a = laplacian_2d(15, 13, Stencil2d::Nine);
        check_product(&a, &a, 1e-10);
    }

    #[test]
    fn product_correct_random_rectangularish() {
        let a = random_sparse(50, 6, 11);
        let b = random_sparse(50, 5, 12);
        check_product(&a, &b, 1e-10);
    }

    #[test]
    fn product_correct_cliques() {
        let a = block_cliques(40, 12, 5);
        check_product(&a, &a, 1e-8);
    }

    #[test]
    fn product_with_empty_matrix() {
        let a = Csr::zero(8, 8);
        let b = Csr::identity(8);
        check_product(&a, &b, 1e-15);
    }

    #[test]
    fn odd_valid_block_count_pads_with_zero_tile() {
        // Build A with one dense tile whose B row has exactly 3 valid tiles:
        // the pairing logic must flush an odd tail.
        let mut trips = Vec::new();
        for r in 0..4 {
            for c in 0..4 {
                trips.push((r, c, (r * 4 + c + 1) as f64));
            }
        }
        let a = Csr::from_triplets(4, 4, &trips);
        let mut btrips = Vec::new();
        for tile in 0..3usize {
            for r in 0..4 {
                for c in 0..4 {
                    btrips.push((r, tile * 4 + c, (r + c + tile) as f64 + 0.5));
                }
            }
        }
        let b = Csr::from_triplets(4, 12, &btrips);
        let dev = Device::new(GpuSpec::a100());
        let (mc, stats) = spgemm_mbsr(&ctx(&dev), &Mbsr::from_csr(&a), &Mbsr::from_csr(&b));
        assert_eq!(stats.counters.mma, 2); // Pair + odd tail.
        let expect = a.matmul(&b);
        assert!(mc.to_csr().max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn fp16_product_close_but_not_exact() {
        let a = elasticity_3d(2, 2, 2, 4, NeighborSet::Face, 3);
        let dev = Device::new(GpuSpec::a100());
        let ma = Mbsr::from_csr(&a);
        let c64 = spgemm_mbsr(&Ctx::new(&dev, Phase::Setup, 0, Precision::Fp64), &ma, &ma).0;
        let c16 = spgemm_mbsr(&Ctx::new(&dev, Phase::Setup, 0, Precision::Fp16), &ma, &ma).0;
        let d = c64.to_csr().max_abs_diff(&c16.to_csr());
        let scale = c64.to_csr().frob_norm();
        assert!(d > 0.0, "fp16 must differ");
        assert!(
            d / scale < 1e-2,
            "fp16 relative error too large: {}",
            d / scale
        );
    }

    #[test]
    fn stats_consistency() {
        let a = random_sparse(64, 8, 21);
        let dev = Device::new(GpuSpec::a100());
        let ma = Mbsr::from_csr(&a);
        let (mc, stats) = spgemm_mbsr(&ctx(&dev), &ma, &ma);
        assert_eq!(stats.bins.iter().sum::<usize>(), ma.blk_rows());
        assert!(stats.valid_blocks <= stats.intermediate_blocks);
        assert!(stats.result_blocks as usize <= stats.valid_blocks as usize);
        assert_eq!(stats.result_nnz as usize, mc.nnz());
        assert_eq!(
            stats.counters.tc_blocks + stats.counters.cuda_blocks,
            ma.n_blocks() as u64
        );
    }

    #[test]
    fn policy_tc_threshold_flips_spgemm_path() {
        let a = laplacian_2d(12, 12, Stencil2d::Five);
        let dev = Device::new(GpuSpec::a100());
        let ma = Mbsr::from_csr(&a);
        // Default: the 5-point stencil's sparse tiles stay on CUDA cores.
        let (_, base) = spgemm_mbsr(&ctx(&dev), &ma, &ma);
        assert!(base.counters.cuda_blocks > 0);
        // Threshold 1: every nonempty tile routes to the tensor path.
        let mut p = KernelPolicy::paper_default();
        p.tc_popcount_threshold = 1;
        let (mc, all_tc) = spgemm_mbsr(&ctx(&dev).with_policy(p), &ma, &ma);
        assert_eq!(all_tc.counters.cuda_blocks, 0);
        assert_eq!(all_tc.counters.tc_blocks, ma.n_blocks() as u64);
        // Threshold 17: nothing can reach it, every tile is CUDA-core.
        p.tc_popcount_threshold = 17;
        let (mc2, no_tc) = spgemm_mbsr(&ctx(&dev).with_policy(p), &ma, &ma);
        assert_eq!(no_tc.counters.tc_blocks, 0);
        assert_eq!(no_tc.counters.mma, 0);
        // Routing must not change values.
        let expect = a.matmul(&a);
        assert!(mc.to_csr().max_abs_diff(&expect) < 1e-10);
        assert!(mc2.to_csr().max_abs_diff(&expect) < 1e-10);
    }

    #[test]
    fn policy_bin_base_rebins_rows() {
        let a = random_sparse(96, 9, 7);
        let dev = Device::new(GpuSpec::a100());
        let ma = Mbsr::from_csr(&a);
        let (_, base) = spgemm_mbsr(&ctx(&dev), &ma, &ma);
        let mut p = KernelPolicy::paper_default();
        p.spgemm_bin_base = 8;
        p.spgemm_bin_count = 4;
        let (mc, rebinned) = spgemm_mbsr(&ctx(&dev).with_policy(p), &ma, &ma);
        assert_eq!(rebinned.bins.iter().sum::<usize>(), ma.blk_rows());
        assert!(rebinned.bins[4..].iter().all(|&b| b == 0), "only 4 bins");
        assert_ne!(base.bins, rebinned.bins, "bin geometry must respond");
        assert!(mc.to_csr().max_abs_diff(&a.matmul(&a)) < 1e-10);
    }

    #[test]
    fn cancelled_product_round_trips_through_csr() {
        // +-1 operands: products cancel exactly, and the symbolic bitmaps
        // keep the cancelled entries as stored zeros.
        let signed = |mut a: Csr| {
            for (i, v) in a.vals.iter_mut().enumerate() {
                *v = if i % 3 == 0 { -1.0 } else { 1.0 };
            }
            a
        };
        let a = signed(random_sparse(45, 5, 11));
        let b = signed(random_sparse(45, 5, 12));
        let dev = Device::new(GpuSpec::a100());
        let (mc, _) = spgemm_mbsr(&ctx(&dev), &Mbsr::from_csr(&a), &Mbsr::from_csr(&b));
        let stored_zeros = (0..mc.n_blocks())
            .flat_map(|t| (0..TILE_AREA).map(move |s| (t, s)))
            .filter(|&(t, s)| mc.blc_map[t] & (1 << s) != 0 && mc.tile(t)[s] == 0.0)
            .count();
        assert!(stored_zeros > 0, "the operands must cancel somewhere");
        let back = Mbsr::from_csr(&mc.to_csr());
        assert_eq!(back, mc);
        let bits = |m: &Mbsr| m.blc_val.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&mc));
    }

    #[test]
    fn hash_table_counts_probes_and_dedups() {
        let mut t = HashTable::with_bound(8);
        for k in [3u32, 7, 3, 3, 9, 7] {
            t.insert(k);
        }
        assert!(t.probes >= 6);
        let mut out = Vec::new();
        assert_eq!(t.drain_sorted_into(&mut out), 3);
        assert_eq!(out, vec![3, 7, 9]);
        assert!(
            t.slots.iter().all(|&k| k == EMPTY),
            "drain empties the slab"
        );
    }

    #[test]
    fn reused_table_counts_like_a_fresh_one() {
        // Rows with shrinking and growing bounds through one slab must see
        // the probe counts, capacities and keys of a fresh table per row.
        let rows: [(usize, &[u32]); 4] = [
            (40, &[5, 77, 5, 1024, 3, 77, 9000, 12, 12, 640]),
            (4, &[8, 16, 8, 24]),
            (200, &[1, 2, 3, 300, 301, 2, 1]),
            (6, &[0, 64, 128, 0, 192]),
        ];
        let mut reused = HashTable::default();
        for (bound, keys) in rows {
            let mut fresh = HashTable::with_bound(bound);
            reused.reset(bound);
            for &k in keys {
                fresh.insert(k);
                reused.insert(k);
            }
            assert_eq!(reused.probes, fresh.probes);
            assert_eq!(reused.capacity(), fresh.capacity());
            let (mut a, mut b) = (Vec::new(), Vec::new());
            fresh.drain_sorted_into(&mut a);
            reused.drain_sorted_into(&mut b);
            assert_eq!(a, b);
        }
    }
}
