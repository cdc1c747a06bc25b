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
use amgt_sim::mma::MMA_FLOPS;
use amgt_sim::{Algo, KernelCost, KernelKind};
use amgt_sparse::bitmap::{self, TILE_AREA};
use amgt_sparse::Mbsr;
use std::cell::RefCell;

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

/// Statistics reported by one SpGEMM execution.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpgemmMbsrStats {
    /// Block-rows per bin after the analysis step.
    pub bins: [usize; N_BINS],
    /// Total intermediate block products (the `Cub` bound actually visited).
    pub intermediate_blocks: u64,
    /// Intermediate block products that produced a nonzero bitmap.
    pub valid_blocks: u64,
    /// `blockA`s routed to the tensor-core path.
    pub tc_block_a: u64,
    /// `blockA`s routed to the CUDA-core path.
    pub cuda_block_a: u64,
    /// `mma` instructions issued.
    pub mma_issued: u64,
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

/// Reusable scratch for [`spgemm_mbsr_with_workspace`]: the hash-table slab
/// and the flat symbolic column storage. Capacities grow monotonically, so
/// one workspace serves every RAP product of a hierarchy setup and is still
/// warm across `resetup` calls.
#[derive(Debug, Default)]
pub struct SpgemmWorkspace {
    cub_per_row: Vec<usize>,
    table: HashTable,
    /// Compressed symbolic block columns of all rows, concatenated; row
    /// `br`'s slice is addressed by the result's `blc_ptr`.
    row_cols: Vec<u32>,
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
    let mut probes = 0u64;
    let mut table_slots = 0u64;
    let mut valid_total = 0u64;
    let mut blc_ptr = vec![0usize; blk_rows + 1];
    ws.row_cols.clear();
    for br in 0..blk_rows {
        if cub_per_row[br] == 0 {
            blc_ptr[br + 1] = blc_ptr[br];
            continue;
        }
        // Tables are sized by the row's bin bound — the per-bin
        // shared-memory tables of the paper — so the bin geometry is a
        // real capacity/collision tradeoff, not just a statistic.
        let table = &mut ws.table;
        table.reset(policy.spgemm_table_bound(cub_per_row[br]));
        let (acols, amaps) = a.block_row(br);
        let mut valid = 0u64;
        for (&k, &map_a) in acols.iter().zip(amaps) {
            let k = k as usize;
            let lo = b.blc_ptr[k];
            let hi = b.blc_ptr[k + 1];
            for (bj, &map_b) in b.blc_idx[lo..hi].iter().zip(&b.blc_map[lo..hi]) {
                let map_c = bitmap::bitmap_multiply(map_a, map_b);
                if map_c != 0 {
                    table.insert(*bj);
                    valid += 1;
                }
            }
        }
        probes += 2 * table.probes; // Steps 1 and 2.
        table_slots += 2 * table.capacity() as u64;
        valid_total += valid;
        let len = table.drain_sorted_into(&mut ws.row_cols);
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
    let mut blc_idx = vec![0u32; n_blocks];
    let mut blc_map = vec![0u16; n_blocks];
    let mut blc_val = vec![0.0f64; n_blocks * TILE_AREA];

    let mut tc_blocks = 0u64;
    let mut cuda_blocks = 0u64;
    let mut mma_count = 0u64;
    let mut cuda_flops = 0u64;
    let mut searches = 0u64;
    // Value slots actually read: the tensor path streams whole 16-slot
    // tiles, the CUDA path reads nonempty 4-slot tile rows only.
    let mut val_slots_read = 0u64;

    let be = ctx.backend();
    {
        // Block-rows write disjoint `blc_ptr`-delimited slices of the
        // three result arrays (one warp per block-row), so the row range
        // forks into a binary tree split at `blc_ptr` boundaries: each
        // half owns its rows' output exactly. The tree shape depends only
        // on the row count and grain, each row's inner loop is untouched,
        // and the statistics merge with commutative integer sums — so the
        // product and every charged quantity are bitwise identical at any
        // pool width. (The symbolic phase above stays sequential: its
        // `row_cols` appends are inherently in row order.)
        let (tc, slots, cu, mma_n, flops, srch) = numeric_rows(
            NumericArgs {
                a,
                b,
                row_cols: &ws.row_cols,
                blc_ptr: &blc_ptr,
                policy,
                prec,
                be,
            },
            0,
            blk_rows,
            &mut blc_idx,
            &mut blc_map,
            &mut blc_val,
        );
        tc_blocks += tc;
        val_slots_read += slots;
        cuda_blocks += cu;
        mma_count += mma_n;
        cuda_flops += flops;
        searches += srch;
    }

    // Storage quantization of the result at the level's precision.
    be.quantize(prec, &mut blc_val);

    let mma_n = mma_count;
    let vb = prec.bytes() as f64;
    let result_nnz: u64 = blc_map.iter().map(|&m| m.count_ones() as u64).sum();
    let valid = valid_total;
    // C accumulation is row-granular too.
    let c_rows: u64 = blc_map
        .iter()
        .map(|&m| (0..4).filter(|&r| bitmap::row_mask(m, r) != 0).count() as u64)
        .sum();
    let num_cost = KernelCost {
        tc_flops: mma_n as f64 * MMA_FLOPS,
        // Shuffle extraction (32 per MMA) + accumulate adds (32 per MMA),
        // plus the CUDA-path scalar products.
        cuda_flops: mma_n as f64 * 64.0 + cuda_flops as f64,
        int_ops: 8.0 * total_cub as f64 // Bitmap multiplies revisited.
            + searches as f64 * 8.0 // Binary searches.
            + a.n_blocks() as f64, // popcount dispatch.
        // Value traffic measured per path (whole tiles on the tensor path,
        // nonempty tile rows on the CUDA path); operand re-reads hit L2 for
        // B tiles shared across block-rows (0.35 residency factor folded in
        // by charging each read once below at measured granularity). Index
        // and bitmap arrays stream once per operand; C accumulates in and
        // out at row granularity.
        bytes: (a.n_blocks() as f64 + 0.35 * valid as f64) * 6.0
            + 0.45 * val_slots_read as f64 * vb
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
        tc_block_a: tc_blocks,
        cuda_block_a: cuda_blocks,
        mma_issued: mma_n,
        result_blocks: n_blocks as u64,
        result_nnz,
    };
    (c, stats)
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
    row_cols: &'a [u32],
    blc_ptr: &'a [usize],
    policy: KernelPolicy,
    prec: amgt_sim::Precision,
    be: &'static dyn amgt_exec::ExecBackend,
}

/// Numeric phase over block-rows `[r0, r1)`, writing the rows'
/// `blc_ptr`-delimited slices of `idx`/`map`/`val` (passed already offset
/// so `idx[0]` is row `r0`'s first block). Splits the row range in half —
/// and the output slices at the corresponding `blc_ptr` boundary — until
/// at most [`NUMERIC_GRAIN`] rows remain. Returns
/// `(tc_blocks, val_slots_read, cuda_blocks, mma_count, cuda_flops,
/// searches)` merged with sums.
fn numeric_rows(
    args: NumericArgs<'_>,
    r0: usize,
    r1: usize,
    idx: &mut [u32],
    map: &mut [u16],
    val: &mut [f64],
) -> (u64, u64, u64, u64, u64, u64) {
    if r1 - r0 > NUMERIC_GRAIN {
        let mid = r0 + (r1 - r0) / 2;
        let cut = args.blc_ptr[mid] - args.blc_ptr[r0];
        let (idx_lo, idx_hi) = idx.split_at_mut(cut);
        let (map_lo, map_hi) = map.split_at_mut(cut);
        let (val_lo, val_hi) = val.split_at_mut(cut * TILE_AREA);
        let (sa, sb) = rayon::join(
            || numeric_rows(args, r0, mid, idx_lo, map_lo, val_lo),
            || numeric_rows(args, mid, r1, idx_hi, map_hi, val_hi),
        );
        return (
            sa.0 + sb.0,
            sa.1 + sb.1,
            sa.2 + sb.2,
            sa.3 + sb.3,
            sa.4 + sb.4,
            sa.5 + sb.5,
        );
    }

    SLOT_OF.with_borrow_mut(|slot_of| numeric_leaf(args, r0, r1, idx, map, val, slot_of))
}

thread_local! {
    /// Per-thread C-slot map of the numeric phase: `slot_of[j]` is the
    /// slot of block column `j` in the block-row being accumulated. It
    /// grows to the widest `B` seen and is never cleared: each block-row
    /// writes its own columns' entries first, and symbolic put every
    /// column a product can reach into that row, so a stale entry is
    /// never read.
    static SLOT_OF: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// The sequential body of [`numeric_rows`] on one leaf's rows.
fn numeric_leaf(
    args: NumericArgs<'_>,
    r0: usize,
    r1: usize,
    idx: &mut [u32],
    map: &mut [u16],
    val: &mut [f64],
    slot_of: &mut Vec<u32>,
) -> (u64, u64, u64, u64, u64, u64) {
    let NumericArgs {
        a,
        b,
        row_cols,
        blc_ptr,
        policy,
        prec,
        be,
    } = args;
    if slot_of.len() < b.blk_cols() {
        slot_of.resize(b.blk_cols(), 0);
    }
    let (mut tc_blocks, mut val_slots_read) = (0u64, 0u64);
    let (mut cuda_blocks, mut mma_count) = (0u64, 0u64);
    let (mut cuda_flops, mut searches) = (0u64, 0u64);
    // Walk the leaf's rows as disjoint per-block-row slices, in row order.
    let mut idx_rest = idx;
    let mut map_rest = map;
    let mut val_rest = val;
    for br in r0..r1 {
        let len = blc_ptr[br + 1] - blc_ptr[br];
        let (c_idx, i1) = idx_rest.split_at_mut(len);
        let (c_map, m1) = map_rest.split_at_mut(len);
        let (c_val, v1) = val_rest.split_at_mut(len * TILE_AREA);
        idx_rest = i1;
        map_rest = m1;
        val_rest = v1;

        c_idx.copy_from_slice(&row_cols[blc_ptr[br]..blc_ptr[br + 1]]);
        for (slot, &j) in c_idx.iter().enumerate() {
            slot_of[j as usize] = slot as u32;
        }
        // The modeled GPU kernel binary-searches `c_idx` once per valid
        // product; `searches` counts those searches for the cost model
        // even though the host resolves slots through `slot_of`.
        let (acols, amaps) = a.block_row(br);
        let (mut tc, mut cu, mut mma_n, mut flops, mut srch) = (0u64, 0u64, 0u64, 0u64, 0u64);
        let mut slots = 0u64;
        for (apos_rel, (&cid_a, &map_a)) in acols.iter().zip(amaps).enumerate() {
            let a_tile = a.tile(a.blc_ptr[br] + apos_rel);
            let k = cid_a as usize;
            let (b_lo, b_hi) = (b.blc_ptr[k], b.blc_ptr[k + 1]);
            if bitmap::popcount(map_a) >= policy.tc_popcount_threshold {
                // --- Tensor-core path: pairs of valid blockBs. ---
                tc += 1;
                slots += TILE_AREA as u64; // fragA tile load.
                let mut pending: Option<(usize, usize, u16)> = None; // (b_pos, slot, mapC)
                for b_pos in b_lo..b_hi {
                    let map_c = bitmap::bitmap_multiply(map_a, b.blc_map[b_pos]);
                    if map_c == 0 {
                        continue;
                    }
                    slots += TILE_AREA as u64; // fragB tile load.
                    let target = (b_pos, slot_of[b.blc_idx[b_pos] as usize] as usize, map_c);
                    match pending.take() {
                        None => pending = Some(target),
                        Some(first) => {
                            be.spgemm_tc_mma(prec, a_tile, b, c_map, c_val, &[first, target]);
                            mma_n += 1;
                            srch += 2;
                        }
                    }
                }
                if let Some(first) = pending {
                    // Odd tail: the backend pads fragB with a zero tile.
                    be.spgemm_tc_mma(prec, a_tile, b, c_map, c_val, &[first]);
                    mma_n += 1;
                    srch += 1;
                }
            } else {
                // --- CUDA-core path: thread-level scalar products. ---
                cu += 1;
                slots += 4 * nonempty_rows(map_a);
                for b_pos in b_lo..b_hi {
                    let map_b = b.blc_map[b_pos];
                    let map_c = bitmap::bitmap_multiply(map_a, map_b);
                    if map_c == 0 {
                        continue;
                    }
                    slots += 4 * nonempty_rows(map_b);
                    let slot = slot_of[b.blc_idx[b_pos] as usize] as usize;
                    srch += 1;
                    c_map[slot] |= map_c;
                    let out = &mut c_val[slot * TILE_AREA..(slot + 1) * TILE_AREA];
                    flops += be.spgemm_cuda_tile(prec, a_tile, map_a, b.tile(b_pos), map_b, out);
                }
            }
        }
        tc_blocks += tc;
        val_slots_read += slots;
        cuda_blocks += cu;
        mma_count += mma_n;
        cuda_flops += flops;
        searches += srch;
    }
    (
        tc_blocks,
        val_slots_read,
        cuda_blocks,
        mma_count,
        cuda_flops,
        searches,
    )
}

/// Nonempty 4-wide rows of a tile pattern (32-byte read transactions).
#[inline]
fn nonempty_rows(map: u16) -> u64 {
    (0..4).filter(|&r| bitmap::row_mask(map, r) != 0).count() as u64
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
            stats.tc_block_a > 0,
            "dense tiles must route to tensor cores"
        );
        assert!(stats.mma_issued > 0);
    }

    #[test]
    fn sparse_stencil_uses_cuda_path() {
        let a = laplacian_2d(12, 12, Stencil2d::Five);
        let dev = Device::new(GpuSpec::a100());
        let ma = Mbsr::from_csr(&a);
        let (_, stats) = spgemm_mbsr(&ctx(&dev), &ma, &ma);
        assert!(stats.cuda_block_a > 0);
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
        assert_eq!(stats.mma_issued, 2); // Pair + odd tail.
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
        assert_eq!(stats.tc_block_a + stats.cuda_block_a, ma.n_blocks() as u64);
    }

    #[test]
    fn policy_tc_threshold_flips_spgemm_path() {
        let a = laplacian_2d(12, 12, Stencil2d::Five);
        let dev = Device::new(GpuSpec::a100());
        let ma = Mbsr::from_csr(&a);
        // Default: the 5-point stencil's sparse tiles stay on CUDA cores.
        let (_, base) = spgemm_mbsr(&ctx(&dev), &ma, &ma);
        assert!(base.cuda_block_a > 0);
        // Threshold 1: every nonempty tile routes to the tensor path.
        let mut p = KernelPolicy::paper_default();
        p.tc_popcount_threshold = 1;
        let (mc, all_tc) = spgemm_mbsr(&ctx(&dev).with_policy(p), &ma, &ma);
        assert_eq!(all_tc.cuda_block_a, 0);
        assert_eq!(all_tc.tc_block_a, ma.n_blocks() as u64);
        // Threshold 17: nothing can reach it, every tile is CUDA-core.
        p.tc_popcount_threshold = 17;
        let (mc2, no_tc) = spgemm_mbsr(&ctx(&dev).with_policy(p), &ma, &ma);
        assert_eq!(no_tc.tc_block_a, 0);
        assert_eq!(no_tc.mma_issued, 0);
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
