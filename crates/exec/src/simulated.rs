//! The warp-emulator execution backend.
//!
//! These are the original lane-faithful kernel bodies (moved here from
//! `amgt-kernels` when the backend layer was introduced): every step
//! reproduces, element by element and in the same order, the arithmetic the
//! fragment/shuffle emulation in [`amgt_sim`] performs. The SpMV
//! tensor-core warp is the verified scalar transcription of the full
//! fragment pipeline (`amgt-kernels` keeps the `tc_warp_fragments`
//! reference and the test proving them bit-identical); the SpGEMM
//! tensor-core step packs real fragments and issues [`mma_8x8x4`].

use crate::{fold_block_rows, ExecBackend, SpmvPath};
use amgt_sim::mma::{mma_8x8x4, FragA, FragB, FragC, TILE};
use amgt_sim::precision::{quantize_slice, Precision};
use amgt_sim::warp::{warp_reduce_sum_grouped, LaneRegs, WARP_SIZE};
use amgt_sparse::bitmap::{self, TILE_AREA};
use amgt_sparse::Mbsr;
use std::ops::Range;

/// The emulator-faithful backend (see module docs).
pub struct Simulated;

/// The lane-level warp kernels. [`ExecBackend::spmv_rows`] loops them over
/// a block-row range; they also return the lane-level operation counts,
/// which tests compare against the counters the SpMV preprocessing takes
/// from the bitmaps.
impl Simulated {
    /// Tensor-core SpMV warp (Algorithm 5, dense path) over the tiles
    /// `[start, start + len)`: two tiles per `mma`, accumulating in the
    /// fragment; the diagonal carries the 8 partial row sums. This is the
    /// fast scalar transcription of the fragment computation
    /// ([`mma_8x8x4`] restricted to the diagonal lanes). Returns the
    /// block-row's 4 partial sums and the `mma` instructions issued.
    pub fn tc_warp(
        prec: Precision,
        a: &Mbsr,
        start: usize,
        len: usize,
        xp: &[f64],
    ) -> ([f64; TILE], u64) {
        let mut diag = [0.0f64; 8];
        let mut mma_n = 0u64;
        let mut b = start;
        let end = start + len;
        while b < end {
            let pair = [(b, true), (b + 1, b + 1 < end)];
            for (slot, &(pos, valid)) in pair.iter().enumerate() {
                if !valid {
                    continue;
                }
                let tile = a.tile(pos);
                let bc = a.blc_idx[pos] as usize;
                let xseg = &xp[bc * TILE..bc * TILE + TILE];
                for r in 0..TILE {
                    let mut acc = diag[slot * TILE + r];
                    for k in 0..TILE {
                        let prod = prec.round_product(tile[r * TILE + k], xseg[k]);
                        acc = prec.round_accum(acc + prod);
                    }
                    diag[slot * TILE + r] = acc;
                }
            }
            mma_n += 1;
            b += 2;
        }
        // Extract: y_r = diag[r] + diag[4 + r] (the two fragment halves).
        let mut out = [0.0f64; TILE];
        for r in 0..TILE {
            out[r] = prec.round_accum(diag[r] + diag[TILE + r]);
        }
        (out, mma_n)
    }

    /// CUDA-core SpMV warp (Algorithm 5, sparse path): four lanes per
    /// tile, lane `i` handles tile row `i` guided by the bitmap, then a
    /// grouped warp sum emulated with literal lane registers and shuffles.
    /// Returns the 4 partial sums, the flops and the nonempty tile rows.
    pub fn cuda_warp(
        prec: Precision,
        a: &Mbsr,
        start: usize,
        len: usize,
        xp: &[f64],
    ) -> ([f64; TILE], u64, u64) {
        // Emulate the lane layout: 8 groups of 4 lanes stride the job's
        // tiles (Algorithm 5 line 6: `for i = start + groupid to end stride
        // 8`), each lane accumulating one tile row into its register, then
        // a grouped reduction.
        let mut lane_acc: LaneRegs<f64> = [0.0; WARP_SIZE];
        let (mut flops, mut ntr) = (0u64, 0u64);
        for (offset, pos) in (start..start + len).enumerate() {
            let group = offset % 8;
            let map = a.blc_map[pos];
            let tile = a.tile(pos);
            let bc = a.blc_idx[pos] as usize;
            let xseg = &xp[bc * TILE..bc * TILE + TILE];
            for lane_in_group in 0..TILE {
                let lane = group * TILE + lane_in_group;
                let row = bitmap::row_mask(map, lane_in_group);
                if row == 0 {
                    continue;
                }
                ntr += 1;
                let mut acc = lane_acc[lane];
                for k in 0..TILE {
                    if row & (1 << k) != 0 {
                        let prod = prec.round_product(tile[lane_in_group * TILE + k], xseg[k]);
                        acc = prec.round_accum(acc + prod);
                        flops += 2;
                    }
                }
                lane_acc[lane] = acc;
            }
        }
        // Warp-level sum within each "row lane" class: transpose lanes so a
        // grouped reduction matches Algorithm 5's WarpLevelSum.
        let rearranged: LaneRegs<f64> = std::array::from_fn(|l| lane_acc[(l % 8) * TILE + (l / 8)]);
        let summed = warp_reduce_sum_grouped(&rearranged, 8);
        let mut out = [0.0f64; TILE];
        for (r, item) in out.iter_mut().enumerate() {
            *item = prec.round_accum(summed[r * 8]);
        }
        (out, flops, ntr)
    }
}

impl ExecBackend for Simulated {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn spmv_rows(
        &self,
        prec: Precision,
        path: SpmvPath,
        a: &Mbsr,
        _a32: &[f32],
        job_len: usize,
        rows: Range<usize>,
        xp: &[f64],
        _x32: &[f32],
        y: &mut [f64],
    ) {
        let round = |v| prec.round_accum(v);
        match path {
            SpmvPath::TensorCore => fold_block_rows(a, job_len, rows, y, round, |s, len| {
                Self::tc_warp(prec, a, s, len, xp).0
            }),
            SpmvPath::CudaCore => fold_block_rows(a, job_len, rows, y, round, |s, len| {
                Self::cuda_warp(prec, a, s, len, xp).0
            }),
        }
    }

    /// One warp-level tensor-core SpGEMM step: multiply the replicated
    /// `fragA` with one or two valid blockBs, extract the useful tiles by
    /// shuffles, and accumulate bitmap + values into the `C` block-row.
    fn spgemm_tc_mma(
        &self,
        prec: Precision,
        a_tile: &[f64; 16],
        b: &Mbsr,
        c_map: &mut [u16],
        c_val: &mut [f64],
        targets: &[(usize, usize, u16)],
    ) {
        debug_assert!(!targets.is_empty() && targets.len() <= 2);
        let frag_a = FragA::pack_tiles(a_tile, a_tile);
        let zero = [0.0f64; TILE_AREA];
        let t0 = b.tile(targets[0].0);
        let t1 = targets.get(1).map_or(&zero, |&(p, _, _)| b.tile(p));
        let frag_b = FragB::pack_tiles(t0, t1);
        let mut frag_c = FragC::ZERO;
        mma_8x8x4(&mut frag_c, &frag_a, &frag_b, prec);
        for (slot_idx, &(_, slot, map_c)) in targets.iter().enumerate() {
            c_map[slot] |= map_c;
            let (tile, _shuffles) = frag_c.extract_tile(0, slot_idx);
            let out = &mut c_val[slot * TILE_AREA..(slot + 1) * TILE_AREA];
            for (o, t) in out.iter_mut().zip(tile.iter()) {
                // Only bitmap positions may carry values; the rest of the
                // MMA output is exact zeros anyway, but masking keeps the
                // invariant robust under cancellation.
                *o = prec.round_accum(*o + t);
            }
            // Clear any slop outside the bitmap (padding lanes are zero by
            // construction; this enforces the mBSR value/bitmap invariant).
            for bit in 0..TILE_AREA {
                if c_map[slot] & (1 << bit) == 0 {
                    out[bit] = 0.0;
                }
            }
        }
    }

    /// Thread-level tile product on CUDA cores: loops bitmap positions
    /// only.
    fn spgemm_cuda_tile(
        &self,
        prec: Precision,
        a_tile: &[f64; 16],
        map_a: u16,
        b_tile: &[f64; 16],
        map_b: u16,
        out: &mut [f64],
    ) -> u64 {
        let mut flops = 0u64;
        for i in 0..4 {
            let arow = bitmap::row_mask(map_a, i);
            if arow == 0 {
                continue;
            }
            for k in 0..4 {
                if arow & (1 << k) == 0 {
                    continue;
                }
                let brow = bitmap::row_mask(map_b, k);
                if brow == 0 {
                    continue;
                }
                let av = a_tile[i * 4 + k];
                for j in 0..4 {
                    if brow & (1 << j) != 0 {
                        let prod = prec.round_product(av, b_tile[k * 4 + j]);
                        out[i * 4 + j] = prec.round_accum(out[i * 4 + j] + prod);
                        flops += 2;
                    }
                }
            }
        }
        flops
    }

    /// The vendor CSR row product: quantize operands, round each product,
    /// round each accumulation — sequentially, in index order.
    fn csr_spmv_row(&self, prec: Precision, cols: &[u32], vals: &[f64], x: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (&c, &v) in cols.iter().zip(vals) {
            let prod = prec.round_product(prec.quantize(v), prec.quantize(x[c as usize]));
            acc = prec.round_accum(acc + prod);
        }
        acc
    }

    fn quantize(&self, prec: Precision, values: &mut [f64]) {
        quantize_slice(prec, values);
    }
}
