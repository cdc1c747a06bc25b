//! # amgt-exec — pluggable execution backends for the AmgT kernels
//!
//! Every kernel in `amgt-kernels` separates *what* it computes (the mBSR
//! tile arithmetic of the paper's algorithms, with real reduced-precision
//! rounding) from *how* the result is produced. This crate owns the "how":
//! the [`ExecBackend`] trait and its two implementations.
//!
//! * [`Simulated`](simulated::Simulated) — the warp-emulator path. Warp
//!   jobs run lane by lane through `amgt_sim`'s fragment/shuffle emulation
//!   (or its verified scalar transcription), exactly as a tensor-core GPU
//!   would schedule them. This path is the source of truth for the paper's
//!   cost-model figures and for `amgt-tune`.
//! * [`Native`](native::Native) — the same arithmetic computed directly on
//!   the host: fork-join (rayon) parallelism across block rows, `std::arch`
//!   SIMD for the 4x4 tile kernels (runtime AVX2 detection with a scalar
//!   fallback, see [`simd`]), and reduced-precision rounding that reuses
//!   the bit-exact [`amgt_sim::F16`] / TF32 conversions.
//!
//! **The contract is bitwise equality.** For every backend method, both
//! implementations must produce identical `f64` bit patterns at every
//! [`Precision`] — the native path is a *reformulation* of the emulated
//! arithmetic (see the per-method notes in [`native`] for the proofs), not
//! an approximation of it.
//!
//! Every kernel method takes a whole row range, one call per fork-join
//! leaf: [`ExecBackend::spmm_rows`] (a chunk of up to [`SPMM_COLS`]
//! operand columns; SpMV is the one-column call: the emulator loops its
//! warp emulation over the range's jobs and the chunk's columns, the
//! native backend runs one register-resident sweep per job that reads
//! each tile once for the whole chunk), [`ExecBackend::spgemm_rows`] and
//! [`ExecBackend::csr_spmv_rows`]. No backend returns an operation count:
//! the SpMV counters depend only on the matrix and the warp schedule, the
//! SpGEMM counters only on the bitmaps and the popcount threshold, so the
//! SpMV preprocessing and the SpGEMM symbolic pass in `amgt-kernels`
//! compute them from the bitmaps, and the simulated-GPU charge cannot
//! depend on the backend that ran. Tests check them against the
//! emulator's counts.

//! This crate deliberately sits *below* `amgt-kernels`: it knows sparse
//! formats (`amgt-sparse`) and the precision model (`amgt-sim`) but nothing
//! about plans, policies, contexts or the device ledger.

// Tile-coordinate math deliberately indexes fixed-size 4x4 layouts and
// parallel arrays; iterator rewrites of those loops obscure the lane/slot
// correspondence the paper's algorithms are written in.
#![allow(clippy::needless_range_loop)]

pub mod native;
pub mod par;
pub mod prof;
pub mod simd;
pub mod simulated;

use amgt_sim::Precision;
use amgt_sparse::bitmap::{bitmap_multiply, popcount, TILE, TILE_AREA};
use amgt_sparse::{Csr, Mbsr};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::ops::Range;

pub use simd::{simd_level, SimdLevel};

/// Which execution substrate computes kernel results.
///
/// Not to be confused with `BackendKind` in `amgt` (the *algorithm/format*
/// choice: vendor CSR kernels vs the paper's mBSR tensor-core kernels).
/// `ExecMode` picks how the chosen kernels are *executed*: through the
/// bit-faithful warp emulator, or natively on the host CPU. Every
/// combination is valid and all four produce bitwise-identical results and
/// identical simulated-GPU charges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExecMode {
    /// Lane-level warp emulation (authoritative for cost-model figures).
    #[default]
    Simulated,
    /// Direct host execution: rayon fork-join + SIMD tile kernels.
    Native,
}

impl ExecMode {
    /// Short CLI / report label.
    pub fn label(self) -> &'static str {
        match self {
            ExecMode::Simulated => "sim",
            ExecMode::Native => "native",
        }
    }

    /// Parse a CLI spelling (`sim`/`simulated` or `native`).
    pub fn parse(s: &str) -> Option<ExecMode> {
        match s {
            "sim" | "simulated" => Some(ExecMode::Simulated),
            "native" => Some(ExecMode::Native),
            _ => None,
        }
    }
}

/// Which SpMV compute path the adaptive selection chose (Algorithm 5):
/// tensor cores, two tiles per `mma` with the result on the accumulator
/// diagonal, or CUDA cores, four lanes per tile and a grouped warp sum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpmvPath {
    TensorCore,
    CudaCore,
}

/// The warp jobs of one block-row whose tiles are `[lo, hi)`: consecutive
/// `(start, len)` chunks of at most `job_len` tiles, in order. `job_len`
/// is the warp capacity under the load-balanced schedule and `usize::MAX`
/// (one job per nonempty block-row) otherwise; it must be nonzero.
pub fn warp_jobs(lo: usize, hi: usize, job_len: usize) -> impl Iterator<Item = (usize, usize)> {
    (lo..hi)
        .step_by(job_len)
        .map(move |s| (s, (hi - s).min(job_len)))
}

/// Most operand columns one [`ExecBackend::spmm_rows`] call takes. The
/// native FP64 tensor-core sweep keeps `2 x SPMM_COLS` group accumulators
/// in registers.
pub const SPMM_COLS: usize = 4;

/// The block-row loop behind every [`ExecBackend::spmm_rows`], for a chunk
/// of `N` columns: for block-row `rows.start + i`, each warp job's 4
/// partial sums per column `job(start, len)[c]` fold into that column's
/// accumulator, which starts at `+0.0`, as `acc = round(acc + part)` (the
/// emulator's `round_accum`), and the row's results are written to
/// `y[c][4 i..]`, clipped to `y[c]`.
#[inline(always)]
pub(crate) fn fold_block_rows<const N: usize>(
    a: &Mbsr,
    job_len: usize,
    rows: Range<usize>,
    y: &mut [&mut [f64]],
    round: impl Fn(f64) -> f64,
    mut job: impl FnMut(usize, usize) -> [[f64; TILE]; N],
) {
    let y: &mut [&mut [f64]; N] = y.try_into().expect("one output slice per column");
    for (i, br) in rows.enumerate() {
        let mut acc = [[0.0f64; TILE]; N];
        for (start, len) in warp_jobs(a.blc_ptr[br], a.blc_ptr[br + 1], job_len) {
            let part = job(start, len);
            for c in 0..N {
                for r in 0..TILE {
                    acc[c][r] = round(acc[c][r] + part[c][r]);
                }
            }
        }
        for c in 0..N {
            for (o, v) in y[c][i * TILE..].iter_mut().zip(acc[c]) {
                *o = v;
            }
        }
    }
}

/// Column `c` of `N` columns stored back to back in `v`, each `len` long.
#[inline(always)]
pub(crate) fn columns<T, const N: usize>(v: &[T], len: usize) -> [&[T]; N] {
    std::array::from_fn(|c| &v[c * len..(c + 1) * len])
}

/// The inputs of one [`ExecBackend::spgemm_rows`] call.
#[derive(Clone, Debug)]
pub struct SpgemmRows<'a> {
    pub a: &'a Mbsr,
    pub b: &'a Mbsr,
    /// `popcount(mapA)` at which an A block takes the tensor-core path.
    pub tc_threshold: u32,
    /// The block-rows of `C` to compute.
    pub rows: Range<usize>,
    /// `C`'s block-row pointers (all rows).
    pub c_ptr: &'a [usize],
    /// `C`'s symbolic block columns, from block-row `rows.start` on.
    pub c_idx: &'a [u32],
}

/// One valid product of an A block: the B tile's position and the slot of
/// its block column in the C block-row.
pub type SpgemmTarget = (usize, usize);

thread_local! {
    /// Grow-only scratch of `spgemm_block_rows`: the C slot of each
    /// block column in the current block-row (never cleared: a row writes
    /// its own columns first and symbolic put every reachable column in
    /// the row, so a stale entry is never read), and the current A block's
    /// valid products.
    static SPGEMM_SCRATCH: RefCell<(Vec<u32>, Vec<SpgemmTarget>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// The block-row walk behind every [`ExecBackend::spgemm_rows`]: per A
/// block, in order, collect its valid products, OR their bitmaps into the
/// C block-row's maps (a block's targets name distinct slots, so this
/// equals the emulator's per-target OR), and call
/// `block(tc, a_pos, targets, row_map, row_val)` on the C block-row.
#[inline(always)]
pub(crate) fn spgemm_block_rows(
    job: &SpgemmRows,
    c_map: &mut [u16],
    c_val: &mut [f64],
    mut block: impl FnMut(bool, usize, &[SpgemmTarget], &[u16], &mut [f64]),
) {
    let (a, b, c_ptr) = (job.a, job.b, job.c_ptr);
    SPGEMM_SCRATCH.with_borrow_mut(|(slot_of, targets)| {
        if slot_of.len() < b.blk_cols() {
            slot_of.resize(b.blk_cols(), 0);
        }
        let base = c_ptr[job.rows.start];
        for br in job.rows.clone() {
            let (lo, hi) = (c_ptr[br] - base, c_ptr[br + 1] - base);
            for (slot, &j) in job.c_idx[lo..hi].iter().enumerate() {
                slot_of[j as usize] = slot as u32;
            }
            let row_map = &mut c_map[lo..hi];
            let row_val = &mut c_val[lo * TILE_AREA..hi * TILE_AREA];
            for a_pos in a.blc_ptr[br]..a.blc_ptr[br + 1] {
                let map_a = a.blc_map[a_pos];
                let k = a.blc_idx[a_pos] as usize;
                targets.clear();
                for b_pos in b.blc_ptr[k]..b.blc_ptr[k + 1] {
                    let map_c = bitmap_multiply(map_a, b.blc_map[b_pos]);
                    if map_c != 0 {
                        let slot = slot_of[b.blc_idx[b_pos] as usize] as usize;
                        row_map[slot] |= map_c;
                        targets.push((b_pos, slot));
                    }
                }
                let tc = popcount(map_a) >= job.tc_threshold;
                block(tc, a_pos, targets, row_map, row_val);
            }
        }
    });
}

/// One execution backend: the block-row SpMV and SpGEMM numeric the mBSR
/// kernels are built from, plus the row-range CSR SpMV the vendor baseline
/// uses and the storage-precision quantization pass ("convert"). Every
/// kernel method takes a whole row range, so a fork-join leaf costs one
/// dynamic dispatch.
///
/// All methods are pure with respect to the backend (no internal state), so
/// a `&'static` instance is shared freely across threads.
pub trait ExecBackend: Send + Sync {
    /// Backend name for reports/traces (`"sim"` or `"native"`).
    fn name(&self) -> &'static str;

    /// Precompute the reduced-precision image of a padded SpMV operand for
    /// repeated calls over it: fills `x32` with exactly the per-element
    /// input rounding the backend's SpMV kernels apply (TF32/F16 to `f32`),
    /// or clears it when the backend needs no such image (the emulator, or
    /// FP64 where inputs pass through unrounded).
    fn spmv_quantize_x(&self, prec: Precision, xp: &[f64], x32: &mut Vec<f32>) {
        let _ = (prec, xp);
        x32.clear();
    }

    /// Build the reduced-precision value image of the SpMV operand `a` for
    /// SpMV calls at `prec`: each tile's 16 values rounded once through the
    /// SpMV kernels' input conversion, stored column-major within the tile
    /// (see [`native`]). Cleared when the backend needs no image (the
    /// emulator, or FP64). Built once per matrix by the SpMV preprocessing,
    /// so the per-call kernels never convert a matrix value.
    fn spmv_tile_image(&self, prec: Precision, a: &Mbsr, a32: &mut Vec<f32>) {
        let _ = (prec, a);
        a32.clear();
    }

    /// SpMV of a chunk of operand columns over the block-rows `rows` of
    /// `a` (Algorithm 5); SpMV of one vector is the one-column call. Each
    /// row's warp jobs ([`warp_jobs`] at `job_len`) run on `path` in
    /// order, their 4 partial sums fold into the row with `round_accum`,
    /// and column `c`'s results for block-row `rows.start + i` land in
    /// `y[c][4 i..4 i + 4]` (`y[c]` covers exactly the range's output rows;
    /// the last block-row of the matrix may be short). `y.len()` is the
    /// chunk's column count, from 1 to [`SPMM_COLS`]. `xp` holds the
    /// chunk's quantized, padded operand columns back to back (column `c`
    /// at `xp[c * p..(c + 1) * p]`, `p = 4 * a.blk_cols()`), and `x32`
    /// their [`ExecBackend::spmv_quantize_x`] image in the same layout;
    /// `a32` is the [`ExecBackend::spmv_tile_image`] at `prec` (a backend
    /// that built no image ignores it). Every column's bits equal those of
    /// a one-column call on that column. Operands must pass
    /// [`operand_is_finite`]: the native kernels are bitwise-exact only
    /// for finite operands, so callers route any other operand through
    /// the emulator.
    ///
    /// Operation counters are not part of this call: they depend only on
    /// the matrix and the schedule, so the SpMV preprocessing computes them
    /// once from the bitmaps.
    #[allow(clippy::too_many_arguments)]
    fn spmm_rows(
        &self,
        prec: Precision,
        path: SpmvPath,
        a: &Mbsr,
        a32: &[f32],
        job_len: usize,
        rows: Range<usize>,
        xp: &[f64],
        x32: &[f32],
        y: &mut [&mut [f64]],
    );

    /// SpGEMM numeric over `job.rows` of `C = A * B` (Algorithm 4), A
    /// blocks and their valid B tiles (nonzero `BITMAPMULTIPLY`) in storage
    /// order: an A block whose popcount reaches `job.tc_threshold` takes
    /// the tensor-core path (each product from zero, added into its C slot,
    /// the slot's accumulated bitmap applied), the rest the CUDA-core path
    /// (bitmap positions only). `c_map` and `c_val` are zeroed on entry and
    /// start at block-row `job.rows.start`. No counters: the symbolic pass
    /// takes them from the bitmaps.
    fn spgemm_rows(&self, prec: Precision, job: &SpgemmRows, c_map: &mut [u16], c_val: &mut [f64]);

    /// Vendor CSR SpMV over the rows `rows` of `a`: row `rows.start + i`
    /// runs the sequential quantize-multiply-accumulate chain over its
    /// nonzeros and writes the rounded result to `y[i]`.
    fn csr_spmv_rows(&self, prec: Precision, a: &Csr, rows: Range<usize>, x: &[f64], y: &mut [f64]);

    /// Quantize values to their storage precision in place (the value side
    /// of the format-conversion kernels; identity at FP64).
    fn quantize(&self, prec: Precision, values: &mut [f64]);
}

/// Smallest magnitude TF32 input rounding sends to infinity: halfway
/// between the largest finite TF32 value `(2 - 2^-10) * 2^127` and `2^128`
/// (that value's significand is odd, so the tie itself rounds up).
const TF32_OVERFLOW: f64 = (2.0 - 1.0 / 2048.0) * 1.7014118346046923e38;

/// Whether the SpMV kernels' input rounding at `prec` of the quantized
/// operand value `q` (`prec.quantize(x)`) is finite. The native SpMV
/// sweeps are dense: an unmapped `+/-0.0` slot times an infinite operand
/// is NaN where the emulator skips the slot. SpMV/SpMM callers therefore
/// fold this check into their operand sweep and run a call whose operand
/// fails it on the emulator, which gives the same bits and charges.
#[inline]
pub fn operand_is_finite(prec: Precision, q: f64) -> bool {
    match prec {
        // A finite f32 within half a TF32 ulp of f32::MAX rounds to inf.
        Precision::Fp32 => q.abs() < TF32_OVERFLOW,
        Precision::Fp64 | Precision::Fp16 => q.is_finite(),
    }
}

/// The shared instance of the backend selected by `mode`.
pub fn backend(mode: ExecMode) -> &'static dyn ExecBackend {
    static SIMULATED: simulated::Simulated = simulated::Simulated;
    static NATIVE: native::Native = native::Native;
    match mode {
        ExecMode::Simulated => &SIMULATED,
        ExecMode::Native => &NATIVE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_labels_round_trip() {
        for mode in [ExecMode::Simulated, ExecMode::Native] {
            assert_eq!(ExecMode::parse(mode.label()), Some(mode));
        }
        assert_eq!(ExecMode::parse("simulated"), Some(ExecMode::Simulated));
        assert_eq!(ExecMode::parse("cuda"), None);
        assert_eq!(ExecMode::default(), ExecMode::Simulated);
    }

    #[test]
    fn backend_names_match_modes() {
        assert_eq!(backend(ExecMode::Simulated).name(), "sim");
        assert_eq!(backend(ExecMode::Native).name(), "native");
    }
}
