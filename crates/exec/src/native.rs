//! The native execution backend: the same mBSR tile arithmetic as the warp
//! emulator, computed directly on the host with monomorphized per-precision
//! kernels and (where profitable) `std::arch` SIMD.
//!
//! ## Why this is bit-identical to the emulator
//!
//! The emulator's arithmetic at each [`Precision`] reduces to a small set
//! of identities the native kernels exploit:
//!
//! * **FP64** — `round_product` is a plain `f64` multiply and
//!   `round_accum` the identity, so the native path is ordinary `f64`
//!   multiply-then-add in the emulator's accumulation order. Multiplies
//!   and adds are kept as *separate* instructions (never an FMA — a fused
//!   single rounding would break the two-roundings-per-step identity).
//! * **FP32 (TF32 inputs)** — the emulator rounds both operands to TF32
//!   (11-bit significands), multiplies exactly in `f64`, rounds the product
//!   to `f32`, and rounds each accumulation to `f32`. A TF32 product fits
//!   in 22 bits, so the `f32` hardware multiply of the pre-rounded operands
//!   is exact and identical; and because `f64` holds the exact sum of any
//!   two `f32` values and 53 >= 2x24 + 2, the emulator's
//!   round-`f64`-sum-to-`f32` equals the hardware `f32` add (the standard
//!   double-rounding safety bound). The native kernel therefore pre-rounds
//!   inputs once with [`round_tf32`] and runs a pure `f32` chain.
//! * **FP16 inputs / FP32 accumulate** — same argument with operands
//!   pre-rounded through the bit-exact [`F16`] conversion (every binary16
//!   value, subnormals included, is exact in `f32`).
//!
//! These identities cover *finite* arithmetic; NaN payloads produced by
//! invalid operations (`inf * 0`) are unspecified by both paths.
//!
//! SIMD vectorizes only **across independent accumulation chains** (the 4
//! rows of a tile, the 4 columns of a product row) — never within one
//! chain — so lane math is the scalar math verbatim. The CUDA-core paths
//! drop the emulator's per-bit branches and accumulate tiles densely,
//! which is bitwise-safe because of two invariants: mBSR value slots are
//! `+/-0.0` wherever the bitmap bit is clear ([`Mbsr::validate`]), and a
//! round-to-nearest accumulator chain that starts at `+0.0` can never
//! reach `-0.0` (an RN sum is `-0.0` only when both addends are), so the
//! extra `acc + (+/-0.0)` steps the dense sweep inserts reproduce the
//! branchy chain bit-for-bit. The argument holds in `f32` exactly as in
//! `f64`: an unmapped slot's image value is `to_f32(+/-0.0) = +/-0.0`, and
//! its product with a finite operand is `+/-0.0` again. No kernel here
//! counts operations: the SpMV plan and the SpGEMM symbolic pass take
//! their counters from the bitmaps.
//!
//! ## SpMV: one call per block-row range and column chunk
//!
//! [`ExecBackend::spmm_rows`] gets a whole fork-join leaf of block-rows
//! and a chunk of `N` (1 to [`SPMM_COLS`]) operand columns; SpMV is the
//! `N = 1` call. One loop (`fold_block_rows`, shared with the
//! emulator) walks each row's warp jobs in order and folds their partial
//! sums into the row, per column, so a row costs no dynamic dispatch and
//! no per-job counter pass. Each job is one sweep with `G` group
//! accumulators per column — `G = 2` (the two fragment halves) on the
//! tensor-core path, `G = 8` (the lane groups) on the CUDA-core path —
//! followed by the emulator's warp-sum tree, per column. The sweep loads
//! each tile once and steps it into every column's chain of its group:
//!
//! * **FP64** (`sweep_f64`): the AVX2 body transposes each row-major
//!   tile in registers once, so one `__m256d` holds a k-column across the
//!   4 rows, then runs the same `vmulpd`/`vaddpd` steps (never FMA) into
//!   each column's group accumulator; the tree runs lane-wise on the
//!   vectors. The row-range loop and the sweep inline into one AVX2
//!   function. A column-major f64 copy of the tiles would save the
//!   transposes but cost 128 B per tile, so the kernel reads the mBSR
//!   values as stored.
//! * **FP32/FP16** (`sweep_f32`): the same loop over the `f32` tile
//!   image described below, its four column loads shared by the chunk.
//! * **Walk order.** Groups are independent chains, so any walk that
//!   gives each group its own tiles in order yields the same bits. While
//!   the `G * N` accumulators fit in registers (at most 8: the
//!   tensor-core path at every chunk width, the CUDA-core path at one
//!   column) the sweep walks the tiles in order with the group cycling;
//!   otherwise (the CUDA-core path from two columns on) it walks the job
//!   group by group (tiles `g, g + 8, ...`), keeping `N` accumulators
//!   live. The one-column call keeps the in-order walk: walking the
//!   CUDA-core path group by group at one column made FP64 SpMV over the
//!   Small mc2depi hierarchy about 15% slower (best of 4 runs on one
//!   pinned CPU of a shared 2-vCPU x86-64 host).
//!
//! ## SpGEMM numeric: one call per block-row range
//!
//! [`ExecBackend::spgemm_rows`] runs a fork-join leaf of C's block-rows
//! through the walk shared with the emulator (`spgemm_block_rows`).
//! FP64 (`spgemm_rows_f64`) broadcasts each A tile once per block and
//! runs each output row of a valid product as one AVX2 chain (`vmulpd`,
//! `vaddpd`): from zero, added into the slot and lane-masked by the slot
//! bitmap on the tensor-core path; straight into the slot on the
//! CUDA-core path. FP32/FP16 run the same walk with `f32` chains
//! (`spgemm_rows_chain`): dense on the tensor-core path, whose emulated
//! MMA is dense too, but only over the set A and B bits on the CUDA-core
//! path, like the emulator. The dense argument above needs finite
//! operands, and a TF32 or binary16 operand rounds to `+/-inf` when it
//! overflows (the quantized `A * P` of a Galerkin product can, even when
//! `A` does not), so a dense CUDA-core sweep would meet an unmapped
//! `+/-0.0` slot and give NaN where the emulator gives `inf` or a finite
//! value. The FP64 CUDA-core loop stays dense: FP64 operands are not
//! rounded, so only a non-finite input matrix could reach that case.
//!
//! ## Tile images for FP32/FP16 SpMV
//!
//! The reduced-precision SpMV kernels never convert a matrix value. The
//! SpMV preprocessing asks [`ExecBackend::spmv_tile_image`] for an `f32`
//! **tile image** of the operand, built once per matrix: tile `t`'s 16
//! values rounded through the precision's input conversion (`tf32` or
//! `half`), stored column-major at `a32[16 t + 4 k + r]` so that column
//! `k` of a tile is one 4-lane load. A job then runs, per tile, four
//! column loads times the broadcast operand value `x32[4 bc + k]`, with a
//! separate `f32` multiply and add, into per-group accumulators that stay
//! in registers; the group tree runs in f64 on the widened accumulators
//! and rounds back once.
//!
//! * **Build order.** The image may be built before the level's values are
//!   quantized to their storage precision: `to_f32(quantize(v)) ==
//!   to_f32(v)` at both reduced precisions. At FP16 both sides are one
//!   binary16 rounding (quantizing twice to binary16 is idempotent); at
//!   FP32 the storage rounding is `f64 -> f32` and TF32 rounding of an
//!   `f32` is what `tf32` applies anyway.
//! * **Non-finite operands.** The dense sweep multiplies every slot, so an
//!   infinite operand value meets the `+/-0.0` of unmapped slots and gives
//!   NaN where the emulator skips the slot (at FP64 too). Callers check
//!   [`crate::operand_is_finite`] while they quantize the operand and run
//!   a call whose operand fails it on the emulator — same bits, same
//!   counters, so the same charge.
//! * **Memory.** The image costs 64 B per tile on FP32/FP16 operands (FP64
//!   operands and the emulator build none). The `f64` tile values stay,
//!   because SpGEMM and the emulator read them.

use crate::simd::{simd_level, SimdLevel};
use crate::{
    columns, fold_block_rows, spgemm_block_rows, ExecBackend, SpgemmRows, SpgemmTarget, SpmvPath,
    SPMM_COLS,
};
use amgt_sim::precision::{round_tf32, Precision, F16};
use amgt_sparse::bitmap::{self, TILE, TILE_AREA};
use amgt_sparse::{Csr, Mbsr};
use std::ops::{Add, Mul, Range};

/// The direct-execution backend (see module docs).
pub struct Native;

/// FP32 tensor mode input rounding: operands round to TF32 (via `f32`
/// first, exactly as `Precision::round_product` does).
#[inline]
fn tf32(x: f64) -> f32 {
    round_tf32(x as f32)
}

/// FP16 mode input rounding: the bit-exact binary16 conversion.
#[inline]
fn half(x: f64) -> f32 {
    F16::from_f64(x).to_f32()
}

/// The element type of a compute chain: `f64`, or `f32` (which widens
/// to `f64` exactly).
trait Elem: Copy + Default + Add<Output = Self> + Mul<Output = Self> + Into<f64> {}
impl<T: Copy + Default + Add<Output = T> + Mul<Output = T> + Into<f64>> Elem for T {}

impl ExecBackend for Native {
    fn name(&self) -> &'static str {
        "native"
    }

    fn spmv_quantize_x(&self, prec: Precision, xp: &[f64], x32: &mut Vec<f32>) {
        // One rounding pass per operand: each element is rounded once
        // instead of every time a tile references it. The sweep is
        // elementwise, so it forks over disjoint chunks.
        x32.clear();
        match prec {
            Precision::Fp64 => {}
            Precision::Fp32 => convert_sweep(xp, x32, tf32),
            Precision::Fp16 => convert_sweep(xp, x32, half),
        }
    }

    fn spmv_tile_image(&self, prec: Precision, a: &Mbsr, a32: &mut Vec<f32>) {
        a32.clear();
        match prec {
            Precision::Fp64 => {}
            Precision::Fp32 => image_sweep(a, a32, tf32),
            Precision::Fp16 => image_sweep(a, a32, half),
        }
    }

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
    ) {
        match y.len() {
            1 => spmm_rows_n::<1>(prec, path, a, a32, job_len, rows, xp, x32, y),
            2 => spmm_rows_n::<2>(prec, path, a, a32, job_len, rows, xp, x32, y),
            3 => spmm_rows_n::<3>(prec, path, a, a32, job_len, rows, xp, x32, y),
            4 => spmm_rows_n::<4>(prec, path, a, a32, job_len, rows, xp, x32, y),
            n => panic!("{n} columns in one call; a chunk holds 1 to {SPMM_COLS}"),
        }
    }

    fn spgemm_rows(&self, prec: Precision, job: &SpgemmRows, c_map: &mut [u16], c_val: &mut [f64]) {
        match prec {
            Precision::Fp64 => spgemm_rows_f64(job, c_map, c_val),
            Precision::Fp32 => spgemm_rows_chain(job, c_map, c_val, tf32, |v| v as f32),
            Precision::Fp16 => spgemm_rows_chain(job, c_map, c_val, half, |v| v as f32),
        }
    }

    fn csr_spmv_rows(
        &self,
        prec: Precision,
        a: &Csr,
        rows: Range<usize>,
        x: &[f64],
        y: &mut [f64],
    ) {
        match prec {
            Precision::Fp64 => csr_rows(a, rows, x, y, |v| v),
            Precision::Fp32 => csr_rows(a, rows, x, y, tf32),
            Precision::Fp16 => csr_rows(a, rows, x, y, half),
        }
    }

    fn quantize(&self, prec: Precision, values: &mut [f64]) {
        // Monomorphized per precision; LLVM auto-vectorizes the FP32 cast
        // loop, and FP16 reuses the bit-exact scalar conversion. Each
        // element rounds independently, so the sweep forks over disjoint
        // chunks (bitwise identical at any pool width).
        let n = values.len();
        match prec {
            Precision::Fp64 => {}
            Precision::Fp32 => {
                crate::par::join_block_chunks(
                    values,
                    0,
                    n,
                    1,
                    QUANT_GRAIN,
                    &|_, _, chunk| {
                        for v in chunk {
                            *v = f64::from(*v as f32);
                        }
                    },
                    &|(), ()| (),
                );
            }
            Precision::Fp16 => {
                crate::par::join_block_chunks(
                    values,
                    0,
                    n,
                    1,
                    QUANT_GRAIN,
                    &|_, _, chunk| {
                        for v in chunk {
                            *v = F16::from_f64(*v).to_f64();
                        }
                    },
                    &|(), ()| (),
                );
            }
        }
    }
}

/// Elements per leaf of the quantize/convert fork-join sweeps. Purely a
/// chunking constant: the per-element rounding is independent, so any
/// grain gives identical bits — this one just keeps leaves cache-sized.
const QUANT_GRAIN: usize = 4096;

/// Parallel `x32 = round(xp)` sweep for the reduced-precision operand
/// image. Disjoint strided-free chunk writes via the resized buffer.
fn convert_sweep(xp: &[f64], x32: &mut Vec<f32>, cvt: impl Fn(f64) -> f32 + Sync) {
    x32.resize(xp.len(), 0.0);
    let out = crate::par::SendPtr::new(x32.as_mut_ptr());
    crate::par::join_ranges(
        0,
        xp.len(),
        QUANT_GRAIN,
        &|lo, hi| {
            for (i, &v) in xp[lo..hi].iter().enumerate() {
                // Safety: `[lo, hi)` ranges are disjoint across leaves and
                // `x32` outlives the fork-join region.
                unsafe { *out.add(lo + i) = cvt(v) };
            }
        },
        &|(), ()| (),
    );
}

/// Tiles per leaf of the tile-image sweep (the same element count per
/// leaf as the operand sweeps).
const IMAGE_GRAIN: usize = QUANT_GRAIN / TILE_AREA;

/// Parallel tile-image build: `a32[16 t + 4 k + r] = round(tile t [r][k])`
/// (column-major within each tile, see the module docs).
fn image_sweep(a: &Mbsr, a32: &mut Vec<f32>, cvt: impl Fn(f64) -> f32 + Sync) {
    let n = a.n_blocks();
    a32.resize(n * TILE_AREA, 0.0);
    let out = crate::par::SendPtr::new(a32.as_mut_ptr());
    crate::par::join_ranges(
        0,
        n,
        IMAGE_GRAIN,
        &|lo, hi| {
            for t in lo..hi {
                let tile = a.tile(t);
                // Image slot `4k + r` holds tile row `r`, column `k`.
                let img: [f32; TILE_AREA] =
                    std::array::from_fn(|i| cvt(tile[(i % TILE) * TILE + i / TILE]));
                // SAFETY: tile ranges are disjoint across leaves and `a32`
                // (n_blocks * 16 long) outlives the fork-join region.
                unsafe {
                    std::ptr::copy_nonoverlapping(img.as_ptr(), out.add(t * TILE_AREA), TILE_AREA);
                }
            }
        },
        &|(), ()| (),
    );
}

// ---------------------------------------------------------------------------
// SpMV
// ---------------------------------------------------------------------------
//
// Tile `offset` of a warp job accumulates into group `offset % G`: the two
// fragment halves on the tensor-core path (`G = 2`), the eight lane groups
// on the CUDA-core path (`G = 8`). The emulator then sums each row's groups
// with raw adds in the xor-tree shape of its warp reduction — `g0 + g1` at
// `G = 2`, `((g0+g4)+(g2+g6)) + ((g1+g5)+(g3+g7))` at `G = 8` — and applies
// one `round_accum`. The native sweeps replicate that tree verbatim; the
// f32 modes widen the group accumulators to f64 exactly, run the tree in
// f64 and round the result back once.
//
// A chunk of `N` columns keeps one accumulator per group and column; the
// module docs ("Walk order") give the order a sweep walks a job's tiles.

/// Most accumulators a sweep keeps live while walking a job's tiles in
/// order; past this it walks the job group by group.
const MAX_LIVE_ACC: usize = 8;

/// The walk of one warp job of `len` tiles for `G` groups of `N`
/// accumulators starting at `zero` (see "Walk order" in the module
/// docs): `step(acc, t)` steps tile `t` into its group's accumulators,
/// and each group sees its own tiles in order. The in-order walk takes
/// tiles `G` at a time with a constant group per unrolled step, so the
/// accumulators stay in registers.
#[inline(always)]
fn walk_job<A: Copy, const G: usize, const N: usize>(
    len: usize,
    zero: A,
    mut step: impl FnMut(&mut [A; N], usize),
) -> [[A; N]; G] {
    let mut acc = [[zero; N]; G];
    if G * N <= MAX_LIVE_ACC {
        let full = len / G;
        for c in 0..full {
            for g in 0..G {
                step(&mut acc[g], c * G + g);
            }
        }
        let rem = len - full * G;
        for g in 0..G {
            if g < rem {
                step(&mut acc[g], full * G + g);
            }
        }
    } else {
        // Groups past the job's length hold no tile.
        for g in 0..G.min(len) {
            let mut group = [zero; N];
            for t in (g..len).step_by(G) {
                step(&mut group, t);
            }
            acc[g] = group;
        }
    }
    acc
}

/// [`ExecBackend::spmm_rows`] at a chunk of `N` columns: the f64 rows on
/// FP64, the tile-image rows on FP32/FP16.
#[allow(clippy::too_many_arguments)]
fn spmm_rows_n<const N: usize>(
    prec: Precision,
    path: SpmvPath,
    a: &Mbsr,
    a32: &[f32],
    job_len: usize,
    rows: Range<usize>,
    xp: &[f64],
    x32: &[f32],
    y: &mut [&mut [f64]],
) {
    let p = a.blk_cols() * TILE;
    // Slot parity on the tensor-core path, the eight lane groups on the
    // CUDA-core path: the same sweep, different group counts.
    match (prec, path) {
        (Precision::Fp64, SpmvPath::TensorCore) => {
            rows_f64::<2, N>(a, job_len, rows, columns(xp, p), y);
        }
        (Precision::Fp64, SpmvPath::CudaCore) => {
            rows_f64::<8, N>(a, job_len, rows, columns(xp, p), y);
        }
        (_, SpmvPath::TensorCore) => rows_f32::<2, N>(a, a32, job_len, rows, columns(x32, p), y),
        (_, SpmvPath::CudaCore) => rows_f32::<8, N>(a, a32, job_len, rows, columns(x32, p), y),
    }
}

/// FP64 SpMV of `N` columns over a block-row range: one [`sweep_f64`] per
/// warp job.
fn rows_f64<const G: usize, const N: usize>(
    a: &Mbsr,
    job_len: usize,
    rows: Range<usize>,
    xs: [&[f64]; N],
    y: &mut [&mut [f64]],
) {
    #[cfg(target_arch = "x86_64")]
    if simd_level() == SimdLevel::Avx2 {
        // SAFETY: AVX2 support confirmed at runtime by `simd_level()`.
        unsafe { x86::rows_f64_avx2::<G, N>(a, job_len, rows, xs, y) };
        return;
    }
    fold_block_rows(
        a,
        job_len,
        rows,
        y,
        |v| v,
        |s, len| sweep_f64::<G, N>(job_tiles(&a.blc_val, s, len), &a.blc_idx[s..s + len], xs),
    );
}

/// The values of the `len` tiles starting at tile `s`.
#[inline(always)]
fn job_tiles(vals: &[f64], s: usize, len: usize) -> &[f64] {
    &vals[s * TILE_AREA..(s + len) * TILE_AREA]
}

/// The FP64 SpMV sweep of one warp job over its row-major tiles (`idx` =
/// their block columns) for each of the `N` operand columns `xs`: per
/// group, 4 row chains k-ascending from `+0.0` with a separate multiply
/// and add, then the warp-sum tree. Dense: the unmapped `+/-0.0` slots
/// only insert no-op `acc + (+/-0.0)` steps (see the module docs).
fn sweep_f64<const G: usize, const N: usize>(
    tiles: &[f64],
    idx: &[u32],
    xs: [&[f64]; N],
) -> [[f64; TILE]; N] {
    #[cfg(target_arch = "x86_64")]
    if simd_level() == SimdLevel::Avx2 {
        // SAFETY: AVX2 support confirmed at runtime by `simd_level()`.
        return unsafe { x86::sweep_f64_avx2::<G, N>(tiles, idx, xs) };
    }
    xs.map(|xp| sweep_f64_portable::<G>(tiles, idx, xp))
}

/// Portable body of [`sweep_f64`], one column.
fn sweep_f64_portable<const G: usize>(tiles: &[f64], idx: &[u32], xp: &[f64]) -> [f64; TILE] {
    let mut acc = [[0.0f64; TILE]; G];
    for (offset, &bc) in idx.iter().enumerate() {
        let tile = &tiles[offset * TILE_AREA..(offset + 1) * TILE_AREA];
        let bc = bc as usize;
        let xs = &xp[bc * TILE..bc * TILE + TILE];
        let g = &mut acc[offset % G];
        for r in 0..TILE {
            let mut v = g[r];
            for k in 0..TILE {
                v += tile[r * TILE + k] * xs[k];
            }
            g[r] = v;
        }
    }
    reduce_groups(acc)
}

/// The emulated warp reduction over `G` (a power of two) group values per
/// row: halve with stride `G / 2` until one remains.
#[inline]
fn reduce_groups<const G: usize>(mut g: [[f64; TILE]; G]) -> [f64; TILE] {
    let mut n = G;
    while n > 1 {
        n /= 2;
        for i in 0..n {
            for r in 0..TILE {
                g[i][r] += g[i + n][r];
            }
        }
    }
    g[0]
}

/// FP32/FP16 SpMV of `N` columns over a block-row range: one
/// [`sweep_f32`] per warp job over the tile image, the group tree in f64
/// per column, and `round_accum` (an `f32` rounding) on each column's job
/// result and on every fold into the row.
fn rows_f32<const G: usize, const N: usize>(
    a: &Mbsr,
    a32: &[f32],
    job_len: usize,
    rows: Range<usize>,
    x32: [&[f32]; N],
    y: &mut [&mut [f64]],
) {
    let round = |v: f64| f64::from(v as f32);
    fold_block_rows(a, job_len, rows, y, round, |s, len| {
        sweep_f32::<G, N>(a32, &a.blc_idx[s..s + len], s, x32)
            .map(|g| reduce_groups(g.map(|row| row.map(f64::from))).map(round))
    });
}

/// The reduced-precision SpMV sweep shared by both warp paths, for each of
/// the `N` operand images `x32`: tile `offset` of the job (`idx` = its
/// block columns, starting at absolute tile `first`) accumulates into
/// group `offset % G` — slot parity for the tensor-core path (`G = 2`),
/// the eight lane groups of the CUDA-core path (`G = 8`). Each group's 4
/// row chains run k-ascending from `+0.0` over the tile image `a32` and
/// the operand image, the emulator's order. Returns each column's group
/// values. SSE2 is part of the x86-64 baseline, so that body needs no
/// runtime detection; other targets run the portable body.
#[inline]
fn sweep_f32<const G: usize, const N: usize>(
    a32: &[f32],
    idx: &[u32],
    first: usize,
    x32: [&[f32]; N],
) -> [[[f32; TILE]; G]; N] {
    let tiles = &a32[first * TILE_AREA..(first + idx.len()) * TILE_AREA];
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        unsafe { x86::sweep_f32_sse::<G, N>(tiles, idx, x32) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        x32.map(|x| sweep_f32_portable::<G>(tiles, idx, x))
    }
}

/// Portable body of [`sweep_f32`] over the job's own image slice, one
/// column.
#[cfg_attr(target_arch = "x86_64", allow(dead_code))]
fn sweep_f32_portable<const G: usize>(tiles: &[f32], idx: &[u32], x32: &[f32]) -> [[f32; TILE]; G] {
    let mut acc = [[0.0f32; TILE]; G];
    for (offset, &bc) in idx.iter().enumerate() {
        let tile = &tiles[offset * TILE_AREA..(offset + 1) * TILE_AREA];
        let bc = bc as usize;
        let xs = &x32[bc * TILE..bc * TILE + TILE];
        let g = &mut acc[offset % G];
        for k in 0..TILE {
            for r in 0..TILE {
                g[r] += tile[k * TILE + r] * xs[k];
            }
        }
    }
    acc
}

// ---------------------------------------------------------------------------
// SpGEMM numeric
// ---------------------------------------------------------------------------
//
// A tensor-core target is an independent 4x4 product accumulated from zero
// (the emulator gives each `mma` a fresh fragment and extracts per-slot
// tiles), added into its C slot, and masked by the slot's accumulated
// bitmap. It runs densely, as the emulator's MMA does. A CUDA-core target
// accumulates straight into its slot, each element's chain k-ascending.
// The FP64 AVX2 loop runs it densely too (unmapped slots are +/-0.0, see
// the module docs, so the extra products are no-op steps for finite
// operands); the chains of `spgemm_rows_chain` visit only the products
// whose A bit and B bit are both set, as the emulator does, because a
// reduced-precision operand can round to +/-inf (binary16 overflows at
// 65520) and a dense sweep would turn inf * (+/-0.0) into NaN.

/// FP64 SpGEMM numeric over a block-row range: the AVX2 range loop where
/// available, else the portable [`spgemm_rows_chain`].
fn spgemm_rows_f64(job: &SpgemmRows, c_map: &mut [u16], c_val: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if simd_level() == SimdLevel::Avx2 {
        // SAFETY: AVX2 support confirmed at runtime by `simd_level()`.
        unsafe { x86::spgemm_rows_f64_avx2(job, c_map, c_val) };
        return;
    }
    spgemm_rows_chain(job, c_map, c_val, |v| v, |v| v);
}

/// SpGEMM numeric over a block-row range with chains of `T` over operands
/// rounded by `load` (the identity at FP64; TF32 or binary16 into `f32`)
/// and C values entering as `narrow` (exact: at FP32/FP16 C values stay
/// `f32`-representable). The emulator rounds each FP32/FP16 step to `f32`,
/// so `f32` chains are its arithmetic verbatim. Dense on the tensor-core
/// path, bit by bit on the CUDA-core path (see the section notes).
fn spgemm_rows_chain<T: Elem>(
    job: &SpgemmRows,
    c_map: &mut [u16],
    c_val: &mut [f64],
    load: impl Fn(f64) -> T,
    narrow: impl Fn(f64) -> T,
) {
    let (a, b) = (job.a, job.b);
    let block =
        |tc: bool, a_pos, targets: &[SpgemmTarget], row_map: &[u16], row_val: &mut [f64]| {
            let (av, map_a) = (a.tile(a_pos).map(&load), a.blc_map[a_pos]);
            for &(b_pos, slot) in targets {
                let bv = b.tile(b_pos).map(&load);
                let out = &mut row_val[slot * TILE_AREA..(slot + 1) * TILE_AREA];
                if !tc {
                    // Set A bits in (i, k) order, then the set bits j of
                    // B's row k: each element's chain runs k-ascending.
                    for ik in set_bits(map_a) {
                        let (i, k) = (ik / TILE, ik % TILE);
                        for j in set_bits(bitmap::row_mask(b.blc_map[b_pos], k)) {
                            let o = &mut out[i * TILE + j];
                            *o = (narrow(*o) + av[ik] * bv[k * TILE + j]).into();
                        }
                    }
                    continue;
                }
                for (e, o) in out.iter_mut().enumerate() {
                    let (i, j) = (e / TILE, e % TILE);
                    let mut acc = T::default();
                    for k in 0..TILE {
                        acc = acc + av[i * TILE + k] * bv[k * TILE + j];
                    }
                    *o = if row_map[slot] & (1 << e) != 0 {
                        (narrow(*o) + acc).into()
                    } else {
                        0.0
                    };
                }
            }
        };
    spgemm_block_rows(job, c_map, c_val, block);
}

/// The positions of the set bits of `map`, ascending.
#[inline]
fn set_bits(mut map: u16) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let bit = (map != 0).then(|| map.trailing_zeros() as usize);
        map &= map.wrapping_sub(1);
        bit
    })
}

// ---------------------------------------------------------------------------
// Vendor CSR rows
// ---------------------------------------------------------------------------

/// Vendor CSR rows as one chain of `T` per row over operands rounded by
/// `load`. At FP64 quantize, `round_product` and `round_accum` are all
/// exact or the identity; at FP32/FP16 quantize-then-`round_product`
/// collapses to one input rounding (the quantized value converts to `f32`
/// exactly), and the chain runs in pure `f32`.
fn csr_rows<T: Elem>(
    a: &Csr,
    rows: Range<usize>,
    x: &[f64],
    y: &mut [f64],
    load: impl Fn(f64) -> T,
) {
    for (out, r) in y.iter_mut().zip(rows) {
        let (cols, vals) = a.row(r);
        let mut acc = T::default();
        for (&c, &v) in cols.iter().zip(vals) {
            acc = acc + load(v) * load(x[c as usize]);
        }
        *out = acc.into();
    }
}

// ---------------------------------------------------------------------------
// AVX2 tile kernels
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{
        bitmap, fold_block_rows, job_tiles, spgemm_block_rows, walk_job, Mbsr, Range, SpgemmRows,
        SpgemmTarget, TILE, TILE_AREA,
    };
    use std::arch::x86_64::{
        __m128, __m256d, _mm256_add_pd, _mm256_and_pd, _mm256_and_si256, _mm256_castsi256_pd,
        _mm256_cmpeq_epi64, _mm256_loadu_pd, _mm256_mul_pd, _mm256_permute2f128_pd,
        _mm256_set1_epi64x, _mm256_set1_pd, _mm256_set_epi64x, _mm256_setzero_pd, _mm256_storeu_pd,
        _mm256_unpackhi_pd, _mm256_unpacklo_pd, _mm_add_ps, _mm_loadu_ps, _mm_mul_ps, _mm_set1_ps,
        _mm_setzero_ps, _mm_storeu_ps,
    };

    /// The 4 columns of a column-major image tile, one `__m128` each.
    #[target_feature(enable = "sse2")]
    #[inline]
    fn image_columns(tile: &[f32]) -> [__m128; TILE] {
        let tile = &tile[..TILE_AREA];
        // SAFETY: `tile` holds 16 values, so column `k` (4 values at `4k`)
        // is in bounds.
        std::array::from_fn(|k| unsafe { _mm_loadu_ps(tile.as_ptr().add(k * TILE)) })
    }

    /// One tile's step of one group chain: `acc + col_k * x[k]` for `k`
    /// ascending, with a separate multiply and add.
    #[target_feature(enable = "sse2")]
    #[inline]
    fn step_f32(acc: __m128, cols: &[__m128; TILE], x32: &[f32], bc: u32) -> __m128 {
        let xs = &x32[bc as usize * TILE..bc as usize * TILE + TILE];
        let mut acc = acc;
        for k in 0..TILE {
            acc = _mm_add_ps(acc, _mm_mul_ps(cols[k], _mm_set1_ps(xs[k])));
        }
        acc
    }

    /// SSE body of [`super::sweep_f32`]: one `__m128` accumulator per
    /// group and column over the [`walk_job`] walk, each tile's four
    /// column loads shared by the chunk's columns.
    #[target_feature(enable = "sse2")]
    pub(super) fn sweep_f32_sse<const G: usize, const N: usize>(
        tiles: &[f32],
        idx: &[u32],
        x32: [&[f32]; N],
    ) -> [[[f32; TILE]; G]; N] {
        let acc = walk_job::<_, G, N>(idx.len(), _mm_setzero_ps(), |acc, t| {
            let cols = image_columns(&tiles[t * TILE_AREA..]);
            for c in 0..N {
                acc[c] = step_f32(acc[c], &cols, x32[c], idx[t]);
            }
        });
        let mut out = [[[0.0f32; TILE]; G]; N];
        for g in 0..G {
            for c in 0..N {
                // SAFETY: `out[c][g]` holds 4 `f32`s.
                unsafe { _mm_storeu_ps(out[c][g].as_mut_ptr(), acc[g][c]) };
            }
        }
        out
    }

    /// AVX2 row-range body of [`super::rows_f64`]: the row loop and the
    /// sweep inline into one function, so each job's group accumulators
    /// stay in registers.
    #[target_feature(enable = "avx2")]
    pub(super) fn rows_f64_avx2<const G: usize, const N: usize>(
        a: &Mbsr,
        job_len: usize,
        rows: Range<usize>,
        xs: [&[f64]; N],
        y: &mut [&mut [f64]],
    ) {
        fold_block_rows(
            a,
            job_len,
            rows,
            y,
            |v| v,
            |s, len| {
                sweep_f64_avx2::<G, N>(job_tiles(&a.blc_val, s, len), &a.blc_idx[s..s + len], xs)
            },
        );
    }

    /// A row-major tile transposed in registers: `cols[k]` holds column
    /// `k` across the 4 rows.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn tile_columns(tile: &[f64]) -> [__m256d; TILE] {
        let tile = &tile[..TILE_AREA];
        // SAFETY: `tile` holds 16 values, so rows 0..4 (4 values at `4r`)
        // are in bounds.
        let [r0, r1, r2, r3] =
            std::array::from_fn(|r| unsafe { _mm256_loadu_pd(tile.as_ptr().add(r * TILE)) });
        let t0 = _mm256_unpacklo_pd(r0, r1);
        let t1 = _mm256_unpackhi_pd(r0, r1);
        let t2 = _mm256_unpacklo_pd(r2, r3);
        let t3 = _mm256_unpackhi_pd(r2, r3);
        [
            _mm256_permute2f128_pd(t0, t2, 0x20),
            _mm256_permute2f128_pd(t1, t3, 0x20),
            _mm256_permute2f128_pd(t0, t2, 0x31),
            _mm256_permute2f128_pd(t1, t3, 0x31),
        ]
    }

    /// One tile's step of one group's 4 row chains: `acc + col_k * x[k]`
    /// for `k` ascending, with a separate `vmulpd` and `vaddpd` (FMA would
    /// fuse the two roundings the precision model requires).
    #[target_feature(enable = "avx2")]
    #[inline]
    fn step_f64(acc: __m256d, cols: &[__m256d; TILE], xp: &[f64], bc: u32) -> __m256d {
        let xs = &xp[bc as usize * TILE..bc as usize * TILE + TILE];
        let mut acc = acc;
        for k in 0..TILE {
            acc = _mm256_add_pd(acc, _mm256_mul_pd(cols[k], _mm256_set1_pd(xs[k])));
        }
        acc
    }

    /// AVX2 body of [`super::sweep_f64`]: one `__m256d` accumulator per
    /// group and column holding its 4 row chains, over the [`walk_job`]
    /// walk. Each tile is transposed once and stepped into every column's
    /// chain of its group. The warp-sum tree runs lane-wise on the
    /// vectors, per column.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(super) fn sweep_f64_avx2<const G: usize, const N: usize>(
        tiles: &[f64],
        idx: &[u32],
        xs: [&[f64]; N],
    ) -> [[f64; TILE]; N] {
        let mut acc = walk_job::<_, G, N>(idx.len(), _mm256_setzero_pd(), |acc, t| {
            let cols = tile_columns(&tiles[t * TILE_AREA..]);
            for c in 0..N {
                acc[c] = step_f64(acc[c], &cols, xs[c], idx[t]);
            }
        });
        let mut n = G;
        while n > 1 {
            n /= 2;
            for i in 0..n {
                for c in 0..N {
                    acc[i][c] = _mm256_add_pd(acc[i][c], acc[i + n][c]);
                }
            }
        }
        let mut out = [[0.0f64; TILE]; N];
        for c in 0..N {
            // SAFETY: `out[c]` holds 4 `f64`s.
            unsafe { _mm256_storeu_pd(out[c].as_mut_ptr(), acc[0][c]) };
        }
        out
    }

    /// AVX2 body of [`super::spgemm_rows_f64`]: per A block, the 16 A
    /// values are broadcast once; per valid B tile, its 4 rows are loaded
    /// and each output row `i` is `sum_k a[i][k] * brow[k]` as one vector
    /// chain (separate `vmulpd`/`vaddpd`, never FMA) — from zero and then
    /// added to the slot on the tensor-core path, where the slot bitmap's
    /// row is applied as a lane mask; straight into the slot on the
    /// CUDA-core path.
    #[target_feature(enable = "avx2")]
    pub(super) fn spgemm_rows_f64_avx2(job: &SpgemmRows, c_map: &mut [u16], c_val: &mut [f64]) {
        let (a, b) = (job.a, job.b);
        let lanes = _mm256_set_epi64x(8, 4, 2, 1);
        let block = |tc: bool,
                     a_pos: usize,
                     targets: &[SpgemmTarget],
                     row_map: &[u16],
                     row_val: &mut [f64]| {
            let a_tile = a.tile(a_pos);
            let av: [__m256d; TILE_AREA] = std::array::from_fn(|i| _mm256_set1_pd(a_tile[i]));
            for &(b_pos, slot) in targets {
                let b_tile = b.tile(b_pos);
                // SAFETY: a tile holds 16 values, so rows 0..4 (4 values at
                // `4k`) are in bounds.
                let brow: [__m256d; TILE] = std::array::from_fn(|k| unsafe {
                    _mm256_loadu_pd(b_tile.as_ptr().add(k * TILE))
                });
                let out = &mut row_val[slot * TILE_AREA..(slot + 1) * TILE_AREA];
                for i in 0..TILE {
                    // SAFETY: `out` holds 16 values; row `i` is 4 at `4i`.
                    let o = unsafe { _mm256_loadu_pd(out.as_ptr().add(i * TILE)) };
                    let mut acc = if tc { _mm256_setzero_pd() } else { o };
                    for k in 0..TILE {
                        acc = _mm256_add_pd(acc, _mm256_mul_pd(av[i * TILE + k], brow[k]));
                    }
                    if tc {
                        let bits =
                            _mm256_set1_epi64x(i64::from(bitmap::row_mask(row_map[slot], i)));
                        let keep = _mm256_cmpeq_epi64(_mm256_and_si256(bits, lanes), lanes);
                        acc = _mm256_and_pd(_mm256_add_pd(o, acc), _mm256_castsi256_pd(keep));
                    }
                    // SAFETY: as for the load above.
                    unsafe { _mm256_storeu_pd(out.as_mut_ptr().add(i * TILE), acc) };
                }
            }
        };
        spgemm_block_rows(job, c_map, c_val, block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulated::Simulated;
    use amgt_sparse::gen::random_sparse;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const PRECS: [Precision; 3] = [Precision::Fp64, Precision::Fp32, Precision::Fp16];

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn padded_x(m: &Mbsr, prec: Precision, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xp: Vec<f64> = (0..m.blk_cols() * TILE)
            .map(|_| prec.quantize(rng.gen_range(-10.0..10.0)))
            .collect();
        for v in xp.iter_mut().skip(m.ncols()) {
            *v = 0.0;
        }
        xp
    }

    /// Row-range SpMV of column chunks, native vs emulator, bitwise: both
    /// paths, every chunk width, several job lengths (unbounded, and
    /// splits that start jobs mid-row, where the tile image is indexed
    /// absolutely), and row ranges that start mid-matrix or end on a short
    /// last block-row.
    #[test]
    fn spmv_rows_match_simulated_bitwise() {
        for seed in 0..24u64 {
            let a = random_sparse(40 + (seed as usize % 30), 1 + (seed as usize % 8), seed);
            let m = Mbsr::from_csr(&a);
            let nrows = m.nrows();
            for prec in PRECS {
                let xp: Vec<f64> = (0..SPMM_COLS as u64)
                    .flat_map(|c| padded_x(&m, prec, seed ^ 0xabcd ^ (c << 32)))
                    .collect();
                let (mut a32, mut x32) = (Vec::new(), Vec::new());
                Native.spmv_tile_image(prec, &m, &mut a32);
                Native.spmv_quantize_x(prec, &xp, &mut x32);
                assert_eq!(a32.is_empty(), prec == Precision::Fp64);
                let p = m.blk_cols() * TILE;
                for path in [SpmvPath::TensorCore, SpmvPath::CudaCore] {
                    for job_len in [usize::MAX, 1, 2, 3, 16] {
                        let mid = m.blk_rows() / 3;
                        for rows in [0..m.blk_rows(), 0..mid, mid..m.blk_rows()] {
                            let out = rows.start * TILE..(rows.end * TILE).min(nrows);
                            for n in 1..=SPMM_COLS {
                                let run = |be: &dyn ExecBackend| {
                                    let mut y = vec![f64::NAN; n * out.len()];
                                    let mut ys: Vec<&mut [f64]> = y.chunks_mut(out.len()).collect();
                                    let (xp, x32) = (&xp[..n * p], x32.get(..n * p).unwrap_or(&[]));
                                    let r = rows.clone();
                                    be.spmm_rows(
                                        prec, path, &m, &a32, job_len, r, xp, x32, &mut ys,
                                    );
                                    y
                                };
                                let (ys, yn) = (run(&Simulated), run(&Native));
                                for (i, (s, n)) in ys.iter().zip(&yn).enumerate() {
                                    assert_eq!(
                                        s.to_bits(),
                                        n.to_bits(),
                                        "{prec:?} {path:?} job_len {job_len} column {} row {}",
                                        i / out.len(),
                                        out.start + i % out.len()
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// The SIMD body of the f64 sweep and its portable body agree bit for
    /// bit (hosts with AVX2 never run the portable body otherwise), on
    /// tiles with signed-zero slots and job lengths that are not multiples
    /// of the group count, for every chunk width (the CUDA-core sweep
    /// walks group by group from two columns on).
    #[test]
    fn f64_sweep_simd_body_matches_portable() {
        let mut rng = StdRng::seed_from_u64(37);
        for case in 0..64 {
            let n_cols = 1 + case % 9;
            let len = 1 + rng.gen_range(0..40usize);
            let idx: Vec<u32> = (0..len).map(|_| rng.gen_range(0..n_cols as u32)).collect();
            let tiles: Vec<f64> = (0..len * TILE_AREA)
                .map(|i| {
                    if rng.gen_range(0..3) == 0 {
                        [0.0, -0.0][i % 2]
                    } else {
                        rng.gen_range(-1e3..1e3)
                    }
                })
                .collect();
            let xp: Vec<f64> = (0..SPMM_COLS * n_cols * TILE)
                .map(|_| rng.gen_range(-50.0..50.0))
                .collect();
            let xs: [&[f64]; SPMM_COLS] = columns(&xp, n_cols * TILE);
            let bits = |a: &[[f64; TILE]]| -> Vec<u64> {
                a.iter().flatten().map(|v| v.to_bits()).collect()
            };
            let p2 = xs.map(|x| sweep_f64_portable::<2>(&tiles, &idx, x));
            let p8 = xs.map(|x| sweep_f64_portable::<8>(&tiles, &idx, x));
            assert_eq!(
                bits(&p2[..1]),
                bits(&sweep_f64::<2, 1>(&tiles, &idx, [xs[0]])),
                "case {case}"
            );
            assert_eq!(
                bits(&p8[..1]),
                bits(&sweep_f64::<8, 1>(&tiles, &idx, [xs[0]])),
                "case {case}"
            );
            assert_eq!(
                bits(&p2[..3]),
                bits(&sweep_f64::<2, 3>(&tiles, &idx, [xs[0], xs[1], xs[2]])),
                "case {case}"
            );
            assert_eq!(
                bits(&p8[..3]),
                bits(&sweep_f64::<8, 3>(&tiles, &idx, [xs[0], xs[1], xs[2]])),
                "case {case}"
            );
            assert_eq!(
                bits(&p2),
                bits(&sweep_f64::<2, 4>(&tiles, &idx, xs)),
                "case {case}"
            );
            assert_eq!(
                bits(&p8),
                bits(&sweep_f64::<8, 4>(&tiles, &idx, xs)),
                "case {case}"
            );
        }
    }

    /// The SIMD body of the f32 sweep and its portable body agree bit for
    /// bit (hosts with SSE2 never run the portable body otherwise), for
    /// every chunk width.
    #[test]
    fn f32_sweep_simd_body_matches_portable() {
        fn bits<const G: usize>(a: &[[[f32; TILE]; G]]) -> Vec<u32> {
            a.iter().flatten().flatten().map(|v| v.to_bits()).collect()
        }
        let mut rng = StdRng::seed_from_u64(31);
        for case in 0..64 {
            let n_cols = 1 + case % 9;
            let len = 1 + rng.gen_range(0..40usize);
            let idx: Vec<u32> = (0..len).map(|_| rng.gen_range(0..n_cols as u32)).collect();
            let vals: Vec<f64> = (0..len * TILE_AREA)
                .map(|i| {
                    // Signed zeros stand in for unmapped slots.
                    if rng.gen_range(0..3) == 0 {
                        [0.0, -0.0][i % 2]
                    } else {
                        rng.gen_range(-1e3..1e3)
                    }
                })
                .collect();
            let xp: Vec<f64> = (0..SPMM_COLS * n_cols * TILE)
                .map(|_| rng.gen_range(-50.0..50.0))
                .collect();
            for cvt in [tf32 as fn(f64) -> f32, half] {
                let tiles: Vec<f32> = vals.iter().map(|&v| cvt(v)).collect();
                let x32: Vec<f32> = xp.iter().map(|&v| cvt(v)).collect();
                let xs: [&[f32]; SPMM_COLS] = columns(&x32, n_cols * TILE);
                let p2 = xs.map(|x| sweep_f32_portable::<2>(&tiles, &idx, x));
                let p8 = xs.map(|x| sweep_f32_portable::<8>(&tiles, &idx, x));
                assert_eq!(
                    bits(&p2[..1]),
                    bits(&sweep_f32::<2, 1>(&tiles, &idx, 0, [xs[0]])),
                    "case {case}"
                );
                assert_eq!(
                    bits(&p8[..1]),
                    bits(&sweep_f32::<8, 1>(&tiles, &idx, 0, [xs[0]])),
                    "case {case}"
                );
                assert_eq!(
                    bits(&p2),
                    bits(&sweep_f32::<2, 4>(&tiles, &idx, 0, xs)),
                    "case {case}"
                );
                assert_eq!(
                    bits(&p8),
                    bits(&sweep_f32::<8, 4>(&tiles, &idx, 0, xs)),
                    "case {case}"
                );
                let three = [xs[0], xs[1], xs[2]];
                assert_eq!(
                    bits(&p8[..3]),
                    bits(&sweep_f32::<8, 3>(&tiles, &idx, 0, three)),
                    "case {case}"
                );
            }
        }
    }

    /// The FP32 finiteness check agrees with TF32 rounding around the
    /// overflow boundary.
    #[test]
    fn operand_is_finite_matches_tf32_rounding() {
        let max = f64::from(f32::MAX);
        let mut probes = vec![0.0, 1.0, max, -max, f64::INFINITY, f64::NAN, 1e300];
        for bits in 0x7f7f_e000u32..=0x7f7f_ffff {
            if bits % 97 == 0 || (0x7f7f_eff0..0x7f7f_f010).contains(&bits) {
                probes.push(f64::from(f32::from_bits(bits)));
            }
        }
        for q in probes {
            for q in [q, -q] {
                let q = Precision::Fp32.quantize(q);
                let want = round_tf32(q as f32).is_finite();
                assert_eq!(crate::operand_is_finite(Precision::Fp32, q), want, "{q:e}");
            }
        }
        assert!(!crate::operand_is_finite(Precision::Fp16, f64::INFINITY));
        assert!(!crate::operand_is_finite(Precision::Fp64, f64::NAN));
        assert!(crate::operand_is_finite(Precision::Fp64, 1e300));
    }

    /// SpGEMM numeric through `spgemm_rows` on `A * A`, native vs emulator
    /// bitwise, and the FP64 SIMD body vs the portable body (hosts with
    /// AVX2 never run the portable body otherwise): every popcount
    /// threshold regime, row ranges that start mid-matrix.
    #[test]
    fn tile_products_match_simulated_bitwise() {
        for seed in 0..16u64 {
            let a = Mbsr::from_csr(&random_sparse(
                36 + seed as usize,
                2 + seed as usize % 7,
                seed,
            ));
            // C's symbolic pattern: per block-row, the block columns some
            // valid product reaches, sorted.
            let (mut c_ptr, mut c_idx) = (vec![0], Vec::new());
            for br in 0..a.blk_rows() {
                let mut cols = std::collections::BTreeSet::new();
                for p in a.blc_ptr[br]..a.blc_ptr[br + 1] {
                    let k = a.blc_idx[p] as usize;
                    for q in a.blc_ptr[k]..a.blc_ptr[k + 1] {
                        if bitmap::bitmap_multiply(a.blc_map[p], a.blc_map[q]) != 0 {
                            cols.insert(a.blc_idx[q]);
                        }
                    }
                }
                c_idx.extend(cols);
                c_ptr.push(c_idx.len());
            }
            for tc_threshold in [1, 6, 10, 17] {
                for rows in [0..a.blk_rows(), a.blk_rows() / 2..a.blk_rows()] {
                    let c_idx = &c_idx[c_ptr[rows.start]..];
                    let (a, b, c_ptr) = (&a, &a, &c_ptr[..]);
                    let job = SpgemmRows {
                        a,
                        b,
                        tc_threshold,
                        rows,
                        c_ptr,
                        c_idx,
                    };
                    // C's map and value bits, as computed by `f`.
                    let run = |f: &dyn Fn(&mut [u16], &mut [f64])| {
                        let (mut map, mut val) =
                            (vec![0u16; c_idx.len()], vec![0.0; c_idx.len() * 16]);
                        f(&mut map, &mut val);
                        (map, bits(&val))
                    };
                    let what = format!("seed {seed} threshold {tc_threshold}");
                    for prec in PRECS {
                        let by =
                            |be: &dyn ExecBackend| run(&|m, v| be.spgemm_rows(prec, &job, m, v));
                        assert_eq!(by(&Simulated), by(&Native), "{what} {prec:?}");
                    }
                    let portable = run(&|m, v| spgemm_rows_chain(&job, m, v, |x| x, |x| x));
                    assert_eq!(portable, run(&|m, v| spgemm_rows_f64(&job, m, v)), "{what}");
                }
            }
        }
    }

    #[test]
    fn csr_row_and_quantize_match_simulated_bitwise() {
        for seed in 0..24u64 {
            let a = random_sparse(30 + seed as usize, 1 + seed as usize % 9, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let x: Vec<f64> = (0..a.ncols()).map(|_| rng.gen_range(-1e3..1e3)).collect();
            let rows = a.nrows() / 3..a.nrows();
            for prec in PRECS {
                let (mut ys, mut yn) = (vec![f64::NAN; rows.len()], vec![f64::NAN; rows.len()]);
                Simulated.csr_spmv_rows(prec, &a, rows.clone(), &x, &mut ys);
                Native.csr_spmv_rows(prec, &a, rows.clone(), &x, &mut yn);
                assert_eq!(bits(&ys), bits(&yn), "{prec:?}");
                let (mut qs, mut qn) = (a.vals.clone(), a.vals.clone());
                Simulated.quantize(prec, &mut qs);
                Native.quantize(prec, &mut qn);
                assert_eq!(bits(&qs), bits(&qn), "{prec:?}");
            }
        }
    }
}
