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
//! counts operations: the SpMV plan takes its counters from the bitmaps,
//! and the SpGEMM tile products count from the bitmaps too.
//!
//! ## SpMV: one call per block-row range
//!
//! [`ExecBackend::spmv_rows`] gets a whole fork-join leaf of block-rows.
//! One loop ([`crate::fold_block_rows`], shared with the emulator) walks
//! each row's warp jobs in order and folds their partial sums into the row,
//! so a row costs no dynamic dispatch and no per-job counter pass. Each job
//! is one sweep with `G` group accumulators — `G = 2` (the two fragment
//! halves) on the tensor-core path, `G = 8` (the lane groups) on the
//! CUDA-core path — followed by the emulator's warp-sum tree:
//!
//! * **FP64** ([`sweep_f64`]): the AVX2 body transposes each row-major
//!   tile in registers, so one `__m256d` holds a k-column across the 4
//!   rows, and keeps the `G` accumulators in registers (`vmulpd` then
//!   `vaddpd`, never FMA); the tree runs lane-wise on the vectors. The
//!   row-range loop and the sweep inline into one AVX2 function. A
//!   column-major f64 copy of the tiles would save the transposes but cost
//!   128 B per tile, so the kernel reads the mBSR values as stored.
//! * **FP32/FP16** ([`sweep_f32`]): the same loop over the `f32` tile
//!   image described next.
//!
//! ## Tile images for FP32/FP16 SpMV
//!
//! The reduced-precision SpMV kernels never convert a matrix value. The
//! SpMV preprocessing asks [`ExecBackend::spmv_tile_image`] for an `f32`
//! **tile image** of the operand, built once per matrix: tile `t`'s 16
//! values rounded through the precision's input conversion ([`Tf32`] or
//! [`Half`]), stored column-major at `a32[16 t + 4 k + r]` so that column
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
//!   `f32` is what `Tf32::to_f32` applies anyway.
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
use crate::{fold_block_rows, ExecBackend, SpmvPath};
use amgt_sim::precision::{round_tf32, Precision, F16};
use amgt_sparse::bitmap::{self, TILE, TILE_AREA};
use amgt_sparse::Mbsr;
use std::ops::Range;

/// The direct-execution backend (see module docs).
pub struct Native;

/// Input rounding applied before a pure-`f32` compute chain.
trait Cvt: Copy {
    fn to_f32(x: f64) -> f32;
}

/// FP32 tensor mode: operands round to TF32 (via `f32` first, exactly as
/// `Precision::round_product` does).
#[derive(Clone, Copy)]
struct Tf32;
impl Cvt for Tf32 {
    #[inline]
    fn to_f32(x: f64) -> f32 {
        round_tf32(x as f32)
    }
}

/// FP16 mode: operands round through the bit-exact binary16 conversion.
#[derive(Clone, Copy)]
struct Half;
impl Cvt for Half {
    #[inline]
    fn to_f32(x: f64) -> f32 {
        F16::from_f64(x).to_f32()
    }
}

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
            Precision::Fp32 => convert_sweep::<Tf32>(xp, x32),
            Precision::Fp16 => convert_sweep::<Half>(xp, x32),
        }
    }

    fn spmv_tile_image(&self, prec: Precision, a: &Mbsr, a32: &mut Vec<f32>) {
        a32.clear();
        match prec {
            Precision::Fp64 => {}
            Precision::Fp32 => image_sweep::<Tf32>(a, a32),
            Precision::Fp16 => image_sweep::<Half>(a, a32),
        }
    }

    fn spmv_rows(
        &self,
        prec: Precision,
        path: SpmvPath,
        a: &Mbsr,
        a32: &[f32],
        job_len: usize,
        rows: Range<usize>,
        xp: &[f64],
        x32: &[f32],
        y: &mut [f64],
    ) {
        // Slot parity on the tensor-core path, the eight lane groups on
        // the CUDA-core path: the same sweep, different group counts.
        match (prec, path) {
            (Precision::Fp64, SpmvPath::TensorCore) => rows_f64::<2>(a, job_len, rows, xp, y),
            (Precision::Fp64, SpmvPath::CudaCore) => rows_f64::<8>(a, job_len, rows, xp, y),
            (_, SpmvPath::TensorCore) => rows_f32::<2>(a, a32, job_len, rows, x32, y),
            (_, SpmvPath::CudaCore) => rows_f32::<8>(a, a32, job_len, rows, x32, y),
        }
    }

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
        // Each MMA target is an independent 4x4 product accumulated from
        // zero (the emulator gives each `issue_mma` a fresh fragment and
        // extracts per-slot tiles), so the native step is one plain tile
        // matmul per target with the emulator's k-ascending chains.
        for &(b_pos, slot, map_c) in targets {
            let b_tile = b.tile(b_pos);
            c_map[slot] |= map_c;
            let out = &mut c_val[slot * TILE_AREA..(slot + 1) * TILE_AREA];
            match prec {
                Precision::Fp64 => {
                    let mut prod = [0.0f64; TILE_AREA];
                    tile_matmul_f64(a_tile, b_tile, &mut prod);
                    for (o, p) in out.iter_mut().zip(prod.iter()) {
                        *o += p;
                    }
                }
                Precision::Fp32 => accum_tile_matmul_f32::<Tf32>(a_tile, b_tile, out),
                Precision::Fp16 => accum_tile_matmul_f32::<Half>(a_tile, b_tile, out),
            }
            for bit in 0..TILE_AREA {
                if c_map[slot] & (1 << bit) == 0 {
                    out[bit] = 0.0;
                }
            }
        }
    }

    fn spgemm_cuda_tile(
        &self,
        prec: Precision,
        a_tile: &[f64; 16],
        map_a: u16,
        b_tile: &[f64; 16],
        map_b: u16,
        out: &mut [f64],
    ) -> u64 {
        match prec {
            Precision::Fp64 => cuda_tile_f64(a_tile, map_a, b_tile, map_b, out),
            Precision::Fp32 => cuda_tile_f32::<Tf32>(a_tile, map_a, b_tile, map_b, out),
            Precision::Fp16 => cuda_tile_f32::<Half>(a_tile, map_a, b_tile, map_b, out),
        }
    }

    fn csr_spmv_row(&self, prec: Precision, cols: &[u32], vals: &[f64], x: &[f64]) -> f64 {
        match prec {
            Precision::Fp64 => {
                // quantize = identity, round_product = f64 mul,
                // round_accum = identity.
                let mut acc = 0.0f64;
                for (&c, &v) in cols.iter().zip(vals) {
                    acc += v * x[c as usize];
                }
                acc
            }
            Precision::Fp32 => csr_row_f32::<Tf32>(cols, vals, x),
            Precision::Fp16 => csr_row_f32::<Half>(cols, vals, x),
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
fn convert_sweep<C: Cvt>(xp: &[f64], x32: &mut Vec<f32>) {
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
                unsafe { *out.add(lo + i) = C::to_f32(v) };
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
fn image_sweep<C: Cvt>(a: &Mbsr, a32: &mut Vec<f32>) {
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
                    std::array::from_fn(|i| C::to_f32(tile[(i % TILE) * TILE + i / TILE]));
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

/// FP64 SpMV over a block-row range: one [`sweep_f64`] per warp job.
fn rows_f64<const G: usize>(
    a: &Mbsr,
    job_len: usize,
    rows: Range<usize>,
    xp: &[f64],
    y: &mut [f64],
) {
    #[cfg(target_arch = "x86_64")]
    if simd_level() == SimdLevel::Avx2 {
        // SAFETY: AVX2 support confirmed at runtime by `simd_level()`.
        unsafe { x86::rows_f64_avx2::<G>(a, job_len, rows, xp, y) };
        return;
    }
    fold_block_rows(
        a,
        job_len,
        rows,
        y,
        |v| v,
        |s, len| sweep_f64::<G>(job_tiles(&a.blc_val, s, len), &a.blc_idx[s..s + len], xp),
    );
}

/// The values of the `len` tiles starting at tile `s`.
#[inline(always)]
fn job_tiles(vals: &[f64], s: usize, len: usize) -> &[f64] {
    &vals[s * TILE_AREA..(s + len) * TILE_AREA]
}

/// The FP64 SpMV sweep of one warp job over its row-major tiles (`idx` =
/// their block columns): per group, 4 row chains k-ascending from `+0.0`
/// with a separate multiply and add, then the warp-sum tree. Dense: the
/// unmapped `+/-0.0` slots only insert no-op `acc + (+/-0.0)` steps (see
/// the module docs).
fn sweep_f64<const G: usize>(tiles: &[f64], idx: &[u32], xp: &[f64]) -> [f64; TILE] {
    #[cfg(target_arch = "x86_64")]
    if simd_level() == SimdLevel::Avx2 {
        // SAFETY: AVX2 support confirmed at runtime by `simd_level()`.
        return unsafe { x86::sweep_f64_avx2::<G>(tiles, idx, xp) };
    }
    sweep_f64_portable::<G>(tiles, idx, xp)
}

/// Portable body of [`sweep_f64`].
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

/// FP32/FP16 SpMV over a block-row range: one [`sweep_f32`] per warp job
/// over the tile image, the group tree in f64, and `round_accum` (an `f32`
/// rounding) on the job result and on every fold into the row.
fn rows_f32<const G: usize>(
    a: &Mbsr,
    a32: &[f32],
    job_len: usize,
    rows: Range<usize>,
    x32: &[f32],
    y: &mut [f64],
) {
    let round = |v: f64| f64::from(v as f32);
    fold_block_rows(a, job_len, rows, y, round, |s, len| {
        let g = sweep_f32::<G>(a32, &a.blc_idx[s..s + len], s, x32);
        reduce_groups(g.map(|row| row.map(f64::from))).map(round)
    });
}

/// The reduced-precision SpMV sweep shared by both warp paths: tile
/// `offset` of the job (`idx` = its block columns, starting at absolute
/// tile `first`) accumulates into group `offset % G` — slot parity for
/// the tensor-core path (`G = 2`), the eight lane groups of the CUDA-core
/// path (`G = 8`). Each group's 4 row chains run k-ascending from `+0.0`
/// over the tile image `a32` and the operand image `x32`, the emulator's
/// order. SSE2 is part of the x86-64 baseline, so that body needs no
/// runtime detection; other targets run the portable body.
#[inline]
fn sweep_f32<const G: usize>(
    a32: &[f32],
    idx: &[u32],
    first: usize,
    x32: &[f32],
) -> [[f32; TILE]; G] {
    let tiles = &a32[first * TILE_AREA..(first + idx.len()) * TILE_AREA];
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        unsafe { x86::sweep_f32_sse::<G>(tiles, idx, x32) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        sweep_f32_portable::<G>(tiles, idx, x32)
    }
}

/// Portable body of [`sweep_f32`] over the job's own image slice.
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
// SpGEMM tile products
// ---------------------------------------------------------------------------

/// `out[i][j] = sum_k a[i][k] * b[k][j]`, each element's chain accumulated
/// from zero in k-ascending order (the MMA element order), vectorized
/// across the 4 columns of a row.
#[inline]
fn tile_matmul_f64(a: &[f64; 16], b: &[f64; 16], out: &mut [f64; 16]) {
    #[cfg(target_arch = "x86_64")]
    if simd_level() == SimdLevel::Avx2 {
        // SAFETY: AVX2 support confirmed at runtime by `simd_level()`.
        unsafe { x86::tile_matmul_f64_avx2(a, b, out) };
        return;
    }
    for i in 0..TILE {
        for j in 0..TILE {
            let mut acc = 0.0f64;
            for k in 0..TILE {
                acc += a[i * TILE + k] * b[k * TILE + j];
            }
            out[i * TILE + j] = acc;
        }
    }
}

/// f32-chain tile product fused with the emulator's per-element
/// `round_accum(out + tile)` accumulation into the FP64 storage slot.
fn accum_tile_matmul_f32<C: Cvt>(a: &[f64; 16], b: &[f64; 16], out: &mut [f64]) {
    let af: [f32; 16] = std::array::from_fn(|i| C::to_f32(a[i]));
    let bf: [f32; 16] = std::array::from_fn(|i| C::to_f32(b[i]));
    for i in 0..TILE {
        for j in 0..TILE {
            let mut acc = 0.0f32;
            for k in 0..TILE {
                acc += af[i * TILE + k] * bf[k * TILE + j];
            }
            // Accumulated C values stay f32-representable by construction,
            // so the widen-add-round below is the emulator's round_accum.
            let o = &mut out[i * TILE + j];
            *o = f64::from(*o as f32 + acc);
        }
    }
}

fn cuda_tile_f64(a: &[f64; 16], map_a: u16, b: &[f64; 16], map_b: u16, out: &mut [f64]) -> u64 {
    // Charge what the emulator would: one product per (i,k,j) with both the
    // A bit (i,k) and the B bit (k,j) set.
    let bcnt: [u64; 4] =
        std::array::from_fn(|k| u64::from(bitmap::row_mask(map_b, k).count_ones()));
    let mut terms = 0u64;
    for i in 0..4 {
        for (k, &cnt) in bcnt.iter().enumerate() {
            terms += u64::from((map_a >> (i * 4 + k)) & 1) * cnt;
        }
    }
    // Dense accumulate: unmapped A/B slots are +/-0.0, so the extra terms
    // are no-op accumulation steps in each (i,j) chain's (k, j) visit order.
    #[cfg(target_arch = "x86_64")]
    if simd_level() == SimdLevel::Avx2 {
        // SAFETY: AVX2 support confirmed at runtime by `simd_level()`.
        unsafe { x86::tile_matmul_accum_f64_avx2(a, b, out) };
        return terms * 2;
    }
    for i in 0..4 {
        for k in 0..4 {
            let av = a[i * 4 + k];
            for j in 0..4 {
                out[i * 4 + j] += av * b[k * 4 + j];
            }
        }
    }
    terms * 2
}

fn cuda_tile_f32<C: Cvt>(
    a: &[f64; 16],
    map_a: u16,
    b: &[f64; 16],
    map_b: u16,
    out: &mut [f64],
) -> u64 {
    let bf: [f32; 16] = std::array::from_fn(|i| C::to_f32(b[i]));
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
            let av = C::to_f32(a[i * 4 + k]);
            for j in 0..4 {
                if brow & (1 << j) != 0 {
                    let o = &mut out[i * 4 + j];
                    *o = f64::from(*o as f32 + av * bf[k * 4 + j]);
                    flops += 2;
                }
            }
        }
    }
    flops
}

// ---------------------------------------------------------------------------
// Vendor CSR row
// ---------------------------------------------------------------------------

fn csr_row_f32<C: Cvt>(cols: &[u32], vals: &[f64], x: &[f64]) -> f64 {
    // quantize-then-round_product collapses to one input rounding: the
    // quantized value converts to f32 exactly, so the TF32/F16 rounding of
    // the quantized operand equals the rounding of the raw operand.
    let mut acc = 0.0f32;
    for (&c, &v) in cols.iter().zip(vals) {
        acc += C::to_f32(v) * C::to_f32(x[c as usize]);
    }
    f64::from(acc)
}

// ---------------------------------------------------------------------------
// AVX2 tile kernels
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{fold_block_rows, job_tiles, Mbsr, Range, TILE, TILE_AREA};
    use std::arch::x86_64::{
        __m128, __m256d, _mm256_add_pd, _mm256_broadcast_sd, _mm256_loadu_pd, _mm256_mul_pd,
        _mm256_permute2f128_pd, _mm256_set1_pd, _mm256_setzero_pd, _mm256_storeu_pd,
        _mm256_unpackhi_pd, _mm256_unpacklo_pd, _mm_add_ps, _mm_loadu_ps, _mm_mul_ps, _mm_set1_ps,
        _mm_setzero_ps, _mm_storeu_ps,
    };

    /// SSE body of [`super::sweep_f32`]: one `__m128` accumulator per
    /// group, each tile four column loads times the broadcast operand value
    /// with a separate multiply and add. Tiles are taken `G` at a time with
    /// a constant group per unrolled step, so the accumulators stay in
    /// registers.
    #[target_feature(enable = "sse2")]
    pub(super) fn sweep_f32_sse<const G: usize>(
        tiles: &[f32],
        idx: &[u32],
        x32: &[f32],
    ) -> [[f32; TILE]; G] {
        #[target_feature(enable = "sse2")]
        #[inline]
        fn step(acc: __m128, tile: &[f32], bc: u32, x32: &[f32]) -> __m128 {
            let tile = &tile[..TILE_AREA];
            let xs = &x32[bc as usize * TILE..bc as usize * TILE + TILE];
            let mut acc = acc;
            for k in 0..TILE {
                // SAFETY: `tile` holds 16 values, so column `k` (4 values
                // at `4k`) is in bounds.
                let col = unsafe { _mm_loadu_ps(tile.as_ptr().add(k * TILE)) };
                acc = _mm_add_ps(acc, _mm_mul_ps(col, _mm_set1_ps(xs[k])));
            }
            acc
        }
        let mut acc = [_mm_setzero_ps(); G];
        let full = idx.len() / G;
        for c in 0..full {
            for g in 0..G {
                let t = c * G + g;
                acc[g] = step(acc[g], &tiles[t * TILE_AREA..], idx[t], x32);
            }
        }
        let rem = idx.len() - full * G;
        for g in 0..G {
            if g < rem {
                let t = full * G + g;
                acc[g] = step(acc[g], &tiles[t * TILE_AREA..], idx[t], x32);
            }
        }
        let mut out = [[0.0f32; TILE]; G];
        for g in 0..G {
            // SAFETY: `out[g]` holds 4 `f32`s.
            unsafe { _mm_storeu_ps(out[g].as_mut_ptr(), acc[g]) };
        }
        out
    }

    /// AVX2 row-range body of [`super::rows_f64`]: the row loop and the
    /// sweep inline into one function, so each job's group accumulators
    /// stay in registers.
    #[target_feature(enable = "avx2")]
    pub(super) fn rows_f64_avx2<const G: usize>(
        a: &Mbsr,
        job_len: usize,
        rows: Range<usize>,
        xp: &[f64],
        y: &mut [f64],
    ) {
        fold_block_rows(
            a,
            job_len,
            rows,
            y,
            |v| v,
            |s, len| sweep_f64_avx2::<G>(job_tiles(&a.blc_val, s, len), &a.blc_idx[s..s + len], xp),
        );
    }

    /// AVX2 body of [`super::sweep_f64`]: one `__m256d` accumulator per
    /// group holding its 4 row chains. Each row-major tile is transposed in
    /// registers so one vector holds a k-column across the 4 rows, then
    /// multiplied by the broadcast operand value with a separate `vmulpd`
    /// and `vaddpd` (FMA would fuse the two roundings the precision model
    /// requires). Tiles are taken `G` at a time with a constant group per
    /// unrolled step, and the warp-sum tree runs lane-wise on the vectors.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(super) fn sweep_f64_avx2<const G: usize>(
        tiles: &[f64],
        idx: &[u32],
        xp: &[f64],
    ) -> [f64; TILE] {
        #[target_feature(enable = "avx2")]
        #[inline]
        fn step(acc: __m256d, tile: &[f64], bc: u32, xp: &[f64]) -> __m256d {
            let tile = &tile[..TILE_AREA];
            let xs = &xp[bc as usize * TILE..bc as usize * TILE + TILE];
            // SAFETY: `tile` holds 16 values, so rows 0..4 (4 values at
            // `4r`) are in bounds.
            let [r0, r1, r2, r3] =
                std::array::from_fn(|r| unsafe { _mm256_loadu_pd(tile.as_ptr().add(r * TILE)) });
            let t0 = _mm256_unpacklo_pd(r0, r1);
            let t1 = _mm256_unpackhi_pd(r0, r1);
            let t2 = _mm256_unpacklo_pd(r2, r3);
            let t3 = _mm256_unpackhi_pd(r2, r3);
            let cols = [
                _mm256_permute2f128_pd(t0, t2, 0x20),
                _mm256_permute2f128_pd(t1, t3, 0x20),
                _mm256_permute2f128_pd(t0, t2, 0x31),
                _mm256_permute2f128_pd(t1, t3, 0x31),
            ];
            let mut acc = acc;
            for k in 0..TILE {
                acc = _mm256_add_pd(acc, _mm256_mul_pd(cols[k], _mm256_set1_pd(xs[k])));
            }
            acc
        }
        let mut acc = [_mm256_setzero_pd(); G];
        let full = idx.len() / G;
        for c in 0..full {
            for g in 0..G {
                let t = c * G + g;
                acc[g] = step(acc[g], &tiles[t * TILE_AREA..], idx[t], xp);
            }
        }
        let rem = idx.len() - full * G;
        for g in 0..G {
            if g < rem {
                let t = full * G + g;
                acc[g] = step(acc[g], &tiles[t * TILE_AREA..], idx[t], xp);
            }
        }
        let mut n = G;
        while n > 1 {
            n /= 2;
            for i in 0..n {
                acc[i] = _mm256_add_pd(acc[i], acc[i + n]);
            }
        }
        let mut out = [0.0f64; TILE];
        // SAFETY: `out` holds 4 `f64`s.
        unsafe { _mm256_storeu_pd(out.as_mut_ptr(), acc[0]) };
        out
    }

    /// Row-major 4x4 product, one vector per output row, k-chain from zero.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn tile_matmul_f64_avx2(a: &[f64; 16], b: &[f64; 16], out: &mut [f64; 16]) {
        for i in 0..4 {
            let mut acc = _mm256_setzero_pd();
            for k in 0..4 {
                let brow = _mm256_loadu_pd(b.as_ptr().add(k * 4));
                acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_broadcast_sd(&a[i * 4 + k]), brow));
            }
            _mm256_storeu_pd(out.as_mut_ptr().add(i * 4), acc);
        }
    }

    /// [`tile_matmul_f64_avx2`] accumulating into `out` instead of starting
    /// from zero — each lane's chain visits k ascending from the existing
    /// output value, the CUDA-core tile product's order.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn tile_matmul_accum_f64_avx2(a: &[f64; 16], b: &[f64; 16], out: &mut [f64]) {
        debug_assert!(out.len() >= 16);
        for i in 0..4 {
            let mut acc = _mm256_loadu_pd(out.as_ptr().add(i * 4));
            for k in 0..4 {
                let brow = _mm256_loadu_pd(b.as_ptr().add(k * 4));
                acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_broadcast_sd(&a[i * 4 + k]), brow));
            }
            _mm256_storeu_pd(out.as_mut_ptr().add(i * 4), acc);
        }
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

    /// Row-range SpMV, native vs emulator, bitwise: both paths, several
    /// job lengths (unbounded, and splits that start jobs mid-row, where
    /// the tile image is indexed absolutely), and row ranges that start
    /// mid-matrix or end on a short last block-row.
    #[test]
    fn spmv_rows_match_simulated_bitwise() {
        for seed in 0..24u64 {
            let a = random_sparse(40 + (seed as usize % 30), 1 + (seed as usize % 8), seed);
            let m = Mbsr::from_csr(&a);
            let nrows = m.nrows();
            for prec in PRECS {
                let xp = padded_x(&m, prec, seed ^ 0xabcd);
                let (mut a32, mut x32) = (Vec::new(), Vec::new());
                Native.spmv_tile_image(prec, &m, &mut a32);
                Native.spmv_quantize_x(prec, &xp, &mut x32);
                assert_eq!(a32.is_empty(), prec == Precision::Fp64);
                for path in [SpmvPath::TensorCore, SpmvPath::CudaCore] {
                    for job_len in [usize::MAX, 1, 2, 3, 16] {
                        let mid = m.blk_rows() / 3;
                        for rows in [0..m.blk_rows(), 0..mid, mid..m.blk_rows()] {
                            let out = rows.start * TILE..(rows.end * TILE).min(nrows);
                            let mut ys = vec![f64::NAN; out.len()];
                            let mut yn = vec![f64::NAN; out.len()];
                            let r = rows.clone();
                            Simulated.spmv_rows(prec, path, &m, &[], job_len, r, &xp, &[], &mut ys);
                            Native
                                .spmv_rows(prec, path, &m, &a32, job_len, rows, &xp, &x32, &mut yn);
                            for (i, (s, n)) in ys.iter().zip(&yn).enumerate() {
                                assert_eq!(
                                    s.to_bits(),
                                    n.to_bits(),
                                    "{prec:?} {path:?} job_len {job_len} row {}",
                                    out.start + i
                                );
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
    /// of the group count.
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
            let xp: Vec<f64> = (0..n_cols * TILE)
                .map(|_| rng.gen_range(-50.0..50.0))
                .collect();
            let bits = |a: [f64; TILE]| a.map(f64::to_bits);
            assert_eq!(
                bits(sweep_f64_portable::<2>(&tiles, &idx, &xp)),
                bits(sweep_f64::<2>(&tiles, &idx, &xp)),
                "case {case}"
            );
            assert_eq!(
                bits(sweep_f64_portable::<8>(&tiles, &idx, &xp)),
                bits(sweep_f64::<8>(&tiles, &idx, &xp)),
                "case {case}"
            );
        }
    }

    /// The SIMD body of the f32 sweep and its portable body agree bit for
    /// bit (hosts with SSE2 never run the portable body otherwise).
    #[test]
    fn f32_sweep_simd_body_matches_portable() {
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
            let xp: Vec<f64> = (0..n_cols * TILE)
                .map(|_| rng.gen_range(-50.0..50.0))
                .collect();
            for cvt in [Tf32::to_f32 as fn(f64) -> f32, Half::to_f32] {
                let tiles: Vec<f32> = vals.iter().map(|&v| cvt(v)).collect();
                let x32: Vec<f32> = xp.iter().map(|&v| cvt(v)).collect();
                let p2 = sweep_f32_portable::<2>(&tiles, &idx, &x32);
                let p8 = sweep_f32_portable::<8>(&tiles, &idx, &x32);
                let s2 = sweep_f32::<2>(&tiles, &idx, 0, &x32);
                let s8 = sweep_f32::<8>(&tiles, &idx, 0, &x32);
                let bits = |a: &[[f32; TILE]]| -> Vec<u32> {
                    a.iter().flatten().map(|v| v.to_bits()).collect()
                };
                assert_eq!(bits(&p2), bits(&s2), "case {case}");
                assert_eq!(bits(&p8), bits(&s8), "case {case}");
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

    #[test]
    fn tile_products_match_simulated_bitwise() {
        let mut rng = StdRng::seed_from_u64(7);
        for case in 0..200 {
            // Sweep tile popcounts: empty, sparse, dense-16.
            let map_a: u16 = match case % 5 {
                0 => 0,
                1 => 0xffff,
                _ => rng.gen_range(0..65536u32) as u16,
            };
            let map_b: u16 = rng.gen_range(0..65536u32) as u16;
            let mk = |map: u16, rng: &mut StdRng| -> [f64; 16] {
                std::array::from_fn(|i| {
                    if map & (1 << i) != 0 {
                        rng.gen_range(-4.0..4.0)
                    } else {
                        0.0
                    }
                })
            };
            let a = mk(map_a, &mut rng);
            let b = mk(map_b, &mut rng);
            for prec in PRECS {
                let mut out_s = [0.1f64; 16].map(|v| prec.quantize(v));
                let mut out_n = out_s;
                let fs = Simulated.spgemm_cuda_tile(prec, &a, map_a, &b, map_b, &mut out_s);
                let fx = Native.spgemm_cuda_tile(prec, &a, map_a, &b, map_b, &mut out_n);
                assert_eq!(fs, fx);
                for i in 0..16 {
                    assert_eq!(out_s[i].to_bits(), out_n[i].to_bits(), "{prec:?} elem {i}");
                }
            }
        }
    }

    #[test]
    fn csr_row_and_quantize_match_simulated_bitwise() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..100 {
            let n = rng.gen_range(1..40usize);
            let cols: Vec<u32> = (0..n as u32).collect();
            let vals: Vec<f64> = (0..n).map(|_| rng.gen_range(-1e3..1e3)).collect();
            let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1e3..1e3)).collect();
            for prec in PRECS {
                let s = Simulated.csr_spmv_row(prec, &cols, &vals, &x);
                let nv = Native.csr_spmv_row(prec, &cols, &vals, &x);
                assert_eq!(s.to_bits(), nv.to_bits(), "{prec:?}");
                let mut qs = vals.clone();
                let mut qn = vals.clone();
                Simulated.quantize(prec, &mut qs);
                Native.quantize(prec, &mut qn);
                for (a, b) in qs.iter().zip(&qn) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{prec:?}");
                }
            }
        }
    }
}
