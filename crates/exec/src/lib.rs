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
//!   the host: fork-join (rayon) parallelism across warp jobs and block
//!   rows, `std::arch` SIMD for the 4x4 tile kernels (runtime AVX2
//!   detection with a scalar fallback, see [`simd`]), and reduced-precision
//!   rounding that reuses the bit-exact [`amgt_sim::F16`] / TF32
//!   conversions.
//!
//! **The contract is bitwise equality.** For every backend method, both
//! implementations must produce identical `f64` bit patterns at every
//! [`Precision`] — the native path is a *reformulation* of the emulated
//! arithmetic (see the per-method notes in [`native`] for the proofs), not
//! an approximation of it. Kernel-side operation counters (mma issues,
//! flops, nonempty tile rows) are part of the contract too, so the
//! simulated-GPU charges are independent of the backend that ran.
//!
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
use amgt_sparse::Mbsr;
use serde::{Deserialize, Serialize};

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

/// One execution backend: the warp- and tile-granular compute steps every
/// mBSR kernel is built from, plus the CSR row product the vendor baseline
/// uses and the storage-precision quantization pass ("convert").
///
/// All methods are pure with respect to the backend (no internal state), so
/// a `&'static` instance is shared freely across threads.
pub trait ExecBackend: Send + Sync {
    /// Backend name for reports/traces (`"sim"` or `"native"`).
    fn name(&self) -> &'static str;

    /// Precompute the reduced-precision image of a padded SpMV operand for
    /// repeated warp calls over it: fills `x32` with exactly the per-element
    /// input rounding the backend's warp kernels apply (TF32/F16 to `f32`),
    /// or clears it when the backend needs no such image (the emulator, or
    /// FP64 where inputs pass through unrounded).
    fn spmv_quantize_x(&self, prec: Precision, xp: &[f64], x32: &mut Vec<f32>) {
        let _ = (prec, xp);
        x32.clear();
    }

    /// Build the reduced-precision value image of the SpMV operand `a` for
    /// warp calls at `prec`: each tile's 16 values rounded once through the
    /// warp kernels' input conversion, stored column-major within the tile
    /// (see [`native`]). Cleared when the backend needs no image (the
    /// emulator, or FP64). Built once per matrix by the SpMV preprocessing,
    /// so the per-call kernels never convert a matrix value.
    fn spmv_tile_image(&self, prec: Precision, a: &Mbsr, a32: &mut Vec<f32>) {
        let _ = (prec, a);
        a32.clear();
    }

    /// One tensor-core SpMV warp (Algorithm 5, dense path): process the
    /// contiguous tile range `[start, start + len)` of `a` against the
    /// padded operand `xp`, two tiles per `mma`. `a32` and `x32` are the
    /// images from [`ExecBackend::spmv_tile_image`] and
    /// [`ExecBackend::spmv_quantize_x`] at `prec` (a backend that built
    /// none ignores them). Operands must pass [`operand_is_finite`]: the
    /// native kernels are bitwise-exact only for finite operands, so
    /// callers route any other operand through the emulator. Returns the
    /// block-row's 4 partial sums and the number of `mma` instructions
    /// issued.
    #[allow(clippy::too_many_arguments)]
    fn spmv_tc_warp(
        &self,
        prec: Precision,
        a: &Mbsr,
        a32: &[f32],
        start: usize,
        len: usize,
        xp: &[f64],
        x32: &[f32],
    ) -> ([f64; 4], u64);

    /// One CUDA-core SpMV warp (Algorithm 5, sparse path): four lanes per
    /// tile guided by the bitmap, then the grouped warp sum. Images and
    /// operand as in [`ExecBackend::spmv_tc_warp`]. Returns the 4 partial
    /// sums, the flop count, and the nonempty tile rows touched.
    #[allow(clippy::too_many_arguments)]
    fn spmv_cuda_warp(
        &self,
        prec: Precision,
        a: &Mbsr,
        a32: &[f32],
        start: usize,
        len: usize,
        xp: &[f64],
        x32: &[f32],
    ) -> ([f64; 4], u64, u64);

    /// One SpGEMM tensor-core step: multiply `a_tile` by one or two valid
    /// B tiles and accumulate bitmap + values into the C block-row
    /// (`c_map`/`c_val` are that row's slices; positions outside the
    /// accumulated bitmap are forced back to exact zero). `targets` holds
    /// at most 2 `(b_pos, slot, map_c)` triples: the B tile, the C slot
    /// the kernel resolved for its block column, and the product bitmap.
    fn spgemm_tc_mma(
        &self,
        prec: Precision,
        a_tile: &[f64; 16],
        b: &Mbsr,
        c_map: &mut [u16],
        c_val: &mut [f64],
        targets: &[(usize, usize, u16)],
    );

    /// One SpGEMM CUDA-core tile product accumulating into `out` (16
    /// values), visiting bitmap positions only. Returns the flops done.
    fn spgemm_cuda_tile(
        &self,
        prec: Precision,
        a_tile: &[f64; 16],
        map_a: u16,
        b_tile: &[f64; 16],
        map_b: u16,
        out: &mut [f64],
    ) -> u64;

    /// One vendor CSR SpMV row: the sequential quantize-multiply-accumulate
    /// chain over a row's nonzeros. Returns the rounded row result.
    fn csr_spmv_row(&self, prec: Precision, cols: &[u32], vals: &[f64], x: &[f64]) -> f64;

    /// Quantize values to their storage precision in place (the value side
    /// of the format-conversion kernels; identity at FP64).
    fn quantize(&self, prec: Precision, values: &mut [f64]);
}

/// Smallest magnitude TF32 input rounding sends to infinity: halfway
/// between the largest finite TF32 value `(2 - 2^-10) * 2^127` and `2^128`
/// (that value's significand is odd, so the tie itself rounds up).
const TF32_OVERFLOW: f64 = (2.0 - 1.0 / 2048.0) * 1.7014118346046923e38;

/// Whether the warp kernels' input rounding at `prec` of the quantized
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
