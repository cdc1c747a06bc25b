//! Runtime SIMD capability detection for the native backend.
//!
//! Detection happens once (cached); the native tile kernels consult it per
//! warp job and fall back to portable scalar code when the preferred
//! instruction set is absent. The scalar path is not a second-class
//! citizen: it computes the identical bit patterns (the SIMD kernels
//! vectorize *across independent accumulation chains* only, never inside
//! one), so CI hosts without AVX2 exercise the same contract. The FP32/
//! FP16 SpMV sweep is the exception to the detection: it uses SSE2, which
//! every x86-64 host has, and its portable body runs on other targets.

use std::sync::OnceLock;

/// The widest instruction set the native tile kernels will use on this
/// host.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdLevel {
    /// x86-64 with AVX2: 4-wide `f64` tile kernels.
    Avx2,
    /// AArch64 NEON: detected and reported; the tile kernels currently run
    /// the scalar path there (LLVM auto-vectorizes it with NEON enabled by
    /// default on AArch64).
    Neon,
    /// Portable scalar fallback.
    Scalar,
}

impl SimdLevel {
    /// Short label for reports/traces.
    pub fn label(self) -> &'static str {
        match self {
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Neon => "neon",
            SimdLevel::Scalar => "scalar",
        }
    }
}

/// Detect (once) the SIMD level of the running host.
pub fn simd_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(detect)
}

#[cfg(target_arch = "x86_64")]
fn detect() -> SimdLevel {
    if std::arch::is_x86_feature_detected!("avx2") {
        SimdLevel::Avx2
    } else {
        SimdLevel::Scalar
    }
}

#[cfg(target_arch = "aarch64")]
fn detect() -> SimdLevel {
    // NEON is an architectural requirement of AArch64.
    SimdLevel::Neon
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
fn detect() -> SimdLevel {
    SimdLevel::Scalar
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_is_stable_and_labelled() {
        let l = simd_level();
        assert_eq!(l, simd_level());
        assert!(["avx2", "neon", "scalar"].contains(&l.label()));
    }
}
