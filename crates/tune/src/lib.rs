//! `amgt-tune` — measurement-driven kernel-policy autotuning.
//!
//! The AmgT kernels dispatch on a handful of hand-picked constants (the
//! `popcount >= 10` tensor-core cutoff, the SpMV variation / blocks-per-warp
//! schedule, the `128 * 2^k` SpGEMM bins, the mixed-precision level
//! boundaries — see `amgt_kernels::policy`). This crate replaces "one fixed
//! configuration for every matrix" with a budgeted per-matrix search:
//!
//! 1. [`MatrixFeatures`] extracts the structural quantities those
//!    heuristics key off from the mBSR image;
//! 2. [`PolicySpace::for_features`] scopes a discrete candidate space
//!    around the paper defaults;
//! 3. [`search()`] runs coordinate descent + random restarts, scoring each
//!    candidate with the deterministic `amgt-sim` cost model on the real
//!    matrix ([`simulated_total_seconds`]);
//! 4. [`PolicyStore`] persists winners keyed by the structural fingerprint,
//!    so a re-tune of a known system is a cache hit with zero search
//!    evaluations — and `amgt-server` can adopt tuned policies on the same
//!    key.
//!
//! The paper default is always scored first, and the result is the argmin
//! over everything scored: **a tuned policy can never be slower than the
//! default under the simulated clock**.

pub mod features;
pub mod score;
pub mod search;
pub mod store;

pub use features::MatrixFeatures;
pub use score::simulated_total_seconds;
pub use search::{search, PolicySpace, SearchOutcome, TuneBudget, N_AXES};
pub use store::{hex64, parse_policy, PolicyKey, PolicyStore, StoredPolicy, STORE_SCHEMA_VERSION};

use amgt::{AmgConfig, PrecisionPolicy};
use amgt_kernels::KernelPolicy;
use amgt_sim::GpuSpec;
use amgt_sparse::fingerprint::{of_csr, Fnv};
use amgt_sparse::Csr;

/// The outcome of [`tune`]: the selected policy plus provenance.
#[derive(Clone, Debug)]
pub struct TuneResult {
    pub policy: KernelPolicy,
    /// Simulated seconds under `policy`.
    pub score: f64,
    /// Simulated seconds under the paper default.
    pub default_score: f64,
    /// Search evaluations performed (0 on a policy-cache hit).
    pub evaluations: usize,
    /// Whether the policy came from the persistent cache.
    pub from_cache: bool,
}

impl TuneResult {
    /// `default_score / score` — 1.0 means "the default already wins".
    pub fn predicted_speedup(&self) -> f64 {
        if self.score > 0.0 {
            self.default_score / self.score
        } else {
            1.0
        }
    }
}

/// Flatten a [`KernelPolicy`] into the trace layer's
/// [`PolicyNote`](amgt_trace::PolicyNote), for attachment to a
/// [`amgt_trace::Recording`] via `Recorder::set_policy`.
pub fn policy_note(
    source: &str,
    predicted_speedup: f64,
    policy: KernelPolicy,
) -> amgt_trace::PolicyNote {
    let param = |name: &str, value: f64| amgt_trace::PolicyParam {
        name: name.to_string(),
        value,
    };
    amgt_trace::PolicyNote {
        source: source.to_string(),
        predicted_speedup,
        params: vec![
            param(
                "tc_popcount_threshold",
                f64::from(policy.tc_popcount_threshold),
            ),
            param("spmv_variation_threshold", policy.spmv_variation_threshold),
            param("spmv_warp_capacity", policy.spmv_warp_capacity as f64),
            param("spgemm_bin_base", policy.spgemm_bin_base as f64),
            param("spgemm_bin_count", policy.spgemm_bin_count as f64),
            param("mixed_fp32_level", policy.mixed_fp32_level as f64),
            param("mixed_fp16_level", policy.mixed_fp16_level as f64),
        ],
    }
}

/// Cache key for tuning `a` with `cfg` on `spec`.
///
/// Structure comes from the shared fingerprint; the configuration hash is
/// computed with the policy field normalized to the paper default, since
/// the policy is the output of tuning rather than part of its identity.
pub fn policy_key(a: &Csr, spec: &GpuSpec, cfg: &AmgConfig) -> PolicyKey {
    let fp = of_csr(a);
    let mut normalized = cfg.clone();
    normalized.policy = KernelPolicy::paper_default();
    let mut h = Fnv::new();
    h.write_bytes(format!("{normalized:?}").as_bytes());
    PolicyKey {
        nrows: fp.nrows,
        ncols: fp.ncols,
        nnz: fp.nnz,
        structure_hash: hex64(fp.structure_hash),
        gpu: spec.name.to_string(),
        config_hash: hex64(h.finish()),
    }
}

/// Tune the kernel policy for one system, consulting and updating `store`.
///
/// On a cache hit the stored policy is returned with zero evaluations. On a
/// miss the budgeted search runs against the simulated cost model and the
/// winner is inserted into `store` (the caller decides when to
/// [`PolicyStore::save`]). Either way `result.score <= result.default_score`.
pub fn tune(
    spec: &GpuSpec,
    cfg: &AmgConfig,
    a: &Csr,
    budget: &TuneBudget,
    store: &mut PolicyStore,
) -> TuneResult {
    let key = policy_key(a, spec, cfg);
    if let Some(hit) = store.lookup(&key) {
        return TuneResult {
            policy: hit.policy,
            score: hit.score,
            default_score: hit.default_score,
            evaluations: 0,
            from_cache: true,
        };
    }
    let features = MatrixFeatures::extract(a);
    let space = PolicySpace::for_features(&features, cfg.precision == PrecisionPolicy::Mixed);
    let outcome = search(&space, budget, |policy| {
        simulated_total_seconds(spec, cfg, a, policy)
    });
    store.insert(StoredPolicy {
        key,
        policy: outcome.policy,
        score: outcome.score,
        default_score: outcome.default_score,
        evaluations: outcome.evaluations,
    });
    TuneResult {
        policy: outcome.policy,
        score: outcome.score,
        default_score: outcome.default_score,
        evaluations: outcome.evaluations,
        from_cache: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amgt_sim::GpuSpec;
    use amgt_sparse::gen::{laplacian_2d, Stencil2d};

    fn quick_cfg() -> AmgConfig {
        let mut cfg = AmgConfig::amgt_fp64();
        cfg.max_iterations = 4;
        cfg
    }

    fn quick_budget() -> TuneBudget {
        TuneBudget {
            max_evaluations: 8,
            restarts: 1,
            seed: 3,
        }
    }

    #[test]
    fn tune_never_regresses_and_caches() {
        let a = laplacian_2d(24, 24, Stencil2d::Five);
        let cfg = quick_cfg();
        let spec = GpuSpec::a100();
        let mut store = PolicyStore::in_memory();
        let first = tune(&spec, &cfg, &a, &quick_budget(), &mut store);
        assert!(!first.from_cache);
        assert!(first.evaluations >= 1);
        assert!(first.score <= first.default_score, "never regress");
        assert!(first.predicted_speedup() >= 1.0);

        // Second run: pure cache hit, zero evaluations, identical policy.
        let second = tune(&spec, &cfg, &a, &quick_budget(), &mut store);
        assert!(second.from_cache);
        assert_eq!(second.evaluations, 0);
        assert_eq!(second.policy, first.policy);
        assert_eq!(second.score, first.score);
    }

    #[test]
    fn key_separates_gpus_and_configs_but_not_policy() {
        let a = laplacian_2d(16, 16, Stencil2d::Five);
        let cfg = quick_cfg();
        let k_a100 = policy_key(&a, &GpuSpec::a100(), &cfg);
        let k_h100 = policy_key(&a, &GpuSpec::h100(), &cfg);
        assert_ne!(k_a100, k_h100);

        let mut other = cfg.clone();
        other.max_iterations += 1;
        assert_ne!(policy_key(&a, &GpuSpec::a100(), &other), k_a100);

        // The policy field must NOT change the key: it is the output.
        let mut tuned = cfg.clone();
        tuned.policy.tc_popcount_threshold = 5;
        assert_eq!(policy_key(&a, &GpuSpec::a100(), &tuned), k_a100);
    }
}
