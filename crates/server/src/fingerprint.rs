//! Structural fingerprints for hierarchy caching.
//!
//! The structural [`Fingerprint`] itself (dims, nnz, CSR pattern hash)
//! lives in [`amgt_sparse::fingerprint`] so other consumers — notably the
//! `amgt-tune` policy cache — can share the exact same key. This module
//! re-exports it and adds the server-side [`config_hash`]: hierarchies may
//! be shared between requests only when both the structure and the solver
//! configuration agree.

pub use amgt_sparse::fingerprint::{of_csr, value_hash, Fingerprint};

use amgt_sparse::fingerprint::Fnv;

/// Hash of a solver configuration. Two requests may share a cached
/// hierarchy (or a batch) only if their configurations agree; the derive'd
/// `Debug` rendering covers every field (including the kernel policy), so
/// any config change alters the hash.
pub fn config_hash(cfg: &amgt::AmgConfig) -> u64 {
    let mut h = Fnv::new();
    h.write_bytes(format!("{cfg:?}").as_bytes());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_hash_tracks_every_field() {
        let base = amgt::AmgConfig::amgt_fp64();
        let mut tol = base.clone();
        tol.tolerance = 1e-3;
        let mut iters = base.clone();
        iters.max_iterations = 7;
        assert_eq!(config_hash(&base), config_hash(&base.clone()));
        assert_ne!(config_hash(&base), config_hash(&tol));
        assert_ne!(config_hash(&base), config_hash(&iters));
    }

    #[test]
    fn config_hash_tracks_kernel_policy() {
        let base = amgt::AmgConfig::amgt_fp64();
        let mut tuned = base.clone();
        tuned.policy.tc_popcount_threshold = 7;
        assert_ne!(config_hash(&base), config_hash(&tuned));
    }
}
