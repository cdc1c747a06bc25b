//! Structural fingerprints of sparse matrices.
//!
//! AMG setup (strength graph, PMIS, extended+i, RAP) depends on the
//! *sparsity structure* of `A`; the numeric values only enter the Galerkin
//! products and smoother diagonals. Consumers therefore key derived state —
//! the server's hierarchy cache, the tuner's policy cache — by a structural
//! [`Fingerprint`]: dimensions, nnz and a hash over the mBSR block
//! structure (`blc_ptr` / `blc_idx` / `blc_map`), with a separate
//! [`value_hash`] over the numeric bits so a repeat solve can distinguish
//! "same system" from "same pattern, new values".

use crate::bitmap::TILE;
use crate::mbsr::TileMerge;
use crate::{Csr, Mbsr};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1_0000_0000_01b3;

/// Incremental FNV-1a over little-endian words.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// Structural identity of a system matrix: what the setup phase depends on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Fingerprint {
    pub nrows: usize,
    pub ncols: usize,
    pub nnz: usize,
    /// FNV-1a over the mBSR block structure (tile counts per block-row,
    /// block-column indices, nonzero bitmaps).
    pub structure_hash: u64,
}

/// Fingerprint of an already-converted mBSR matrix.
pub fn of_mbsr(m: &Mbsr) -> Fingerprint {
    let mut h = Fnv::new();
    for br in 0..m.blk_rows() {
        let (start, end) = (m.blc_ptr[br], m.blc_ptr[br + 1]);
        h.write_u64((end - start) as u64);
        for pos in start..end {
            h.write_u64(u64::from(m.blc_idx[pos]));
            h.write_u64(u64::from(m.blc_map[pos]));
        }
    }
    Fingerprint {
        nrows: m.nrows(),
        ncols: m.ncols(),
        nnz: m.blc_map.iter().map(|&b| b.count_ones() as usize).sum(),
        structure_hash: h.finish(),
    }
}

/// Fingerprint of a CSR matrix, computed *without* materializing the mBSR
/// image: each block-row's tiles come from the same [`TileMerge`] that
/// `Mbsr::from_csr` uses (once to count them, once to hash them), so
/// `of_csr(a) == of_mbsr(&Mbsr::from_csr(a))` for every matrix.
pub fn of_csr(a: &Csr) -> Fingerprint {
    let mut h = Fnv::new();
    for br in 0..a.nrows().div_ceil(TILE) {
        h.write_u64(TileMerge::new(a, br).count() as u64);
        let mut tiles = TileMerge::new(a, br);
        while let Some((bc, map)) = tiles.next_tile(|_, _| {}) {
            h.write_u64(u64::from(bc));
            h.write_u64(u64::from(map));
        }
    }
    Fingerprint {
        nrows: a.nrows(),
        ncols: a.ncols(),
        nnz: a.nnz(),
        structure_hash: h.finish(),
    }
}

/// Hash of the numeric content (bit-exact over the stored values).
pub fn value_hash(a: &Csr) -> u64 {
    let mut h = Fnv::new();
    for &v in &a.vals {
        h.write_u64(v.to_bits());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{elasticity_3d, laplacian_2d, random_sparse, NeighborSet, Stencil2d};

    #[test]
    fn csr_and_mbsr_fingerprints_agree() {
        for a in [
            laplacian_2d(13, 17, Stencil2d::Five),
            laplacian_2d(10, 10, Stencil2d::Nine),
            elasticity_3d(3, 3, 3, 4, NeighborSet::Face, 5),
            random_sparse(93, 6, 42),
        ] {
            let fp_csr = of_csr(&a);
            let fp_mbsr = of_mbsr(&Mbsr::from_csr(&a));
            assert_eq!(fp_csr, fp_mbsr);
        }
    }

    #[test]
    fn same_structure_different_values_share_fingerprint() {
        let a = laplacian_2d(12, 12, Stencil2d::Five);
        let mut b = a.clone();
        for v in b.vals.iter_mut() {
            *v *= 1.5;
        }
        assert_eq!(of_csr(&a), of_csr(&b));
        assert_ne!(value_hash(&a), value_hash(&b));
    }

    #[test]
    fn perturbed_sparsity_changes_fingerprint() {
        let a = laplacian_2d(12, 12, Stencil2d::Five);
        // Same dims, same nnz COUNT, one entry moved to a new position.
        let mut triplets: Vec<(usize, usize, f64)> = Vec::new();
        for r in 0..a.nrows() {
            let (cols, vals) = a.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                triplets.push((r, c as usize, v));
            }
        }
        let (r0, c0, v0) = triplets[0];
        let moved = (r0, (c0 + 2) % a.ncols(), v0);
        assert!(a.get(moved.0, moved.1).is_none(), "pick an empty slot");
        triplets[0] = moved;
        let b = Csr::from_triplets(a.nrows(), a.ncols(), &triplets);
        assert_eq!(a.nnz(), b.nnz());
        assert_ne!(of_csr(&a), of_csr(&b));
    }
}
