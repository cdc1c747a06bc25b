//! Structural fingerprints of sparse matrices.
//!
//! AMG setup (strength graph, PMIS, extended+i, RAP) depends on the
//! *sparsity structure* of `A`; the numeric values only enter the Galerkin
//! products and smoother diagonals. Consumers therefore key derived state —
//! the server's hierarchy cache, the tuner's policy cache — by a structural
//! [`Fingerprint`]: dimensions, nnz and a hash over the CSR pattern
//! (`row_ptr` / `col_idx`, which determines the mBSR block structure), with
//! a separate [`value_hash`] over the numeric bits so a repeat solve can
//! distinguish "same system" from "same pattern, new values". Both hashes
//! run on the submitting thread of the solve service, so they fold whole
//! 64-bit words through independent lanes (`WordHash`) rather than
//! hashing bytes one at a time.

use crate::Csr;

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
    /// Four-lane word hash over the CSR pattern (row pointers, then column
    /// indices). A CSR pattern determines its mBSR block structure (tile
    /// counts, block columns, bitmaps) and vice versa.
    pub structure_hash: u64,
}

/// Independent multiply–rotate lanes over 64-bit words.
///
/// Word `i` of a slice goes to lane `i % LANES`, whose state is updated
/// as `rotl(state + w * P2, 31) * P1`. For a fixed word that step is a
/// bijection of the state (add, rotate, multiply by an odd constant), and
/// for a fixed state it is a bijection of the word, so changing any one
/// word changes that lane's final state. [`WordHash::finish`] folds the
/// lanes and the word count through a bijective avalanche one after
/// another, so a change in one lane always reaches the result. The lanes
/// have no dependence on each other, so the loop runs at several words
/// per multiply latency.
#[derive(Clone, Copy, Debug)]
struct WordHash {
    lanes: [u64; LANES],
    words: u64,
}

const LANES: usize = 4;
const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
/// Distinct seeds keep a pattern hash from equalling a value hash.
const STRUCTURE_SEED: u64 = 0x243f_6a88_85a3_08d3;
const VALUE_SEED: u64 = 0x1319_8a2e_0370_7344;

impl WordHash {
    fn new(seed: u64) -> Self {
        WordHash {
            lanes: std::array::from_fn(|l| seed ^ P1.wrapping_mul(l as u64 + 1)),
            words: 0,
        }
    }

    #[inline(always)]
    fn round(state: u64, word: u64) -> u64 {
        state
            .wrapping_add(word.wrapping_mul(P2))
            .rotate_left(31)
            .wrapping_mul(P1)
    }

    /// Fold every element of `s`, as the word `word(v)`.
    fn write<T: Copy>(&mut self, s: &[T], word: impl Fn(T) -> u64) {
        let blocks = s.chunks_exact(LANES);
        let tail = blocks.remainder();
        for b in blocks {
            for l in 0..LANES {
                self.lanes[l] = Self::round(self.lanes[l], word(b[l]));
            }
        }
        for (l, &v) in tail.iter().enumerate() {
            self.lanes[l] = Self::round(self.lanes[l], word(v));
        }
        self.words += s.len() as u64;
    }

    fn finish(&self) -> u64 {
        let mut h = avalanche(self.words);
        for &lane in &self.lanes {
            h = avalanche(h ^ lane);
        }
        h
    }
}

/// The SplitMix64 finalizer: a bijection of `u64` that spreads every
/// input bit over the whole word.
#[inline]
fn avalanche(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fingerprint of a CSR matrix: a `WordHash` over its row pointers and
/// column indices. Matrices with equal patterns share it whatever their
/// values.
pub fn of_csr(a: &Csr) -> Fingerprint {
    let mut h = WordHash::new(STRUCTURE_SEED);
    h.write(&a.row_ptr, |p| p as u64);
    h.write(&a.col_idx, u64::from);
    Fingerprint {
        nrows: a.nrows(),
        ncols: a.ncols(),
        nnz: a.nnz(),
        structure_hash: h.finish(),
    }
}

/// Hash of the numeric content (bit-exact over the stored values).
pub fn value_hash(a: &Csr) -> u64 {
    let mut h = WordHash::new(VALUE_SEED);
    h.write(&a.vals, f64::to_bits);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{elasticity_3d, laplacian_2d, random_sparse, NeighborSet, Stencil2d};

    fn corpus() -> [Csr; 4] {
        [
            laplacian_2d(13, 17, Stencil2d::Five),
            laplacian_2d(10, 10, Stencil2d::Nine),
            elasticity_3d(3, 3, 3, 4, NeighborSet::Face, 5),
            random_sparse(93, 6, 42),
        ]
    }

    /// Every single-bit flip of a sample of stored values (every lane and
    /// the tail of the last block) changes the value hash.
    #[test]
    fn single_bit_flips_change_value_hash() {
        for a in corpus() {
            let base = value_hash(&a);
            let n = a.vals.len();
            for i in [0, 1, 2, 3, n / 2, n - 2, n - 1] {
                for bit in 0..64 {
                    let mut b = a.clone();
                    b.vals[i] = f64::from_bits(b.vals[i].to_bits() ^ (1 << bit));
                    assert_ne!(value_hash(&b), base, "value {i} bit {bit}");
                }
            }
        }
    }

    /// Swapping two unequal values changes the value hash, within one lane
    /// and across lanes.
    #[test]
    fn swapping_unequal_values_changes_value_hash() {
        for a in corpus() {
            let base = value_hash(&a);
            let n = a.vals.len();
            let mut swapped = 0;
            for (i, j) in [(0, 4), (0, 1), (1, n - 1), (n / 3, n / 2), (5, 13)] {
                if a.vals[i] == a.vals[j] {
                    continue;
                }
                let mut b = a.clone();
                b.vals.swap(i, j);
                assert_ne!(value_hash(&b), base, "swap {i} {j}");
                swapped += 1;
            }
            assert!(swapped >= 2, "the corpus must have unequal values to swap");
        }
    }

    /// Moving one column index within its row (to a free column, keeping
    /// the row sorted) changes the structural fingerprint.
    #[test]
    fn moving_a_column_index_changes_fingerprint() {
        for a in corpus() {
            let base = of_csr(&a);
            let mut moved = 0;
            for r in [0, a.nrows() / 2, a.nrows() - 1] {
                let (lo, hi) = (a.row_ptr[r], a.row_ptr[r + 1]);
                if hi == lo {
                    continue;
                }
                // The row's last entry, moved one column right (a free
                // column, and the row stays sorted).
                let (k, c) = (hi - 1, a.col_idx[hi - 1] + 1);
                if c as usize >= a.ncols() {
                    continue;
                }
                let mut b = a.clone();
                b.col_idx[k] = c;
                assert_eq!(b.nnz(), a.nnz());
                assert_ne!(of_csr(&b), base, "row {r}");
                moved += 1;
            }
            assert!(moved >= 1);
        }
    }

    #[test]
    fn same_structure_different_values_share_fingerprint() {
        for a in corpus() {
            let mut b = a.clone();
            for v in b.vals.iter_mut() {
                *v *= 1.5;
            }
            assert_eq!(of_csr(&a), of_csr(&b));
            assert_ne!(value_hash(&a), value_hash(&b));
        }
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
