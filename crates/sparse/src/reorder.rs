//! Symmetric permutations and reverse Cuthill-McKee bandwidth reduction.
//!
//! The paper's related work cites reordering studies for SpMV locality
//! (Trotter et al., SC'23); the mBSR format benefits directly — a
//! bandwidth-reducing permutation clusters nonzeros into fewer, denser 4x4
//! tiles, shifting more work onto the tensor path. [`rcm`] computes the
//! classic reverse Cuthill-McKee order and [`permute_symmetric`] applies
//! `P A P^T`.

use crate::csr::Csr;
use std::collections::VecDeque;

/// Compute the reverse Cuthill-McKee permutation of a square matrix's
/// symmetrized pattern. Returns `perm` with `perm[new] = old`.
pub fn rcm(a: &Csr) -> Vec<u32> {
    assert_eq!(a.nrows(), a.ncols());
    let n = a.nrows();
    // Symmetrize the adjacency (pattern of A + A^T, diagonal dropped).
    let at = a.transpose();
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for r in 0..n {
        for &c in a.row(r).0.iter().chain(at.row(r).0) {
            if c as usize != r {
                adj[r].push(c);
            }
        }
        adj[r].sort_unstable();
        adj[r].dedup();
    }
    let degree: Vec<usize> = adj.iter().map(|l| l.len()).collect();

    let mut visited = vec![false; n];
    let mut order: Vec<u32> = Vec::with_capacity(n);
    // Process each connected component from a minimum-degree seed.
    while let Some(seed) = (0..n).filter(|&i| !visited[i]).min_by_key(|&i| degree[i]) {
        visited[seed] = true;
        let mut queue = VecDeque::from([seed as u32]);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            // Neighbours in ascending-degree order (the CM rule).
            let mut nbrs: Vec<u32> = adj[u as usize]
                .iter()
                .copied()
                .filter(|&v| !visited[v as usize])
                .collect();
            nbrs.sort_by_key(|&v| degree[v as usize]);
            for v in nbrs {
                visited[v as usize] = true;
                queue.push_back(v);
            }
        }
    }
    order.reverse(); // The "reverse" in RCM.
    order
}

/// Apply a symmetric permutation: `B = P A P^T` where row `new` of `B` is
/// row `perm[new]` of `A` with columns relabelled accordingly.
pub fn permute_symmetric(a: &Csr, perm: &[u32]) -> Csr {
    let n = a.nrows();
    assert_eq!(a.ncols(), n);
    assert_eq!(perm.len(), n);
    // inverse[old] = new
    let mut inverse = vec![0u32; n];
    for (new, &old) in perm.iter().enumerate() {
        inverse[old as usize] = new as u32;
    }
    let mut trips = Vec::with_capacity(a.nnz());
    for (new, &old) in perm.iter().enumerate() {
        let (cols, vals) = a.row(old as usize);
        for (&c, &v) in cols.iter().zip(vals) {
            trips.push((new, inverse[c as usize] as usize, v));
        }
    }
    Csr::from_triplets(n, n, &trips)
}

/// A contiguous row partition of a matrix: `parts + 1` tile-aligned
/// offsets plus the balance/coupling statistics a domain decomposition
/// needs to size its halos.
#[derive(Clone, Debug, PartialEq)]
pub struct Partition {
    /// Row-range offsets, length `parts + 1`; part `p` owns rows
    /// `offsets[p]..offsets[p + 1]`. Interior cuts are multiples of 4 so
    /// mBSR tiles never straddle two parts.
    pub offsets: Vec<usize>,
    /// Stored entries whose column falls outside the owning part's row
    /// range (off-diagonal-block entries — for a square matrix, the
    /// directed graph edge cut of the partition).
    pub edge_cut: usize,
    /// Largest per-part nonzero count.
    pub max_part_nnz: usize,
    /// Mean per-part nonzero count.
    pub avg_part_nnz: f64,
}

impl Partition {
    pub fn parts(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Row range of part `p`.
    pub fn range(&self, p: usize) -> (usize, usize) {
        (self.offsets[p], self.offsets[p + 1])
    }

    /// Load-imbalance ratio `max_part_nnz / avg_part_nnz` (1.0 = perfect;
    /// 0.0 for an empty matrix).
    pub fn imbalance(&self) -> f64 {
        if self.avg_part_nnz == 0.0 {
            0.0
        } else {
            self.max_part_nnz as f64 / self.avg_part_nnz
        }
    }
}

/// Split a matrix into `parts` contiguous, tile-aligned, nonzero-balanced
/// row blocks and measure the coupling between them.
///
/// The splitter walks rows in order, cutting whenever the accumulated
/// nonzero count reaches the next balance target; each interior cut is
/// rounded up to a multiple of 4 (the mBSR tile size). Degenerate inputs
/// are well-defined: an empty matrix yields all-zero offsets, and when
/// `parts` exceeds the available tile rows the trailing parts own zero
/// rows. Rows are assumed pre-ordered for locality (e.g. by [`rcm`]); the
/// partition itself never reorders.
pub fn partition_contiguous(a: &Csr, parts: usize) -> Partition {
    assert!(parts >= 1, "need at least one part");
    let n = a.nrows();
    let total = a.nnz().max(1);
    let target = total.div_ceil(parts);
    let mut offsets = vec![0usize];
    let mut acc = 0usize;
    for r in 0..n {
        acc += a.row_nnz(r);
        if acc >= target * offsets.len() && offsets.len() < parts {
            // Align the cut to a tile boundary.
            let cut = (r + 1).next_multiple_of(4).min(n);
            if cut > *offsets.last().unwrap() {
                offsets.push(cut);
            }
        }
    }
    while offsets.len() < parts {
        offsets.push(n);
    }
    offsets.push(n);

    let mut edge_cut = 0usize;
    let mut max_part_nnz = 0usize;
    for p in 0..parts {
        let (lo, hi) = (offsets[p], offsets[p + 1]);
        let mut part_nnz = 0usize;
        for r in lo..hi {
            let (cols, _) = a.row(r);
            part_nnz += cols.len();
            edge_cut += cols
                .iter()
                .filter(|&&c| (c as usize) < lo || (c as usize) >= hi)
                .count();
        }
        max_part_nnz = max_part_nnz.max(part_nnz);
    }
    Partition {
        offsets,
        edge_cut,
        max_part_nnz,
        avg_part_nnz: a.nnz() as f64 / parts as f64,
    }
}

/// Matrix bandwidth: `max |i - j|` over stored entries.
pub fn bandwidth(a: &Csr) -> usize {
    let mut bw = 0usize;
    for r in 0..a.nrows() {
        for &c in a.row(r).0 {
            bw = bw.max(r.abs_diff(c as usize));
        }
    }
    bw
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{laplacian_2d, network_laplacian, random_sparse, Stencil2d};
    use crate::mbsr::Mbsr;

    #[test]
    fn rcm_is_a_permutation() {
        let a = network_laplacian(300, 4, 4, 2);
        let perm = rcm(&a);
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..300u32).collect::<Vec<_>>());
    }

    #[test]
    fn rcm_reduces_bandwidth_of_shuffled_grid() {
        // Shuffle a grid Laplacian with a deterministic stride permutation,
        // then check RCM recovers a small bandwidth.
        let a = laplacian_2d(20, 20, Stencil2d::Five);
        let n = a.nrows();
        let shuffle: Vec<u32> = {
            let stride = 173; // Coprime with 400.
            (0..n as u32)
                .map(|i| ((i as usize * stride) % n) as u32)
                .collect()
        };
        let shuffled = permute_symmetric(&a, &shuffle);
        assert!(
            bandwidth(&shuffled) > 100,
            "shuffle too tame: {}",
            bandwidth(&shuffled)
        );
        let perm = rcm(&shuffled);
        let restored = permute_symmetric(&shuffled, &perm);
        assert!(
            bandwidth(&restored) < bandwidth(&shuffled) / 3,
            "rcm bandwidth {} vs shuffled {}",
            bandwidth(&restored),
            bandwidth(&shuffled)
        );
    }

    #[test]
    fn permutation_preserves_spectra_proxy() {
        // Matvec against a permuted vector must commute with the permutation.
        let a = random_sparse(60, 5, 9);
        let perm = rcm(&a);
        let b = permute_symmetric(&a, &perm);
        let x: Vec<f64> = (0..60).map(|i| (i as f64 * 0.1).sin()).collect();
        // `xp[new] = x[perm[new]]`, and row `new` of `b` is row
        // `perm[new]` of `a`.
        let xp: Vec<f64> = perm.iter().map(|&old| x[old as usize]).collect();
        let y_direct = a.matvec(&x);
        let y_perm = b.matvec(&xp);
        for (new, &old) in perm.iter().enumerate() {
            assert!((y_direct[old as usize] - y_perm[new]).abs() < 1e-12);
        }
    }

    #[test]
    fn rcm_improves_tile_density_on_shuffled_matrix() {
        // The mBSR payoff: lower bandwidth -> denser tiles. (On genuinely
        // random graphs RCM cannot help much; on a scrambled mesh it
        // recovers the clustering.)
        let a = laplacian_2d(24, 24, Stencil2d::Five);
        let n = a.nrows();
        let shuffle: Vec<u32> = (0..n as u32)
            .map(|i| ((i as usize * 247) % n) as u32)
            .collect();
        let scrambled = permute_symmetric(&a, &shuffle);
        let before = Mbsr::from_csr(&scrambled).avg_nnz_per_block();
        let perm = rcm(&scrambled);
        let restored = permute_symmetric(&scrambled, &perm);
        let after = Mbsr::from_csr(&restored).avg_nnz_per_block();
        assert!(
            after > before * 1.2,
            "tile density should improve: {before:.3} -> {after:.3}"
        );
        let _ = network_laplacian(10, 3, 1, 1); // Keep the import exercised.
    }

    #[test]
    fn partition_covers_aligns_and_counts_cut() {
        let a = laplacian_2d(20, 20, Stencil2d::Five);
        let part = partition_contiguous(&a, 4);
        assert_eq!(part.offsets.len(), 5);
        assert_eq!(part.offsets[0], 0);
        assert_eq!(part.offsets[4], 400);
        for w in part.offsets.windows(2) {
            assert!(w[0] <= w[1]);
        }
        for &o in &part.offsets[1..4] {
            assert!(o % 4 == 0 || o == 400, "offset {o} not tile aligned");
        }
        // A 20-wide grid strip boundary couples ~20 rows with one neighbour
        // entry each on each side of each of the 3 cuts.
        assert!(part.edge_cut > 0, "grid partition must cut edges");
        assert!(
            part.edge_cut < a.nnz() / 4,
            "cut {} too large",
            part.edge_cut
        );
        assert!(part.imbalance() >= 1.0 && part.imbalance() < 1.5);
    }

    #[test]
    fn partition_empty_matrix() {
        let a = Csr::from_triplets(0, 0, &[]);
        let part = partition_contiguous(&a, 3);
        assert_eq!(part.offsets, vec![0, 0, 0, 0]);
        assert_eq!(part.edge_cut, 0);
        assert_eq!(part.max_part_nnz, 0);
        assert_eq!(part.imbalance(), 0.0);
    }

    #[test]
    fn partition_single_part_has_no_cut() {
        let a = laplacian_2d(7, 9, Stencil2d::Five);
        let part = partition_contiguous(&a, 1);
        assert_eq!(part.offsets, vec![0, 63]);
        assert_eq!(part.edge_cut, 0);
        assert_eq!(part.max_part_nnz, a.nnz());
        assert!((part.imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partition_more_parts_than_rows_leaves_trailing_empty() {
        let a = Csr::from_triplets(3, 3, &[(0, 0, 1.0), (1, 1, 2.0), (2, 2, 3.0)]);
        let part = partition_contiguous(&a, 8);
        assert_eq!(part.offsets.len(), 9);
        assert_eq!(*part.offsets.last().unwrap(), 3);
        // Every row is owned by exactly one part.
        for w in part.offsets.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert_eq!(part.edge_cut, 0); // Diagonal matrix: no coupling.
    }

    #[test]
    fn partition_imbalanced_matrix_reports_skew() {
        // One dense block-row band next to near-empty rows: the nnz of the
        // dense band cannot be split (contiguous rows), so one part is
        // heavy and the imbalance ratio reflects it.
        let mut trips = Vec::new();
        for c in 0..64usize {
            for r in 0..4usize {
                trips.push((r, c, 1.0));
            }
        }
        for r in 4..64usize {
            trips.push((r, r, 1.0));
        }
        let a = Csr::from_triplets(64, 64, &trips);
        let part = partition_contiguous(&a, 4);
        assert_eq!(*part.offsets.last().unwrap(), 64);
        assert!(
            part.imbalance() > 1.5,
            "expected skew, got {}",
            part.imbalance()
        );
        assert!(part.max_part_nnz >= 4 * 64);
    }

    #[test]
    fn handles_disconnected_components() {
        // Two disjoint chains.
        let mut trips = Vec::new();
        for i in 0..5usize {
            trips.push((i, i, 2.0));
            if i > 0 {
                trips.push((i, i - 1, -1.0));
                trips.push((i - 1, i, -1.0));
            }
        }
        for i in 5..10usize {
            trips.push((i, i, 2.0));
            if i > 5 {
                trips.push((i, i - 1, -1.0));
                trips.push((i - 1, i, -1.0));
            }
        }
        let a = Csr::from_triplets(10, 10, &trips);
        let perm = rcm(&a);
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10u32).collect::<Vec<_>>());
    }
}
