//! Compressed sparse row storage.
//!
//! CSR is the lingua franca of the AMG data flow: the input matrix arrives
//! in CSR, coarsening and the coarsest-level solve run on CSR, and the mBSR
//! structures of the AmgT kernels are converted from/to it (Figure 6 of the
//! paper). This module provides the format plus the exact reference
//! operations (matvec, matmat, transpose) used to validate the simulated
//! GPU kernels.

use std::collections::HashMap;

/// A sparse matrix in CSR format with `u32` column indices.
#[derive(Clone, Debug, PartialEq)]
pub struct Csr {
    nrows: usize,
    ncols: usize,
    /// Row pointers, length `nrows + 1`.
    pub row_ptr: Vec<usize>,
    /// Column indices, sorted ascending within each row.
    pub col_idx: Vec<u32>,
    /// Nonzero values, parallel to `col_idx`.
    pub vals: Vec<f64>,
}

impl Csr {
    /// Build from raw arrays, validating the invariants.
    ///
    /// # Panics
    /// Panics when the arrays are inconsistent (see
    /// [`Csr::check_structure`]).
    pub fn new(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        vals: Vec<f64>,
    ) -> Self {
        let a = Csr {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            vals,
        };
        if let Err(why) = a.check_structure() {
            panic!("{why}");
        }
        a
    }

    /// Build from arrays that hold [`Csr::new`]'s invariants by
    /// construction (the mBSR to CSR conversion); checked in debug builds
    /// only.
    pub(crate) fn from_valid_parts(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        vals: Vec<f64>,
    ) -> Self {
        let a = Csr {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            vals,
        };
        debug_assert_eq!(a.check_structure(), Ok(()));
        a
    }

    /// Check the structural invariants [`Csr::new`] asserts, without
    /// panicking: array lengths, row pointers that start at 0, never
    /// decrease and end at `nnz`, and strictly ascending in-range columns
    /// in every row. The public arrays can be edited after construction,
    /// so code that takes a matrix from outside checks it here.
    ///
    /// # Errors
    /// Describes the first invariant the matrix breaks.
    pub fn check_structure(&self) -> Result<(), String> {
        let (row_ptr, col_idx) = (&self.row_ptr, &self.col_idx);
        if row_ptr.len() != self.nrows + 1 {
            return Err(format!(
                "row_ptr length {} for {} rows",
                row_ptr.len(),
                self.nrows
            ));
        }
        if col_idx.len() != self.vals.len() {
            return Err(format!(
                "col/val length mismatch: {} columns, {} values",
                col_idx.len(),
                self.vals.len()
            ));
        }
        if row_ptr[0] != 0 {
            return Err(format!("row_ptr head {} is not 0", row_ptr[0]));
        }
        if row_ptr[self.nrows] != col_idx.len() {
            return Err(format!(
                "row_ptr tail {} does not match {} nonzeros",
                row_ptr[self.nrows],
                col_idx.len()
            ));
        }
        if let Some(r) = row_ptr.windows(2).position(|w| w[0] > w[1]) {
            return Err(format!("row_ptr not monotone at {r}"));
        }
        for r in 0..self.nrows {
            let row = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            if row.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("row {r} columns not strictly ascending"));
            }
            if let Some(&last) = row.last().filter(|&&c| c as usize >= self.ncols) {
                return Err(format!(
                    "row {r} column {last} out of range for {} columns",
                    self.ncols
                ));
            }
        }
        Ok(())
    }

    /// An `n x n` matrix with no nonzeros.
    pub fn zero(nrows: usize, ncols: usize) -> Self {
        Csr {
            nrows,
            ncols,
            row_ptr: vec![0; nrows + 1],
            col_idx: vec![],
            vals: vec![],
        }
    }

    /// The `n x n` identity.
    pub fn identity(n: usize) -> Self {
        Csr {
            nrows: n,
            ncols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n as u32).collect(),
            vals: vec![1.0; n],
        }
    }

    /// Build from (row, col, value) triplets; duplicates are summed and
    /// resulting explicit zeros are kept (AMG treats stored zeros as part of
    /// the pattern).
    pub fn from_triplets(nrows: usize, ncols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        let mut counts = vec![0usize; nrows + 1];
        for &(r, c, _) in triplets {
            assert!(r < nrows && c < ncols, "triplet ({r},{c}) out of range");
            counts[r + 1] += 1;
        }
        for i in 0..nrows {
            counts[i + 1] += counts[i];
        }
        let mut cols = vec![0u32; triplets.len()];
        let mut vals = vec![0.0; triplets.len()];
        let mut cursor = counts.clone();
        for &(r, c, v) in triplets {
            let p = cursor[r];
            cols[p] = c as u32;
            vals[p] = v;
            cursor[r] += 1;
        }
        // Sort each row and merge duplicates.
        let mut out_ptr = vec![0usize; nrows + 1];
        let mut out_cols = Vec::with_capacity(triplets.len());
        let mut out_vals = Vec::with_capacity(triplets.len());
        for r in 0..nrows {
            let (lo, hi) = (counts[r], counts[r + 1]);
            let mut row: Vec<(u32, f64)> = cols[lo..hi]
                .iter()
                .copied()
                .zip(vals[lo..hi].iter().copied())
                .collect();
            row.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < row.len() {
                let c = row[i].0;
                let mut v = row[i].1;
                let mut j = i + 1;
                while j < row.len() && row[j].0 == c {
                    v += row[j].1;
                    j += 1;
                }
                out_cols.push(c);
                out_vals.push(v);
                i = j;
            }
            out_ptr[r + 1] = out_cols.len();
        }
        Csr {
            nrows,
            ncols,
            row_ptr: out_ptr,
            col_idx: out_cols,
            vals: out_vals,
        }
    }

    pub fn nrows(&self) -> usize {
        self.nrows
    }

    pub fn ncols(&self) -> usize {
        self.ncols
    }

    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Columns and values of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[f64]) {
        let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
        (&self.col_idx[lo..hi], &self.vals[lo..hi])
    }

    pub fn row_nnz(&self, r: usize) -> usize {
        self.row_ptr[r + 1] - self.row_ptr[r]
    }

    /// Value at `(r, c)` if stored.
    pub fn get(&self, r: usize, c: usize) -> Option<f64> {
        let (cols, vals) = self.row(r);
        cols.binary_search(&(c as u32)).ok().map(|i| vals[i])
    }

    /// Main-diagonal entries (0.0 where absent).
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.nrows)
            .map(|r| self.get(r, r).unwrap_or(0.0))
            .collect()
    }

    /// The L1 smoother diagonal: `d_i = sum_j |a_ij|`.
    pub fn l1_diagonal(&self) -> Vec<f64> {
        (0..self.nrows)
            .map(|r| self.row(r).1.iter().map(|v| v.abs()).sum())
            .collect()
    }

    /// Exact `y = A x` (reference; kernels under test compare against it).
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols);
        (0..self.nrows)
            .map(|r| {
                let (cols, vals) = self.row(r);
                cols.iter()
                    .zip(vals)
                    .map(|(&c, &v)| v * x[c as usize])
                    .sum()
            })
            .collect()
    }

    /// Exact transpose.
    pub fn transpose(&self) -> Csr {
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.col_idx {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.ncols {
            counts[i + 1] += counts[i];
        }
        let mut cols = vec![0u32; self.nnz()];
        let mut vals = vec![0.0; self.nnz()];
        let mut cursor = counts.clone();
        for r in 0..self.nrows {
            let (rcols, rvals) = self.row(r);
            for (&c, &v) in rcols.iter().zip(rvals) {
                let p = cursor[c as usize];
                cols[p] = r as u32;
                vals[p] = v;
                cursor[c as usize] += 1;
            }
        }
        // Row-major traversal writes ascending row indices per column, so
        // the transposed rows are already sorted.
        Csr {
            nrows: self.ncols,
            ncols: self.nrows,
            row_ptr: counts,
            col_idx: cols,
            vals,
        }
    }

    /// Exact `C = A * B` with a dense-accumulator per row (reference
    /// SpGEMM used to validate the simulated kernels).
    pub fn matmul(&self, b: &Csr) -> Csr {
        assert_eq!(self.ncols, b.nrows, "inner dimension mismatch");
        let mut row_ptr = vec![0usize; self.nrows + 1];
        let mut cols: Vec<u32> = Vec::new();
        let mut vals: Vec<f64> = Vec::new();
        let mut acc: HashMap<u32, f64> = HashMap::new();
        for r in 0..self.nrows {
            acc.clear();
            let (acols, avals) = self.row(r);
            for (&k, &av) in acols.iter().zip(avals) {
                let (bcols, bvals) = b.row(k as usize);
                for (&c, &bv) in bcols.iter().zip(bvals) {
                    *acc.entry(c).or_insert(0.0) += av * bv;
                }
            }
            let mut row: Vec<(u32, f64)> = acc.iter().map(|(&c, &v)| (c, v)).collect();
            row.sort_unstable_by_key(|&(c, _)| c);
            for (c, v) in row {
                cols.push(c);
                vals.push(v);
            }
            row_ptr[r + 1] = cols.len();
        }
        Csr {
            nrows: self.nrows,
            ncols: b.ncols,
            row_ptr,
            col_idx: cols,
            vals,
        }
    }

    /// Exact sparse sum `A + B` (patterns merged).
    pub fn add(&self, other: &Csr) -> Csr {
        assert_eq!(self.nrows, other.nrows);
        assert_eq!(self.ncols, other.ncols);
        let mut row_ptr = vec![0usize; self.nrows + 1];
        let mut cols = Vec::with_capacity(self.nnz() + other.nnz());
        let mut vals = Vec::with_capacity(self.nnz() + other.nnz());
        for r in 0..self.nrows {
            let (ac, av) = self.row(r);
            let (bc, bv) = other.row(r);
            let (mut i, mut j) = (0, 0);
            while i < ac.len() || j < bc.len() {
                let ca = ac.get(i).copied().unwrap_or(u32::MAX);
                let cb = bc.get(j).copied().unwrap_or(u32::MAX);
                if ca == cb {
                    cols.push(ca);
                    vals.push(av[i] + bv[j]);
                    i += 1;
                    j += 1;
                } else if ca < cb {
                    cols.push(ca);
                    vals.push(av[i]);
                    i += 1;
                } else {
                    cols.push(cb);
                    vals.push(bv[j]);
                    j += 1;
                }
            }
            row_ptr[r + 1] = cols.len();
        }
        Csr {
            nrows: self.nrows,
            ncols: self.ncols,
            row_ptr,
            col_idx: cols,
            vals,
        }
    }

    /// Drop stored entries with `|a_ij| <= threshold` (diagonal kept).
    pub fn pruned(&self, threshold: f64) -> Csr {
        let mut row_ptr = vec![0usize; self.nrows + 1];
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        for r in 0..self.nrows {
            let (rcols, rvals) = self.row(r);
            for (&c, &v) in rcols.iter().zip(rvals) {
                if v.abs() > threshold || c as usize == r {
                    cols.push(c);
                    vals.push(v);
                }
            }
            row_ptr[r + 1] = cols.len();
        }
        Csr {
            nrows: self.nrows,
            ncols: self.ncols,
            row_ptr,
            col_idx: cols,
            vals,
        }
    }

    /// Scale row `r` by `s[r]`.
    pub fn scale_rows(&mut self, s: &[f64]) {
        assert_eq!(s.len(), self.nrows);
        for r in 0..self.nrows {
            let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
            for v in &mut self.vals[lo..hi] {
                *v *= s[r];
            }
        }
    }

    /// Frobenius norm.
    pub fn frob_norm(&self) -> f64 {
        self.vals.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Dense copy (tests / tiny matrices only).
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut d = vec![vec![0.0; self.ncols]; self.nrows];
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                d[r][c as usize] = v;
            }
        }
        d
    }

    /// Structural + numerical symmetry check within a tolerance.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        let t = self.transpose();
        if t.row_ptr != self.row_ptr || t.col_idx != self.col_idx {
            return false;
        }
        self.vals
            .iter()
            .zip(&t.vals)
            .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Maximum absolute difference against another matrix with the same
    /// dimensions (patterns may differ; missing entries count as zero).
    pub fn max_abs_diff(&self, other: &Csr) -> f64 {
        assert_eq!(self.nrows, other.nrows);
        assert_eq!(self.ncols, other.ncols);
        let mut max = 0.0f64;
        for r in 0..self.nrows {
            let (ac, av) = self.row(r);
            let (bc, bv) = other.row(r);
            let (mut i, mut j) = (0, 0);
            while i < ac.len() || j < bc.len() {
                let (ca, cb) = (
                    ac.get(i).copied().unwrap_or(u32::MAX),
                    bc.get(j).copied().unwrap_or(u32::MAX),
                );
                if ca == cb {
                    max = max.max((av[i] - bv[j]).abs());
                    i += 1;
                    j += 1;
                } else if ca < cb {
                    max = max.max(av[i].abs());
                    i += 1;
                } else {
                    max = max.max(bv[j].abs());
                    j += 1;
                }
            }
        }
        max
    }

    /// Memory footprint in bytes (row pointers + indices + values), used by
    /// the cost model to charge matrix reads.
    pub fn bytes(&self) -> f64 {
        (self.row_ptr.len() * std::mem::size_of::<usize>()
            + self.col_idx.len() * std::mem::size_of::<u32>()
            + self.vals.len() * std::mem::size_of::<f64>()) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // [ 2 -1  0  0 ]
        // [-1  2 -1  0 ]
        // [ 0 -1  2 -1 ]
        // [ 0  0 -1  2 ]
        Csr::from_triplets(
            4,
            4,
            &[
                (0, 0, 2.0),
                (0, 1, -1.0),
                (1, 0, -1.0),
                (1, 1, 2.0),
                (1, 2, -1.0),
                (2, 1, -1.0),
                (2, 2, 2.0),
                (2, 3, -1.0),
                (3, 2, -1.0),
                (3, 3, 2.0),
            ],
        )
    }

    #[test]
    fn from_triplets_sorts_and_sums_duplicates() {
        let a = Csr::from_triplets(2, 3, &[(0, 2, 1.0), (0, 0, 5.0), (0, 2, 2.0), (1, 1, -1.0)]);
        assert_eq!(a.nnz(), 3);
        assert_eq!(a.row(0).0, &[0, 2]);
        assert_eq!(a.get(0, 2), Some(3.0));
        assert_eq!(a.get(0, 1), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_triplets_rejects_out_of_range() {
        Csr::from_triplets(2, 2, &[(0, 5, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "columns not strictly ascending")]
    fn new_rejects_unsorted() {
        Csr::new(1, 3, vec![0, 2], vec![2, 1], vec![1.0, 2.0]);
    }

    #[test]
    fn check_structure_reports_edits_made_after_new() {
        assert_eq!(Csr::identity(3).check_structure(), Ok(()));
        let mut a = Csr::identity(3);
        a.col_idx[2] = 7;
        let why = a.check_structure().unwrap_err();
        assert!(why.contains("row 2 column 7 out of range"), "{why}");
        let mut a = Csr::identity(3);
        a.row_ptr[1] = 3;
        let why = a.check_structure().unwrap_err();
        assert!(why.contains("not monotone at 1"), "{why}");
        let mut a = Csr::identity(3);
        a.vals.pop();
        assert!(a.check_structure().unwrap_err().contains("col/val"));
        let mut a = Csr::identity(3);
        a.row_ptr.pop();
        assert!(a.check_structure().unwrap_err().contains("row_ptr length"));
    }

    #[test]
    fn matvec_tridiagonal() {
        let a = sample();
        let y = a.matvec(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(y, vec![0.0, 0.0, 0.0, 5.0]);
    }

    #[test]
    fn transpose_of_symmetric_is_identity_op() {
        let a = sample();
        let t = a.transpose();
        assert_eq!(a, t);
        assert!(a.is_symmetric(0.0));
    }

    #[test]
    fn transpose_rectangular() {
        let a = Csr::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)]);
        let t = a.transpose();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.ncols(), 2);
        assert_eq!(t.get(0, 0), Some(1.0));
        assert_eq!(t.get(2, 0), Some(2.0));
        assert_eq!(t.get(1, 1), Some(3.0));
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn matmul_against_dense() {
        let a = Csr::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)]);
        let b = Csr::from_triplets(3, 2, &[(0, 1, 4.0), (1, 0, 5.0), (2, 0, 6.0), (2, 1, 7.0)]);
        let c = a.matmul(&b);
        let d = c.to_dense();
        assert_eq!(d, vec![vec![12.0, 18.0], vec![15.0, 0.0]]);
    }

    #[test]
    fn matmul_identity() {
        let a = sample();
        let i = Csr::identity(4);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn diagonal_and_l1() {
        let a = sample();
        assert_eq!(a.diagonal(), vec![2.0; 4]);
        assert_eq!(a.l1_diagonal(), vec![3.0, 4.0, 4.0, 3.0]);
    }

    #[test]
    fn add_merges_patterns() {
        let a = Csr::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0)]);
        let b = Csr::from_triplets(2, 3, &[(0, 0, 10.0), (1, 1, 5.0)]);
        let c = a.add(&b);
        assert_eq!(c.get(0, 0), Some(11.0));
        assert_eq!(c.get(0, 2), Some(2.0));
        assert_eq!(c.get(1, 1), Some(5.0));
        assert_eq!(c.nnz(), 3);
        // Commutative.
        assert_eq!(b.add(&a), c);
    }

    #[test]
    fn pruned_keeps_diagonal() {
        let a = Csr::from_triplets(2, 2, &[(0, 0, 1e-12), (0, 1, 0.5), (1, 1, 2.0)]);
        let p = a.pruned(0.1);
        assert_eq!(p.get(0, 0), Some(1e-12)); // Diagonal survives pruning.
        assert_eq!(p.get(0, 1), Some(0.5));
        assert_eq!(p.nnz(), 3);
        let p2 = a.pruned(0.6);
        assert_eq!(p2.get(0, 1), None);
    }

    #[test]
    fn scale_rows_works() {
        let mut a = sample();
        a.scale_rows(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.get(1, 0), Some(-2.0));
        assert_eq!(a.get(3, 3), Some(8.0));
    }

    #[test]
    fn max_abs_diff_detects_pattern_mismatch() {
        let a = Csr::from_triplets(2, 2, &[(0, 0, 1.0)]);
        let b = Csr::from_triplets(2, 2, &[(1, 1, 2.0)]);
        assert_eq!(a.max_abs_diff(&b), 2.0);
        assert_eq!(a.max_abs_diff(&a), 0.0);
    }

    #[test]
    fn zero_and_identity() {
        let z = Csr::zero(3, 5);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.matvec(&[1.0; 5]), vec![0.0; 3]);
        let i = Csr::identity(3);
        assert_eq!(i.matvec(&[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn frob_norm() {
        let a = Csr::from_triplets(2, 2, &[(0, 0, 3.0), (1, 1, 4.0)]);
        assert_eq!(a.frob_norm(), 5.0);
    }
}
